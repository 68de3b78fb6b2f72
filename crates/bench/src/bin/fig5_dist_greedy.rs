//! Figure 5 — segment utilization distributions with the greedy cleaner.
//!
//! Distributions are "computed by measuring the utilizations of all
//! segments on the disk at the points during the simulation when segment
//! cleaning was initiated", at 75% overall disk capacity utilization.
//! With locality ("hot-and-cold") the distribution skews toward the
//! cleaning point: cold segments linger just above it.

use cleaner_sim::{sweep, AccessPattern, Policy, SimConfig};
use lfs_bench::{append_jsonl, smoke_mode, Table};

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    println!("Figure 5: segment utilization distributions, greedy cleaner, 75% disk util\n");
    let base = if smoke {
        SimConfig {
            nsegments: 60,
            blocks_per_segment: 64,
            clean_target: 8,
            segs_per_pass: 4,
            ..SimConfig::default_at(0.75)
        }
    } else {
        SimConfig::default_at(0.75)
    };

    let mut uniform_cfg = base;
    uniform_cfg.policy = Policy::Greedy;

    let mut hc_cfg = base;
    hc_cfg.policy = Policy::Greedy;
    hc_cfg.pattern = AccessPattern::hot_cold_default();
    hc_cfg.age_sort = true;

    // Both curves are independent points; run them through the sweep.
    let results = sweep::stabilise(&[uniform_cfg, hc_cfg]);
    let (uniform, hotcold) = (&results[0], &results[1]);

    let mut table = Table::new(&["segment utilization", "Uniform", "Hot-and-cold"]);
    let uf = uniform.cleaning_histogram.fractions();
    let hf = hotcold.cleaning_histogram.fractions();
    for (u, h) in uf.iter().zip(&hf) {
        table.row(vec![
            format!("{:.2}", u.0),
            format!("{:.4}", u.1),
            format!("{:.4}", h.1),
        ]);
        append_jsonl(
            "fig5",
            &serde_json::json!({"u": u.0, "uniform": u.1, "hot_and_cold": h.1}),
        );
    }
    table.print();
    println!(
        "\nExpected shape (paper): hot-and-cold mass is more tightly clustered\n\
         just above the cleaning threshold than uniform — cold segments tie up\n\
         free space for long periods."
    );
    lfs_bench::finish()
}
