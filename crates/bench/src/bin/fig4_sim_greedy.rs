//! Figure 4 — initial simulation results.
//!
//! Write cost vs overall disk capacity utilization for:
//! - "No variance": formula (1) applied to the overall utilization;
//! - "LFS uniform": uniform access, greedy cleaning;
//! - "LFS hot-and-cold": 90%-to-10% locality, greedy cleaning with live
//!   blocks sorted by age — the surprising result that locality makes
//!   greedy cleaning *worse*.

use cleaner_sim::{
    sweep, write_cost_formula, AccessPattern, Policy, SimConfig, FFS_IMPROVED_WRITE_COST,
    FFS_TODAY_WRITE_COST,
};
use lfs_bench::{append_jsonl, smoke_mode, Table};

fn config(util: f64, hot_cold: bool, smoke: bool) -> SimConfig {
    let mut cfg = if smoke {
        SimConfig {
            nsegments: 60,
            blocks_per_segment: 64,
            clean_target: 8,
            segs_per_pass: 4,
            ..SimConfig::default_at(util)
        }
    } else {
        SimConfig::default_at(util)
    };
    cfg.policy = Policy::Greedy;
    if hot_cold {
        cfg.pattern = AccessPattern::hot_cold_default();
        cfg.age_sort = true;
    }
    cfg
}

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    println!("Figure 4: initial simulation results (greedy cleaning)\n");
    let utils: Vec<f64> = if smoke {
        vec![0.3, 0.6, 0.8]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9]
    };
    let mut table = Table::new(&[
        "disk util",
        "No variance",
        "LFS uniform",
        "LFS hot-and-cold",
        "FFS today",
        "FFS improved",
    ]);
    // Two independent points per utilization; the sweep runs them all
    // across threads and hands results back in input order.
    let points: Vec<SimConfig> = utils
        .iter()
        .flat_map(|&u| [config(u, false, smoke), config(u, true, smoke)])
        .collect();
    let results = sweep::stabilise(&points);
    for (i, &u) in utils.iter().enumerate() {
        let uniform = &results[2 * i];
        let hotcold = &results[2 * i + 1];
        table.row(vec![
            format!("{u:.2}"),
            format!("{:.2}", write_cost_formula(u)),
            format!("{:.2}", uniform.write_cost),
            format!("{:.2}", hotcold.write_cost),
            format!("{FFS_TODAY_WRITE_COST:.1}"),
            format!("{FFS_IMPROVED_WRITE_COST:.1}"),
        ]);
        append_jsonl(
            "fig4",
            &serde_json::json!({
                "util": u,
                "no_variance": write_cost_formula(u),
                "uniform": uniform.write_cost,
                "hot_and_cold": hotcold.write_cost,
            }),
        );
    }
    table.print();
    println!(
        "\nExpected shape (paper): both curves below the no-variance line;\n\
         hot-and-cold *above* uniform — locality makes greedy cleaning worse."
    );
    lfs_bench::finish()
}
