//! Figure 7 — write cost including the cost-benefit policy.
//!
//! Hot-and-cold access; compares greedy against cost-benefit selection
//! across disk capacity utilizations. "The cost-benefit policy is
//! substantially better than the greedy policy, particularly for disk
//! capacity utilizations above 60%."

use cleaner_sim::{
    sweep, write_cost_formula, AccessPattern, Policy, SimConfig, FFS_IMPROVED_WRITE_COST,
    FFS_TODAY_WRITE_COST,
};
use lfs_bench::{append_jsonl, smoke_mode, Table};

fn config(util: f64, policy: Policy, smoke: bool) -> SimConfig {
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
    cfg.pattern = AccessPattern::hot_cold_default();
    cfg.age_sort = true;
    cfg.policy = policy;
    cfg
}

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    println!("Figure 7: write cost, greedy vs cost-benefit (hot-and-cold)\n");
    let utils: Vec<f64> = if smoke {
        vec![0.45, 0.75, 0.85]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9]
    };
    let mut table = Table::new(&[
        "disk util",
        "No variance",
        "LFS Greedy",
        "LFS Cost-Benefit",
        "FFS today",
        "FFS improved",
    ]);
    // Two independent points per utilization; the sweep runs them all
    // across threads and hands results back in input order.
    let points: Vec<SimConfig> = utils
        .iter()
        .flat_map(|&u| {
            [
                config(u, Policy::Greedy, smoke),
                config(u, Policy::CostBenefit, smoke),
            ]
        })
        .collect();
    let results = sweep::stabilise(&points);
    for (i, &u) in utils.iter().enumerate() {
        let greedy = &results[2 * i];
        let cb = &results[2 * i + 1];
        table.row(vec![
            format!("{u:.2}"),
            format!("{:.2}", write_cost_formula(u)),
            format!("{:.2}", greedy.write_cost),
            format!("{:.2}", cb.write_cost),
            format!("{FFS_TODAY_WRITE_COST:.1}"),
            format!("{FFS_IMPROVED_WRITE_COST:.1}"),
        ]);
        append_jsonl(
            "fig7",
            &serde_json::json!({
                "util": u,
                "greedy": greedy.write_cost,
                "cost_benefit": cb.write_cost,
            }),
        );
    }
    table.print();
    println!(
        "\nExpected shape (paper): cost-benefit reduces write cost by up to ~50%\n\
         over greedy, and stays below FFS-improved (4.0) even at high utilization."
    );
    lfs_bench::finish()
}
