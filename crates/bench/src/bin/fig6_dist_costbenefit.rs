//! Figure 6 — segment utilization distribution with the cost-benefit
//! policy (hot-and-cold access, 75% disk capacity utilization).
//!
//! The cost-benefit policy plus age-sorting produces the *bimodal*
//! distribution the paper was after: "the cleaning policy cleans cold
//! segments at about 75% utilization but waits until hot segments reach a
//! utilization of about 15% before cleaning them."

use cleaner_sim::{sweep, AccessPattern, Policy, SimConfig};
use lfs_bench::{append_jsonl, smoke_mode, Table};

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    println!("Figure 6: segment utilization distribution, cost-benefit policy\n");
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

    let mut cb = base;
    cb.pattern = AccessPattern::hot_cold_default();
    cb.policy = Policy::CostBenefit;
    cb.age_sort = true;

    let mut gr = base;
    gr.pattern = AccessPattern::hot_cold_default();
    gr.policy = Policy::Greedy;
    gr.age_sort = true;

    // Both policies are independent points; run them through the sweep.
    let results = sweep::stabilise(&[cb, gr]);
    let (cost_benefit, greedy) = (&results[0], &results[1]);

    let mut table = Table::new(&["segment utilization", "LFS Cost-Benefit", "LFS Greedy"]);
    let cf = cost_benefit.cleaning_histogram.fractions();
    let gf = greedy.cleaning_histogram.fractions();
    for (c, g) in cf.iter().zip(&gf) {
        table.row(vec![
            format!("{:.2}", c.0),
            format!("{:.4}", c.1),
            format!("{:.4}", g.1),
        ]);
        append_jsonl(
            "fig6",
            &serde_json::json!({"u": c.0, "cost_benefit": c.1, "greedy": g.1}),
        );
    }
    table.print();
    println!(
        "\nAvg utilization of cleaned segments: cost-benefit {:.2}, greedy {:.2}",
        cost_benefit.avg_cleaned_utilization, greedy.avg_cleaned_utilization
    );
    println!(
        "Expected shape (paper): cost-benefit is bimodal — most cleaned segments\n\
         around u≈0.15 (hot) with a second population near u≈0.75 (cold)."
    );
    lfs_bench::finish()
}
