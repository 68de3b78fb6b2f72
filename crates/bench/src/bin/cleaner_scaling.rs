//! Cleaner 2.0 sweep: adaptive policy × temperature-keyed write streams
//! against the classic cost-benefit cleaner, recorded to
//! `bench_results/cleaner_scaling.jsonl`.
//!
//! Two skewed mixes at 80% disk capacity utilization — the paper's
//! hot-and-cold (90% of writes to 10% of files) and a Zipfian
//! key-value-store gradient (theta 0.9) — across a policy/stream grid.
//! The baseline is the paper's best configuration: cost-benefit
//! selection with age-sorted writeback on a single log head. The
//! candidate is the Cleaner 2.0 stack: adaptive selection with three
//! temperature streams (placement-time segregation replaces age-sort).
//! The streams are the simulator's: the file system writes one log head
//! per shard.
//!
//! The gate compares **cleaning overhead** (write cost − 1), not total
//! write cost: every configuration pays the same 1.0× to write new data
//! regardless of policy, so the policy-controllable quantity is the
//! cleaner traffic on top. With `--gate` the run fails unless the
//! candidate's overhead is at most [`GATE_MAX_OVERHEAD_RATIO`] of the
//! baseline's on *both* mixes. The simulator is fully deterministic for
//! a fixed seed, so the gate cannot flake.
//!
//! ```sh
//! cargo run --release -p lfs-bench --bin cleaner_scaling -- [--gate]
//! ```

use cleaner_sim::{sweep, AccessPattern, Policy, SimConfig};
use lfs_bench::{append_jsonl, Table};
use serde_json::json;

/// Gate ceiling: candidate cleaning overhead / baseline cleaning
/// overhead. Measured ratios at this configuration: hot-and-cold ~0.70,
/// Zipf ~0.63.
const GATE_MAX_OVERHEAD_RATIO: f64 = 0.75;

/// Disk capacity utilization for the whole sweep — the high-pressure
/// regime where cleaning dominates (Figure 7's right-hand side).
const UTILIZATION: f64 = 0.8;

struct Variant {
    label: &'static str,
    policy: Policy,
    streams: u32,
    age_sort: bool,
}

/// Row 0 is the gate baseline, the last row the gate candidate.
const VARIANTS: [Variant; 4] = [
    Variant {
        label: "cost-benefit/1 +agesort",
        policy: Policy::CostBenefit,
        streams: 1,
        age_sort: true,
    },
    Variant {
        label: "cost-benefit/3 +agesort",
        policy: Policy::CostBenefit,
        streams: 3,
        age_sort: true,
    },
    Variant {
        label: "adaptive/1",
        policy: Policy::Adaptive,
        streams: 1,
        age_sort: false,
    },
    Variant {
        label: "adaptive/3",
        policy: Policy::Adaptive,
        streams: 3,
        age_sort: false,
    },
];

fn config(pattern: AccessPattern, v: &Variant) -> SimConfig {
    let mut cfg = SimConfig::default_at(UTILIZATION);
    cfg.pattern = pattern;
    cfg.policy = v.policy;
    cfg.age_sort = v.age_sort;
    cfg.streams = v.streams;
    cfg
}

fn main() -> std::process::ExitCode {
    let gate = std::env::args().any(|a| a == "--gate");
    let mixes = [
        ("hot_cold", AccessPattern::hot_cold_default()),
        ("zipf", AccessPattern::zipf_default()),
    ];
    println!(
        "cleaner_scaling: policy x streams at {:.0}% disk utilization\n\
         (overhead = write cost - 1, the cleaner traffic per new byte)\n",
        UTILIZATION * 100.0
    );
    let mut gate_failures = Vec::new();
    for (slug, pattern) in mixes {
        let points: Vec<SimConfig> = VARIANTS.iter().map(|v| config(pattern, v)).collect();
        let results = sweep::stabilise(&points);
        let base_overhead = (results[0].write_cost - 1.0).max(f64::EPSILON);
        println!("{slug}:");
        let mut table = Table::new(&[
            "variant",
            "write cost",
            "overhead",
            "vs baseline",
            "cleaned u",
        ]);
        for (v, r) in VARIANTS.iter().zip(&results) {
            let overhead = r.write_cost - 1.0;
            let ratio = overhead / base_overhead;
            table.row(vec![
                v.label.into(),
                format!("{:.2}", r.write_cost),
                format!("{overhead:.2}"),
                format!("{ratio:.2}x"),
                format!("{:.2}", r.avg_cleaned_utilization),
            ]);
            append_jsonl(
                "cleaner_scaling",
                &json!({
                    "bench": "cleaner_scaling",
                    "mix": slug,
                    "variant": v.label,
                    "policy": format!("{:?}", v.policy),
                    "streams": v.streams,
                    "age_sort": v.age_sort,
                    "utilization": UTILIZATION,
                    "write_cost": r.write_cost,
                    "overhead": overhead,
                    "overhead_vs_baseline": ratio,
                    "avg_cleaned_utilization": r.avg_cleaned_utilization,
                    "steps": r.steps,
                }),
            );
        }
        table.print();
        println!();
        let cand = results.last().expect("non-empty grid");
        let ratio = (cand.write_cost - 1.0) / base_overhead;
        if gate && ratio > GATE_MAX_OVERHEAD_RATIO {
            gate_failures.push(format!(
                "{slug}: adaptive/3 overhead is {ratio:.3}x the cost-benefit baseline \
                 (ceiling {GATE_MAX_OVERHEAD_RATIO})"
            ));
        }
    }
    if gate {
        if gate_failures.is_empty() {
            println!(
                "gate: adaptive/3 cleaning overhead <= {GATE_MAX_OVERHEAD_RATIO}x \
                 cost-benefit baseline on both mixes — OK"
            );
        } else {
            for f in &gate_failures {
                eprintln!("gate FAILED: {f}");
            }
            return std::process::ExitCode::FAILURE;
        }
    }
    lfs_bench::finish()
}
