//! Records the multi-volume scale-out sweep to
//! `bench_results/volume_scaling.jsonl`.
//!
//! Same workload over a segment-striped [`blockdev::VolumeSet`] of
//! N ∈ {1, 2, 4, 8} simulated Wren IVs (see
//! [`lfs_bench::run_volume_scaling`]): N=1 is the exact single-volume
//! configuration (the set is a bit-exact pass-through there), wider sets
//! rotate segment writes over independent per-shard submission rings.
//! Two workloads: a chunked sequential write (disk-bound on the Sun-4)
//! and a 4 KB small-file create storm (run on the Figure 8(b) 10× CPU so
//! the disk, not the host, is the bottleneck). The timeline is fully
//! deterministic, so the recorded elapsed times are exact replays, not
//! samples.
//!
//! With `--gate` the run fails unless N=4 sustains at least 3× the N=1
//! aggregate log bandwidth on both workloads — the CI regression fence
//! for the scale-out path.
//!
//! ```sh
//! cargo run --release -p lfs-bench --bin volume_scaling -- [--gate]
//! ```

use lfs_bench::{append_jsonl, run_volume_scaling, smoke_mode, Table, VolumeWorkload};
use serde_json::json;

const VOLUMES: [usize; 4] = [1, 2, 4, 8];
const GATE_SPEEDUP: f64 = 3.0;

fn main() -> std::process::ExitCode {
    let gate = std::env::args().any(|a| a == "--gate");
    let smoke = smoke_mode();
    let suffix = if smoke { " [smoke]" } else { "" };
    let mut gate_failures = Vec::new();

    for workload in [VolumeWorkload::SeqWrite, VolumeWorkload::SmallCreate] {
        let file_mb = match (workload, smoke) {
            (VolumeWorkload::SeqWrite, false) => 32,
            (VolumeWorkload::SeqWrite, true) => 8,
            (VolumeWorkload::SmallCreate, false) => 16,
            (VolumeWorkload::SmallCreate, true) => 4,
        };
        let host = workload.host();
        println!(
            "volume_scaling/{}: {file_mb} MB on N Wren IVs, host {}{suffix}",
            workload.slug(),
            host.name
        );
        let mut table = Table::new(&[
            "volumes",
            "elapsed s",
            "disk busy s",
            "cpu s",
            "MB/sec",
            "files/sec",
            "write cost",
            "util spread",
            "speedup",
        ]);
        let runs: Vec<_> = VOLUMES
            .iter()
            .map(|&n| run_volume_scaling(n, file_mb, workload))
            .collect();
        let base = runs[0].elapsed_ns as f64;
        for r in &runs {
            let speedup = base / r.elapsed_ns as f64;
            table.row(vec![
                format!("{}", r.volumes),
                format!("{:.2}", r.elapsed_ns as f64 / 1e9),
                format!("{:.2}", r.busy_ns as f64 / 1e9),
                format!("{:.2}", r.cpu_ns as f64 / 1e9),
                format!("{:.2}", r.mb_per_sec()),
                format!("{:.1}", r.files_per_sec()),
                format!("{:.2}", r.write_cost),
                format!("{:.2}", r.utilization_spread()),
                format!("{speedup:.2}x"),
            ]);
            append_jsonl(
                "volume_scaling",
                &json!({
                    "bench": "volume_scaling",
                    "workload": workload.slug(),
                    "smoke": smoke,
                    "volumes": r.volumes,
                    "file_mb": file_mb,
                    "host": host.name,
                    "elapsed_ns": r.elapsed_ns,
                    "busy_ns": r.busy_ns,
                    "cpu_ns": r.cpu_ns,
                    "bytes": r.bytes,
                    "files": r.files,
                    "mb_per_sec": r.mb_per_sec(),
                    "files_per_sec": r.files_per_sec(),
                    "write_cost": r.write_cost,
                    "shard_busy_ns": r.shard_busy_ns,
                    "shard_bytes_written": r.shard_bytes,
                    "utilization_spread": r.utilization_spread(),
                    "speedup_vs_1": speedup,
                }),
            );
        }
        table.print();

        if gate {
            let four = runs
                .iter()
                .find(|r| r.volumes == 4)
                .expect("sweep includes N=4");
            let speedup = base / four.elapsed_ns as f64;
            if speedup < GATE_SPEEDUP {
                gate_failures.push(format!(
                    "{}: N=4 speedup {speedup:.2}x < {GATE_SPEEDUP:.1}x",
                    workload.slug()
                ));
            } else {
                println!(
                    "gate ok: {} N=4 speedup {speedup:.2}x >= {GATE_SPEEDUP:.1}x\n",
                    workload.slug()
                );
            }
        }
    }

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("volume_scaling: GATE FAILED: {f}");
        }
        return std::process::ExitCode::FAILURE;
    }
    lfs_bench::finish()
}
