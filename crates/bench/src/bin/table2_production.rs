//! Table 2 — segment cleaning statistics and write costs for the five
//! production file systems.
//!
//! Each partition model is primed to its measured disk utilization and
//! then run in steady state long enough for the cleaner to work. The
//! table reports the same columns as the paper: utilization, segments
//! cleaned, the fraction that were empty, the average utilization of the
//! non-empty cleaned segments, and the overall write cost.
//!
//! The write cost is shown twice. "Write cost" is the paper's accounting
//! — formula (1) reads every non-empty victim in its entirety — computed
//! from the cleaner's counters. "Measured" is what this cleaner moved: it
//! reads a victim's summaries and the live blocks it does not already
//! hold, so the column prices the same log at the traffic actually paid.
//!
//! The paper's headline: write costs of 1.2–1.6 — far below the
//! simulation's predictions — because real workloads delete whole files
//! and leave many segments entirely empty.

use lfs_bench::{append_jsonl, disk_mb, finish, or_die, smoke_mode, Table};
use lfs_core::Lfs;
use vfs::FileSystem;
use workload::{PartitionModel, ProductionWorkload};

fn main() -> std::process::ExitCode {
    let smoke = smoke_mode();
    let (mb, ops) = if smoke {
        (32u64, 2_000u64)
    } else {
        (128, 40_000)
    };
    println!("Table 2: segment cleaning statistics for production-like workloads\n");

    let mut table = Table::new(&[
        "File system",
        "Disk MB",
        "Avg file KB",
        "In use",
        "Segments cleaned",
        "Empty",
        "Avg u (non-empty)",
        "Write cost",
        "Measured",
    ]);

    // Every partition model is an independent sweep point: its own disk,
    // its own LFS, its own seeded workload. Run the points on worker
    // threads and emit rows afterwards in model order, bit-identical to
    // the old serial loop.
    let models = PartitionModel::all();
    struct ModelResult {
        name: &'static str,
        avg_file_kb: f64,
        utilization: f64,
        segments_cleaned: u64,
        empty_fraction: f64,
        avg_nonempty_u: f64,
        write_cost: f64,
        write_cost_measured: f64,
    }
    let results = cleaner_sim::sweep::run(models.len(), |i| {
        let model = models[i];
        let cfg = lfs_bench::production_lfs_config(mb);
        let mut fs = or_die("format LFS", Lfs::format(disk_mb(mb), cfg));
        let mut w = ProductionWorkload::new(model, 0xdead ^ model.name.len() as u64);
        or_die("prime workload", w.prime(&mut fs));
        or_die("run workload", w.run_ops(&mut fs, ops));
        or_die("sync", fs.sync());

        let s = or_die("statfs", fs.statfs());
        let st = fs.stats();
        let c = &st.cleaner;
        let whole_victims = (c.segments_cleaned - c.segments_empty) * cfg.seg_bytes();
        let avg_file_kb = if w.live_files() > 0 {
            s.live_bytes as f64 / w.live_files() as f64 / 1024.0
        } else {
            0.0
        };
        ModelResult {
            name: model.name,
            avg_file_kb,
            utilization: s.utilization(),
            segments_cleaned: c.segments_cleaned,
            empty_fraction: c.empty_fraction(),
            avg_nonempty_u: c.avg_nonempty_utilization(),
            write_cost: st.write_cost_reading(whole_victims),
            write_cost_measured: st.write_cost(),
        }
    });
    for r in &results {
        table.row(vec![
            r.name.into(),
            format!("{mb}"),
            format!("{:.1}", r.avg_file_kb),
            format!("{:.0}%", r.utilization * 100.0),
            format!("{}", r.segments_cleaned),
            format!("{:.0}%", r.empty_fraction * 100.0),
            format!("{:.3}", r.avg_nonempty_u),
            format!("{:.2}", r.write_cost),
            format!("{:.2}", r.write_cost_measured),
        ]);
        append_jsonl(
            "table2",
            &serde_json::json!({
                "partition": r.name,
                "utilization": r.utilization,
                "segments_cleaned": r.segments_cleaned,
                "empty_fraction": r.empty_fraction,
                "avg_nonempty_u": r.avg_nonempty_u,
                "write_cost": r.write_cost,
                "write_cost_measured": r.write_cost_measured,
            }),
        );
    }
    table.print();
    println!(
        "\nExpected shape (paper): most cleaned segments empty (>50%), non-empty\n\
         cleaned at u ~ 0.13-0.54, overall write cost 1.2-1.6 — much better than\n\
         the hot-and-cold simulations predicted."
    );
    finish()
}
