//! `lfstop` — render an `lfs-metrics/1` snapshot as human-readable tables.
//!
//! The snapshot comes from `run_all --metrics out.json` or
//! `torture --metrics out.json` (see the "Metrics snapshot schema" section
//! of EXPERIMENTS.md). Shows counters, gauges, latency histograms with
//! p50/p90/p99, and trace-event tallies.
//!
//! Usage: `lfstop <snapshot.json>`

use lfs_obs::MetricsSnapshot;

/// Minimal two-space-separated aligned table.
fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}", c, w = widths[i]));
            if i + 1 < cells.len() {
                out.push_str("  ");
            }
        }
        out.trim_end().to_string() + "\n"
    };
    let mut out = line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the per-shard table of a multi-volume snapshot: one row per
/// `shard.<i>.*` metric family, next to (not instead of) the aggregate
/// counters. Busy% is relative to the busiest shard, so a skewed or
/// starved disk stands out as a low row. Returns `false` when the
/// snapshot has no shard metrics (single-volume runs).
fn print_shards(snap: &MetricsSnapshot) -> bool {
    let counter = |i: usize, f: &str| snap.counters.get(&format!("shard.{i}.{f}")).copied();
    let gauge = |i: usize, f: &str| snap.gauges.get(&format!("shard.{i}.{f}")).copied();
    let mut n = 0;
    while counter(n, "busy_ns").is_some() {
        n += 1;
    }
    if n == 0 {
        return false;
    }
    let max_busy = (0..n)
        .filter_map(|i| counter(i, "busy_ns"))
        .max()
        .unwrap_or(0)
        .max(1);
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let c = |f: &str| counter(i, f).map_or("-".into(), |v| v.to_string());
            vec![
                i.to_string(),
                format!(
                    "{:.1}%",
                    counter(i, "busy_ns").unwrap_or(0) as f64 * 100.0 / max_busy as f64
                ),
                c("writes"),
                c("reads"),
                counter(i, "bytes_written")
                    .map_or("-".into(), |v| format!("{:.1}", v as f64 / 1e6)),
                c("queue.submitted"),
                gauge(i, "queue.mean_in_flight_depth").map_or("-".into(), |v| format!("{v:.2}")),
                gauge(i, "clean_segs").map_or("-".into(), |v| format!("{v:.0}")),
                c("cleaner.segments_cleaned"),
            ]
        })
        .collect();
    println!("Shards (busy% of busiest):");
    println!(
        "{}",
        render(
            &["shard", "busy", "writes", "reads", "MBw", "subs", "qdepth", "clean", "cleaned"],
            &rows
        )
    );
    true
}

/// Renders the cleaner panel: active policy, volume cleaned, overall
/// write cost, the utilization-at-clean histogram (`Figure 6`'s
/// distribution as deciles), and per-temperature-stream fill rates.
/// Returns `false` when the snapshot carries no cleaner metrics.
fn print_cleaner(snap: &MetricsSnapshot) -> bool {
    let c = |name: &str| snap.counters.get(name).copied();
    let Some(cleaned) = c("lfs.cleaner.segments_cleaned") else {
        return false;
    };
    // A snapshot merged over several mounts (torture rotates policies
    // across seeds) can carry more than one marker; show them all.
    let policies: Vec<&str> = lfs_core::CleaningPolicy::ALL
        .map(lfs_core::CleaningPolicy::name)
        .into_iter()
        .filter(|p| c(&format!("lfs.cleaner.policy.{p}")).is_some())
        .collect();
    let policy = if policies.is_empty() {
        "?".into()
    } else {
        policies.join("+")
    };
    // Paper write cost: (new + cleaner reads + cleaner writes) / new,
    // with "new" the non-cleaner log traffic.
    let new_bytes: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("lfs.log_bytes."))
        .map(|(_, &v)| v)
        .sum();
    let cr = c("lfs.cleaner.bytes_read").unwrap_or(0);
    let cw: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("lfs.cleaner_log_bytes."))
        .map(|(_, &v)| v)
        .sum();
    let wc = if new_bytes > 0 {
        format!("{:.2}", (new_bytes + cr + cw) as f64 / new_bytes as f64)
    } else {
        "-".into()
    };
    let empty = c("lfs.cleaner.segments_empty").unwrap_or(0);
    println!(
        "Cleaner ({policy}): {cleaned} cleaned ({empty} empty), {} passes, write cost {wc}",
        c("lfs.cleaner.passes").unwrap_or(0),
    );
    // What a victim that had to be read cost: summaries plus the runs of
    // live blocks the cache did not already hold.
    let read = cleaned.saturating_sub(empty);
    if read > 0 {
        println!(
            "Reads per non-empty victim: {:.1} KB in {:.1} requests",
            cr as f64 / 1024.0 / read as f64,
            c("lfs.cleaner.read_requests").unwrap_or(0) as f64 / read as f64,
        );
    }

    // Utilization-at-clean histogram: the victim-fullness distribution
    // the bimodal argument is about. A good policy shows mass at both
    // ends and little in the middle.
    let deciles: Vec<u64> = (0..10)
        .map(|i| c(&format!("lfs.cleaner.util_decile.{i}")).unwrap_or(0))
        .collect();
    let total: u64 = deciles.iter().sum();
    if total > 0 {
        let peak = deciles.iter().copied().max().unwrap_or(1).max(1);
        println!("Utilization at clean:");
        for (i, &n) in deciles.iter().enumerate() {
            let bar = "#".repeat((n * 40).div_ceil(peak) as usize);
            println!(
                "  {:.1}-{:.1}  {:>6}  {bar}",
                i as f64 / 10.0,
                (i + 1) as f64 / 10.0,
                n
            );
        }
    }

    println!();
    true
}

fn print_snapshot(snap: &MetricsSnapshot) {
    print_shards(snap);
    let cleaner_shown = print_cleaner(snap);
    // Keys already rendered in a dedicated panel stay out of the generic
    // dump.
    let in_panel =
        |k: &str| k.starts_with("shard.") || (cleaner_shown && k.starts_with("lfs.cleaner."));
    if !snap.counters.is_empty() {
        println!("Counters:");
        let rows: Vec<Vec<String>> = snap
            .counters
            .iter()
            .filter(|(k, _)| !in_panel(k))
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect();
        println!("{}", render(&["name", "value"], &rows));
    }
    if !snap.gauges.is_empty() {
        println!("Gauges:");
        let rows: Vec<Vec<String>> = snap
            .gauges
            .iter()
            .filter(|(k, _)| !k.starts_with("shard."))
            .map(|(k, v)| vec![k.clone(), format!("{v:.4}")])
            .collect();
        println!("{}", render(&["name", "value"], &rows));
    }
    if !snap.hists.is_empty() {
        println!("Latency histograms (log2 buckets, simulated ns):");
        let rows: Vec<Vec<String>> = snap
            .hists
            .iter()
            .map(|(k, h)| {
                let q = |q: f64| h.quantile(q).map_or("-".into(), fmt_ns);
                vec![
                    k.clone(),
                    h.count.to_string(),
                    h.mean().map_or("-".into(), |m| fmt_ns(m as u64)),
                    q(0.50),
                    q(0.90),
                    q(0.99),
                    fmt_ns(h.max),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &["name", "count", "mean", "p50", "p90", "p99", "max"],
                &rows
            )
        );
    }
    if !snap.trace_counts.is_empty() {
        println!("Trace events:");
        let rows: Vec<Vec<String>> = snap
            .trace_counts
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect();
        println!("{}", render(&["kind", "count"], &rows));
        if snap.trace_dropped > 0 {
            println!(
                "({} events evicted from the trace ring)",
                snap.trace_dropped
            );
        }
    }
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: lfstop <snapshot.json>");
        std::process::exit(2);
    };
    let snap = match MetricsSnapshot::load(std::path::Path::new(&path)) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("lfstop: cannot load {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("lfs-metrics/1 snapshot: {path}\n");
    print_snapshot(&snap);
}
