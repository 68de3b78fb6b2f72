//! Turns a measured run (and a ladder) into named metrics. The names,
//! units and directions are declared in `BENCHMARK.json`; `--smoke`
//! checks the two agree.

use blockdev::{IoStats, QueueStats};
use lfs_core::{BlockKind, LfsStats};
use serde_json::{json, Value};

use crate::ladder::Ladder;
use crate::measure::Measured;
use crate::session::{Step, WINDOW_NS};
use crate::timed::{OpClass, Stall, WindowStats};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The metrics as the `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    )
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted durations, in µs; 0 for none.
fn percentile_us(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

const KB: f64 = 1024.0;
const MB: f64 = KB * KB;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(new + cleaner-read + cleaner-written) / new` log bytes between two
/// snapshots — the paper's write cost (§3.4) over that interval.
pub fn write_cost(from: &LfsStats, to: &LfsStats) -> f64 {
    let new = to.new_log_bytes() - from.new_log_bytes();
    let moved = (to.cleaner.bytes_read - from.cleaner.bytes_read)
        + (to.cleaner_written_bytes() - from.cleaner_written_bytes());
    if new == 0 {
        1.0
    } else {
        (new + moved) as f64 / new as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One complete window of the timed part.
struct Window {
    /// Length.
    dur_ns: u64,
    /// What the clients' calls did in it.
    calls: WindowStats,
    /// Open loop: step latencies (from the due time) by class, replacing
    /// the per-call ones, and how many steps ended in it.
    steps: Option<([Vec<u32>; 4], u64)>,
}

impl Window {
    /// Sorted latency samples of `class`: per step in an open loop, per
    /// call otherwise.
    fn latencies(&self, class: OpClass) -> &[u32] {
        let slot = WindowStats::slot(class).expect("a latency class");
        match &self.steps {
            Some((by_class, _)) => &by_class[slot],
            None => &self.calls.latencies[slot],
        }
    }
}

/// The complete windows of a run, latencies sorted.
pub struct Windows(Vec<Window>);

/// Cuts the timed part of `m` into its windows.
pub fn windows_of(m: &Measured) -> Windows {
    let part = &m.part;
    let mut wins: Vec<Window> = part
        .window_ns
        .iter()
        .enumerate()
        .map(|(i, &dur_ns)| Window {
            dur_ns,
            calls: part.rec.windows.get(i).cloned().unwrap_or_default(),
            steps: (!part.steps.is_empty()).then(Default::default),
        })
        .collect();
    for s in &part.steps {
        let end = s.due_ns + s.dur_ns as u64;
        let w = (end.saturating_sub(part.t0_ns) / WINDOW_NS) as usize;
        if let Some((by_class, n)) = wins.get_mut(w).and_then(|w| w.steps.as_mut()) {
            *n += 1;
            if let Some(slot) = WindowStats::slot(s.class) {
                by_class[slot].push(s.dur_ns);
            }
        }
    }
    for w in &mut wins {
        let sets = w.calls.latencies.iter_mut();
        for l in sets.chain(w.steps.iter_mut().flat_map(|(by_class, _)| by_class)) {
            l.sort_unstable();
        }
    }
    Windows(wins)
}

impl Windows {
    /// Throughput of each window, for the result file.
    pub fn rates(&self) -> Vec<f64> {
        self.0.iter().map(window_rate).collect()
    }

    /// Sample counts behind the latency percentiles, for the result file.
    pub fn sample_counts(&self) -> Value {
        let n = |c: OpClass| self.0.iter().map(|w| w.latencies(c).len()).sum::<usize>();
        json!({
            "read": n(OpClass::Read),
            "write": n(OpClass::Write),
            "meta": n(OpClass::Meta),
            "sync": n(OpClass::Sync),
            "windows": self.0.len(),
        })
    }
}

/// Which way a timed metric is better.
#[derive(Clone, Copy)]
enum Better {
    Higher,
    Lower,
}

/// The value of `f` in the run's *better-quartile window*: of the windows
/// where `f` has a value, the one a quarter of the way down from the
/// best. Interference from the sandbox is one-sided — a preempted vCPU
/// only ever makes a window slower — and on the 2-core reference box it
/// hits a third of all quarter-second windows of a TCP run; the better
/// quartile stays clear of it where the median does not (ten seeds of
/// `office_tcp`: quartile range ÷ median of `ops_per_s` 11 % with the
/// median window, 7 % with this one). Work the program does periodically
/// is not filtered out where a window is a fixed amount of work
/// (`kv_clean`, `bigfile`); on the office workloads the counted metrics
/// and the pooled `tail.*_p999_us` cover every window.
fn typical_window(wins: &[Window], better: Better, f: impl Fn(&Window) -> Option<f64>) -> f64 {
    let mut v: Vec<f64> = wins.iter().filter_map(f).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let quarter = (v.len() - 1) / 4;
    match better {
        Better::Lower => v[quarter],
        Better::Higher => v[v.len() - 1 - quarter],
    }
}

fn window_percentile(wins: &[Window], class: OpClass, p: f64) -> f64 {
    typical_window(wins, Better::Lower, |w| {
        let l = w.latencies(class);
        (!l.is_empty()).then(|| percentile_us(l, p))
    })
}

/// Pooled over all windows instead: the far tail needs every sample.
fn pooled_percentile(wins: &[Window], class: OpClass, p: f64) -> f64 {
    let mut all: Vec<u32> = wins
        .iter()
        .flat_map(|w| w.latencies(class).iter().copied())
        .collect();
    all.sort_unstable();
    percentile_us(&all, p)
}

/// Operations per second of one window: calls, or an open loop's steps.
fn window_rate(w: &Window) -> f64 {
    let n = w.steps.as_ref().map_or(w.calls.calls, |(_, n)| *n);
    ratio(n as f64 * 1e9, w.dur_ns as f64)
}

/// The end-to-end metrics of a measured run, in `BENCHMARK.json` order.
/// Every timed one is computed per window and reported for the
/// better-quartile window (see [`typical_window`]); the counted ones cover
/// the whole timed part.
pub fn end_to_end(m: &Measured, wins: &Windows) -> Vec<Metric> {
    let wins = &wins.0;
    let (lfs0, lfs1) = (&m.before.lfs, &m.after.lfs);
    let mb_per_s = |bytes: u64, ns: u64| (ns > 0).then(|| bytes as f64 / MB / (ns as f64 / 1e9));
    vec![
        metric("setup_s", median(&m.setup_s), "s"),
        metric(
            "ops_per_s",
            typical_window(wins, Better::Higher, |w| Some(window_rate(w))),
            "1/s",
        ),
        metric(
            "read_mb_per_s",
            typical_window(wins, Better::Higher, |w| {
                mb_per_s(w.calls.read_bytes, w.calls.read_ns)
            }),
            "MB/s",
        ),
        metric(
            "write_mb_per_s",
            typical_window(wins, Better::Higher, |w| {
                mb_per_s(w.calls.write_bytes, w.calls.write_ns)
            }),
            "MB/s",
        ),
        metric(
            "read_p50_us",
            window_percentile(wins, OpClass::Read, 0.50),
            "us",
        ),
        metric("write_cost", write_cost(lfs0, lfs1), "ratio"),
        metric(
            "log_bytes_per_user_byte",
            ratio(
                (m.after.io.bytes_written - m.before.io.bytes_written) as f64,
                (lfs1.app_bytes_written - lfs0.app_bytes_written) as f64,
            ),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// `p99` of whole steps, in µs (open-loop side runs).
pub fn step_p99_us(steps: &[Step]) -> f64 {
    let mut d: Vec<u32> = steps.iter().map(|s| s.dur_ns).collect();
    d.sort_unstable();
    percentile_us(&d, 0.99)
}

/// Everything the per-layer report needs besides the measured run.
pub struct LayerInputs<'a> {
    /// The traced ladder.
    pub ladder: &'a Ladder,
    /// Step p99 at the two side rates of `office_rate` (0 elsewhere).
    pub rate_p99_us: [f64; 2],
}

/// The per-layer metrics, in `BENCHMARK.json` order. Counters are
/// deltas of the program's public statistics over the timed part of the
/// *untraced* run `m`; `*_us_per_op` and `core.stall.*` come from the
/// ladder.
pub fn per_layer(m: &Measured, wins: &Windows, inp: &LayerInputs) -> Vec<Metric> {
    let wins = &wins.0;
    let l = inp.ladder;
    let (lfs0, lfs1) = (&m.before.lfs, &m.after.lfs);
    let (sh0, sh1) = (&m.before.shared, &m.after.shared);
    let io: IoStats = m.after.io.since(&m.before.io);
    let (q0, q1): (&QueueStats, &QueueStats) = (&m.before.queue, &m.after.queue);
    let d = |a: u64, b: u64| (b - a) as f64;
    let cleaned = d(lfs0.cleaner.segments_cleaned, lfs1.cleaner.segments_cleaned);
    let empty = d(lfs0.cleaner.segments_empty, lfs1.cleaner.segments_empty);
    let log_total = d(lfs0.total_log_bytes(), lfs1.total_log_bytes());
    let log_data = d(
        lfs0.log_bytes(BlockKind::Data),
        lfs1.log_bytes(BlockKind::Data),
    );
    let user = d(lfs0.app_bytes_written, lfs1.app_bytes_written);
    let (clean_ops, clean_ns, clean_max) = l.stall(Stall::Clean);
    let (_, cp_ns, _) = l.stall(Stall::Checkpoint);
    let (_, flush_ns, _) = l.stall(Stall::Flush);
    // Without a halfway snapshot (several clients) both halves report
    // the whole.
    let (wc_first, wc_second) = match &m.part.half {
        Some(h) => (write_cost(lfs0, &h.lfs), write_cost(&h.lfs, lfs1)),
        None => (write_cost(lfs0, lfs1), write_cost(lfs0, lfs1)),
    };
    let remount = m.remount.unwrap_or_default();
    vec![
        metric("server.self_us_per_op", l.server_self_us(), "us"),
        metric("server.wire_us_per_op", l.wire_us(), "us"),
        metric("server.wire_bytes_per_op", l.wire_bytes_per_op(), "B"),
        metric("server.transport_us_per_op", l.transport_us(), "us"),
        metric("server.connections", m.connections as f64, "count"),
        metric("server.rate5k.step_p99_us", inp.rate_p99_us[0], "us"),
        metric("server.rate20k.step_p99_us", inp.rate_p99_us[1], "us"),
        metric(
            "loadgen.late_frac",
            ratio(m.part.late.late as f64, m.part.late.steps as f64),
            "frac",
        ),
        metric(
            "loadgen.max_lag_ms",
            m.part.late.max_lag_ns as f64 / 1e6,
            "ms",
        ),
        metric(
            "loadgen.fail_frac",
            ratio(m.failed as f64, m.attempted as f64),
            "frac",
        ),
        metric("shared.self_us_per_op", l.shared_self_us(), "us"),
        metric(
            "shared.lockfree_read_frac",
            ratio(
                d(sh0.lockfree_reads, sh1.lockfree_reads),
                d(sh0.reads, sh1.reads),
            ),
            "frac",
        ),
        metric(
            "shared.block_hit_rate",
            ratio(
                d(sh0.block_hits, sh1.block_hits),
                d(sh0.block_hits, sh1.block_hits) + d(sh0.block_misses, sh1.block_misses),
            ),
            "frac",
        ),
        metric(
            "shared.block_misses",
            d(sh0.block_misses, sh1.block_misses),
            "count",
        ),
        metric(
            "shared.sync_handoffs",
            d(sh0.sync_handoffs, sh1.sync_handoffs),
            "count",
        ),
        metric(
            "core.group_commits",
            d(lfs0.group_commits, lfs1.group_commits),
            "count",
        ),
        metric(
            "core.checkpoints",
            d(lfs0.checkpoints, lfs1.checkpoints),
            "count",
        ),
        metric("core.self_us_per_op", l.core_self_us(), "us"),
        metric(
            "core.partial_writes",
            d(lfs0.partial_writes, lfs1.partial_writes),
            "count",
        ),
        metric(
            "core.mean_partial_write_kb",
            ratio(log_total / KB, d(lfs0.partial_writes, lfs1.partial_writes)),
            "KB",
        ),
        metric(
            "core.flush_copy_bytes_per_user_byte",
            ratio(d(lfs0.flush_copy_bytes, lfs1.flush_copy_bytes), user),
            "ratio",
        ),
        metric(
            "core.meta_log_share",
            ratio(log_total - log_data, log_total),
            "frac",
        ),
        metric(
            "core.cleaner.passes",
            d(lfs0.cleaner.passes, lfs1.cleaner.passes),
            "count",
        ),
        metric("core.cleaner.segments_cleaned", cleaned, "count"),
        metric("core.cleaner.empty_frac", ratio(empty, cleaned), "frac"),
        metric(
            "core.cleaner.avg_util",
            ratio(
                lfs1.cleaner.utilization_sum - lfs0.cleaner.utilization_sum,
                cleaned - empty,
            ),
            "frac",
        ),
        metric(
            "core.cleaner.bytes_read",
            d(lfs0.cleaner.bytes_read, lfs1.cleaner.bytes_read),
            "B",
        ),
        metric(
            "core.cleaner.bytes_written",
            d(lfs0.cleaner_written_bytes(), lfs1.cleaner_written_bytes()),
            "B",
        ),
        metric("core.stall.clean_ms_total", clean_ns as f64 / 1e6, "ms"),
        metric("core.stall.clean_ms_max", clean_max as f64 / 1e6, "ms"),
        metric("core.stall.clean_ops", clean_ops as f64, "count"),
        metric("core.stall.checkpoint_ms_total", cp_ns as f64 / 1e6, "ms"),
        metric("core.stall.flush_ms_total", flush_ns as f64 / 1e6, "ms"),
        metric("core.write_cost_first_half", wc_first, "ratio"),
        metric("core.write_cost_second_half", wc_second, "ratio"),
        metric("core.recover_ms", remount.recover_ms, "ms"),
        metric(
            "core.check_ok",
            f64::from(u8::from(remount.check_ok)),
            "count",
        ),
        metric(
            "core.io_retries",
            d(lfs0.io_retries, lfs1.io_retries),
            "count",
        ),
        metric(
            "core.io_giveups",
            d(lfs0.io_giveups, lfs1.io_giveups),
            "count",
        ),
        metric("queue.self_us_per_op", l.queue_self_us(), "us"),
        metric("queue.submitted", d(q0.submitted, q1.submitted), "count"),
        metric(
            "queue.mean_depth",
            ratio(d(q0.depth_sum, q1.depth_sum), d(q0.submitted, q1.submitted)),
            "count",
        ),
        metric("queue.max_depth", q1.max_depth as f64, "count"),
        metric(
            "queue.ring_full_waits",
            d(q0.ring_full_waits, q1.ring_full_waits),
            "count",
        ),
        metric("queue.fences", d(q0.fences, q1.fences), "count"),
        metric("dev.busy_us_per_op", l.dev_busy_us(), "us"),
        metric("dev.write_calls", io.writes as f64, "count"),
        metric("dev.write_mb", io.bytes_written as f64 / MB, "MB"),
        metric(
            "dev.mean_write_kb",
            ratio(io.bytes_written as f64 / KB, io.writes as f64),
            "KB",
        ),
        metric("dev.read_calls", io.reads as f64, "count"),
        metric("dev.read_mb", io.bytes_read as f64 / MB, "MB"),
        metric(
            "dev.mean_read_kb",
            ratio(io.bytes_read as f64 / KB, io.reads as f64),
            "KB",
        ),
        metric("dev.sync_calls", l.dev_sync_calls() as f64, "count"),
        metric(
            "tail.write_p50_us",
            window_percentile(wins, OpClass::Write, 0.50),
            "us",
        ),
        metric(
            "tail.read_p99_us",
            window_percentile(wins, OpClass::Read, 0.99),
            "us",
        ),
        metric(
            "tail.write_p99_us",
            window_percentile(wins, OpClass::Write, 0.99),
            "us",
        ),
        metric(
            "tail.read_p999_us",
            pooled_percentile(wins, OpClass::Read, 0.999),
            "us",
        ),
        metric(
            "tail.write_p999_us",
            pooled_percentile(wins, OpClass::Write, 0.999),
            "us",
        ),
        metric(
            "tail.meta_p50_us",
            window_percentile(wins, OpClass::Meta, 0.50),
            "us",
        ),
        metric(
            "tail.meta_p99_us",
            window_percentile(wins, OpClass::Meta, 0.99),
            "us",
        ),
        metric(
            "tail.sync_p50_us",
            window_percentile(wins, OpClass::Sync, 0.50),
            "us",
        ),
        metric(
            "tail.sync_p99_us",
            window_percentile(wins, OpClass::Sync, 0.99),
            "us",
        ),
        metric("trace.top_us_per_op", l.top_us(), "us"),
        metric("trace.overhead_frac", l.overhead_frac(), "frac"),
    ]
}
