//! The traced run: the same seeded calls replayed by one closed-loop
//! client at each rung of the stack, with [`crate::timed::TimedDev`] at
//! both device boundaries. A layer's self time is its rung's time minus
//! the rung (or spans) below it.

use std::io::Write;
use std::path::Path;

use crate::handle::Rung;
use crate::loads::Load;
use crate::measure::run_timed;
use crate::session::{Budget, Session};
use crate::stack::{BenchDev, DevTrace, PlainDev, TracedDev};
use crate::timed::{DevSpan, Span, Stall};
use crate::workloads::Spec;

/// One rung's replay.
pub struct RungRun {
    /// Which rung.
    pub rung: Rung,
    /// The client's calls, in order.
    pub spans: Vec<Span>,
    /// Device spans recorded underneath.
    pub trace: DevTrace,
    /// Frame bytes produced (wire rung only).
    pub wire_bytes: u64,
}

fn sum_ns(spans: &[Span]) -> u64 {
    spans.iter().map(|s| s.dur_ns as u64).sum()
}

fn sum_dev_ns(spans: &[DevSpan]) -> u64 {
    spans.iter().map(|s| s.dur_ns as u64).sum()
}

impl RungRun {
    /// Total time inside the client's calls.
    pub fn call_ns(&self) -> u64 {
        sum_ns(&self.spans)
    }
}

/// The whole ladder of one workload.
pub struct Ladder {
    /// Traced rungs, top first; the last is always [`Rung::Core`].
    pub rungs: Vec<RungRun>,
    /// The top rung's calls replayed on the plain (untraced) stack.
    pub untraced_top: Vec<Span>,
}

/// Rungs below (and including) `top`, top first.
fn rungs_from(top: Rung) -> &'static [Rung] {
    match top {
        Rung::Server => &[Rung::Server, Rung::Wire, Rung::Shared, Rung::Core],
        _ => &[Rung::Shared, Rung::Core],
    }
}

fn replay<D: BenchDev, L: Load>(
    spec: &Spec,
    rung: Rung,
    seed: u64,
    dir: &Path,
) -> Result<RungRun, String> {
    let mut session = Session::<D, L>::setup(spec, rung, 1, seed, dir)?;
    let part = run_timed(
        &mut session,
        Budget::Steps(spec.ladder_steps),
        None,
        spec.window_steps,
        true,
    );
    if let Some(e) = part.step_error {
        return Err(format!("{} rung: a step failed: {e}", rung.name()));
    }
    if part.rec.errors > 0 {
        return Err(format!(
            "{} rung: {} calls failed",
            rung.name(),
            part.rec.errors
        ));
    }
    Ok(RungRun {
        rung,
        spans: part.rec.spans,
        trace: session.take_trace(),
        wire_bytes: session.clients[0].fs.inner.wire_bytes(),
    })
}

impl Ladder {
    /// Replays `spec.ladder_steps` steps at every rung. `untraced_top`,
    /// when the caller already has the same calls from an untraced
    /// single-client run of the top rung, saves replaying them.
    pub fn run<L: Load>(
        spec: &Spec,
        seed: u64,
        dir: &Path,
        untraced_top: Option<Vec<Span>>,
    ) -> Result<Ladder, String> {
        let untraced_top = match untraced_top {
            Some(spans) => spans,
            None => replay::<PlainDev, L>(spec, spec.top, seed, dir)?.spans,
        };
        let mut rungs = Vec::new();
        for &rung in rungs_from(spec.top) {
            let run = replay::<TracedDev, L>(spec, rung, seed, dir)?;
            if let Some(first) = rungs.first() {
                let first: &RungRun = first;
                if first.spans.len() != run.spans.len() {
                    return Err(format!(
                        "ladder diverged: {} calls at the {} rung, {} at the {} rung",
                        first.spans.len(),
                        first.rung.name(),
                        run.spans.len(),
                        rung.name()
                    ));
                }
            }
            rungs.push(run);
        }
        Ok(Ladder {
            rungs,
            untraced_top,
        })
    }

    fn rung(&self, rung: Rung) -> Option<&RungRun> {
        self.rungs.iter().find(|r| r.rung == rung)
    }

    fn core(&self) -> &RungRun {
        self.rungs.last().expect("the ladder ends at the core rung")
    }

    /// Calls per rung (the same at every rung).
    pub fn calls(&self) -> u64 {
        self.rungs[0].spans.len() as u64
    }

    fn per_op_us(&self, ns: i64) -> f64 {
        ns as f64 / 1e3 / self.calls().max(1) as f64
    }

    /// `a`'s call time minus `b`'s, per call, in µs; 0 when the ladder
    /// has no such rung.
    fn step_us(&self, a: Rung, b: Rung) -> f64 {
        match (self.rung(a), self.rung(b)) {
            (Some(a), Some(b)) => self.per_op_us(a.call_ns() as i64 - b.call_ns() as i64),
            _ => 0.0,
        }
    }

    /// Mean time of a call at the top rung.
    pub fn top_us(&self) -> f64 {
        self.per_op_us(self.rungs[0].call_ns() as i64)
    }

    /// `server` layer: top rung minus the `SharedLfs` rung.
    pub fn server_self_us(&self) -> f64 {
        self.step_us(Rung::Server, Rung::Shared)
    }

    /// The codec's part of the `server` layer.
    pub fn wire_us(&self) -> f64 {
        self.step_us(Rung::Wire, Rung::Shared)
    }

    /// The rest of it: sockets, syscalls, the hand-off between threads.
    pub fn transport_us(&self) -> f64 {
        self.step_us(Rung::Server, Rung::Wire)
    }

    /// Frame bytes per call, both directions.
    pub fn wire_bytes_per_op(&self) -> f64 {
        self.rung(Rung::Wire)
            .map_or(0.0, |r| r.wire_bytes as f64 / self.calls().max(1) as f64)
    }

    /// `shared` layer: its rung minus the bare `Lfs` rung.
    pub fn shared_self_us(&self) -> f64 {
        self.step_us(Rung::Shared, Rung::Core)
    }

    /// `core` layer: the bare `Lfs` rung minus the time inside the ring.
    pub fn core_self_us(&self) -> f64 {
        let core = self.core();
        self.per_op_us(core.call_ns() as i64 - sum_dev_ns(&core.trace.queue) as i64)
    }

    /// `queue` layer: time inside `QueuedDev` minus time inside `FileDisk`.
    pub fn queue_self_us(&self) -> f64 {
        let t = &self.core().trace;
        self.per_op_us(sum_dev_ns(&t.queue) as i64 - sum_dev_ns(&t.dev) as i64)
    }

    /// `dev` layer: time inside `FileDisk`.
    pub fn dev_busy_us(&self) -> f64 {
        self.per_op_us(sum_dev_ns(&self.core().trace.dev) as i64)
    }

    /// `BlockDevice::sync` calls that reached `FileDisk`.
    pub fn dev_sync_calls(&self) -> u64 {
        self.core().trace.dev_sync_calls
    }

    /// Calls at the core rung that absorbed `stall`: `(count, total ns,
    /// longest ns)`.
    pub fn stall(&self, stall: Stall) -> (u64, u64, u64) {
        let hit = self.core().spans.iter().filter(|s| s.stall == stall);
        hit.fold((0, 0, 0), |(n, total, max), s| {
            (n + 1, total + s.dur_ns as u64, max.max(s.dur_ns as u64))
        })
    }

    /// How much slower the traced top rung ran than the untraced one,
    /// as a fraction of the latter, over the calls both made.
    pub fn overhead_frac(&self) -> f64 {
        let n = self.untraced_top.len().min(self.rungs[0].spans.len());
        let plain = sum_ns(&self.untraced_top[..n]);
        let traced = sum_ns(&self.rungs[0].spans[..n]);
        (traced as f64 - plain as f64) / (plain as f64).max(1.0)
    }

    /// Writes every span as one JSON line: calls with an `id`, device
    /// spans with the `parent` call that contains them in time (exact,
    /// since each rung had one client).
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for run in &self.rungs {
            let rung = run.rung.name();
            for (id, s) in run.spans.iter().enumerate() {
                writeln!(
                    out,
                    r#"{{"rung":"{rung}","layer":"client","id":{id},"op":"{}","start_ns":{},"dur_ns":{},"stall":"{:?}"}}"#,
                    s.op.name(),
                    s.start_ns,
                    s.dur_ns,
                    s.stall
                )?;
            }
            for (layer, spans) in [("queue", &run.trace.queue), ("dev", &run.trace.dev)] {
                let mut parent = 0;
                for d in spans {
                    while parent + 1 < run.spans.len() && run.spans[parent].end_ns() < d.start_ns {
                        parent += 1;
                    }
                    writeln!(
                        out,
                        r#"{{"rung":"{rung}","layer":"{layer}","parent":{parent},"op":"{}","start_ns":{},"dur_ns":{}}}"#,
                        d.op, d.start_ns, d.dur_ns
                    )?;
                }
            }
        }
        out.flush()
    }
}
