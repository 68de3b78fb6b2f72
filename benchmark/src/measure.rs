//! The measured (untraced) run of one workload: set-up, timed part,
//! verification.

use std::path::Path;
use std::time::Instant;

use blockdev::QueueDevice;
use lfs_core::Lfs;
use vfs::FileSystem;

use crate::loads::Load;
use crate::session::{
    drive_closed, drive_open, take_recordings, Budget, Lateness, Session, Step, WINDOW_NS,
};
use crate::stack::{BenchDev, Counters, Geometry, PlainDev};
use crate::timed::{now_ns, Recording, Windowing};
use crate::workloads::Spec;

/// What the timed part of a run produced.
pub struct TimedPart {
    /// Every client's calls, merged window by window.
    pub rec: Recording,
    /// Open loop only: every step, timed from when it was due.
    pub steps: Vec<Step>,
    /// Open loop only: how late the generator ran.
    pub late: Lateness,
    /// Start of the timed part.
    pub t0_ns: u64,
    /// Length of each complete window, in order (`rec.windows` may hold
    /// one more, cut short by the end of the run; it is not reported).
    pub window_ns: Vec<u64>,
    /// Counters halfway through (single embedded client only).
    pub half: Option<Counters>,
    /// A step that returned an error ended the part early.
    pub step_error: Option<String>,
}

/// Runs the timed part on a set-up session. `window_steps` as in
/// [`Spec::window_steps`]; `keep_spans` also records every call as a span.
pub fn run_timed<D: BenchDev, L: Load>(
    session: &mut Session<D, L>,
    budget: Budget,
    open_rate: Option<f64>,
    window_steps: Option<u64>,
    keep_spans: bool,
) -> TimedPart {
    let n = session.clients.len() as u64;
    let reader = session.counter_reader();
    let t0 = now_ns();
    let (deadline, steps_each) = match budget {
        Budget::Seconds(s) => (t0 + (s * 1e9) as u64, u64::MAX),
        Budget::Steps(k) => (u64::MAX, (k / n).max(1)),
    };
    let windowing = match window_steps {
        Some(_) => Windowing::Manual,
        None => Windowing::Every {
            t0_ns: t0,
            every_ns: WINDOW_NS,
        },
    };
    for c in &mut session.clients {
        c.fs.start(windowing, keep_spans);
    }
    let mut opened = Vec::new();
    let mut half = None;
    let mut steps = Vec::new();
    let mut late = Lateness::default();
    let mut step_error = None;
    if let Some(rate) = open_rate {
        let period_ns = (1e9 * n as f64 / rate) as u64;
        let count = match budget {
            Budget::Seconds(s) => (s * rate / n as f64) as u64,
            Budget::Steps(_) => steps_each,
        };
        std::thread::scope(|s| {
            let threads: Vec<_> = session
                .clients
                .iter_mut()
                .map(|c| s.spawn(move || drive_open(c, t0, period_ns, count)))
                .collect();
            for t in threads {
                match t.join().expect("client thread panicked") {
                    Ok((done, l)) => {
                        steps.extend(done);
                        late.merge(l);
                    }
                    Err(e) => step_error = Some(e.to_string()),
                }
            }
        });
    } else if n == 1 {
        let half_ns = t0 + (deadline - t0) / 2;
        let c = &mut session.clients[0];
        match drive_closed(c, deadline, steps_each, window_steps, |done, now| {
            if half.is_none() && (now >= half_ns || done >= steps_each.div_ceil(2)) {
                half = reader.as_ref().map(|read| read());
            }
        }) {
            Ok(at) => opened = at,
            Err(e) => step_error = Some(e.to_string()),
        }
    } else {
        std::thread::scope(|s| {
            let threads: Vec<_> = session
                .clients
                .iter_mut()
                .map(|c| s.spawn(move || drive_closed(c, deadline, steps_each, None, |_, _| {})))
                .collect();
            for t in threads {
                if let Err(e) = t.join().expect("client thread panicked") {
                    step_error = Some(e.to_string());
                }
            }
        });
    }
    let t1 = now_ns().min(deadline);
    let mut window_ns: Vec<u64> = match window_steps {
        Some(_) => std::iter::once(t0)
            .chain(opened.iter().copied())
            .zip(&opened)
            .map(|(from, to)| to - from)
            .collect(),
        None => vec![WINDOW_NS; ((t1 - t0) / WINDOW_NS) as usize],
    };
    if window_ns.is_empty() {
        window_ns.push(t1 - t0); // too short for one full window: take what there is
    }
    TimedPart {
        rec: take_recordings(&mut session.clients),
        steps,
        late,
        t0_ns: t0,
        window_ns,
        half,
        step_error,
    }
}

/// Result of the remount check.
#[derive(Clone, Copy, Default)]
pub struct Remount {
    /// `Lfs::mount` (roll-forward included) wall time.
    pub recover_ms: f64,
    /// `Lfs::check()` found nothing.
    pub check_ok: bool,
}

/// One measured run.
pub struct Measured {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The timed part.
    pub part: TimedPart,
    /// Counters just before the timed part.
    pub before: Counters,
    /// Counters after it (and a final `sync`, so nothing is still
    /// buffered or queued).
    pub after: Counters,
    /// Connections the server accepted.
    pub connections: u64,
    /// Calls and checks made, timed part and verification together.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Present when the workload ends with the remount check.
    pub remount: Option<Remount>,
}

/// Set-ups per measured run: at least this many, and more while they are
/// so quick that a scheduling hiccup would move their median
/// (`setup_s`), up to a limit.
pub const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=9;
/// Set-ups are repeated until they have taken this long in total.
const SETUP_MIN_TOTAL_S: f64 = 1.5;

/// Sets the workload up (repeatedly when `repeat_setup`, see
/// [`SETUP_REPS`]; the last set-up is the one used), runs the timed part
/// for `budget` (see [`run_timed`] for `keep_spans`), and verifies every
/// answer.
pub fn measure<L: Load>(
    spec: &Spec,
    seed: u64,
    budget: Budget,
    repeat_setup: bool,
    keep_spans: bool,
    dir: &Path,
) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut session = None;
    loop {
        drop(session.take()); // tear the previous one down outside the timing
        let t = Instant::now();
        session = Some(Session::<PlainDev, L>::setup(
            spec,
            spec.top,
            spec.clients,
            seed,
            dir,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
        let long_enough = setup_s.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S;
        if !repeat_setup
            || setup_s.len() >= *SETUP_REPS.end()
            || setup_s.len() >= *SETUP_REPS.start() && long_enough
        {
            break;
        }
    }
    let mut session = session.expect("at least one set-up");
    let before = session.counters();
    let part = run_timed(
        &mut session,
        budget,
        spec.open_rate,
        spec.window_steps,
        keep_spans,
    );
    let c0 = &mut session.clients[0];
    let synced = c0.fs.sync();
    c0.fs.take();
    let after = session.counters();
    let connections = session.connections();
    let (verify_calls, verify_failed) = session.verify();
    let mut attempted = part.rec.calls + verify_calls;
    let mut failed = part.rec.errors + verify_failed + u64::from(synced.is_err());
    if let Some(e) = &part.step_error {
        eprintln!("{}: a step failed: {e}", spec.name);
        failed += 1;
    }
    let remount = if spec.remount_check {
        let (r, checks, bad) = remount_check(session, spec.geo)?;
        attempted += checks;
        failed += bad;
        Some(r)
    } else {
        None
    };
    Ok(Measured {
        setup_s,
        part,
        before,
        after,
        connections,
        attempted,
        failed,
        remount,
    })
}

/// Overwrites made after the last `sync` and before the restart, so the
/// log has a tail past the last checkpoint for roll-forward to replay.
const REMOUNT_TAIL_STEPS: u64 = 40;

/// Crash-free restart: a few more steps, then flush the log tail
/// *without* a checkpoint, drop the mount, reopen the image, mount with
/// roll-forward, re-verify every key and run the consistency check.
/// Returns the result, checks made and checks failed.
fn remount_check<L: Load>(
    session: Session<PlainDev, L>,
    geo: Geometry,
) -> Result<(Remount, u64, u64), String> {
    let (mut lfs, mut loads, image) = session.into_parts()?;
    for load in &mut loads {
        for _ in 0..REMOUNT_TAIL_STEPS {
            load.step(&mut lfs).map_err(|e| format!("tail step: {e}"))?;
        }
    }
    lfs.flush().map_err(|e| format!("flush: {e}"))?;
    lfs.device_mut()
        .fence()
        .map_err(|e| format!("fence: {e}"))?;
    drop(lfs);
    let dev = PlainDev::open(image.path()).map_err(|e| format!("reopen image: {e}"))?;
    let t = Instant::now();
    let mut lfs = Lfs::mount(dev, geo.cfg).map_err(|e| format!("remount: {e}"))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut checks = 1; // the consistency check
    let mut bad = 0;
    for load in &mut loads {
        checks += 1;
        match load.verify(&mut lfs) {
            Ok(n) => bad += n,
            Err(e) => {
                eprintln!("verify after remount: {e}");
                bad += 1;
            }
        }
    }
    lfs.sync().map_err(|e| format!("sync: {e}"))?;
    let report = lfs.check().map_err(|e| format!("check: {e}"))?;
    for e in report.errors.iter().take(5) {
        eprintln!("check: {e}");
    }
    bad += u64::from(!report.is_clean());
    Ok((
        Remount {
            recover_ms,
            check_ok: report.is_clean(),
        },
        checks,
        bad,
    ))
}
