//! One mounted stack with its clients, and the loops that drive them:
//! closed (next call when the last one returned) and open (calls due on
//! a fixed schedule, timed from when they were due).

use std::path::Path;

use lfs_core::Lfs;
use vfs::FsError;

use crate::handle::{Handle, Rung};
use crate::loads::Load;
use crate::stack::{core_counters, shared_counters, BenchDev, Counters, DevTrace, Image, Mount};
use crate::timed::{now_ns, OpClass, Recording, TimedFs};
use crate::workloads::Spec;

/// Length of a window when the workload does not bring its own. Every
/// timed metric is computed per window (see `report::typical_window`),
/// so a quarter-second hiccup of the sandbox costs one window, not the
/// run.
pub const WINDOW_NS: u64 = 250_000_000;

/// A step whose turn came more than this after it was due counts as
/// late: the generator, not the system, delayed it.
const LATE_NS: u64 = 100_000;

/// How long the timed part runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much wall-clock time has passed.
    Seconds(f64),
    /// Exactly this many steps in total (split evenly over the clients),
    /// so single-client counts repeat exactly.
    Steps(u64),
}

/// One client: its handle under the timing adapter, and its generator.
pub struct ClientState<D: BenchDev, L> {
    /// The timed handle.
    pub fs: TimedFs<Handle<D>>,
    /// The generator.
    pub load: L,
}

/// A freshly set-up stack with its clients.
pub struct Session<D: BenchDev, L> {
    image: Image,
    mount: Option<Mount<D>>,
    /// The clients, in `Load::new` order.
    pub clients: Vec<ClientState<D, L>>,
}

impl<D: BenchDev, L: Load> Session<D, L> {
    /// Formats an image in `dir`, brings the stack up to `rung`,
    /// attaches `nclients` clients there and runs their set-up (in
    /// parallel, one thread per client). Nothing of the set-up stays in
    /// the recordings.
    pub fn setup(
        spec: &Spec,
        rung: Rung,
        nclients: usize,
        seed: u64,
        dir: &Path,
    ) -> Result<Session<D, L>, String> {
        let image = Image::new(dir, spec.name).map_err(|e| format!("image dir: {e}"))?;
        let mount = Mount::<D>::format(image.path(), spec.geo, rung == Rung::Server)?;
        let mut handles = Vec::new();
        let mount = match rung {
            Rung::Core => {
                handles.push(Handle::Core(Box::new(mount.into_lfs()?)));
                None
            }
            _ => {
                for _ in 0..nclients {
                    handles.push(match rung {
                        Rung::Server => Handle::Server(mount.connect()?),
                        Rung::Wire => Handle::Wire(mount.fs.clone(), 0),
                        _ => Handle::Shared(mount.fs.clone()),
                    });
                }
                Some(mount)
            }
        };
        let mut clients: Vec<ClientState<D, L>> = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| ClientState {
                fs: TimedFs::with_probe(h, Handle::probe),
                load: L::new(i, seed, spec.sizes),
            })
            .collect();
        std::thread::scope(|s| {
            let threads: Vec<_> = clients
                .iter_mut()
                .map(|c| s.spawn(move || c.load.setup(&mut c.fs)))
                .collect();
            threads
                .into_iter()
                .try_for_each(|t| t.join().expect("set-up thread panicked"))
        })
        .map_err(|e| format!("set-up: {e}"))?;
        let mut session = Session {
            image,
            mount,
            clients,
        };
        for c in &mut session.clients {
            let rec = c.fs.take();
            if rec.errors > 0 {
                return Err(format!("set-up: {} calls failed", rec.errors));
            }
        }
        session.take_trace();
        Ok(session)
    }

    fn core(&mut self) -> Option<&mut Lfs<D>> {
        match &mut self.clients.first_mut()?.fs.inner {
            Handle::Core(fs) => Some(fs),
            _ => None,
        }
    }

    /// The program's counters now.
    pub fn counters(&mut self) -> Counters {
        match &self.mount {
            Some(m) => shared_counters(&m.fs),
            None => core_counters(self.core().expect("no mount means the core rung")),
        }
    }

    /// A function that reads the counters while the clients are borrowed
    /// by a driving loop (`None` at the core rung, which has no second
    /// handle).
    pub fn counter_reader(&self) -> Option<impl Fn() -> Counters + Send + Sync + 'static> {
        let fs = self.mount.as_ref()?.fs.clone();
        Some(move || shared_counters(&fs))
    }

    /// Connections the server accepted.
    pub fn connections(&self) -> u64 {
        self.mount.as_ref().map_or(0, |m| m.connections())
    }

    /// Drains the device spans (empty on the plain stack).
    pub fn take_trace(&mut self) -> DevTrace {
        match &self.mount {
            Some(m) => m.fs.with_fs(|fs| fs.device_mut().take_trace()),
            None => self
                .core()
                .expect("no mount means the core rung")
                .device_mut()
                .take_trace(),
        }
    }

    /// Every client re-verifies what it wrote; returns the calls it took
    /// and how many checks or calls failed.
    pub fn verify(&mut self) -> (u64, u64) {
        let (mut calls, mut failed) = (0, 0);
        for c in &mut self.clients {
            match c.load.verify(&mut c.fs) {
                Ok(bad) => failed += bad,
                Err(e) => {
                    eprintln!("verify: {e}");
                    failed += 1;
                }
            }
            let rec = c.fs.take();
            calls += rec.calls;
            failed += rec.errors;
        }
        (calls, failed)
    }

    /// Drops the clients and the server and hands back the bare mount,
    /// the generators and the image (still on disk until dropped). Not
    /// for the core rung, whose only client *is* the mount.
    pub fn into_parts(self) -> Result<(Lfs<D>, Vec<L>, Image), String> {
        let mount = self
            .mount
            .ok_or("the core rung has no mount to take apart")?;
        let loads = self.clients.into_iter().map(|c| c.load).collect();
        Ok((mount.into_lfs()?, loads, self.image))
    }
}

/// Closed loop on one client: steps back to back until `deadline_ns`
/// passes or `max_steps` are done. With `window_steps`, a new window
/// opens every that many steps and the instants they opened at are
/// returned. `after_step(steps_done, now_ns)` runs after each step.
pub fn drive_closed<D: BenchDev, L: Load>(
    c: &mut ClientState<D, L>,
    deadline_ns: u64,
    max_steps: u64,
    window_steps: Option<u64>,
    mut after_step: impl FnMut(u64, u64),
) -> Result<Vec<u64>, FsError> {
    let mut opened = Vec::new();
    let mut steps = 0;
    while steps < max_steps && now_ns() < deadline_ns {
        c.load.step(&mut c.fs)?;
        steps += 1;
        let now = now_ns();
        if window_steps.is_some_and(|every| steps.is_multiple_of(every)) {
            c.fs.next_window();
            opened.push(now);
        }
        after_step(steps, now);
    }
    Ok(opened)
}

/// How late the open-loop generator itself ran.
#[derive(Clone, Copy, Default)]
pub struct Lateness {
    /// Steps issued.
    pub steps: u64,
    /// Steps whose turn came more than 100 µs after they were due.
    pub late: u64,
    /// Longest such lag.
    pub max_lag_ns: u64,
}

impl Lateness {
    /// Adds another client's figures.
    pub fn merge(&mut self, o: Lateness) {
        self.steps += o.steps;
        self.late += o.late;
        self.max_lag_ns = self.max_lag_ns.max(o.max_lag_ns);
    }
}

/// One step of an open loop.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// When it was due, [`now_ns`] clock.
    pub due_ns: u64,
    /// From then until it completed; saturates at ~4.29 s.
    pub dur_ns: u32,
    /// Its class (see [`TimedFs::step_class`]).
    pub class: OpClass,
}

/// Open loop on one client: step `k` is due at `t0 + k * period_ns`; the
/// thread sleeps until shortly before, then yields until the time comes,
/// and never skips a step. Each step is timed from when it was *due*, so
/// a stall charges every step scheduled behind it.
pub fn drive_open<D: BenchDev, L: Load>(
    c: &mut ClientState<D, L>,
    t0_ns: u64,
    period_ns: u64,
    steps: u64,
) -> Result<(Vec<Step>, Lateness), FsError> {
    let mut out = Vec::with_capacity(steps as usize);
    let mut late = Lateness::default();
    for k in 0..steps {
        let due = t0_ns + k * period_ns;
        let mut now = now_ns();
        if due > now + 150_000 {
            std::thread::sleep(std::time::Duration::from_nanos(due - now - 100_000));
            now = now_ns();
        }
        while now < due {
            std::thread::yield_now();
            now = now_ns();
        }
        let lag = now - due;
        late.steps += 1;
        if lag > LATE_NS {
            late.late += 1;
            late.max_lag_ns = late.max_lag_ns.max(lag);
        }
        c.fs.begin_step();
        c.load.step(&mut c.fs)?;
        let end = now_ns();
        out.push(Step {
            due_ns: due,
            dur_ns: u32::try_from(end - due).unwrap_or(u32::MAX),
            class: c.fs.step_class(),
        });
    }
    Ok((out, late))
}

/// Merges the clients' recordings of one period.
pub fn take_recordings<D: BenchDev, L>(clients: &mut [ClientState<D, L>]) -> Recording {
    let mut all = Recording::default();
    for c in clients {
        all.merge(c.fs.take());
    }
    all
}
