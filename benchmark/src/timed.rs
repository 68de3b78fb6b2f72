//! The benchmark's measuring adapters. They wrap the program under test
//! from outside — [`TimedFs`] around any [`FileSystem`], [`TimedDev`]
//! around any block device — and must be invisible to it: same calls,
//! same results, same counters (pinned by `tests/transparency.rs`).

use std::sync::OnceLock;
use std::time::Instant;

use blockdev::{
    BlockDevice, DeviceObs, IoBuf, IoStats, QueueDevice, QueueStats, QueueTimed, Ticket, WriteKind,
    BLOCK_SIZE,
};
use vfs::{DirEntry, FileSystem, FsResult, Ino, Metadata, StatFs};

/// Nanoseconds since the first call in this process (one shared epoch,
/// so spans recorded by different adapters and threads are comparable).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Operation classes the end-to-end latencies are reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// `read`.
    Read,
    /// `write`.
    Write,
    /// Namespace and size mutations: create, mkdir, unlink, rmdir,
    /// rename, link, truncate.
    Meta,
    /// `sync`.
    Sync,
    /// Pure queries (lookup, metadata, readdir, statfs): counted as
    /// calls, not reported as a latency class.
    Stat,
}

/// What background work an operation paid for, read off the program's
/// own counters across the call (see [`TimedFs::probe`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stall {
    /// None of the probed counters moved.
    None,
    /// A cleaning pass ran inside the call.
    Clean,
    /// A checkpoint was written inside the call (and no cleaning).
    Checkpoint,
    /// A partial write (flush) happened inside the call (and neither of
    /// the above).
    Flush,
}

/// The `FileSystem` method a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Op {
    Create,
    Mkdir,
    Lookup,
    Write,
    Read,
    Truncate,
    Unlink,
    Rmdir,
    Rename,
    Link,
    Metadata,
    Readdir,
    Sync,
    Statfs,
}

impl Op {
    /// The latency class the call is reported under.
    pub fn class(self) -> OpClass {
        match self {
            Op::Read => OpClass::Read,
            Op::Write => OpClass::Write,
            Op::Sync => OpClass::Sync,
            Op::Create
            | Op::Mkdir
            | Op::Truncate
            | Op::Unlink
            | Op::Rmdir
            | Op::Rename
            | Op::Link => OpClass::Meta,
            Op::Lookup | Op::Metadata | Op::Readdir | Op::Statfs => OpClass::Stat,
        }
    }

    /// Method name, for the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Mkdir => "mkdir",
            Op::Lookup => "lookup",
            Op::Write => "write",
            Op::Read => "read",
            Op::Truncate => "truncate",
            Op::Unlink => "unlink",
            Op::Rmdir => "rmdir",
            Op::Rename => "rename",
            Op::Link => "link",
            Op::Metadata => "metadata",
            Op::Readdir => "readdir",
            Op::Sync => "sync",
            Op::Statfs => "statfs",
        }
    }
}

/// One timed call at the top of the stack.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration; saturates at ~4.29 s.
    pub dur_ns: u32,
    /// Payload bytes a successful read returned or write accepted.
    pub bytes: u32,
    /// The method called.
    pub op: Op,
    /// Background work the call absorbed (always `None` without a probe).
    pub stall: Stall,
}

impl Span {
    /// End of the span on the [`now_ns`] clock.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns as u64
    }
}

fn dur32(start: u64, end: u64) -> u32 {
    u32::try_from(end.saturating_sub(start)).unwrap_or(u32::MAX)
}

/// `[cleaner passes, checkpoints, partial writes]` as the wrapped file
/// system currently counts them; all-zero when it cannot say.
pub type Probe<F> = fn(&F) -> [u64; 3];

/// What a [`TimedFs`] saw in one window of time: the compact form every
/// timed metric is computed from (4 bytes per call, so the recording
/// hardly shows in `peak_rss_mb` whatever the throughput).
#[derive(Clone, Default)]
pub struct WindowStats {
    /// Call durations in ns by class: read, write, meta, sync.
    pub latencies: [Vec<u32>; 4],
    /// Calls that ended in the window, of any class.
    pub calls: u64,
    /// Payload bytes successful reads returned.
    pub read_bytes: u64,
    /// Payload bytes successful writes accepted.
    pub write_bytes: u64,
    /// Time inside read calls.
    pub read_ns: u64,
    /// Time inside write and sync calls.
    pub write_ns: u64,
}

impl WindowStats {
    /// Index of `class` in [`WindowStats::latencies`].
    pub fn slot(class: OpClass) -> Option<usize> {
        match class {
            OpClass::Read => Some(0),
            OpClass::Write => Some(1),
            OpClass::Meta => Some(2),
            OpClass::Sync => Some(3),
            OpClass::Stat => None,
        }
    }

    fn record(&mut self, class: OpClass, dur_ns: u32, bytes: u64) {
        self.calls += 1;
        if let Some(slot) = WindowStats::slot(class) {
            self.latencies[slot].push(dur_ns);
        }
        match class {
            OpClass::Read => {
                self.read_bytes += bytes;
                self.read_ns += dur_ns as u64;
            }
            OpClass::Write | OpClass::Sync => {
                self.write_bytes += bytes;
                self.write_ns += dur_ns as u64;
            }
            _ => {}
        }
    }

    /// Adds another client's view of the same window.
    pub fn merge(&mut self, other: WindowStats) {
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.calls += other.calls;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.read_ns += other.read_ns;
        self.write_ns += other.write_ns;
    }
}

/// How a [`TimedFs`] assigns calls to windows.
#[derive(Clone, Copy, Debug)]
pub enum Windowing {
    /// A call belongs to window `(end - t0_ns) / every_ns`.
    Every {
        /// Start of window 0, [`now_ns`] clock.
        t0_ns: u64,
        /// Window length.
        every_ns: u64,
    },
    /// A call belongs to the current window; [`TimedFs::next_window`]
    /// opens the next one.
    Manual,
}

/// Everything a [`TimedFs`] recorded since [`TimedFs::start`].
#[derive(Default)]
pub struct Recording {
    /// Per-window statistics.
    pub windows: Vec<WindowStats>,
    /// One span per call, in issue order — only when spans are kept.
    pub spans: Vec<Span>,
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

impl Recording {
    /// Adds another client's recording of the same period.
    pub fn merge(&mut self, other: Recording) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), WindowStats::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.merge(theirs);
        }
        self.spans.extend(other.spans);
        self.calls += other.calls;
        self.errors += other.errors;
    }
}

/// A [`FileSystem`] that times every call it forwards.
pub struct TimedFs<F> {
    /// The wrapped file system.
    pub inner: F,
    rec: Recording,
    windowing: Windowing,
    window: usize,
    keep_spans: bool,
    probe: Probe<F>,
    last_probe: [u64; 3],
    step: StepSeen,
}

/// What the calls since [`TimedFs::begin_step`] did.
#[derive(Clone, Copy)]
struct StepSeen {
    /// A file was created or unlinked.
    namespace: bool,
    /// A write was made.
    wrote: bool,
    /// Class of the last call.
    last: OpClass,
}

impl StepSeen {
    const NOTHING: StepSeen = StepSeen {
        namespace: false,
        wrote: false,
        last: OpClass::Stat,
    };
}

impl<F: FileSystem> TimedFs<F> {
    /// Wraps `inner`; no stall classification.
    pub fn new(inner: F) -> TimedFs<F> {
        TimedFs::with_probe(inner, |_| [0; 3])
    }

    /// Wraps `inner` and classifies each call's [`Stall`] by which of
    /// the probed counters advanced across it.
    pub fn with_probe(inner: F, probe: Probe<F>) -> TimedFs<F> {
        let last_probe = probe(&inner);
        TimedFs {
            inner,
            rec: Recording::default(),
            windowing: Windowing::Manual,
            window: 0,
            keep_spans: false,
            probe,
            last_probe,
            step: StepSeen::NOTHING,
        }
    }

    /// Starts a fresh recording windowed by `windowing`; with
    /// `keep_spans` every call is also kept as a [`Span`].
    pub fn start(&mut self, windowing: Windowing, keep_spans: bool) {
        self.rec = Recording::default();
        self.windowing = windowing;
        self.window = 0;
        self.keep_spans = keep_spans;
        self.last_probe = (self.probe)(&self.inner);
    }

    /// Opens the next window ([`Windowing::Manual`]).
    pub fn next_window(&mut self) {
        self.window += 1;
    }

    /// Returns what was recorded so far and starts afresh.
    pub fn take(&mut self) -> Recording {
        self.window = 0;
        std::mem::take(&mut self.rec)
    }

    /// Marks the start of a generator step (see [`TimedFs::step_class`]).
    pub fn begin_step(&mut self) {
        self.step = StepSeen::NOTHING;
    }

    /// Class of the whole step since [`TimedFs::begin_step`], for an
    /// open loop's per-step latencies: a step that creates or unlinks a
    /// file is `Meta`; otherwise one that writes is `Write` (its
    /// truncate is part of the rewrite); else its last call's.
    pub fn step_class(&self) -> OpClass {
        if self.step.namespace {
            OpClass::Meta
        } else if self.step.wrote {
            OpClass::Write
        } else {
            self.step.last
        }
    }

    /// Times `f`; `payload` gives the byte count of a successful result.
    fn timed<R>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut F) -> FsResult<R>,
        payload: impl FnOnce(&R) -> usize,
    ) -> FsResult<R> {
        let start = now_ns();
        let r = f(&mut self.inner);
        let end = now_ns();
        let dur_ns = dur32(start, end);
        let bytes = r.as_ref().map_or(0, payload);
        let class = op.class();
        let window = match self.windowing {
            Windowing::Manual => self.window,
            Windowing::Every { t0_ns, every_ns } => (end.saturating_sub(t0_ns) / every_ns) as usize,
        };
        if window >= self.rec.windows.len() {
            self.rec
                .windows
                .resize_with(window + 1, WindowStats::default);
        }
        self.rec.windows[window].record(class, dur_ns, bytes as u64);
        self.rec.calls += 1;
        self.rec.errors += u64::from(r.is_err());
        self.step.namespace |= matches!(op, Op::Create | Op::Unlink);
        self.step.wrote |= op == Op::Write;
        self.step.last = class;
        if self.keep_spans {
            let now = (self.probe)(&self.inner);
            let stall = if now[0] != self.last_probe[0] {
                Stall::Clean
            } else if now[1] != self.last_probe[1] {
                Stall::Checkpoint
            } else if now[2] != self.last_probe[2] {
                Stall::Flush
            } else {
                Stall::None
            };
            self.last_probe = now;
            self.rec.spans.push(Span {
                start_ns: start,
                dur_ns,
                bytes: bytes as u32,
                op,
                stall,
            });
        }
        r
    }

    /// [`TimedFs::timed`] for a call that moves no payload.
    fn plain<R>(&mut self, op: Op, f: impl FnOnce(&mut F) -> FsResult<R>) -> FsResult<R> {
        self.timed(op, f, |_| 0)
    }
}

impl<F: FileSystem> FileSystem for TimedFs<F> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.plain(Op::Create, |fs| fs.create(path))
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.plain(Op::Mkdir, |fs| fs.mkdir(path))
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.plain(Op::Lookup, |fs| fs.lookup(path))
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        self.timed(Op::Write, |fs| fs.write(ino, offset, data), |()| data.len())
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.timed(Op::Read, |fs| fs.read(ino, offset, buf), |&n| n)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.plain(Op::Truncate, |fs| fs.truncate(ino, size))
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.plain(Op::Unlink, |fs| fs.unlink(path))
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.plain(Op::Rmdir, |fs| fs.rmdir(path))
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.plain(Op::Rename, |fs| fs.rename(from, to))
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.plain(Op::Link, |fs| fs.link(existing, new))
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        self.plain(Op::Metadata, |fs| fs.metadata(ino))
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.plain(Op::Readdir, |fs| fs.readdir(path))
    }

    fn sync(&mut self) -> FsResult<()> {
        self.plain(Op::Sync, |fs| fs.sync())
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        self.plain(Op::Statfs, |fs| fs.statfs())
    }
}

/// One timed device request.
#[derive(Clone, Copy, Debug)]
pub struct DevSpan {
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration; saturates at ~4.29 s.
    pub dur_ns: u32,
    /// Which trait method was called.
    pub op: &'static str,
}

/// A block device that times every data-moving request it forwards —
/// reads, writes, submissions, completions, fences, syncs — and forwards
/// everything else untouched. Wrapped around `FileDisk` its spans are
/// the `dev` layer; wrapped around `QueuedDev` they are the `queue`
/// layer (whose self time is its spans minus the `dev` spans inside).
pub struct TimedDev<D> {
    inner: D,
    spans: Vec<DevSpan>,
    sync_calls: u64,
}

impl<D> TimedDev<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> TimedDev<D> {
        TimedDev {
            inner,
            spans: Vec::new(),
            sync_calls: 0,
        }
    }

    /// The wrapped device, mutably.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Returns the spans recorded so far and starts afresh.
    pub fn take_spans(&mut self) -> Vec<DevSpan> {
        std::mem::take(&mut self.spans)
    }

    /// `BlockDevice::sync` calls seen so far.
    pub fn sync_calls(&self) -> u64 {
        self.sync_calls
    }

    fn timed<R>(&mut self, op: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        let start = now_ns();
        let r = f(&mut self.inner);
        let end = now_ns();
        self.spans.push(DevSpan {
            start_ns: start,
            dur_ns: dur32(start, end),
            op,
        });
        r
    }
}

impl<D: BlockDevice> BlockDevice for TimedDev<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> blockdev::Result<()> {
        self.timed("read_blocks", |d| d.read_blocks(start, buf))
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> blockdev::Result<()> {
        self.timed("write_blocks", |d| d.write_blocks(start, buf, kind))
    }

    fn read_run(&mut self, start: u64, buf: &mut [u8]) -> blockdev::Result<()> {
        self.timed("read_run", |d| d.read_run(start, buf))
    }

    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> blockdev::Result<()> {
        self.timed("read_run_scatter", |d| d.read_run_scatter(start, bufs))
    }

    fn write_run_gather(
        &mut self,
        start: u64,
        bufs: &[&[u8]],
        kind: WriteKind,
    ) -> blockdev::Result<()> {
        self.timed("write_run_gather", |d| {
            d.write_run_gather(start, bufs, kind)
        })
    }

    fn sync(&mut self) -> blockdev::Result<()> {
        self.sync_calls += 1;
        self.timed("sync", |d| d.sync())
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn attach_obs(&mut self, obs: DeviceObs) {
        self.inner.attach_obs(obs)
    }

    fn queue_timed(&mut self) -> Option<&mut dyn QueueTimed> {
        self.inner.queue_timed()
    }

    fn note_fence(&mut self) {
        self.inner.note_fence()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn stripe_blocks(&self) -> Option<u64> {
        self.inner.stripe_blocks()
    }

    fn shard_of_stripe(&self, stripe: u64) -> usize {
        self.inner.shard_of_stripe(stripe)
    }

    fn shard_stats(&self, shard: usize) -> Option<IoStats> {
        self.inner.shard_stats(shard)
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8; BLOCK_SIZE]) -> blockdev::Result<()> {
        self.timed("read_block", |d| d.read_block(block, buf))
    }

    fn write_block(
        &mut self,
        block: u64,
        buf: &[u8; BLOCK_SIZE],
        kind: WriteKind,
    ) -> blockdev::Result<()> {
        self.timed("write_block", |d| d.write_block(block, buf, kind))
    }
}

impl<D: QueueDevice> QueueDevice for TimedDev<D> {
    fn submit_gather(
        &mut self,
        start: u64,
        bufs: Vec<IoBuf>,
        kind: WriteKind,
    ) -> blockdev::Result<Ticket> {
        self.timed("submit_gather", |d| d.submit_gather(start, bufs, kind))
    }

    fn poll(&mut self) -> u64 {
        self.inner.poll()
    }

    fn complete(&mut self, ticket: Ticket) -> blockdev::Result<()> {
        self.timed("complete", |d| d.complete(ticket))
    }

    fn fence(&mut self) -> blockdev::Result<()> {
        self.timed("fence", |d| d.fence())
    }

    fn queue_capacity(&self) -> usize {
        self.inner.queue_capacity()
    }

    fn queue_stats(&self) -> QueueStats {
        self.inner.queue_stats()
    }

    fn take_queue_errors(&mut self) -> (u64, u64) {
        self.inner.take_queue_errors()
    }

    fn shard_queue_stats(&self, shard: usize) -> Option<QueueStats> {
        self.inner.shard_queue_stats(shard)
    }
}
