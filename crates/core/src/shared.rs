//! Shared concurrent access to an [`Lfs`]: the single-writer-lane /
//! lock-free-reader front end ([`SharedLfs`]).
//!
//! # Concurrency model
//!
//! The log-structured design gives the write path a natural serialization
//! point: *everything* mutable — log appends, flushes, cleaning,
//! checkpoints — already funnels through the tail of the log. `SharedLfs`
//! makes that explicit with a **writer lane**: one `Mutex<Lfs<D>>` through
//! which every mutating operation (and every cache miss) passes, in a
//! total order. Because the lane is the only path to the device, the
//! crash-state guarantees of the single-threaded core carry over
//! unchanged: the sequence of device writes produced by N concurrent
//! clients is *some* serial interleaving of their operations, and every
//! prefix of that sequence is a crash state the single-threaded core
//! could also have produced.
//!
//! **Reads are served lock-free** from the core's own block cache — the
//! one cache, which absorbs writes and serves reads for both front ends:
//!
//! * The cache maps `(ino, file block)` to the block's bytes and is split
//!   into 16 shards behind `RwLock`s. The lane is its only writer: it
//!   inserts, overwrites and evicts entries under the shard's write
//!   lock. A read copies a resident block's bytes out under the
//!   shard's read lock, so it sees the block whole, old or new, and keeps
//!   no reference to it afterwards: readers never delay eviction.
//! * Each inode has one atomic word: its size plus a directory bit, or
//!   "unknown". The lane stores it after every operation that can change
//!   either (create, mkdir, write, truncate, and the inode an unlink,
//!   rmdir or rename may delete) and after every miss. A read loads the
//!   word once and copies the resident blocks the request covers.
//! * At the first block the request lacks — or at once when the word is
//!   unknown — the read takes the writer lane *once* and runs
//!   [`Lfs::read`] for the rest of the request: the missing blocks are
//!   fetched the way every read fetches them (runs of contiguous disk
//!   addresses as single device requests, extended by the file's
//!   read-ahead window). A sequential scan therefore takes the lane once
//!   per window and serves the requests in between lock-free.
//!
//! This gives **per-file ordering**: the lane stores a file's word only
//! after the operation's blocks are in the cache (release/acquire on the
//! word), so once a client observes a write's completion, every later
//! read of that file sees a size at least that new and the written bytes
//! — from the cache, or through the lane once they were evicted. Reads
//! concurrent *with* a write may see either side — the usual POSIX grey
//! zone — and a read spanning multiple blocks may be torn at block
//! granularity, exactly like two processes sharing a page cache. Lock
//! order is lane before shard: nothing takes the lane while it holds a
//! shard lock.
//!
//! **Concurrent `sync` batches through the group-commit path.** A `sync`
//! is a log append — a flush and a fence, no checkpoint — and callers
//! with work to do serialize on the writer lane. A `settled` atomic
//! mirrors [`Lfs::sync_settled`] (nothing a sync would write, and the
//! last fence covers every partial write), refreshed at every lane exit,
//! so a `sync` arriving after another one made everything durable returns
//! without touching the lane at all (counted in `sync_handoffs` — the
//! WAL-style commit handoff).
//!
//! **Access times** are the one piece of mutable state a lock-free read
//! must produce. Reads queue `(ino, clock)` pairs into a pending list and
//! the writer lane drains it at every acquisition — before the next
//! mutation, flush, or checkpoint — which is exactly where a
//! single-threaded trace would have applied them. Single-client runs are
//! therefore **bit-identical** to the plain `Lfs` (pinned by the
//! `single_client_shared_matches_plain_bit_for_bit` proptest): atime
//! values are captured from the clock mirror at read time and applied
//! before the next imap encode, and no other state diverges.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use blockdev::{QueueDevice, BLOCK_SIZE};
use lfs_obs::{Histogram, MetricsSnapshot, Obs};
use vfs::{DirEntry, FileSystem, FileType, FsError, FsResult, Ino, Metadata, StatFs};

use crate::cache::BlockMap;
use crate::config::LfsConfig;
use crate::fs::Lfs;
use crate::stats::LfsStats;

/// An inode's word when the lane has not described it (or it is gone).
const UNKNOWN: u64 = u64::MAX;

/// An inode's word when it is a directory; otherwise the word is the
/// file's size.
const DIR: u64 = 1 << 63;

/// Lock-free read-side counters (all monotonic).
#[derive(Default)]
struct ReadCounters {
    reads: AtomicU64,
    lockfree_reads: AtomicU64,
    block_hits: AtomicU64,
    block_misses: AtomicU64,
    read_bytes: AtomicU64,
    sync_handoffs: AtomicU64,
}

/// A consistent copy of the read-side counters; see
/// [`SharedLfs::shared_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedReadStats {
    /// Total `read` calls served.
    pub reads: u64,
    /// Reads served entirely from the block cache, without the writer
    /// lane. A read takes the lane at most once, so `reads -
    /// lockfree_reads` is the number of lane trips (plus reads at or past
    /// end of file, which look no block up and count in `reads` only).
    pub lockfree_reads: u64,
    /// Requested blocks copied out of the block cache without the lane —
    /// those ahead of a request's first miss included.
    pub block_hits: u64,
    /// Requested blocks served under the writer lane: a request's first
    /// miss and every block after it, or all of them when the file's size
    /// was not yet known without the lane. (Read-ahead blocks are nobody's
    /// lookup and count nowhere; they turn later lookups into hits.)
    pub block_misses: u64,
    /// Payload bytes returned to readers.
    pub read_bytes: u64,
    /// `sync` calls satisfied by the settled fast path (group-commit
    /// handoff) without taking the writer lane.
    pub sync_handoffs: u64,
}

struct Inner<D: QueueDevice> {
    /// The lane's block map, read here without the lane. Declared (so
    /// dropped) before `writer`: the core's own handle is then the last,
    /// and the blocks are freed where a plain `Lfs` frees them, ahead of
    /// the cache's buffer pool. Freed after the pool instead, they
    /// doubled the page faults of the next mount in a format–fill–drop
    /// loop.
    cache: Arc<BlockMap>,
    /// The writer lane: every mutation and every cache miss serializes
    /// here. Poisoning is deliberately ignored (a panicking client must
    /// not brick the mount); on-disk state stays crash-consistent because
    /// the lane only ever produces legal log prefixes.
    writer: Mutex<Lfs<D>>,
    /// Per-inode words (a size, [`DIR`] or [`UNKNOWN`]), indexed by inode
    /// number, stored by the lane only; see the module docs.
    attrs: Vec<AtomicU64>,
    /// Access times queued by lock-free reads; drained (FIFO) at every
    /// writer-lane acquisition.
    atimes: Mutex<Vec<(Ino, u64)>>,
    /// Mirror of the core's logical clock, refreshed on writer-lane exit.
    clock: AtomicU64,
    /// Mirror of [`Lfs::sync_settled`]; see the module docs.
    settled: AtomicBool,
    counters: ReadCounters,
    /// `op.read_ns` histogram for lock-free hits (zero device time).
    read_hist: RwLock<Option<Arc<Histogram>>>,
}

/// A cloneable, thread-safe handle to one mounted log-structured file
/// system. See the [module docs](self) for the concurrency model.
///
/// Clones share the mount; each client (thread) holds its own handle and
/// uses the ordinary [`FileSystem`] interface.
///
/// ```
/// use blockdev::MemDisk;
/// use lfs_core::{LfsConfig, SharedLfs};
/// use vfs::FileSystem;
///
/// let fs = SharedLfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap();
/// let mut h1 = fs.clone();
/// let ino = h1.write_file("/hello", b"from the log").unwrap();
/// let t = std::thread::spawn({
///     let mut h2 = fs.clone();
///     move || h2.read_to_vec(ino).unwrap()
/// });
/// assert_eq!(t.join().unwrap(), b"from the log");
/// ```
pub struct SharedLfs<D: QueueDevice> {
    inner: Arc<Inner<D>>,
}

impl<D: QueueDevice> Clone for SharedLfs<D> {
    fn clone(&self) -> Self {
        SharedLfs {
            inner: Arc::clone(&self.inner),
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stores what `fs` knows of `ino` in its word of `attrs`: call only with
/// the lane held (or `fs` owned), after the operation's blocks are in the
/// cache — the release pairs with `read_at`'s acquire.
fn publish<D: QueueDevice>(attrs: &[AtomicU64], fs: &Lfs<D>, ino: Ino) {
    let word = match fs.inodes.get(&ino) {
        None => UNKNOWN,
        Some(c) if c.inode.ftype == FileType::Directory => DIR,
        Some(c) => c.inode.size,
    };
    if let Some(w) = attrs.get(ino as usize) {
        w.store(word, Ordering::Release);
    }
}

impl<D: QueueDevice> SharedLfs<D> {
    /// Wraps an already formatted/mounted [`Lfs`] for shared access.
    pub fn new(fs: Lfs<D>) -> SharedLfs<D> {
        let max_inodes = fs.superblock().max_inodes as usize;
        let attrs: Vec<AtomicU64> = (0..=max_inodes).map(|_| AtomicU64::new(UNKNOWN)).collect();
        for &ino in fs.inodes.keys() {
            publish(&attrs, &fs, ino);
        }
        SharedLfs {
            inner: Arc::new(Inner {
                cache: fs.blocks.shared_map(),
                attrs,
                atimes: Mutex::new(Vec::new()),
                clock: AtomicU64::new(fs.clock()),
                settled: AtomicBool::new(fs.sync_settled()),
                counters: ReadCounters::default(),
                read_hist: RwLock::new(None),
                writer: Mutex::new(fs),
            }),
        }
    }

    /// Formats `dev` and returns a shared handle (see [`Lfs::format`]).
    pub fn format(dev: D, cfg: LfsConfig) -> FsResult<SharedLfs<D>> {
        Ok(SharedLfs::new(Lfs::format(dev, cfg)?))
    }

    /// Mounts an existing file system (see `Lfs::mount`).
    pub fn mount(dev: D, cfg: LfsConfig) -> FsResult<SharedLfs<D>> {
        Ok(SharedLfs::new(Lfs::mount(dev, cfg)?))
    }

    /// Unwraps the handle back into the exclusive [`Lfs`], draining any
    /// queued access times. Fails (returning `self`) while other handles
    /// are alive.
    pub fn into_inner(self) -> Result<Lfs<D>, SharedLfs<D>> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => {
                let mut fs = inner.writer.into_inner().unwrap_or_else(|e| e.into_inner());
                for (ino, at) in inner.atimes.into_inner().unwrap_or_else(|e| e.into_inner()) {
                    fs.apply_atime_quiet(ino, at);
                }
                Ok(fs)
            }
            Err(arc) => Err(SharedLfs { inner: arc }),
        }
    }

    /// Runs `f` on the writer lane: takes the lock, drains queued access
    /// times first (so they land before whatever `f` encodes), and
    /// refreshes the clock/settled mirrors on the way out.
    fn with_writer<R>(&self, f: impl FnOnce(&mut Lfs<D>) -> R) -> R {
        let inner = &*self.inner;
        let mut fs = lock(&inner.writer);
        {
            let mut pending = lock(&inner.atimes);
            for (ino, at) in pending.drain(..) {
                fs.apply_atime_quiet(ino, at);
            }
        }
        let r = f(&mut fs);
        inner.clock.store(fs.clock(), Ordering::Release);
        inner.settled.store(fs.sync_settled(), Ordering::Release);
        r
    }

    /// Runs the operation `f` on the writer lane and republishes `ino`.
    fn with_publish<R>(&self, ino: Ino, f: impl FnOnce(&mut Lfs<D>) -> R) -> R {
        self.with_writer(|fs| {
            let r = f(fs);
            publish(&self.inner.attrs, fs, ino);
            r
        })
    }

    /// Runs the namespace operation `f` on the writer lane and
    /// republishes the inode `path` named before it ran, which `f` may
    /// have deleted.
    fn with_victim(&self, path: &str, f: impl FnOnce(&mut Lfs<D>) -> FsResult<()>) -> FsResult<()> {
        self.with_writer(|fs| {
            let victim = fs.resolve(path).ok();
            let r = f(fs);
            if let Some(v) = victim {
                publish(&self.inner.attrs, fs, v);
            }
            r
        })
    }

    /// Escape hatch for tools (torture, invariants, benchmarks): exclusive
    /// access to the underlying [`Lfs`] through the writer lane. A change
    /// `f` makes to a file's size or type is not published to lock-free
    /// readers; use the [`FileSystem`] methods for those.
    pub fn with_fs<R>(&self, f: impl FnOnce(&mut Lfs<D>) -> R) -> R {
        self.with_writer(f)
    }

    // ----- lock-free read ----------------------------------------------

    /// The concurrent read path: copies the resident blocks the request
    /// covers out of the block cache, and at the first block it lacks
    /// takes the writer lane once for the rest of the request. Matches
    /// [`Lfs::read`] exactly for a single client (same bytes, same errors,
    /// same access time); concurrent readers may observe block-granular
    /// tearing against in-flight writes.
    pub fn read_at(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let inner = &*self.inner;
        let c = &inner.counters;
        c.reads.fetch_add(1, Ordering::Relaxed);
        let word = inner
            .attrs
            .get(ino as usize)
            .map_or(UNKNOWN, |w| w.load(Ordering::Acquire));
        // Bytes copied out of resident blocks before the first miss.
        let mut pos = 0;
        if word != UNKNOWN {
            if word == DIR {
                return Err(FsError::IsADirectory);
            }
            if offset >= word {
                return Ok(0);
            }
            let n = buf.len().min((word - offset) as usize);
            let mut hits = 0;
            while pos < n {
                let at = offset + pos as u64;
                let (bno, off_in) = (at / BLOCK_SIZE as u64, (at % BLOCK_SIZE as u64) as usize);
                let dst = &mut buf[pos..n.min(pos + BLOCK_SIZE - off_in)];
                let len = dst.len();
                if !inner.cache.copy_out((ino, bno), off_in, dst) {
                    break;
                }
                pos += len;
                hits += 1;
            }
            c.block_hits.fetch_add(hits, Ordering::Relaxed);
            if pos == n {
                c.lockfree_reads.fetch_add(1, Ordering::Relaxed);
                // A pure cache hit consumes zero device time; record it so
                // the latency histogram keeps one sample per read, as the
                // exclusive path does.
                let hist = inner
                    .read_hist
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                if let Some(h) = hist {
                    h.record(0);
                }
                c.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
                lock(&inner.atimes).push((ino, inner.clock.load(Ordering::Acquire)));
                return Ok(n);
            }
        }
        // One lane trip — one `Lfs::read`, which also sets the access time
        // and records one `op.read_ns` sample with its device time — for
        // everything the request still lacks.
        let from = offset + pos as u64;
        let got = self.with_publish(ino, |fs| fs.read(ino, from, &mut buf[pos..]))?;
        if got > 0 {
            let bs = BLOCK_SIZE as u64;
            let blocks = (from + got as u64 - 1) / bs - from / bs + 1;
            c.block_misses.fetch_add(blocks, Ordering::Relaxed);
        }
        c.read_bytes
            .fetch_add((pos + got) as u64, Ordering::Relaxed);
        Ok(pos + got)
    }

    // ----- writer-lane operations ---------------------------------------

    /// Forces buffered modifications to the log without a checkpoint
    /// (see [`Lfs::flush`]).
    pub fn flush(&self) -> FsResult<()> {
        self.with_writer(|fs| fs.flush())
    }

    /// Writes a checkpoint (see [`Lfs::checkpoint`]).
    pub fn checkpoint(&self) -> FsResult<()> {
        self.with_writer(|fs| fs.checkpoint())
    }

    /// `sync` with the group-commit fast path. When nothing a sync would
    /// write is dirty (directories already on disk wait for a later
    /// flush; see [`Lfs`]'s `sync`) and the last fence covers every
    /// partial write, every acknowledged
    /// write is already durable through roll-forward, so the call returns
    /// without taking the writer lane. Otherwise it runs [`Lfs`]'s
    /// `sync` — one flush and one fence, no checkpoint — on the lane.
    pub fn sync_all(&self) -> FsResult<()> {
        if self.inner.settled.load(Ordering::Acquire) {
            self.inner
                .counters
                .sync_handoffs
                .fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.with_writer(|fs| fs.sync())
    }

    /// Advances the logical clock (see [`Lfs::advance_clock`]).
    pub fn advance_clock(&self, delta: u64) {
        self.with_writer(|fs| fs.advance_clock(delta));
    }

    /// Drops clean cached data, so subsequent reads exercise the disk
    /// (see [`Lfs::drop_caches`]).
    pub fn drop_caches(&self) {
        self.with_writer(|fs| fs.drop_caches());
    }

    /// A consistent snapshot of the file-system statistics, taken under
    /// the writer lock with ring-side error counts absorbed first —
    /// concurrent readers can never observe a torn or backwards copy.
    pub fn stats(&self) -> LfsStats {
        self.with_writer(|fs| {
            fs.absorb_queue_errors();
            *fs.stats()
        })
    }

    /// A snapshot of the lock-free read-side counters.
    pub fn shared_stats(&self) -> SharedReadStats {
        let c = &self.inner.counters;
        SharedReadStats {
            reads: c.reads.load(Ordering::Relaxed),
            lockfree_reads: c.lockfree_reads.load(Ordering::Relaxed),
            block_hits: c.block_hits.load(Ordering::Relaxed),
            block_misses: c.block_misses.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            sync_handoffs: c.sync_handoffs.load(Ordering::Relaxed),
        }
    }

    /// Attaches observability (see [`Lfs::set_obs`]); also wires the
    /// lock-free read path's `op.read_ns` histogram.
    pub fn set_obs(&self, obs: Obs) {
        let hist = obs.registry.as_ref().map(|r| r.histogram("op.read_ns"));
        self.with_writer(|fs| fs.set_obs(obs));
        *self
            .inner
            .read_hist
            .write()
            .unwrap_or_else(|e| e.into_inner()) = hist;
    }

    /// Publishes core metrics plus the `lfs.shared.*` read-side counters
    /// into the attached registry (no-op without one).
    pub fn publish_metrics(&self) {
        let shared = self.shared_stats();
        self.with_writer(|fs| {
            fs.publish_metrics();
            if let Some(reg) = fs.obs().registry.as_deref() {
                reg.counter("lfs.shared.reads").store(shared.reads);
                reg.counter("lfs.shared.lockfree_reads")
                    .store(shared.lockfree_reads);
                reg.counter("lfs.shared.block_hits")
                    .store(shared.block_hits);
                reg.counter("lfs.shared.block_misses")
                    .store(shared.block_misses);
                reg.counter("lfs.shared.read_bytes")
                    .store(shared.read_bytes);
                reg.counter("lfs.shared.sync_handoffs")
                    .store(shared.sync_handoffs);
            }
        })
    }

    /// Publishes current statistics and returns a metrics snapshot, or
    /// `None` when no registry is attached.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.publish_metrics();
        self.with_writer(|fs| fs.obs().snapshot())
    }
}

impl<D: QueueDevice> FileSystem for SharedLfs<D> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.with_writer(|fs| {
            // Publish even though the file is new: inode numbers are
            // reused, and the word may describe a previous incarnation.
            let ino = fs.create(path)?;
            publish(&self.inner.attrs, fs, ino);
            Ok(ino)
        })
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.with_writer(|fs| {
            let ino = fs.mkdir(path)?;
            publish(&self.inner.attrs, fs, ino);
            Ok(ino)
        })
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.with_writer(|fs| fs.lookup(path))
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        // Published on error too: a failed write may still have grown the
        // file by a prefix of its blocks.
        self.with_publish(ino, |fs| fs.write(ino, offset, data))
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.read_at(ino, offset, buf)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.with_publish(ino, |fs| fs.truncate(ino, size))
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.with_victim(path, |fs| fs.unlink(path))
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.with_victim(path, |fs| fs.rmdir(path))
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        // The source keeps its inode, type and size; a replaced target
        // may be gone.
        self.with_victim(to, |fs| fs.rename(from, to))
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.with_writer(|fs| fs.link(existing, new))
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        self.with_writer(|fs| fs.metadata(ino))
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.with_writer(|fs| fs.readdir(path))
    }

    fn sync(&mut self) -> FsResult<()> {
        self.sync_all()
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        self.with_writer(|fs| fs.statfs())
    }
}
