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
//! total order. Because the lane is the only path to the device, all of
//! PR 7's crash-state guarantees carry over unchanged: the sequence of
//! device writes produced by N concurrent clients is *some* serial
//! interleaving of their operations, and every prefix of that sequence is
//! a crash state the single-threaded core could also have produced.
//!
//! **Reads are served lock-free** against a sharded, reference-counted
//! snapshot cache layered over the core's `Arc`'d COW block cache:
//!
//! * Every inode has a monotonically increasing **generation counter**
//!   (`gens`, a `Vec<AtomicU64>` indexed by inode number). The writer
//!   lane bumps the generation of every inode an operation touches,
//!   *before* releasing the lock.
//! * A read loads the inode's generation once, then consults the sharded
//!   read cache: per-inode metadata (`{gen, ftype, size}`) and per-block
//!   payload (`{gen, Arc<Vec<u8>>}`) entries are valid only while their
//!   recorded generation matches the current one. A hit touches no lock
//!   but the shard's `RwLock` read side and copies straight out of the
//!   shared `Arc` — the writer can never mutate that payload in place,
//!   because [`Arc::make_mut`] in the core's write path copies-on-write
//!   whenever a published snapshot holds a second reference.
//! * The first block of a request that misses takes the writer lane
//!   *once* for the rest of the request: the blocks are fetched the way
//!   [`Lfs::read`] fetches them (`fetch_blocks`: runs of contiguous disk
//!   addresses as single device requests, extended by the file's
//!   read-ahead window), and every block fetched — read-ahead included —
//!   is published tagged with the generation observed *under the lock*.
//!   A sequential scan therefore takes the lane once per window and
//!   serves the requests in between lock-free.
//!
//! This gives **per-file ordering**: once a client observes a write's
//! completion, every later read of that file sees a generation at least
//! as new as the bump that write published (release/acquire on the
//! counter), so stale cached snapshots can never satisfy it. Reads
//! concurrent *with* a write may see either side — the usual POSIX
//! grey zone — and a read spanning multiple blocks may be torn at block
//! granularity, exactly like two processes sharing a page cache.
//!
//! **Concurrent `sync` batches through the group-commit path.** A `sync`
//! is a log append — a flush and a fence, no checkpoint — and callers
//! with work to do serialize on the writer lane. A `settled` atomic
//! mirrors [`Lfs::sync_settled`] (nothing dirty, and the last fence
//! covers every partial write), refreshed at every lane exit, so a
//! `sync` arriving after another one made everything durable returns
//! without touching the lane at all (counted in `sync_handoffs` — the
//! WAL-style commit handoff).
//!
//! **Access times** are the one piece of mutable state a lock-free read
//! must produce. Reads queue `(ino, clock)` pairs into a pending list and
//! the writer lane drains it at every acquisition — before the next
//! mutation, flush, or checkpoint — which is exactly where a
//! single-threaded trace would have applied them. Single-client runs are
//! therefore **bit-identical** to the plain `Lfs` (pinned by the
//! `shared_equivalence` proptest): atime values are captured from the
//! clock mirror at read time and applied before the next imap encode,
//! and no other state diverges.
//!
//! # Memory bound
//!
//! Published snapshots pin their writer-cache twins ([`CachedBlock`]
//! eviction skips pinned blocks), so the read cache is bounded at ~1/4 of
//! `cache_limit_bytes` (plus metadata); with the writer cache itself the
//! worst case is ~1.25× the configured limit. Shards evict
//! stale-generation entries first, then arbitrary ones.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use blockdev::{QueueDevice, BLOCK_SIZE};
use lfs_obs::{Histogram, MetricsSnapshot, Obs};
use vfs::{DirEntry, FileSystem, FileType, FsError, FsResult, Ino, Metadata, StatFs};

use crate::config::LfsConfig;
use crate::fs::Lfs;
use crate::stats::LfsStats;

/// Number of read-cache shards. Sixteen keeps cross-client contention on
/// the shard `RwLock`s negligible at the client counts the server runs
/// (each hit takes one read lock) without bloating the structure.
const SHARDS: usize = 16;

/// A published block snapshot: valid while `gen` matches the owning
/// inode's current generation.
struct RBlock {
    gen: u64,
    data: Arc<Vec<u8>>,
}

/// Published scalar metadata of one inode.
#[derive(Clone, Copy)]
struct RMeta {
    gen: u64,
    ftype: FileType,
    size: u64,
}

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
    /// Reads satisfied entirely from the shared cache (no writer lane).
    /// A read takes the lane at most once for its blocks, so
    /// `reads - lockfree_reads` is the number of lane trips (plus reads
    /// at or past end of file, which look no block up and count in
    /// `reads` only).
    pub lockfree_reads: u64,
    /// Requested blocks copied out of the shared cache without the lane —
    /// those ahead of a request's first miss included.
    pub block_hits: u64,
    /// Requested blocks served under the writer lane: a request's first
    /// miss and every block after it. (Read-ahead blocks are nobody's
    /// lookup and count nowhere; they turn later lookups into hits.)
    pub block_misses: u64,
    /// Payload bytes returned to readers.
    pub read_bytes: u64,
    /// `sync` calls satisfied by the settled fast path (group-commit
    /// handoff) without taking the writer lane.
    pub sync_handoffs: u64,
}

struct Inner<D: QueueDevice> {
    /// The writer lane: every mutation and every cache miss serializes
    /// here. Poisoning is deliberately ignored (a panicking client must
    /// not brick the mount); on-disk state stays crash-consistent because
    /// the lane only ever produces legal log prefixes.
    writer: Mutex<Lfs<D>>,
    /// Per-inode generation counters, indexed by inode number. Bumped
    /// under the writer lock for every inode an operation touches.
    gens: Vec<AtomicU64>,
    blocks: [RwLock<HashMap<(Ino, u64), RBlock>>; SHARDS],
    metas: [RwLock<HashMap<Ino, RMeta>>; SHARDS],
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
    /// Per-shard entry cap for `blocks`.
    block_cap: usize,
    /// Per-shard entry cap for `metas`.
    meta_cap: usize,
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

fn block_shard(ino: Ino, bno: u64) -> usize {
    let h = (ino as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(bno.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    (h >> 48) as usize % SHARDS
}

fn meta_shard(ino: Ino) -> usize {
    ino as usize % SHARDS
}

impl<D: QueueDevice> SharedLfs<D> {
    /// Wraps an already formatted/mounted [`Lfs`] for shared access.
    pub fn new(fs: Lfs<D>) -> SharedLfs<D> {
        let max_inodes = fs.superblock().max_inodes as usize;
        let cache_blocks = (fs.config().cache_limit_bytes as usize / BLOCK_SIZE).max(SHARDS);
        // Bound the read cache at a quarter of the writer cache so pinned
        // twins never dominate the configured limit; see module docs.
        let block_cap = (cache_blocks / 4 / SHARDS).max(16);
        let settled = fs.sync_settled();
        let clock = fs.clock();
        SharedLfs {
            inner: Arc::new(Inner {
                writer: Mutex::new(fs),
                gens: (0..=max_inodes).map(|_| AtomicU64::new(0)).collect(),
                blocks: std::array::from_fn(|_| RwLock::new(HashMap::new())),
                metas: std::array::from_fn(|_| RwLock::new(HashMap::new())),
                atimes: Mutex::new(Vec::new()),
                clock: AtomicU64::new(clock),
                settled: AtomicBool::new(settled),
                counters: ReadCounters::default(),
                read_hist: RwLock::new(None),
                block_cap,
                meta_cap: 1024,
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

    /// Escape hatch for tools (torture, invariants, benchmarks): exclusive
    /// access to the underlying [`Lfs`] through the writer lane.
    pub fn with_fs<R>(&self, f: impl FnOnce(&mut Lfs<D>) -> R) -> R {
        self.with_writer(f)
    }

    fn gen_of(&self, ino: Ino) -> u64 {
        self.inner
            .gens
            .get(ino as usize)
            .map_or(0, |g| g.load(Ordering::Acquire))
    }

    /// Bumps `ino`'s generation; call only while holding the writer lock
    /// (the release ordering pairs with `gen_of`'s acquire).
    fn bump_gen(&self, ino: Ino) {
        if let Some(g) = self.inner.gens.get(ino as usize) {
            g.fetch_add(1, Ordering::AcqRel);
        }
    }

    // ----- read cache ---------------------------------------------------

    fn meta_lookup(&self, ino: Ino, gen: u64) -> Option<RMeta> {
        let map = self.inner.metas[meta_shard(ino)]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        map.get(&ino).filter(|m| m.gen == gen).copied()
    }

    fn block_lookup(&self, ino: Ino, bno: u64, gen: u64) -> Option<Arc<Vec<u8>>> {
        let map = self.inner.blocks[block_shard(ino, bno)]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        map.get(&(ino, bno))
            .filter(|b| b.gen == gen)
            .map(|b| Arc::clone(&b.data))
    }

    fn publish_meta(&self, ino: Ino, m: RMeta) {
        let mut map = self.inner.metas[meta_shard(ino)]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.inner.meta_cap {
            let gens = &self.inner.gens;
            map.retain(|&i, e| {
                gens.get(i as usize)
                    .is_some_and(|g| g.load(Ordering::Relaxed) == e.gen)
            });
            prune_half(&mut map, self.inner.meta_cap);
        }
        map.insert(ino, m);
    }

    fn publish_block(&self, ino: Ino, bno: u64, gen: u64, data: Arc<Vec<u8>>) {
        let mut map = self.inner.blocks[block_shard(ino, bno)]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.inner.block_cap {
            let gens = &self.inner.gens;
            // Stale generations first — those can never serve a hit again.
            map.retain(|&(i, _), b| {
                gens.get(i as usize)
                    .is_some_and(|g| g.load(Ordering::Relaxed) == b.gen)
            });
            prune_half(&mut map, self.inner.block_cap);
        }
        map.insert((ino, bno), RBlock { gen, data });
    }

    /// Loads `ino`'s scalar attributes through the writer lane and
    /// publishes them at the generation observed under the lock.
    fn load_meta(&self, ino: Ino) -> FsResult<RMeta> {
        self.with_writer(|fs| {
            let a = fs.inode_attrs(ino)?;
            let m = RMeta {
                gen: self.gen_of(ino),
                ftype: a.ftype,
                size: a.size,
            };
            self.publish_meta(ino, m);
            Ok(m)
        })
    }

    // ----- lock-free read ----------------------------------------------

    /// The concurrent read path: generation-validated lookups against the
    /// shared cache; the first missing block takes the writer lane once
    /// for the rest of the request. Matches [`Lfs::read`] exactly for a
    /// single client (same bytes, same errors, same queued-atime effect);
    /// concurrent readers may observe block-granular tearing against
    /// in-flight writes.
    pub fn read_at(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let c = &self.inner.counters;
        c.reads.fetch_add(1, Ordering::Relaxed);
        let gen = self.gen_of(ino);
        let meta = match self.meta_lookup(ino, gen) {
            Some(m) => m,
            None => self.load_meta(ino)?,
        };
        if meta.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        if offset >= meta.size {
            return Ok(0);
        }
        let n = buf.len().min((meta.size - offset) as usize);
        let buf = &mut buf[..n];
        let bs = BLOCK_SIZE as u64;
        // The file blocks the request covers, `bno..end`: none when it
        // asks for no bytes.
        let mut bno = offset / bs;
        let end = if n == 0 {
            bno
        } else {
            (offset + n as u64 - 1) / bs + 1
        };
        // Copies the part of file block `b` that the request covers.
        let copy_out = |buf: &mut [u8], b: u64, data: &[u8]| {
            let from = (b * bs).max(offset);
            let to = ((b + 1) * bs).min(offset + n as u64);
            buf[(from - offset) as usize..(to - offset) as usize]
                .copy_from_slice(&data[(from - b * bs) as usize..(to - b * bs) as usize]);
        };
        let mut hits = 0;
        while bno < end {
            let Some(data) = self.block_lookup(ino, bno, meta.gen) else {
                break;
            };
            copy_out(buf, bno, &data);
            bno += 1;
            hits += 1;
        }
        c.block_hits.fetch_add(hits, Ordering::Relaxed);
        if bno == end {
            c.lockfree_reads.fetch_add(1, Ordering::Relaxed);
            // A pure cache hit consumes zero device time; record it so the
            // latency histogram keeps one sample per read, as the
            // exclusive path does.
            let hist = self
                .inner
                .read_hist
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            if let Some(h) = hist {
                h.record(0);
            }
        } else {
            c.block_misses.fetch_add(end - bno, Ordering::Relaxed);
            // One lane trip, and one `op.read_ns` sample carrying its
            // device time, for everything the request still lacks.
            self.with_writer(|fs| {
                let gen = self.gen_of(ino);
                fs.timed(
                    |o| &o.read,
                    |fs| {
                        fs.fetch_snapshots(ino, bno, end - 1, |b, data| {
                            if b < end {
                                copy_out(buf, b, data);
                            }
                            self.publish_block(ino, b, gen, Arc::clone(data));
                        })
                    },
                )
            })?;
        }
        c.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
        lock(&self.inner.atimes).push((ino, self.inner.clock.load(Ordering::Acquire)));
        Ok(n)
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

    /// `sync` with the group-commit fast path. When nothing is dirty and
    /// the last fence covers every partial write, every acknowledged
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

    /// Drops clean cached data in both the core cache and the shared read
    /// cache, so subsequent reads exercise the disk.
    pub fn drop_caches(&self) {
        self.with_writer(|fs| fs.drop_caches());
        for s in &self.inner.blocks {
            s.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
        for s in &self.inner.metas {
            s.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
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

/// When `map` is still at/over `cap` after the stale sweep, drop every
/// other entry — O(cap) and rare, which beats tracking LRU order on the
/// lock-free hot path.
fn prune_half<K, V>(map: &mut HashMap<K, V>, cap: usize) {
    if map.len() >= cap {
        let mut keep = false;
        map.retain(|_, _| {
            keep = !keep;
            keep
        });
    }
}

impl<D: QueueDevice> FileSystem for SharedLfs<D> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.with_writer(|fs| {
            let ino = fs.create(path)?;
            // Bump even though the file is new: inode numbers are reused,
            // so stale snapshots of a previous incarnation must die here.
            self.bump_gen(ino);
            Ok(ino)
        })
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.with_writer(|fs| {
            let ino = fs.mkdir(path)?;
            self.bump_gen(ino);
            Ok(ino)
        })
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.with_writer(|fs| fs.lookup(path))
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        self.with_writer(|fs| {
            let r = fs.write(ino, offset, data);
            // Bump on error too: a failed write may still have buffered a
            // prefix of its blocks.
            self.bump_gen(ino);
            r
        })
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.read_at(ino, offset, buf)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.with_writer(|fs| {
            let r = fs.truncate(ino, size);
            self.bump_gen(ino);
            r
        })
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.with_writer(|fs| {
            let victim = fs.resolve(path).ok();
            let r = fs.unlink(path);
            if r.is_ok() {
                if let Some(v) = victim {
                    self.bump_gen(v);
                }
            }
            r
        })
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.with_writer(|fs| {
            let victim = fs.resolve(path).ok();
            let r = fs.rmdir(path);
            if r.is_ok() {
                if let Some(v) = victim {
                    self.bump_gen(v);
                }
            }
            r
        })
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.with_writer(|fs| {
            let src = fs.resolve(from).ok();
            let dst = fs.resolve(to).ok();
            let r = fs.rename(from, to);
            if r.is_ok() {
                // The replaced target (if any) is gone; the source keeps
                // its content but bumping is cheap and removes any doubt.
                for v in [src, dst].into_iter().flatten() {
                    self.bump_gen(v);
                }
            }
            r
        })
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.with_writer(|fs| {
            let src = fs.resolve(existing).ok();
            let r = fs.link(existing, new);
            if r.is_ok() {
                if let Some(v) = src {
                    self.bump_gen(v);
                }
            }
            r
        })
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
