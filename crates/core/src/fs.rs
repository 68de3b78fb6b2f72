//! The `Lfs` file system: state, caching, addressing, and the VFS surface.
//!
//! The write path is the paper's: modifications accumulate in the file
//! cache (the block cache in `cache.rs`, the inodes and indirect blocks
//! in `meta.rs`) and reach disk only through large sequential partial
//! writes built by the flush machinery in `flush.rs`. Reads consult the
//! cache first and otherwise walk inode pointers exactly as Unix FFS would —
//! "once a file's inode has been found, the number of disk I/Os required
//! to read the file is identical in Sprite LFS and Unix FFS" (§3.1).

use std::collections::{BTreeSet, HashMap};

use blockdev::{QueueDevice, BLOCK_SIZE};
use vfs::{DirEntry, FileSystem, FileType, FsError, FsResult, Ino, Metadata, StatFs, ROOT_INO};

use crate::cache::{BlockCache, Key};
use crate::config::LfsConfig;
use crate::dir::{self, DirRecord};
use crate::dirlog::{DirLogRecord, DirOp};
use crate::inode::{IndirectBlock, Inode, InodeAttrs};
use crate::inodemap::InodeMap;
use crate::layout::{blocks_for_size, DiskAddr, Placement, MAX_FILE_SIZE, NIL_ADDR};
use crate::log::Log;
use crate::meta::{IndKey, Load, MetaCache, Owned, Ptrs};
use crate::stats::LfsStats;
use crate::superblock::Superblock;
use crate::usage::space::Space;
use crate::usage::SegState;

/// Attempts per device operation on the retry paths (1 initial + 4
/// retries). Paired with [`blockdev::FaultPlan`]'s default burst length
/// this lets transient faults clear; persistent faults still surface
/// within a bounded delay.
pub(crate) const IO_ATTEMPTS: u32 = 5;

/// Whether a device error is worth retrying. Geometry errors are
/// deterministic (a retry cannot fix an out-of-range request); only
/// `Io` errors model conditions that can clear.
pub(crate) fn is_transient(e: &blockdev::BlockError) -> bool {
    matches!(e, blockdev::BlockError::Io(_))
}

/// Exponential backoff between retries: 20 µs, 40 µs, 80 µs, ...
/// Short enough not to matter in tests, present so the policy is honest.
pub(crate) fn backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_micros(20u64 << attempt));
}

/// The bytes a truncation writes over the tail of the final block.
static ZERO_BLOCK: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// One name in the in-memory directory cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DirSlot {
    pub(crate) ino: Ino,
    pub(crate) ftype: FileType,
    /// Directory data block that holds the entry.
    pub(crate) blk: u64,
}

/// The cached view of one directory.
#[derive(Default)]
pub(crate) struct DirCache {
    pub(crate) map: HashMap<String, DirSlot>,
    /// Hint: a block index known to have had free space recently.
    pub(crate) space_hint: u64,
}

/// Sprite LFS over a block device.
///
/// See the crate-level documentation for the overall design, and
/// [`Lfs::format`] / [`Lfs::mount`] for how instances come to be.
pub struct Lfs<D: QueueDevice> {
    pub(crate) dev: D,
    pub(crate) sb: Superblock,
    pub(crate) cfg: LfsConfig,
    /// The log's position: write points, sequence counters, scratch pool.
    pub(crate) log: Log,
    pub(crate) imap: InodeMap,
    /// Free space: the usage table and the cleaner's state.
    pub(crate) space: Space,
    /// Inodes and indirect blocks: the block-pointer tree, and which of
    /// it is dirty.
    pub(crate) meta: MetaCache,
    /// The block cache, its map shared with [`crate::SharedLfs`]'s
    /// lock-free readers. It records which blocks are dirty.
    pub(crate) blocks: BlockCache,
    pub(crate) dcache: HashMap<Ino, DirCache>,
    /// Directory-op records not yet written to the log.
    pub(crate) dirlog_pending: Vec<DirLogRecord>,
    /// Dirty blocks, indirect blocks and inodes the last flush left
    /// behind: those of the directories a `sync` leaves to the directory
    /// log (`flush::Scope::Sync`). Zero after any other flush;
    /// `needs_flush` discounts them.
    pub(crate) sync_left: usize,
    /// Depth of in-flight namespace operations (see [`Lfs::with_nsop`]).
    /// While non-zero, `checkpoint` degrades to a plain flush.
    pub(crate) nsop_depth: u32,
    /// Logical clock (incremented per mutation).
    pub(crate) clock: u64,
    pub(crate) stats: LfsStats,
    /// Observability handles (tracing + metrics); off by default.
    pub(crate) obs: crate::obs::FsObs,
}

/// Looks `bno` up in a pointer window (see [`Lfs::ptr_window`]).
fn win_lookup(win: &Option<(u64, Vec<DiskAddr>)>, bno: u64) -> Option<DiskAddr> {
    let (start, ptrs) = win.as_ref()?;
    ptrs.get(usize::try_from(bno.checked_sub(*start)?).ok()?)
        .copied()
}

impl<D: QueueDevice> Lfs<D> {
    /// Formats `dev` as a fresh log-structured file system containing only
    /// the root directory, writes both checkpoint regions, and returns the
    /// mounted file system.
    pub fn format(dev: D, cfg: LfsConfig) -> FsResult<Lfs<D>> {
        let sb = Superblock::compute(dev.num_blocks(), cfg.seg_blocks, cfg.max_inodes)
            .ok_or(FsError::InvalidArgument("device too small for geometry"))?;
        // On a sharded device every segment must live on exactly one
        // shard, which requires the striping unit to equal the segment
        // size; and each shard needs at least one segment to host its
        // write point.
        if dev.shard_count() > 1 && dev.stripe_blocks() != Some(cfg.seg_blocks as u64) {
            return Err(FsError::InvalidArgument(
                "stripe unit must equal the segment size",
            ));
        }
        if (sb.nsegments as usize) < dev.shard_count().max(1) {
            return Err(FsError::InvalidArgument(
                "device too small: fewer segments than shards",
            ));
        }
        let mut fs = Lfs::bare(dev, sb, cfg)?;
        let sb_block = fs.sb.encode();
        fs.dev
            .write_block(
                crate::layout::SUPERBLOCK_ADDR,
                &sb_block,
                blockdev::WriteKind::Sync,
            )
            .map_err(FsError::device)?;

        // Create the root directory through the normal machinery.
        fs.imap.reserve(ROOT_INO);
        let now = fs.now();
        fs.meta
            .put_inode(Inode::new(ROOT_INO, 0, FileType::Directory, now));
        fs.space.activate(fs.log.write_points());

        // Write the initial state to *both* regions so `read_latest`
        // always has two candidates.
        fs.checkpoint()?;
        fs.checkpoint()?;
        Ok(fs)
    }

    /// Constructs the in-memory state shared by `format` and `mount`.
    /// Refuses a geometry that leaves some shard without a segment.
    pub(crate) fn bare(dev: D, sb: Superblock, cfg: LfsConfig) -> FsResult<Lfs<D>> {
        // One write point per shard, each starting its log in the
        // lowest-numbered segment of its shard: segment `s` for shard
        // `s`. Mount replaces the assignment with the checkpoint's.
        let shards = dev.shard_count().max(1);
        let segs = (0..sb.nsegments).map(|g| (g, dev.shard_of_stripe(g as u64).min(shards - 1)));
        let log = Log::open(sb.seg_blocks, shards, segs)
            .ok_or_else(|| FsError::Corrupt("a shard holds no segment".into()))?;
        let blocks = BlockCache::new(cfg.cache_limit_bytes);
        Ok(Lfs {
            dev,
            log,
            imap: InodeMap::new(sb.max_inodes),
            space: Space::new(sb.nsegments, shards),
            sb,
            cfg,
            meta: MetaCache::default(),
            blocks,
            dcache: HashMap::new(),
            dirlog_pending: Vec::new(),
            sync_left: 0,
            nsop_depth: 0,
            clock: 0,
            stats: LfsStats::default(),
            obs: crate::obs::FsObs::default(),
        })
    }

    /// Runs one device operation with up to `attempts` tries, backing off
    /// exponentially between them (`write` only labels the trace events).
    ///
    /// Only [`blockdev::BlockError::Io`] is considered transient; geometry
    /// errors (`OutOfRange`, `Misaligned`) are bugs or corruption and fail
    /// immediately. Each absorbed retry bumps [`LfsStats::io_retries`];
    /// exhausting the budget bumps [`LfsStats::io_giveups`] (the
    /// degraded-mode signal) and surfaces the last error as
    /// [`FsError::Device`]. With `attempts == 1` the caller does not own
    /// retries at all, so a failure is passed through uncounted.
    pub(crate) fn retry_io<T>(
        &mut self,
        write: bool,
        attempts: u32,
        mut op: impl FnMut(&mut D) -> blockdev::Result<T>,
    ) -> FsResult<T> {
        let mut attempt = 0;
        loop {
            match op(&mut self.dev) {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt + 1 < attempts => {
                    self.stats.io_retries += 1;
                    self.emit(|| lfs_obs::TraceEvent::Retry {
                        write,
                        attempt: attempt + 1,
                    });
                    backoff(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    if is_transient(&e) && attempts > 1 {
                        self.stats.io_giveups += 1;
                        self.emit(|| lfs_obs::TraceEvent::Giveup { write });
                    }
                    return Err(FsError::device(e));
                }
            }
        }
    }

    /// Writes `buf` at `start` under the [`Lfs::retry_io`] policy.
    pub(crate) fn write_retry(
        &mut self,
        start: u64,
        buf: &[u8],
        kind: blockdev::WriteKind,
    ) -> FsResult<()> {
        self.retry_io(true, IO_ATTEMPTS, |dev| dev.write_blocks(start, buf, kind))
    }

    /// Reads into `buf` from `start` under the [`Lfs::retry_io`] policy.
    pub(crate) fn read_retry(&mut self, start: u64, buf: &mut [u8]) -> FsResult<()> {
        self.retry_io(false, IO_ATTEMPTS, |dev| dev.read_blocks(start, buf))
    }

    /// Reads a contiguous run of blocks as *one* device request (see
    /// [`blockdev::BlockDevice::read_run`] for why this costs exactly the same
    /// simulated time as reading the blocks back to back) under the
    /// [`Lfs::retry_io`] policy.
    pub(crate) fn read_run_retry(&mut self, start: u64, buf: &mut [u8]) -> FsResult<()> {
        self.retry_io(false, IO_ATTEMPTS, |dev| dev.read_run(start, buf))
    }

    /// Folds device-side retry/giveup counts from the submission ring
    /// into [`LfsStats`]. With a queued device the engine owns retries of
    /// transient apply failures (re-issuing from the file system would
    /// reorder the log around later queued submissions); the counts still
    /// belong in the same `io_retries` / `io_giveups` ledger the
    /// synchronous retry paths feed.
    pub(crate) fn absorb_queue_errors(&mut self) {
        let (retries, giveups) = self.dev.take_queue_errors();
        self.stats.io_retries += retries;
        self.stats.io_giveups += giveups;
    }

    /// Returns the underlying device (e.g. to inspect [`blockdev::IoStats`]).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consumes the file system (without syncing) and returns the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// File-system statistics (Table 2 / Table 4 inputs).
    pub fn stats(&self) -> &LfsStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &LfsConfig {
        &self.cfg
    }

    /// The superblock geometry.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Current logical time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock — workload generators use this to give
    /// data realistic ages for the cost-benefit policy.
    pub fn advance_clock(&mut self, delta: u64) {
        self.clock += delta;
    }

    /// Number of clean (immediately writable) segments.
    pub fn clean_segment_count(&self) -> u32 {
        self.space.usage().clean_count()
    }

    /// The log write points, one `(segment, next free block offset)` per
    /// shard in shard order. A single-volume file system has exactly one.
    pub fn write_points(&self) -> &[(u32, u32)] {
        self.log.write_points()
    }

    /// Number of shards of the underlying device.
    pub fn shard_count(&self) -> usize {
        self.log.shards()
    }

    /// Which shard segment `seg` lives on (always 0 on a single
    /// volume): the device's stripe mapping, `seg % shard_count`.
    pub fn shard_of_seg(&self, seg: u32) -> usize {
        self.dev
            .shard_of_stripe(seg as u64)
            .min(self.shard_count() - 1)
    }

    /// The [`Placement`] over the write points and every clean segment
    /// off them, each shard keeping `reserve` segments back.
    pub(crate) fn placement(&self, reserve: usize) -> Placement {
        let clean = self.space.usage().clean_segs();
        let clean = clean.map(|s| (s, self.shard_of_seg(s)));
        self.log.placement(self.sb.seg_blocks, clean, reserve)
    }

    /// Dirty-byte level that triggers an automatic flush.
    /// [`LfsConfig::flush_threshold_bytes`] is sized so one flush fills
    /// one segment; on a multi-volume set a flush that small keeps only
    /// one arm busy while the other shards idle, so the trigger scales
    /// with the number of write points — each flush then carries about
    /// one segment *per shard* and the layout rotation hands every arm a
    /// full segment. Exactly the configured threshold on a single
    /// volume.
    pub(crate) fn flush_trigger_bytes(&self) -> u64 {
        self.cfg.flush_threshold_bytes * self.shard_count() as u64
    }

    /// Per-segment `last_write` times (the age input to the cost-benefit
    /// policy). With per-block modification times in the summaries, a
    /// segment full of cold blocks keeps its old age even while the
    /// owning files' mtimes advance.
    pub fn segment_ages(&self) -> Vec<u64> {
        let usage = self.space.usage().iter();
        usage.map(|(_, u)| u.last_write).collect()
    }

    /// Per-segment `(state, utilization)` snapshot — the data behind
    /// Figure 10.
    pub fn segment_snapshot(&self) -> Vec<(SegState, f64)> {
        let seg_bytes = self.cfg.seg_bytes();
        let usage = self.space.usage().iter();
        usage
            .map(|(_, u)| (u.state, u.utilization(seg_bytes)))
            .collect()
    }

    /// Drops all *clean* cached file data (and cached indirect blocks of
    /// clean files), so subsequent reads exercise the disk. Benchmarks use
    /// this between phases to measure cold-cache read behaviour, the way
    /// the paper's machine (32 MB RAM) could not keep the working set
    /// resident.
    pub fn drop_caches(&mut self) {
        self.blocks.drop_clean();
        let dirty = self.dirty_inos();
        self.meta.drop_clean(|ino| dirty.contains(&ino));
        self.dcache.clear();
    }

    /// The files with dirty state: data blocks, indirect blocks or the
    /// inode itself, in inode order.
    pub(crate) fn dirty_inos(&self) -> BTreeSet<Ino> {
        let mut inos: BTreeSet<Ino> = self.blocks.dirty().iter().map(|&(i, _)| i).collect();
        inos.extend(self.meta.dirty_inos());
        inos
    }

    /// Applies a deferred access-time update (see `shared.rs`: lock-free
    /// readers queue atimes and the writer lane drains them before its
    /// next operation). Quiet like [`InodeMap::set_atime_quiet`] — never
    /// dirties anything — and skipped when the file has since been
    /// deleted, so a stale queued atime cannot resurrect a freed entry.
    /// A freshly created inode has no disk address yet (`is_live` is
    /// false until its first flush) but is still allocated — it sits in
    /// the inode cache — and its atime must be applied, or a read of a
    /// new file would lose its access time where the exclusive path
    /// keeps it.
    pub(crate) fn apply_atime_quiet(&mut self, ino: Ino, atime: u64) {
        let allocated = self.imap.get(ino).map(|e| e.is_live()).unwrap_or(false)
            || self.meta.inode(ino).is_some();
        if allocated {
            self.imap.set_atime_quiet(ino, atime);
        }
    }

    /// Advances and returns the logical clock.
    pub(crate) fn now(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    // ----- inode cache -------------------------------------------------

    /// Ensures `ino` is in the inode cache, loading it from the log if
    /// needed.
    pub(crate) fn ensure_inode(&mut self, ino: Ino) -> FsResult<()> {
        if self.meta.inode(ino).is_some() {
            return Ok(());
        }
        let entry = *self.imap.get(ino)?;
        if !entry.is_live() {
            return Err(FsError::InvalidArgument("no such inode"));
        }
        let mut buf = [0u8; BLOCK_SIZE];
        self.retry_io(false, IO_ATTEMPTS, |dev| {
            dev.read_block(entry.addr, &mut buf)
        })?;
        self.meta.adopt_inode_block(entry.addr, &buf, &self.imap)?;
        if self.meta.inode(ino).is_none() {
            return Err(FsError::Corrupt(format!(
                "inode {ino}: slot {} of block {} does not hold it",
                entry.slot, entry.addr
            )));
        }
        Ok(())
    }

    /// Returns a copy of the cached inode.
    pub(crate) fn inode_clone(&mut self, ino: Ino) -> FsResult<Inode> {
        Ok(self.inode_ref(ino)?.clone())
    }

    /// Borrows the cached inode. The hot paths use this instead of
    /// [`Lfs::inode_clone`]: most callers only need one or two fields.
    pub(crate) fn inode_ref(&mut self, ino: Ino) -> FsResult<&Inode> {
        self.ensure_inode(ino)?;
        Ok(self.meta.inode(ino).expect("ensured above"))
    }

    /// Copies out just the scalar attributes — what stat and name
    /// resolution need — without cloning the block-pointer arrays.
    pub(crate) fn inode_attrs(&mut self, ino: Ino) -> FsResult<InodeAttrs> {
        Ok(self.inode_ref(ino)?.attrs())
    }

    /// Mutably borrows the cached inode, marking it dirty. Replaces the
    /// clone-mutate-`put_inode` dance on paths that always commit
    /// their change; do not use for conditional mutations.
    pub(crate) fn inode_mut(&mut self, ino: Ino) -> FsResult<&mut Inode> {
        self.ensure_inode(ino)?;
        Ok(self.meta.inode_mut(ino).expect("ensured above"))
    }

    // ----- the block-pointer tree --------------------------------------
    //
    // The metadata cache answers from what it holds or names the indirect
    // block to read; these read it and ask again.

    /// Reads the indirect block `load` names into the metadata cache.
    pub(crate) fn load_ind(&mut self, ino: Ino, load: Load) -> FsResult<()> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.read_retry(load.addr, &mut buf)?;
        let blk = IndirectBlock::decode(&buf);
        self.meta.insert_ind(ino, load.key, load.addr, blk);
        Ok(())
    }

    /// Current disk address of file block `bno` of `ino` ([`NIL_ADDR`] for
    /// holes).
    pub(crate) fn block_ptr(&mut self, ino: Ino, bno: u64) -> FsResult<DiskAddr> {
        self.ensure_inode(ino)?;
        loop {
            match self.meta.ptrs(ino, bno)? {
                Ptrs::Cached(p) => return Ok(p[0]),
                Ptrs::Hole(_) => return Ok(NIL_ADDR),
                Ptrs::Load(load) => self.load_ind(ino, load)?,
            }
        }
    }

    /// The current home of indirect block `key` of `ino`, `None` if the
    /// file has none; the block is cached after.
    pub(crate) fn ind_home(&mut self, ino: Ino, key: IndKey) -> FsResult<Option<DiskAddr>> {
        self.ensure_inode(ino)?;
        loop {
            match self.meta.ind_home(ino, key) {
                Ok(home) => return Ok(home),
                Err(load) => self.load_ind(ino, load)?,
            }
        }
    }

    /// Every block `inode` owns, with its address, in the order of
    /// [`crate::meta::owned_blocks`]. Indirect blocks come from the
    /// metadata cache, read into it on a miss; or, given the verified
    /// chunk roll-forward is replaying (with the address of its first
    /// block), from that chunk when it holds them and else straight from
    /// the device, around the cache.
    pub(crate) fn owned_blocks(
        &mut self,
        inode: &Inode,
        chunk: Option<(DiskAddr, &[u8])>,
    ) -> FsResult<Vec<(Owned, DiskAddr)>> {
        let ino = inode.ino;
        crate::meta::owned_blocks(inode, |key, addr| {
            if let Some((first, blocks)) = chunk {
                let nblocks = (blocks.len() / BLOCK_SIZE) as u64;
                if let Some(j) = addr.checked_sub(first).filter(|&j| j < nblocks) {
                    let at = j as usize * BLOCK_SIZE;
                    return Ok(IndirectBlock::decode(&blocks[at..at + BLOCK_SIZE]));
                }
            } else if let Some(blk) = self.meta.ind(ino, key) {
                return Ok(blk.clone());
            }
            let mut buf = vec![0u8; BLOCK_SIZE];
            self.read_retry(addr, &mut buf)?;
            let blk = IndirectBlock::decode(&buf);
            if chunk.is_none() {
                self.meta.insert_ind(ino, key, addr, blk.clone());
            }
            Ok(blk)
        })
    }

    // ----- data block cache --------------------------------------------

    /// Ensures file block `bno` of `ino` is cached (reading from disk or
    /// materialising zeros for a hole). The single-block helper of the
    /// write path and the directory code; file reads go through
    /// [`Lfs::fetch_blocks`].
    pub(crate) fn ensure_block(&mut self, ino: Ino, bno: u64) -> FsResult<()> {
        if self.blocks.contains((ino, bno)) {
            return Ok(());
        }
        let addr = self.block_ptr(ino, bno)?;
        let data = if addr == NIL_ADDR {
            self.blocks.zeroed_buf()
        } else {
            let mut data = self.blocks.take_buf();
            self.read_retry(addr, &mut data)?;
            data
        };
        self.blocks.insert_fetched((ino, bno), data, self.clock);
        Ok(())
    }

    /// Ensures file blocks `first..=last` of `ino` are cached, fetching
    /// runs of blocks with *contiguous disk addresses* as single device
    /// requests.
    ///
    /// Over the requested blocks this is exactly equivalent to calling
    /// [`Lfs::ensure_block`] on each in order: device requests happen in
    /// the same order (a pending run is issued before anything that would
    /// itself touch the device — an indirect-block load — and before
    /// skipping a cached block), blocks enter the cache in the same order
    /// with the same LRU stamps, and a run costs the same simulated time
    /// as its blocks read back-to-back
    /// ([`blockdev::BlockDevice::read_run`]). Only the device's *request
    /// count* differs.
    ///
    /// Every call is one request to the file's [`ReadAhead`] detector, and
    /// the window it opens lets the *final* run grow past `last`: through
    /// blocks whose addresses are resolvable from cached state and stay
    /// contiguous, stopping at holes, cached blocks, pointers that would
    /// need their own device read, and end of file. A scan therefore reads
    /// the blocks it would have read anyway, in the same order, in fewer
    /// requests.
    fn fetch_blocks(&mut self, ino: Ino, first: u64, last: u64) -> FsResult<()> {
        let file_blocks = blocks_for_size(self.inode_ref(ino)?.size);
        let ra = self.meta.read_ahead(ino).expect("cached above");
        let ahead = ra.open(first) as u64;
        // The run being assembled: (start address, first file block,
        // block count).
        let mut run: Option<(DiskAddr, u64, u64)> = None;
        // Pointer window: a copied stretch of pointers (from the inode's
        // direct array or a cached indirect block), so assembly resolves
        // addresses with an array index per block instead of per-block
        // cache lookups. Purely a lookup cache — loading it never touches
        // the device — and never longer than this call can use.
        let mut win: Option<(u64, Vec<DiskAddr>)> = None;
        let want = |bno: u64| (last - bno + 1 + ahead) as usize;
        for bno in first..=last {
            if self.blocks.contains((ino, bno)) {
                self.fetch_run(ino, &mut run)?;
                continue;
            }
            if win_lookup(&win, bno).is_none() {
                win = self.ptr_window(ino, bno, want(bno))?;
            }
            let addr = match win_lookup(&win, bno) {
                Some(a) => a,
                None => {
                    // Resolving this pointer reads an indirect block;
                    // issue the pending run first so device requests stay
                    // in file-block order.
                    self.fetch_run(ino, &mut run)?;
                    let a = self.block_ptr(ino, bno)?;
                    win = self.ptr_window(ino, bno, want(bno))?;
                    a
                }
            };
            if addr == NIL_ADDR {
                // A hole: materialise zeros without a device read.
                self.fetch_run(ino, &mut run)?;
                let zeros = self.blocks.zeroed_buf();
                self.blocks.insert_fetched((ino, bno), zeros, self.clock);
                continue;
            }
            run = match run {
                Some((start, rb, count)) if addr == start + count => Some((start, rb, count + 1)),
                Some(prev) => {
                    let mut prev = Some(prev);
                    self.fetch_run(ino, &mut prev)?;
                    Some((addr, bno, 1))
                }
                None => Some((addr, bno, 1)),
            };
        }
        // Read-ahead: while the request's last run is still pending, let
        // it grow through the window.
        let mut end = last + 1;
        let stop = file_blocks.min(end.saturating_add(ahead));
        while let Some((start, rb, count)) = run {
            if end >= stop || self.blocks.contains((ino, end)) {
                break;
            }
            if win_lookup(&win, end).is_none() {
                win = self.ptr_window(ino, end, (stop - end) as usize)?;
            }
            match win_lookup(&win, end) {
                Some(a) if a != NIL_ADDR && a == start + count => {
                    run = Some((start, rb, count + 1));
                }
                _ => break,
            }
            end += 1;
        }
        self.fetch_run(ino, &mut run)?;
        if let Some(ra) = self.meta.read_ahead(ino) {
            ra.close(last, end);
        }
        Ok(())
    }

    /// Returns up to `want` file-block pointers starting at `bno`, as far
    /// as they are resolvable from cached state alone and lie in one
    /// pointer array: `(bno, the pointer values)`. `None` exactly when an
    /// indirect block would need its own device read first. A stretch
    /// under an absent indirect tree comes back as [`NIL_ADDR`]s, matching
    /// per-block hole semantics. The inode must be cached.
    fn ptr_window(
        &mut self,
        ino: Ino,
        bno: u64,
        want: usize,
    ) -> FsResult<Option<(u64, Vec<DiskAddr>)>> {
        Ok(match self.meta.ptrs(ino, bno)? {
            Ptrs::Cached(p) => Some((bno, p[..want.min(p.len())].to_vec())),
            Ptrs::Hole(n) => Some((bno, vec![NIL_ADDR; want.min(n)])),
            Ptrs::Load(_) => None,
        })
    }

    /// Issues the pending run (if any) as one device request, scattered
    /// straight into the blocks' final cache buffers (no bounce buffer,
    /// no second copy), and inserts them in file order.
    fn fetch_run(&mut self, ino: Ino, run: &mut Option<(DiskAddr, u64, u64)>) -> FsResult<()> {
        let Some((start, first_bno, count)) = run.take() else {
            return Ok(());
        };
        if count == 1 {
            // Single-block run: skip the scatter-list machinery (this is
            // the common case for small files).
            let mut data = self.blocks.take_buf();
            self.read_run_retry(start, &mut data)?;
            self.blocks
                .insert_fetched((ino, first_bno), data, self.clock);
            return Ok(());
        }
        let mut boxes: Vec<Vec<u8>> = (0..count).map(|_| self.blocks.take_buf()).collect();
        let mut bufs: Vec<&mut [u8]> = boxes.iter_mut().map(|b| &mut b[..]).collect();
        self.retry_io(false, IO_ATTEMPTS, |dev| {
            dev.read_run_scatter(start, &mut bufs)
        })?;
        for (i, data) in boxes.into_iter().enumerate() {
            let bno = first_bno + i as u64;
            self.blocks.insert_fetched((ino, bno), data, self.clock);
        }
        Ok(())
    }

    /// Asserts that the dirty sets agree with the caches they index —
    /// every dirty inode and indirect block cached, every dirty block
    /// resident — and the block cache's own invariants. Test-only hook
    /// for the eviction/pinning interleaving proptests; release builds
    /// compile it to nothing.
    #[doc(hidden)]
    pub fn assert_running_counts(&self) {
        self.meta.assert_consistent();
        self.blocks.assert_consistent();
    }

    /// Drops all cached state for a deleted file.
    pub(crate) fn purge_file(&mut self, ino: Ino) {
        self.meta.purge(ino);
        self.blocks.purge(ino);
        self.dcache.remove(&ino);
    }

    // ----- file data I/O -----------------------------------------------

    /// The shared write path (used for regular files and, internally, for
    /// directory content).
    pub(crate) fn write_internal(
        &mut self,
        ino: Ino,
        offset: u64,
        data: &[u8],
        count_app_bytes: bool,
    ) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooLarge)?;
        if end > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        let old_size = self.inode_ref(ino)?.size;
        let mut pos = 0usize;
        while pos < data.len() {
            // Flush incrementally *before* buffering more: a single huge
            // write must not demand more clean segments at once than the
            // cleaner maintains, and a failing flush must not leave ever
            // more dirty data stranded in the cache.
            if self.blocks.dirty_bytes() >= self.flush_trigger_bytes() {
                // Keep the inode's size current so a crash mid-write
                // recovers a correct prefix. (Mutating the cached inode in
                // place means there is no pre-flush clone whose pointers
                // could go stale.)
                let m = self.inode_mut(ino)?;
                m.size = m.size.max(offset + pos as u64);
                self.flush()?;
                self.maybe_clean()?;
            }
            let abs = offset + pos as u64;
            let bno = abs / BLOCK_SIZE as u64;
            let off_in = (abs % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(data.len() - pos);
            // A whole block needs no read: the cache replaces or inserts it.
            if n < BLOCK_SIZE {
                self.ensure_block(ino, bno)?;
            }
            let now = self.clock;
            self.blocks
                .write((ino, bno), off_in, &data[pos..pos + n], now);
            pos += n;
        }
        let now = self.now();
        let m = self.inode_mut(ino)?;
        m.size = old_size.max(end);
        m.mtime = now;
        if count_app_bytes {
            self.stats.app_bytes_written += data.len() as u64;
        }
        self.after_mutation()?;
        Ok(())
    }

    /// The shared read path: the missing blocks of the range are fetched
    /// up front in contiguous-address runs ([`Lfs::fetch_blocks`]), then
    /// copied out of the cache.
    pub(crate) fn read_internal(
        &mut self,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        let size = self.inode_ref(ino)?.size;
        if offset >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - offset) as usize);
        if n > 0 {
            let first = offset / BLOCK_SIZE as u64;
            let last = (offset + n as u64 - 1) / BLOCK_SIZE as u64;
            self.fetch_blocks(ino, first, last)?;
        }
        let mut pos = 0usize;
        while pos < n {
            let abs = offset + pos as u64;
            let bno = abs / BLOCK_SIZE as u64;
            let off_in = (abs % BLOCK_SIZE as u64) as usize;
            let len = (BLOCK_SIZE - off_in).min(n - pos);
            if self
                .blocks
                .copy_out((ino, bno), off_in, &mut buf[pos..pos + len])
            {
                pos += len;
            } else {
                // A cache smaller than the request evicted the block
                // between fetch and copy.
                self.ensure_block(ino, bno)?;
            }
        }
        let now = self.clock;
        self.imap.set_atime_quiet(ino, now);
        Ok(n)
    }

    /// Frees all blocks of `ino` past `new_blocks` file blocks, adjusting
    /// usage accounting and pruning emptied indirect blocks.
    pub(crate) fn free_blocks_from(&mut self, ino: Ino, new_blocks: u64) -> FsResult<()> {
        let old_blocks = blocks_for_size(self.inode_ref(ino)?.size);
        // Dirty blocks can exist beyond the recorded size (a write that
        // buffered data and then failed before updating the size); drop
        // them too, or they leak in the cache forever.
        let zombies: Vec<Key> = self
            .blocks
            .dirty()
            .range((ino, old_blocks.max(new_blocks))..=(ino, u64::MAX))
            .copied()
            .collect();
        for key in zombies {
            self.blocks.remove(key);
        }
        for bno in new_blocks..old_blocks {
            // Drop the cached copy first; touch only pointers that exist.
            self.blocks.remove((ino, bno));
            if self.block_ptr(ino, bno)? != NIL_ADDR {
                let old = self.meta.set_ptr(ino, bno, NIL_ADDR)?;
                self.space.kill(self.sb.seg_of(old), BLOCK_SIZE);
            }
        }
        // Release the indirect blocks left empty.
        for old in self.meta.prune(ino) {
            self.space.kill(self.sb.seg_of(old), BLOCK_SIZE);
        }
        Ok(())
    }

    /// Deletes a file whose link count reached zero.
    pub(crate) fn delete_file(&mut self, ino: Ino) -> FsResult<()> {
        self.free_blocks_from(ino, 0)?;
        // Retire the on-disk inode slot.
        let entry = *self.imap.get(ino)?;
        if entry.is_live() {
            self.space
                .kill(self.sb.seg_of(entry.addr), crate::inode::INODE_DISK_SIZE);
        }
        self.imap.free(ino);
        self.purge_file(ino);
        Ok(())
    }

    // ----- directories ---------------------------------------------------

    /// Loads a directory's entries into the directory cache.
    pub(crate) fn ensure_dcache(&mut self, dirino: Ino) -> FsResult<()> {
        if self.dcache.contains_key(&dirino) {
            return Ok(());
        }
        let attrs = self.inode_attrs(dirino)?;
        if attrs.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let nblocks = blocks_for_size(attrs.size);
        let mut cache = DirCache::default();
        for blk in 0..nblocks {
            for DirRecord { name, ino, ftype } in self.dir_block_records(dirino, blk)? {
                cache.map.insert(name, DirSlot { ino, ftype, blk });
            }
        }
        self.dcache.insert(dirino, cache);
        Ok(())
    }

    /// Looks up `name` in directory `dirino`.
    pub(crate) fn dir_lookup(&mut self, dirino: Ino, name: &str) -> FsResult<Option<DirSlot>> {
        self.ensure_dcache(dirino)?;
        Ok(self.dcache[&dirino].map.get(name).copied())
    }

    /// Reads the records of one directory block from cache.
    fn dir_block_records(&mut self, dirino: Ino, blk: u64) -> FsResult<Vec<DirRecord>> {
        self.ensure_block(dirino, blk)?;
        self.blocks
            .with_bytes((dirino, blk), dir::decode_block)
            .expect("ensured above")
    }

    /// Rewrites one directory block with `records`.
    fn dir_block_write(&mut self, dirino: Ino, blk: u64, records: &[DirRecord]) -> FsResult<()> {
        let buf = dir::encode_block(records);
        self.write_internal(dirino, blk * BLOCK_SIZE as u64, &buf, false)
    }

    /// Inserts an entry into a directory.
    ///
    /// The caller must already have checked that the name is free.
    pub(crate) fn dir_insert(
        &mut self,
        dirino: Ino,
        name: &str,
        ino: Ino,
        ftype: FileType,
    ) -> FsResult<()> {
        self.ensure_dcache(dirino)?;
        let nblocks = blocks_for_size(self.inode_ref(dirino)?.size);
        // Built once and moved from block to block — popped back out of a
        // candidate that could not fit it, never cloned.
        let mut pending = Some(DirRecord {
            ino,
            ftype,
            name: name.to_string(),
        });
        let hint = self.dcache[&dirino]
            .space_hint
            .min(nblocks.saturating_sub(1));
        // Try the hint block first, then every block, then append.
        let mut target = None;
        let order = std::iter::once(hint).chain((0..nblocks).filter(|&b| b != hint));
        for blk in order.take(nblocks as usize) {
            let mut records = self.dir_block_records(dirino, blk)?;
            records.push(pending.take().expect("record is pending"));
            if dir::fits(&records) {
                target = Some((blk, records));
                break;
            }
            pending = records.pop();
        }
        let (blk, records) = match target {
            Some(t) => t,
            None => (nblocks, vec![pending.expect("record is pending")]),
        };
        self.dir_block_write(dirino, blk, &records)?;
        let cache = self.dcache.get_mut(&dirino).unwrap();
        cache
            .map
            .insert(name.to_string(), DirSlot { ino, ftype, blk });
        cache.space_hint = blk;
        Ok(())
    }

    /// Removes an entry from a directory, returning what it referred to.
    pub(crate) fn dir_remove(&mut self, dirino: Ino, name: &str) -> FsResult<DirSlot> {
        let slot = self.dir_lookup(dirino, name)?.ok_or(FsError::NotFound)?;
        let mut records = self.dir_block_records(dirino, slot.blk)?;
        records.retain(|r| r.name != name);
        self.dir_block_write(dirino, slot.blk, &records)?;
        let cache = self.dcache.get_mut(&dirino).unwrap();
        cache.map.remove(name);
        cache.space_hint = slot.blk;
        Ok(slot)
    }

    /// All live entries of a directory.
    pub(crate) fn dir_entries(&mut self, dirino: Ino) -> FsResult<Vec<(String, DirSlot)>> {
        self.ensure_dcache(dirino)?;
        let map = &self.dcache[&dirino].map;
        let mut out: Vec<_> = map.iter().map(|(n, s)| (n.clone(), *s)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    // ----- path resolution ----------------------------------------------

    /// Resolves a path to an inode number.
    pub(crate) fn resolve(&mut self, path: &str) -> FsResult<Ino> {
        self.walk(vfs::path::components(path)?)
    }

    /// Follows the path components `parts` down from the root.
    fn walk(&mut self, parts: Vec<&str>) -> FsResult<Ino> {
        let mut cur = ROOT_INO;
        for part in parts {
            if self.inode_ref(cur)?.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = self.dir_lookup(cur, part)?.ok_or(FsError::NotFound)?.ino;
        }
        Ok(cur)
    }

    /// Resolves a path to `(parent directory inode, final name)`.
    pub(crate) fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (parent_parts, name) = vfs::path::split_parent(path)?;
        let cur = self.walk(parent_parts)?;
        if self.inode_ref(cur)?.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((cur, name))
    }

    // ----- common post-mutation policy -----------------------------------

    /// Runs `f` as one atomic *namespace operation*.
    ///
    /// Flushes inside `f` are safe: the directory-operation log record is
    /// pushed before the mutations, so roll-forward can finish or undo a
    /// half-applied operation after a crash (§4.2). A *checkpoint*,
    /// however, declares the on-disk state complete and puts the repair
    /// record behind the checkpoint where replay never sees it — so a
    /// checkpoint landing between, say, a rename's entry removal and its
    /// entry insertion would freeze the orphaned intermediate state
    /// forever. While the guard is held, [`Lfs::checkpoint`] degrades to
    /// a plain flush and the cleaner defers segment promotion; the
    /// caller's `after_mutation` (outside the guard) checkpoints normally.
    fn with_nsop<T>(&mut self, f: impl FnOnce(&mut Self) -> FsResult<T>) -> FsResult<T> {
        self.nsop_depth += 1;
        let r = f(self);
        self.nsop_depth -= 1;
        r
    }

    /// Applies the flush / clean / checkpoint policies after a mutation.
    pub(crate) fn after_mutation(&mut self) -> FsResult<()> {
        if self.blocks.dirty_bytes() >= self.flush_trigger_bytes() {
            self.flush()?;
        }
        if self.cfg.checkpoint_every_bytes > 0
            && self.log.bytes_since_checkpoint() >= self.cfg.checkpoint_every_bytes
        {
            self.checkpoint()?;
        }
        self.maybe_clean()?;
        Ok(())
    }

    /// Queues the directory-log record of `op` on the entry `name` of
    /// directory `dir`, which leaves `ino` with `nlink` links at
    /// `version`. Not for a rename, which names two entries.
    fn log_dir_op(
        &mut self,
        op: DirOp,
        (dir, name): (Ino, &str),
        ino: Ino,
        nlink: u32,
        version: u32,
    ) {
        let name = name.to_string();
        let (dir2, name2) = (0, String::new());
        let rec = DirLogRecord {
            op,
            dir,
            name,
            ino,
            nlink,
            version,
            dir2,
            name2,
        };
        self.dirlog_pending.push(rec);
    }

    /// Removes the entry `name` of `dir`, a link to the regular file
    /// `ino`, and the file with its last link. Runs inside a namespace
    /// operation.
    fn unlink_entry(&mut self, dir: Ino, name: &str, ino: Ino) -> FsResult<()> {
        let mut inode = self.inode_clone(ino)?;
        inode.nlink -= 1;
        self.log_dir_op(DirOp::Unlink, (dir, name), ino, inode.nlink, inode.version);
        self.dir_remove(dir, name)?;
        if inode.nlink == 0 {
            return self.delete_file(ino);
        }
        self.meta.put_inode(inode);
        Ok(())
    }

    /// Creates a file or directory (the shared half of `create`/`mkdir`).
    fn create_node(&mut self, path: &str, ftype: FileType) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.with_nsop(|fs| {
            let ino = fs.imap.allocate().ok_or(FsError::NoInodes)?;
            let now = fs.now();
            let version = fs.imap.version(ino);
            let inode = Inode::new(ino, version, ftype, now);
            fs.meta.put_inode(inode);
            let op = match ftype {
                FileType::Regular => DirOp::Create,
                FileType::Directory => DirOp::Mkdir,
            };
            fs.log_dir_op(op, (parent, name), ino, 1, version);
            fs.dir_insert(parent, name, ino, ftype)?;
            Ok(ino)
        })?;
        self.after_mutation()?;
        Ok(ino)
    }
}

impl<D: QueueDevice> FileSystem for Lfs<D> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        self.timed(|o| &o.create, |fs| fs.create_node(path, FileType::Regular))
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.create_node(path, FileType::Directory)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.resolve(path)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        self.timed(
            |o| &o.write,
            |fs| {
                if fs.inode_ref(ino)?.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                fs.write_internal(ino, offset, data, true)
            },
        )
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.timed(
            |o| &o.read,
            |fs| {
                if fs.inode_ref(ino)?.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                fs.read_internal(ino, offset, buf)
            },
        )
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        let attrs = self.inode_attrs(ino)?;
        if attrs.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        if size < attrs.size {
            let new_blocks = blocks_for_size(size);
            self.free_blocks_from(ino, new_blocks)?;
            // Zero the tail of the now-final partial block so a later
            // extension reads back zeros.
            if !size.is_multiple_of(BLOCK_SIZE as u64) {
                let bno = size / BLOCK_SIZE as u64;
                if self.block_ptr(ino, bno)? != NIL_ADDR || self.blocks.contains((ino, bno)) {
                    self.ensure_block(ino, bno)?;
                    let off = (size % BLOCK_SIZE as u64) as usize;
                    let now = self.clock;
                    self.blocks.write((ino, bno), off, &ZERO_BLOCK[off..], now);
                }
            }
            if size == 0 {
                // "The version number is incremented whenever the file is
                // deleted or truncated to length zero" (§3.3).
                let v = self.imap.bump_version(ino);
                self.inode_mut(ino)?.version = v;
            }
        }
        let now = self.now();
        let m = self.inode_mut(ino)?;
        m.size = size;
        m.mtime = now;
        self.after_mutation()?;
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.timed(
            |o| &o.unlink,
            |this| {
                let (parent, name) = this.resolve_parent(path)?;
                let slot = this.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
                if slot.ftype == FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                this.with_nsop(|fs| fs.unlink_entry(parent, name, slot.ino))?;
                this.after_mutation()
            },
        )
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let slot = self.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
        if slot.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !self.dir_entries(slot.ino)?.is_empty() {
            return Err(FsError::DirectoryNotEmpty);
        }
        let version = self.imap.version(slot.ino);
        self.with_nsop(|fs| {
            fs.log_dir_op(DirOp::Rmdir, (parent, name), slot.ino, 0, version);
            fs.dir_remove(parent, name)?;
            fs.delete_file(slot.ino)
        })?;
        self.after_mutation()
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let src = self
            .dir_lookup(from_parent, from_name)?
            .ok_or(FsError::NotFound)?;
        let (to_parent, to_name) = self.resolve_parent(to)?;
        if let Some(dst) = self.dir_lookup(to_parent, to_name)? {
            if dst.ino == src.ino {
                return Ok(());
            }
            if src.ftype == FileType::Directory || dst.ftype == FileType::Directory {
                return Err(FsError::AlreadyExists);
            }
        }
        self.with_nsop(|fs| {
            if let Some(dst) = fs.dir_lookup(to_parent, to_name)? {
                // Replace a regular-file target: unlink it as part of the
                // atomic rename.
                fs.unlink_entry(to_parent, to_name, dst.ino)?;
            }
            let src_inode = fs.inode_clone(src.ino)?;
            fs.dirlog_pending.push(DirLogRecord {
                op: DirOp::Rename,
                dir: from_parent,
                name: from_name.to_string(),
                ino: src.ino,
                nlink: src_inode.nlink,
                version: src_inode.version,
                dir2: to_parent,
                name2: to_name.to_string(),
            });
            fs.dir_remove(from_parent, from_name)?;
            fs.dir_insert(to_parent, to_name, src.ino, src.ftype)
        })?;
        self.after_mutation()
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        let src_ino = self.resolve(existing)?;
        let mut inode = self.inode_clone(src_ino)?;
        if inode.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        inode.nlink += 1;
        let now = self.now();
        inode.ctime = now;
        let (nlink, version) = (inode.nlink, inode.version);
        self.with_nsop(|fs| {
            fs.meta.put_inode(inode);
            fs.log_dir_op(DirOp::Link, (parent, name), src_ino, nlink, version);
            fs.dir_insert(parent, name, src_ino, FileType::Regular)
        })?;
        self.after_mutation()
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        // Attrs only — stat must not clone the block-pointer arrays.
        let mut m = self.inode_attrs(ino)?.metadata();
        if let Ok(e) = self.imap.get(ino) {
            m.atime = m.atime.max(e.atime);
        }
        Ok(m)
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        let dirino = self.resolve(path)?;
        if self.inode_ref(dirino)?.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok(self
            .dir_entries(dirino)?
            .into_iter()
            .map(|(name, slot)| DirEntry {
                name,
                ino: slot.ino,
                ftype: slot.ftype,
            })
            .collect())
    }

    /// Makes every acknowledged write durable through roll-forward: one
    /// flush appends the pending directory-log records and the dirty
    /// data, indirect and inode blocks of files as partial writes, and one
    /// fence drains them to the device. No checkpoint is written;
    /// inode-map and usage-table state (access times, segment states)
    /// waits for the next one (§4.1–4.2). Nor is a directory already on
    /// disk rewritten: its blocks and inode wait for the next buffer-full
    /// flush, cleaner flush or checkpoint, and until then the records are
    /// the log's copy of its changes, from which roll-forward rebuilds its
    /// entries. A directory fresh from `mkdir` is written. A `sync` that
    /// finds nothing left to write and the log already fenced is a group
    /// commit: no device request at all.
    fn sync(&mut self) -> FsResult<()> {
        if self.sync_settled() {
            self.stats.group_commits += 1;
            return Ok(());
        }
        let written = self.flush_tokened(crate::flush::Scope::Sync)?;
        // The fence is the commit; no region write follows it.
        self.fence(written).map(drop)
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        let usage = self.space.usage().iter();
        let live: u64 = usage.map(|(_, u)| u.live_bytes as u64).sum();
        // Include data that is dirty in the cache but not yet on disk.
        let pending = self.blocks.dirty_bytes();
        Ok(StatFs {
            total_bytes: self.sb.nsegments as u64 * self.cfg.seg_bytes(),
            live_bytes: live + pending,
            num_files: self.imap.file_count(),
        })
    }
}
