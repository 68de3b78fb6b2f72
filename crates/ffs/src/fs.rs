//! The FFS implementation: fixed-location metadata, synchronous metadata
//! writes, write-behind file data.

use std::collections::{BTreeSet, HashMap};

use blockdev::{BlockDevice, WriteKind, BLOCK_SIZE};
use vfs::{DirEntry, FileSystem, FileType, FsError, FsResult, Ino, Metadata, StatFs, ROOT_INO};

use crate::alloc::Bitmap;
use crate::dir::{self, DirRecord};
use crate::inode::{IndirectBlock, Inode};
use crate::layout::{
    classify_block, BlockClass, DiskAddr, FfsConfig, Superblock, INODE_DISK_SIZE, MAX_FILE_SIZE,
    NIL_ADDR,
};

struct CachedBlock {
    data: Box<[u8]>,
    dirty: bool,
    lru: u64,
}

struct CachedInode {
    inode: Inode,
    dirty: bool,
}

#[derive(Clone, Copy)]
struct DirSlot {
    ino: Ino,
    ftype: FileType,
    blk: u64,
}

#[derive(Default)]
struct DirCache {
    map: HashMap<String, DirSlot>,
    space_hint: u64,
}

/// Operation counters for the baseline (how many synchronous metadata
/// writes the workload caused — the quantity Figure 1 and §2.3 blame for
/// FFS's 5% bandwidth utilization).
#[derive(Clone, Copy, Debug, Default)]
pub struct FfsStats {
    /// Synchronous metadata writes issued.
    pub sync_metadata_writes: u64,
    /// Asynchronous data-block writes issued.
    pub data_writes: u64,
    /// Bytes of new file data accepted from applications.
    pub app_bytes_written: u64,
}

/// The Unix FFS-style baseline file system.
///
/// # Examples
///
/// ```
/// use blockdev::MemDisk;
/// use ffs_baseline::{Ffs, FfsConfig};
/// use vfs::FileSystem;
///
/// let mut fs = Ffs::format(MemDisk::new(2048), FfsConfig::small()).unwrap();
/// fs.mkdir("/dir1").unwrap();
/// let ino = fs.write_file("/dir1/file1", b"hello").unwrap();
/// fs.sync().unwrap();
/// assert_eq!(fs.read_to_vec(ino).unwrap(), b"hello");
/// ```
pub struct Ffs<D: BlockDevice> {
    dev: D,
    sb: Superblock,
    cfg: FfsConfig,
    inode_bitmaps: Vec<Bitmap>,
    block_bitmaps: Vec<Bitmap>,
    inodes: HashMap<Ino, CachedInode>,
    blocks: HashMap<(Ino, u64), CachedBlock>,
    dirty_blocks: BTreeSet<(Ino, u64)>,
    /// Indirect blocks cached by their (fixed) disk address.
    inds: HashMap<DiskAddr, IndirectBlock>,
    dirty_inds: BTreeSet<DiskAddr>,
    /// Cached inode-table blocks, by address.
    itab_cache: HashMap<DiskAddr, Box<[u8]>>,
    dcache: HashMap<Ino, DirCache>,
    clock: u64,
    lru_tick: u64,
    dirty_bytes: u64,
    nfiles: u64,
    stats: FfsStats,
    /// Observability handle (off by default).
    obs: lfs_obs::Obs,
}

impl<D: BlockDevice> Ffs<D> {
    /// Formats `dev` with an empty root directory.
    pub fn format(dev: D, cfg: FfsConfig) -> FsResult<Ffs<D>> {
        let sb = Superblock::compute(dev.num_blocks(), &cfg)
            .ok_or(FsError::InvalidArgument("device too small for geometry"))?;
        let mut fs = Ffs {
            dev,
            inode_bitmaps: (0..sb.cg_count)
                .map(|_| Bitmap::new(cfg.inodes_per_cg))
                .collect(),
            block_bitmaps: (0..sb.cg_count)
                .map(|_| Bitmap::new(cfg.data_blocks_per_cg()))
                .collect(),
            sb,
            cfg,
            inodes: HashMap::new(),
            blocks: HashMap::new(),
            dirty_blocks: BTreeSet::new(),
            inds: HashMap::new(),
            dirty_inds: BTreeSet::new(),
            itab_cache: HashMap::new(),
            dcache: HashMap::new(),
            clock: 0,
            lru_tick: 0,
            dirty_bytes: 0,
            nfiles: 0,
            stats: FfsStats::default(),
            obs: lfs_obs::Obs::off(),
        };
        let sb_block = fs.sb.encode();
        fs.dev
            .write_block(0, &sb_block, WriteKind::Sync)
            .map_err(FsError::device)?;
        // Zero the bitmap and inode-table blocks of every group.
        let zeros = vec![0u8; BLOCK_SIZE];
        for cg in 0..fs.sb.cg_count {
            let start = fs.sb.cg_start(cg);
            for b in 0..(2 + fs.cfg.itab_blocks() as u64) {
                fs.dev
                    .write_blocks(start + b, &zeros, WriteKind::Async)
                    .map_err(FsError::device)?;
            }
        }
        // Root directory: inode 1, slot 0 of cg 0.
        fs.inode_bitmaps[0].set(0);
        let root = Inode::new(ROOT_INO, FileType::Directory, 0);
        fs.inodes.insert(
            ROOT_INO,
            CachedInode {
                inode: root,
                dirty: true,
            },
        );
        fs.write_inode_sync(ROOT_INO)?;
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing FFS. (No journal: a crashed FFS needs
    /// [`Ffs::fsck`] first, which is the paper's point.)
    pub fn mount(mut dev: D, cfg: FfsConfig) -> FsResult<Ffs<D>> {
        let mut buf = [0u8; BLOCK_SIZE];
        dev.read_block(0, &mut buf).map_err(FsError::device)?;
        let sb = Superblock::decode(&buf)?;
        let mut inode_bitmaps = Vec::new();
        let mut block_bitmaps = Vec::new();
        let mut bm = vec![0u8; BLOCK_SIZE];
        for cg in 0..sb.cg_count {
            dev.read_blocks(sb.inode_bitmap_addr(cg), &mut bm)
                .map_err(FsError::device)?;
            inode_bitmaps.push(Bitmap::from_block(&bm, sb.inodes_per_cg));
            dev.read_blocks(sb.block_bitmap_addr(cg), &mut bm)
                .map_err(FsError::device)?;
            block_bitmaps.push(Bitmap::from_block(&bm, cfg.data_blocks_per_cg()));
        }
        let mut fs = Ffs {
            dev,
            sb,
            cfg,
            inode_bitmaps,
            block_bitmaps,
            inodes: HashMap::new(),
            blocks: HashMap::new(),
            dirty_blocks: BTreeSet::new(),
            inds: HashMap::new(),
            dirty_inds: BTreeSet::new(),
            itab_cache: HashMap::new(),
            dcache: HashMap::new(),
            clock: 0,
            lru_tick: 0,
            dirty_bytes: 0,
            nfiles: 0,
            stats: FfsStats::default(),
            obs: lfs_obs::Obs::off(),
        };
        fs.nfiles = fs.count_files()?;
        Ok(fs)
    }

    fn count_files(&mut self) -> FsResult<u64> {
        let mut n = 0u64;
        for cg in 0..self.sb.cg_count {
            for i in 0..self.sb.inodes_per_cg {
                if self.inode_bitmaps[cg as usize].is_set(i) {
                    n += 1;
                }
            }
        }
        Ok(n.saturating_sub(1)) // Exclude the root.
    }

    /// Attaches an observability handle: the device's per-request service
    /// times feed `disk.read_ns` / `disk.write_ns` histograms when `obs`
    /// carries a registry. The baseline has no trace events of its own.
    pub fn set_obs(&mut self, obs: lfs_obs::Obs) {
        if let Some(reg) = &obs.registry {
            self.dev
                .attach_obs(blockdev::DeviceObs::register(reg, "disk"));
        }
        self.obs = obs;
    }

    /// Publishes [`FfsStats`] and device counters into the attached
    /// registry and returns a snapshot (`None` without a registry).
    pub fn metrics_snapshot(&self) -> Option<lfs_obs::MetricsSnapshot> {
        let reg = self.obs.registry.as_deref()?;
        reg.counter("ffs.sync_metadata_writes")
            .store(self.stats.sync_metadata_writes);
        reg.counter("ffs.data_writes").store(self.stats.data_writes);
        reg.counter("ffs.app_bytes_written")
            .store(self.stats.app_bytes_written);
        let d = self.dev.stats();
        reg.counter("disk.reads").store(d.reads);
        reg.counter("disk.writes").store(d.writes);
        reg.counter("disk.bytes_read").store(d.bytes_read);
        reg.counter("disk.bytes_written").store(d.bytes_written);
        reg.counter("disk.busy_ns").store(d.busy_ns);
        reg.counter("disk.sync_busy_ns").store(d.sync_busy_ns);
        reg.counter("disk.positioning_ns").store(d.positioning_ns);
        if let Some(eff) = d.transfer_efficiency() {
            reg.gauge("disk.transfer_efficiency").set(eff);
        }
        self.obs.snapshot()
    }

    /// Device access (for stats).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consumes the file system and returns the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Baseline operation counters.
    pub fn stats(&self) -> &FfsStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &FfsConfig {
        &self.cfg
    }

    /// The superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    fn now(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Drops all clean cached state so subsequent reads hit the disk;
    /// used by benchmarks between phases (cold-cache reads).
    pub fn drop_caches(&mut self) {
        self.blocks.retain(|_, b| b.dirty);
        if self.dirty_inds.is_empty() {
            self.inds.clear();
        }
        self.itab_cache.clear();
        self.dcache.clear();
        self.inodes.retain(|_, c| c.dirty);
    }

    // ----- inode I/O -----------------------------------------------------

    fn ensure_inode(&mut self, ino: Ino) -> FsResult<()> {
        if self.inodes.contains_key(&ino) {
            return Ok(());
        }
        if ino == 0 || ino > self.sb.max_inodes() {
            return Err(FsError::InvalidArgument("inode number out of range"));
        }
        let cg = self.sb.cg_of_ino(ino);
        let idx = (ino - 1) % self.sb.inodes_per_cg;
        if !self.inode_bitmaps[cg as usize].is_set(idx) {
            return Err(FsError::InvalidArgument("no such inode"));
        }
        let (blk, slot) = self.sb.inode_location(ino);
        let buf = self.itab_block(blk)?;
        let inode = Inode::decode(&buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE])?
            .ok_or_else(|| FsError::Corrupt(format!("ffs inode {ino}: empty slot")))?;
        self.inodes.insert(
            ino,
            CachedInode {
                inode,
                dirty: false,
            },
        );
        Ok(())
    }

    fn itab_block(&mut self, addr: DiskAddr) -> FsResult<Box<[u8]>> {
        if let Some(b) = self.itab_cache.get(&addr) {
            return Ok(b.clone());
        }
        let mut buf = vec![0u8; BLOCK_SIZE].into_boxed_slice();
        self.dev
            .read_blocks(addr, &mut buf)
            .map_err(FsError::device)?;
        self.itab_cache.insert(addr, buf.clone());
        Ok(buf)
    }

    fn inode_clone(&mut self, ino: Ino) -> FsResult<Inode> {
        self.ensure_inode(ino)?;
        Ok(self.inodes[&ino].inode.clone())
    }

    /// Borrows the cached inode. Read-only paths use this instead of
    /// [`Ffs::inode_clone`] so the hot loops never copy the pointer arrays.
    fn inode_ref(&mut self, ino: Ino) -> FsResult<&Inode> {
        self.ensure_inode(ino)?;
        Ok(&self.inodes[&ino].inode)
    }

    fn put_inode(&mut self, inode: Inode) {
        self.inodes
            .insert(inode.ino, CachedInode { inode, dirty: true });
    }

    /// Writes an inode's table block synchronously — the operation whose
    /// latency dominates small-file workloads on FFS (§2.3).
    fn write_inode_sync(&mut self, ino: Ino) -> FsResult<()> {
        let (blk, slot) = self.sb.inode_location(ino);
        let mut buf = self.itab_block(blk)?;
        {
            let c = self.inodes.get_mut(&ino).expect("inode cached");
            c.inode
                .encode_into(&mut buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE]);
            c.dirty = false;
        }
        self.itab_cache.insert(blk, buf.clone());
        self.dev
            .write_blocks(blk, &buf, WriteKind::Sync)
            .map_err(FsError::device)?;
        self.stats.sync_metadata_writes += 1;
        Ok(())
    }

    fn clear_inode_slot_sync(&mut self, ino: Ino) -> FsResult<()> {
        let (blk, slot) = self.sb.inode_location(ino);
        let mut buf = self.itab_block(blk)?;
        buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE].fill(0);
        self.itab_cache.insert(blk, buf.clone());
        self.dev
            .write_blocks(blk, &buf, WriteKind::Sync)
            .map_err(FsError::device)?;
        self.stats.sync_metadata_writes += 1;
        Ok(())
    }

    // ----- allocation -----------------------------------------------------

    fn alloc_inode(&mut self, parent: Ino, is_dir: bool) -> FsResult<Ino> {
        let preferred = if is_dir {
            // New directories go to the group with the most free inodes.
            (0..self.sb.cg_count)
                .max_by_key(|&cg| self.inode_bitmaps[cg as usize].free_count())
                .unwrap_or(0)
        } else {
            self.sb.cg_of_ino(parent)
        };
        let order = (0..self.sb.cg_count).map(|d| (preferred + d) % self.sb.cg_count);
        for cg in order {
            if let Some(idx) = self.inode_bitmaps[cg as usize].alloc_near(0) {
                return Ok(cg * self.sb.inodes_per_cg + idx + 1);
            }
        }
        Err(FsError::NoInodes)
    }

    fn free_inode(&mut self, ino: Ino) {
        let cg = self.sb.cg_of_ino(ino);
        let idx = (ino - 1) % self.sb.inodes_per_cg;
        self.inode_bitmaps[cg as usize].clear(idx);
    }

    fn total_free_blocks(&self) -> u64 {
        self.block_bitmaps
            .iter()
            .map(|b| b.free_count() as u64)
            .sum()
    }

    fn total_data_blocks(&self) -> u64 {
        self.sb.cg_count as u64 * self.cfg.data_blocks_per_cg() as u64
    }

    /// Allocates a data block near the file's other blocks.
    fn alloc_block(&mut self, ino: Ino, prev: DiskAddr) -> FsResult<DiskAddr> {
        // Enforce the 10% reserve that keeps the allocator effective.
        let reserve = (self.total_data_blocks() as f64 * self.cfg.reserve_fraction) as u64;
        if self.total_free_blocks() <= reserve {
            return Err(FsError::NoSpace);
        }
        let itab = self.cfg.itab_blocks();
        let home_cg = self.sb.cg_of_ino(ino);
        // Contiguity first: the block right after the previous one.
        if prev != NIL_ADDR {
            if let Some(cg) = self.sb.cg_of_addr(prev) {
                let data_start = self.sb.data_start(cg, itab);
                let next = prev + 1;
                if next >= data_start && next < self.sb.cg_start(cg) + self.sb.cg_blocks as u64 {
                    let idx = (next - data_start) as u32;
                    if !self.block_bitmaps[cg as usize].is_set(idx) {
                        self.block_bitmaps[cg as usize].set(idx);
                        return Ok(next);
                    }
                }
            }
        }
        // Otherwise: the file's home group, then the rest.
        let order = (0..self.sb.cg_count).map(|d| (home_cg + d) % self.sb.cg_count);
        for cg in order {
            if let Some(idx) = self.block_bitmaps[cg as usize].alloc_near(0) {
                return Ok(self.sb.data_start(cg, itab) + idx as u64);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&mut self, addr: DiskAddr) {
        if let Some(cg) = self.sb.cg_of_addr(addr) {
            let data_start = self.sb.data_start(cg, self.cfg.itab_blocks());
            if addr >= data_start {
                self.block_bitmaps[cg as usize].clear((addr - data_start) as u32);
            }
        }
    }

    // ----- block pointers --------------------------------------------------

    fn load_ind(&mut self, addr: DiskAddr) -> FsResult<()> {
        if self.inds.contains_key(&addr) {
            return Ok(());
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev
            .read_blocks(addr, &mut buf)
            .map_err(FsError::device)?;
        self.inds.insert(addr, IndirectBlock::decode(&buf));
        Ok(())
    }

    fn block_ptr(&mut self, ino: Ino, bno: u64) -> FsResult<DiskAddr> {
        match classify_block(bno).ok_or(FsError::FileTooLarge)? {
            BlockClass::Direct(i) => Ok(self.inode_ref(ino)?.direct[i]),
            BlockClass::Indirect1(i) => {
                let ind = self.inode_ref(ino)?.indirect;
                if ind == NIL_ADDR {
                    return Ok(NIL_ADDR);
                }
                self.load_ind(ind)?;
                Ok(self.inds[&ind].ptrs[i])
            }
            BlockClass::Indirect2(i, j) => {
                let dind = self.inode_ref(ino)?.dindirect;
                if dind == NIL_ADDR {
                    return Ok(NIL_ADDR);
                }
                self.load_ind(dind)?;
                let single = self.inds[&dind].ptrs[i];
                if single == NIL_ADDR {
                    return Ok(NIL_ADDR);
                }
                self.load_ind(single)?;
                Ok(self.inds[&single].ptrs[j])
            }
        }
    }

    /// Resolves a block's address using only in-memory state. `None` means
    /// an indirect block would have to be read from the device first; the
    /// caller must fall back to [`Ffs::block_ptr`] (after flushing any
    /// pending coalesced run, to keep device request order identical to the
    /// per-block path).
    fn block_ptr_cached(&mut self, ino: Ino, bno: u64) -> FsResult<Option<DiskAddr>> {
        match classify_block(bno).ok_or(FsError::FileTooLarge)? {
            BlockClass::Direct(i) => Ok(Some(self.inode_ref(ino)?.direct[i])),
            BlockClass::Indirect1(i) => {
                let ind = self.inode_ref(ino)?.indirect;
                if ind == NIL_ADDR {
                    return Ok(Some(NIL_ADDR));
                }
                Ok(self.inds.get(&ind).map(|b| b.ptrs[i]))
            }
            BlockClass::Indirect2(i, j) => {
                let dind = self.inode_ref(ino)?.dindirect;
                if dind == NIL_ADDR {
                    return Ok(Some(NIL_ADDR));
                }
                let Some(d) = self.inds.get(&dind) else {
                    return Ok(None);
                };
                let single = d.ptrs[i];
                if single == NIL_ADDR {
                    return Ok(Some(NIL_ADDR));
                }
                Ok(self.inds.get(&single).map(|b| b.ptrs[j]))
            }
        }
    }

    /// Returns the block's address, allocating one (and any needed
    /// indirect blocks) if absent.
    fn block_ptr_alloc(&mut self, ino: Ino, bno: u64) -> FsResult<DiskAddr> {
        let existing = self.block_ptr(ino, bno)?;
        if existing != NIL_ADDR {
            return Ok(existing);
        }
        let prev = if bno > 0 {
            self.block_ptr(ino, bno - 1)?
        } else {
            NIL_ADDR
        };
        let addr = self.alloc_block(ino, prev)?;
        match classify_block(bno).ok_or(FsError::FileTooLarge)? {
            BlockClass::Direct(i) => {
                let mut inode = self.inode_clone(ino)?;
                inode.direct[i] = addr;
                self.put_inode(inode);
            }
            BlockClass::Indirect1(i) => {
                let mut inode = self.inode_clone(ino)?;
                if inode.indirect == NIL_ADDR {
                    inode.indirect = self.alloc_block(ino, NIL_ADDR)?;
                    self.inds.insert(inode.indirect, IndirectBlock::new());
                    self.put_inode(inode.clone());
                }
                let ind_addr = inode.indirect;
                self.load_ind(ind_addr)?;
                self.inds.get_mut(&ind_addr).unwrap().ptrs[i] = addr;
                self.dirty_inds.insert(ind_addr);
            }
            BlockClass::Indirect2(i, j) => {
                let mut inode = self.inode_clone(ino)?;
                if inode.dindirect == NIL_ADDR {
                    inode.dindirect = self.alloc_block(ino, NIL_ADDR)?;
                    self.inds.insert(inode.dindirect, IndirectBlock::new());
                    self.put_inode(inode.clone());
                }
                let dind = inode.dindirect;
                self.load_ind(dind)?;
                let mut single = self.inds[&dind].ptrs[i];
                if single == NIL_ADDR {
                    single = self.alloc_block(ino, NIL_ADDR)?;
                    self.inds.insert(single, IndirectBlock::new());
                    self.inds.get_mut(&dind).unwrap().ptrs[i] = single;
                    self.dirty_inds.insert(dind);
                }
                self.load_ind(single)?;
                self.inds.get_mut(&single).unwrap().ptrs[j] = addr;
                self.dirty_inds.insert(single);
            }
        }
        Ok(addr)
    }

    // ----- data cache -----------------------------------------------------

    fn ensure_block(&mut self, ino: Ino, bno: u64) -> FsResult<()> {
        if self.blocks.contains_key(&(ino, bno)) {
            return Ok(());
        }
        let addr = self.block_ptr(ino, bno)?;
        let mut data = vec![0u8; BLOCK_SIZE].into_boxed_slice();
        if addr != NIL_ADDR {
            self.dev
                .read_blocks(addr, &mut data)
                .map_err(FsError::device)?;
        }
        self.insert_fetched(ino, bno, data);
        Ok(())
    }

    fn insert_fetched(&mut self, ino: Ino, bno: u64, data: Box<[u8]>) {
        self.lru_tick += 1;
        let lru = self.lru_tick;
        self.blocks.insert(
            (ino, bno),
            CachedBlock {
                data,
                dirty: false,
                lru,
            },
        );
    }

    /// Issues the pending coalesced run (if any) as one device request and
    /// caches its blocks in file order.
    fn fetch_run(&mut self, ino: Ino, run: &mut Option<(DiskAddr, u64, usize)>) -> FsResult<()> {
        let Some((start, first_bno, count)) = run.take() else {
            return Ok(());
        };
        let mut buf = vec![0u8; count * BLOCK_SIZE];
        self.dev
            .read_run(start, &mut buf)
            .map_err(FsError::device)?;
        for k in 0..count {
            let data = buf[k * BLOCK_SIZE..(k + 1) * BLOCK_SIZE]
                .to_vec()
                .into_boxed_slice();
            self.insert_fetched(ino, first_bno + k as u64, data);
        }
        Ok(())
    }

    /// Fetches the uncached blocks of `first..=last`, merging blocks with
    /// contiguous disk addresses into single [`BlockDevice::read_run`]
    /// requests. A run breaks at cached blocks, holes, address
    /// discontinuities, and pointer resolutions that need device I/O, so
    /// the device sees requests for the same addresses in the same order
    /// as the per-block path — `read_run` then charges exactly what the
    /// individual reads would have cost.
    fn fetch_blocks(&mut self, ino: Ino, first: u64, last: u64) -> FsResult<()> {
        let mut run: Option<(DiskAddr, u64, usize)> = None;
        for bno in first..=last {
            if self.blocks.contains_key(&(ino, bno)) {
                self.fetch_run(ino, &mut run)?;
                continue;
            }
            let addr = match self.block_ptr_cached(ino, bno)? {
                Some(a) => a,
                None => {
                    self.fetch_run(ino, &mut run)?;
                    self.block_ptr(ino, bno)?
                }
            };
            if addr == NIL_ADDR {
                self.fetch_run(ino, &mut run)?;
                self.insert_fetched(ino, bno, vec![0u8; BLOCK_SIZE].into_boxed_slice());
                continue;
            }
            let extends = matches!(run, Some((start, _, count)) if addr == start + count as u64);
            if extends {
                if let Some((_, _, count)) = &mut run {
                    *count += 1;
                }
            } else {
                self.fetch_run(ino, &mut run)?;
                run = Some((addr, bno, 1));
            }
        }
        self.fetch_run(ino, &mut run)
    }

    fn mark_block_dirty(&mut self, ino: Ino, bno: u64) {
        let b = self.blocks.get_mut(&(ino, bno)).expect("cached");
        if !b.dirty {
            b.dirty = true;
            self.dirty_bytes += BLOCK_SIZE as u64;
            self.dirty_blocks.insert((ino, bno));
        }
    }

    /// Writes back dirty data and indirect blocks.
    ///
    /// Classic mode issues one I/O per block ("SunOS performs individual
    /// disk operations for each block", Figure 9 discussion); clustered
    /// mode merges contiguous runs, modelling the improved SunOS.
    fn flush_data(&mut self) -> FsResult<()> {
        // Resolve addresses first, then write in address order (FFS
        // drivers sort the queue).
        let mut writes: Vec<(DiskAddr, Ino, u64)> = Vec::new();
        for &(ino, bno) in &self.dirty_blocks.clone() {
            let addr = self.block_ptr_alloc(ino, bno)?;
            writes.push((addr, ino, bno));
        }
        writes.sort_unstable();
        if self.cfg.clustered {
            let mut i = 0;
            while i < writes.len() {
                let mut j = i + 1;
                while j < writes.len() && writes[j].0 == writes[j - 1].0 + 1 {
                    j += 1;
                }
                // The run goes out as one gather request of borrowed
                // cache slices — same bytes, same device accounting as
                // the old assemble-then-write, without the copy.
                let bufs: Vec<&[u8]> = writes[i..j]
                    .iter()
                    .map(|&(_, ino, bno)| &self.blocks[&(ino, bno)].data[..])
                    .collect();
                self.dev
                    .write_run_gather(writes[i].0, &bufs, WriteKind::Async)
                    .map_err(FsError::device)?;
                self.stats.data_writes += 1;
                i = j;
            }
        } else {
            for &(addr, ino, bno) in &writes {
                let data = &self.blocks[&(ino, bno)].data;
                self.dev
                    .write_blocks(addr, data, WriteKind::Async)
                    .map_err(FsError::device)?;
                self.stats.data_writes += 1;
            }
        }
        for (ino, bno) in std::mem::take(&mut self.dirty_blocks) {
            if let Some(b) = self.blocks.get_mut(&(ino, bno)) {
                b.dirty = false;
            }
        }
        self.dirty_bytes = 0;
        // Indirect blocks.
        for addr in std::mem::take(&mut self.dirty_inds) {
            if let Some(ind) = self.inds.get(&addr) {
                let buf = ind.encode();
                self.dev
                    .write_blocks(addr, &buf, WriteKind::Async)
                    .map_err(FsError::device)?;
            }
        }
        // Inodes dirtied by data writes (size/mtime) go back lazily too.
        // Sorted: iterating the HashMap directly would write the inode
        // table in a different order each run, and on a simulated disk
        // that perturbs seek costs run to run.
        let mut dirty_inos: Vec<Ino> = self
            .inodes
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(&i, _)| i)
            .collect();
        dirty_inos.sort_unstable();
        for ino in dirty_inos {
            let (blk, slot) = self.sb.inode_location(ino);
            let mut buf = self.itab_block(blk)?;
            {
                let c = self.inodes.get_mut(&ino).unwrap();
                c.inode
                    .encode_into(&mut buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE]);
                c.dirty = false;
            }
            self.itab_cache.insert(blk, buf.clone());
            self.dev
                .write_blocks(blk, &buf, WriteKind::Async)
                .map_err(FsError::device)?;
        }
        self.evict();
        Ok(())
    }

    fn evict(&mut self) {
        let limit = (256u64 << 20) / BLOCK_SIZE as u64;
        if (self.blocks.len() as u64) <= limit {
            return;
        }
        let mut clean: Vec<((Ino, u64), u64)> = self
            .blocks
            .iter()
            .filter(|(_, b)| !b.dirty)
            .map(|(&k, b)| (k, b.lru))
            .collect();
        // Partition out the `excess` least-recently-used clean blocks in
        // O(n) rather than sorting the whole clean set.
        let excess = (self.blocks.len() as u64 - limit) as usize;
        if clean.len() > excess {
            clean.select_nth_unstable_by_key(excess - 1, |&(_, l)| l);
            clean.truncate(excess);
        }
        for (k, _) in clean {
            self.blocks.remove(&k);
        }
    }

    fn write_bitmaps(&mut self) -> FsResult<()> {
        for cg in 0..self.sb.cg_count {
            if self.inode_bitmaps[cg as usize].is_dirty() {
                let addr = self.sb.inode_bitmap_addr(cg);
                let buf = self.inode_bitmaps[cg as usize].as_block().to_vec();
                self.dev
                    .write_blocks(addr, &buf, WriteKind::Async)
                    .map_err(FsError::device)?;
                self.inode_bitmaps[cg as usize].clear_dirty();
            }
            if self.block_bitmaps[cg as usize].is_dirty() {
                let addr = self.sb.block_bitmap_addr(cg);
                let buf = self.block_bitmaps[cg as usize].as_block().to_vec();
                self.dev
                    .write_blocks(addr, &buf, WriteKind::Async)
                    .map_err(FsError::device)?;
                self.block_bitmaps[cg as usize].clear_dirty();
            }
        }
        Ok(())
    }

    // ----- directories -----------------------------------------------------

    fn ensure_dcache(&mut self, dirino: Ino) -> FsResult<()> {
        if self.dcache.contains_key(&dirino) {
            return Ok(());
        }
        let inode = self.inode_ref(dirino)?;
        if inode.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        let mut cache = DirCache::default();
        for blk in 0..nblocks {
            self.ensure_block(dirino, blk)?;
            for rec in dir::decode_block(&self.blocks[&(dirino, blk)].data)? {
                cache.map.insert(
                    rec.name,
                    DirSlot {
                        ino: rec.ino,
                        ftype: rec.ftype,
                        blk,
                    },
                );
            }
        }
        self.dcache.insert(dirino, cache);
        Ok(())
    }

    fn dir_lookup(&mut self, dirino: Ino, name: &str) -> FsResult<Option<DirSlot>> {
        self.ensure_dcache(dirino)?;
        Ok(self.dcache[&dirino].map.get(name).copied())
    }

    /// Writes one directory block *synchronously* at its fixed address —
    /// the behaviour that couples FFS application latency to the disk.
    fn dir_block_write_sync(
        &mut self,
        dirino: Ino,
        blk: u64,
        records: &[DirRecord],
    ) -> FsResult<()> {
        let addr = self.block_ptr_alloc(dirino, blk)?;
        let buf = dir::encode_block(records);
        // Keep the cache coherent.
        self.lru_tick += 1;
        let lru = self.lru_tick;
        self.blocks.insert(
            (dirino, blk),
            CachedBlock {
                data: buf.clone(),
                dirty: false,
                lru,
            },
        );
        self.dirty_blocks.remove(&(dirino, blk));
        self.dev
            .write_blocks(addr, &buf, WriteKind::Sync)
            .map_err(FsError::device)?;
        self.stats.sync_metadata_writes += 1;
        // Grow the directory if needed, and write its inode synchronously.
        let mut inode = self.inode_clone(dirino)?;
        let needed = (blk + 1) * BLOCK_SIZE as u64;
        let now = self.now();
        if inode.size < needed {
            inode.size = needed;
        }
        inode.mtime = now;
        self.put_inode(inode);
        self.write_inode_sync(dirino)?;
        Ok(())
    }

    fn dir_insert(&mut self, dirino: Ino, name: &str, ino: Ino, ftype: FileType) -> FsResult<()> {
        self.ensure_dcache(dirino)?;
        let nblocks = self.inode_ref(dirino)?.size.div_ceil(BLOCK_SIZE as u64);
        let new_rec = DirRecord {
            ino,
            ftype,
            name: name.to_string(),
        };
        let hint = self.dcache[&dirino]
            .space_hint
            .min(nblocks.saturating_sub(1));
        let candidates: Vec<u64> = if nblocks == 0 {
            vec![]
        } else {
            std::iter::once(hint)
                .chain((0..nblocks).filter(|&b| b != hint))
                .collect()
        };
        let mut target = None;
        for blk in candidates {
            self.ensure_block(dirino, blk)?;
            let mut records = dir::decode_block(&self.blocks[&(dirino, blk)].data)?;
            records.push(new_rec.clone());
            if dir::fits(&records) {
                target = Some((blk, records));
                break;
            }
        }
        let (blk, records) = match target {
            Some(t) => t,
            None => (nblocks, vec![new_rec]),
        };
        self.dir_block_write_sync(dirino, blk, &records)?;
        let cache = self.dcache.get_mut(&dirino).unwrap();
        cache
            .map
            .insert(name.to_string(), DirSlot { ino, ftype, blk });
        cache.space_hint = blk;
        Ok(())
    }

    fn dir_remove(&mut self, dirino: Ino, name: &str) -> FsResult<DirSlot> {
        self.ensure_dcache(dirino)?;
        let slot = self.dcache[&dirino]
            .map
            .get(name)
            .copied()
            .ok_or(FsError::NotFound)?;
        self.ensure_block(dirino, slot.blk)?;
        let mut records = dir::decode_block(&self.blocks[&(dirino, slot.blk)].data)?;
        records.retain(|r| r.name != name);
        self.dir_block_write_sync(dirino, slot.blk, &records)?;
        let cache = self.dcache.get_mut(&dirino).unwrap();
        cache.map.remove(name);
        cache.space_hint = slot.blk;
        Ok(slot)
    }

    fn dir_entries(&mut self, dirino: Ino) -> FsResult<Vec<(String, DirSlot)>> {
        self.ensure_dcache(dirino)?;
        let mut out: Vec<(String, DirSlot)> = self.dcache[&dirino]
            .map
            .iter()
            .map(|(n, s)| (n.clone(), *s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    // ----- paths ------------------------------------------------------------

    fn resolve(&mut self, path: &str) -> FsResult<Ino> {
        let parts = vfs::path::components(path)?;
        let mut cur = ROOT_INO;
        for part in parts {
            if self.inode_ref(cur)?.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = self.dir_lookup(cur, part)?.ok_or(FsError::NotFound)?.ino;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (parent_parts, name) = vfs::path::split_parent(path)?;
        let mut cur = ROOT_INO;
        for part in parent_parts {
            if self.inode_ref(cur)?.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = self.dir_lookup(cur, part)?.ok_or(FsError::NotFound)?.ino;
        }
        if self.inode_ref(cur)?.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((cur, name))
    }

    // ----- file deletion ------------------------------------------------------

    fn free_file_blocks(&mut self, ino: Ino, from_block: u64) -> FsResult<()> {
        let old_blocks = self.inode_ref(ino)?.size.div_ceil(BLOCK_SIZE as u64);
        for bno in from_block..old_blocks {
            if let Some(b) = self.blocks.remove(&(ino, bno)) {
                if b.dirty {
                    self.dirty_bytes -= BLOCK_SIZE as u64;
                }
            }
            self.dirty_blocks.remove(&(ino, bno));
            let addr = self.block_ptr(ino, bno)?;
            if addr != NIL_ADDR {
                self.free_block(addr);
                // Clear the pointer.
                match classify_block(bno).unwrap() {
                    BlockClass::Direct(i) => {
                        let mut inode = self.inode_clone(ino)?;
                        inode.direct[i] = NIL_ADDR;
                        self.put_inode(inode);
                    }
                    BlockClass::Indirect1(i) => {
                        let ind = self.inode_ref(ino)?.indirect;
                        self.inds.get_mut(&ind).unwrap().ptrs[i] = NIL_ADDR;
                        self.dirty_inds.insert(ind);
                    }
                    BlockClass::Indirect2(i, j) => {
                        let dind = self.inode_ref(ino)?.dindirect;
                        let single = self.inds[&dind].ptrs[i];
                        self.inds.get_mut(&single).unwrap().ptrs[j] = NIL_ADDR;
                        self.dirty_inds.insert(single);
                    }
                }
            }
        }
        // Release emptied indirect blocks.
        let mut inode = self.inode_clone(ino)?;
        if inode.indirect != NIL_ADDR {
            self.load_ind(inode.indirect)?;
            if self.inds[&inode.indirect].is_empty() {
                self.free_block(inode.indirect);
                self.inds.remove(&inode.indirect);
                self.dirty_inds.remove(&inode.indirect);
                inode.indirect = NIL_ADDR;
                self.put_inode(inode.clone());
            }
        }
        if inode.dindirect != NIL_ADDR {
            self.load_ind(inode.dindirect)?;
            let singles: Vec<(usize, DiskAddr)> = self.inds[&inode.dindirect]
                .ptrs
                .iter()
                .enumerate()
                .filter(|(_, &p)| p != NIL_ADDR)
                .map(|(i, &p)| (i, p))
                .collect();
            for (i, single) in singles {
                self.load_ind(single)?;
                if self.inds[&single].is_empty() {
                    self.free_block(single);
                    self.inds.remove(&single);
                    self.dirty_inds.remove(&single);
                    self.inds.get_mut(&inode.dindirect).unwrap().ptrs[i] = NIL_ADDR;
                    self.dirty_inds.insert(inode.dindirect);
                }
            }
            if self.inds[&inode.dindirect].is_empty() {
                self.free_block(inode.dindirect);
                self.inds.remove(&inode.dindirect);
                self.dirty_inds.remove(&inode.dindirect);
                inode.dindirect = NIL_ADDR;
                self.put_inode(inode);
            }
        }
        Ok(())
    }

    fn delete_file(&mut self, ino: Ino) -> FsResult<()> {
        self.free_file_blocks(ino, 0)?;
        self.clear_inode_slot_sync(ino)?;
        self.free_inode(ino);
        self.inodes.remove(&ino);
        self.dcache.remove(&ino);
        let keys: Vec<(Ino, u64)> = self
            .blocks
            .keys()
            .filter(|&&(i, _)| i == ino)
            .copied()
            .collect();
        for k in keys {
            self.blocks.remove(&k);
        }
        self.nfiles -= 1;
        Ok(())
    }

    fn maybe_flush(&mut self) -> FsResult<()> {
        if self.dirty_bytes >= self.cfg.flush_threshold_bytes {
            self.flush_data()?;
        }
        Ok(())
    }
}

impl<D: BlockDevice> FileSystem for Ffs<D> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_inode(parent, false)?;
        let now = self.now();
        self.put_inode(Inode::new(ino, FileType::Regular, now));
        // "The inodes for the new files are each written twice to ease
        // recovery from crashes" (Figure 1).
        self.write_inode_sync(ino)?;
        if self.cfg.double_inode_write {
            self.write_inode_sync(ino)?;
        }
        self.dir_insert(parent, name, ino, FileType::Regular)?;
        self.nfiles += 1;
        Ok(ino)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_inode(parent, true)?;
        let now = self.now();
        self.put_inode(Inode::new(ino, FileType::Directory, now));
        self.write_inode_sync(ino)?;
        if self.cfg.double_inode_write {
            self.write_inode_sync(ino)?;
        }
        self.dir_insert(parent, name, ino, FileType::Directory)?;
        self.dcache.insert(ino, DirCache::default());
        self.nfiles += 1;
        Ok(ino)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.resolve(path)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        if self.inode_ref(ino)?.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        if data.is_empty() {
            return Ok(());
        }
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooLarge)?;
        if end > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let bno = abs / BLOCK_SIZE as u64;
            let off_in = (abs % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(data.len() - pos);
            if off_in == 0 && n == BLOCK_SIZE {
                self.lru_tick += 1;
                let lru = self.lru_tick;
                let entry = self
                    .blocks
                    .entry((ino, bno))
                    .or_insert_with(|| CachedBlock {
                        data: vec![0u8; BLOCK_SIZE].into_boxed_slice(),
                        dirty: false,
                        lru,
                    });
                entry.data.copy_from_slice(&data[pos..pos + n]);
            } else {
                self.ensure_block(ino, bno)?;
                let b = self.blocks.get_mut(&(ino, bno)).unwrap();
                b.data[off_in..off_in + n].copy_from_slice(&data[pos..pos + n]);
            }
            self.mark_block_dirty(ino, bno);
            pos += n;
        }
        let now = self.now();
        let mut inode = self.inode_clone(ino)?;
        inode.size = inode.size.max(end);
        inode.mtime = now;
        self.put_inode(inode);
        self.stats.app_bytes_written += data.len() as u64;
        self.maybe_flush()?;
        Ok(())
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let inode = self.inode_ref(ino)?;
        if inode.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let size = inode.size;
        if offset >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - offset) as usize);
        let first = offset / BLOCK_SIZE as u64;
        let last = (offset + n as u64 - 1) / BLOCK_SIZE as u64;
        self.fetch_blocks(ino, first, last)?;
        let mut pos = 0usize;
        while pos < n {
            let abs = offset + pos as u64;
            let bno = abs / BLOCK_SIZE as u64;
            let off_in = (abs % BLOCK_SIZE as u64) as usize;
            let len = (BLOCK_SIZE - off_in).min(n - pos);
            if let Some(b) = self.blocks.get(&(ino, bno)) {
                buf[pos..pos + len].copy_from_slice(&b.data[off_in..off_in + len]);
                pos += len;
            } else {
                self.ensure_block(ino, bno)?;
            }
        }
        Ok(n)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        let inode = self.inode_ref(ino)?;
        if inode.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let old_size = inode.size;
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        if size < old_size {
            self.free_file_blocks(ino, size.div_ceil(BLOCK_SIZE as u64))?;
            if !size.is_multiple_of(BLOCK_SIZE as u64) {
                let bno = size / BLOCK_SIZE as u64;
                if self.block_ptr(ino, bno)? != NIL_ADDR || self.blocks.contains_key(&(ino, bno)) {
                    self.ensure_block(ino, bno)?;
                    let off = (size % BLOCK_SIZE as u64) as usize;
                    let b = self.blocks.get_mut(&(ino, bno)).unwrap();
                    b.data[off..].fill(0);
                    self.mark_block_dirty(ino, bno);
                }
            }
        }
        let now = self.now();
        let mut inode = self.inode_clone(ino)?;
        inode.size = size;
        inode.mtime = now;
        self.put_inode(inode);
        self.maybe_flush()?;
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let slot = self.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;
        if slot.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let mut inode = self.inode_clone(slot.ino)?;
        inode.nlink -= 1;
        let nlink = inode.nlink;
        self.dir_remove(parent, name)?;
        if nlink == 0 {
            self.delete_file(slot.ino)?;
        } else {
            self.put_inode(inode);
            self.write_inode_sync(slot.ino)?;
        }
        Ok(())
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
        self.dir_remove(parent, name)?;
        self.delete_file(slot.ino)?;
        Ok(())
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
            let mut dst_inode = self.inode_clone(dst.ino)?;
            dst_inode.nlink -= 1;
            let nlink = dst_inode.nlink;
            self.dir_remove(to_parent, to_name)?;
            if nlink == 0 {
                self.delete_file(dst.ino)?;
            } else {
                self.put_inode(dst_inode);
                self.write_inode_sync(dst.ino)?;
            }
        }
        self.dir_remove(from_parent, from_name)?;
        self.dir_insert(to_parent, to_name, src.ino, src.ftype)?;
        Ok(())
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
        self.put_inode(inode);
        self.write_inode_sync(src_ino)?;
        self.dir_insert(parent, name, src_ino, FileType::Regular)?;
        Ok(())
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        Ok(self.inode_ref(ino)?.metadata())
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        let dirino = self.resolve(path)?;
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

    fn sync(&mut self) -> FsResult<()> {
        self.flush_data()?;
        self.write_bitmaps()?;
        self.dev.sync().map_err(FsError::device)
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        let total = self.total_data_blocks() * BLOCK_SIZE as u64;
        let free = self.total_free_blocks() * BLOCK_SIZE as u64;
        Ok(StatFs {
            total_bytes: total,
            live_bytes: total - free,
            num_files: self.nfiles,
        })
    }
}
