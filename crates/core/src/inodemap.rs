//! The inode map: where each inode currently lives in the log.
//!
//! "Sprite LFS doesn't place inodes at fixed positions; they are written to
//! the log. Sprite LFS uses a data structure called an inode map to
//! maintain the current location of each inode" (§3.1). The map is divided
//! into blocks that are themselves written to the log; the checkpoint
//! region records the block addresses. The map also holds each file's
//! version number — the uid half of the fast liveness check (§3.3) — and
//! its last access time.
//!
//! The whole map is kept in memory ("inode maps are compact enough to keep
//! the active portions cached in main memory: inode map lookups rarely
//! require disk accesses").

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult, Ino};

use crate::codec::{Reader, Writer};
use crate::layout::{DiskAddr, MapBlocks, NIL_ADDR};

/// Bytes per on-disk inode-map entry.
pub const IMAP_ENTRY_SIZE: usize = 24;

/// Inode-map entries per disk block.
pub const IMAP_ENTRIES_PER_BLOCK: usize = BLOCK_SIZE / IMAP_ENTRY_SIZE;

/// One inode-map entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImapEntry {
    /// Disk address of the inode block holding this inode, or [`NIL_ADDR`]
    /// if the inode is free.
    pub addr: DiskAddr,
    /// Slot within that inode block.
    pub slot: u8,
    /// Version number, "incremented whenever the file is deleted or
    /// truncated to length zero" (§3.3).
    pub version: u32,
    /// Time of last access (kept here, as in the paper's Table 1, so
    /// reads don't dirty the inode).
    pub atime: u64,
}

impl ImapEntry {
    const FREE: ImapEntry = ImapEntry {
        addr: NIL_ADDR,
        slot: 0,
        version: 0,
        atime: 0,
    };

    /// True if the inode is currently allocated.
    pub fn is_live(&self) -> bool {
        self.addr != NIL_ADDR
    }
}

/// The in-memory inode map with dirty-block tracking.
pub struct InodeMap {
    entries: Vec<ImapEntry>,
    /// The map's blocks in the log.
    pub blocks: MapBlocks,
    /// Recycled inode numbers available for allocation.
    free: Vec<Ino>,
    /// Lowest inode number that has never been allocated.
    next_unused: Ino,
}

impl InodeMap {
    /// An empty map for `max_inodes` inodes; every inode starts free.
    pub fn new(max_inodes: u32) -> InodeMap {
        let nblocks = (max_inodes as usize).div_ceil(IMAP_ENTRIES_PER_BLOCK);
        InodeMap {
            entries: vec![ImapEntry::FREE; max_inodes as usize],
            blocks: MapBlocks::new(nblocks),
            free: Vec::new(),
            next_unused: 2, // 0 is invalid, 1 is the root.
        }
    }

    /// Capacity in inodes.
    pub fn capacity(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Files and directories, the root left out: the numbers handed out
    /// (1 for the root, then 2 up to the lowest never used), less the free
    /// ones. Right after a load only once [`InodeMap::rebuild_free_list`]
    /// ran.
    pub fn file_count(&self) -> u64 {
        let handed_out = self.next_unused as u64 - 1;
        handed_out.saturating_sub(self.free.len() as u64 + 1)
    }

    /// The inode-map block holding `ino`.
    pub fn block_of(ino: Ino) -> usize {
        ino as usize / IMAP_ENTRIES_PER_BLOCK
    }

    /// Looks up an entry.
    pub fn get(&self, ino: Ino) -> FsResult<&ImapEntry> {
        self.entries
            .get(ino as usize)
            .ok_or(FsError::InvalidArgument("inode number out of range"))
    }

    /// Records that inode `ino` now lives at (`addr`, `slot`).
    pub fn set_location(&mut self, ino: Ino, addr: DiskAddr, slot: u8) {
        let e = &mut self.entries[ino as usize];
        e.addr = addr;
        e.slot = slot;
        self.blocks.dirty[Self::block_of(ino)] = true;
    }

    /// Updates an inode's access time.
    pub fn set_atime(&mut self, ino: Ino, atime: u64) {
        self.entries[ino as usize].atime = atime;
        self.blocks.dirty[Self::block_of(ino)] = true;
    }

    /// Updates an inode's access time without dirtying the map block, so
    /// that pure read traffic does not generate log writes. The value
    /// still reaches disk whenever the block is written for another
    /// reason or at checkpoint.
    pub fn set_atime_quiet(&mut self, ino: Ino, atime: u64) {
        self.entries[ino as usize].atime = atime;
    }

    /// Sets location *and* version in one step — used by roll-forward when
    /// it adopts a newer inode found in the log tail.
    pub fn set_entry(&mut self, ino: Ino, addr: DiskAddr, slot: u8, version: u32) {
        self.set_location(ino, addr, slot);
        self.entries[ino as usize].version = version;
    }

    /// Bumps the version of a *live* inode — the paper increments the
    /// version "whenever the file is deleted or truncated to length zero",
    /// and truncation leaves the inode live.
    pub fn bump_version(&mut self, ino: Ino) -> u32 {
        let e = &mut self.entries[ino as usize];
        e.version += 1;
        self.blocks.dirty[Self::block_of(ino)] = true;
        e.version
    }

    /// Allocates a free inode number (the entry's version already reflects
    /// any previous lives of this number). Returns `None` when the map is
    /// full. The location stays [`NIL_ADDR`] until the inode is written.
    pub fn allocate(&mut self) -> Option<Ino> {
        if let Some(ino) = self.free.pop() {
            return Some(ino);
        }
        if (self.next_unused as usize) < self.entries.len() {
            let ino = self.next_unused;
            self.next_unused += 1;
            Some(ino)
        } else {
            None
        }
    }

    /// Reserves a specific inode number (used for the root at format time
    /// and by recovery).
    pub fn reserve(&mut self, ino: Ino) {
        if ino >= self.next_unused {
            // Everything between stays allocatable.
            for i in self.next_unused..ino {
                if i >= 2 {
                    self.free.push(i);
                }
            }
            self.next_unused = ino + 1;
        } else {
            self.free.retain(|&f| f != ino);
        }
    }

    /// Frees an inode: bumps its version (invalidating every block with
    /// the old uid, which is what lets the cleaner discard them without
    /// reading the inode) and recycles the number.
    pub fn free(&mut self, ino: Ino) {
        let e = &mut self.entries[ino as usize];
        e.addr = NIL_ADDR;
        e.slot = 0;
        e.version += 1;
        self.blocks.dirty[Self::block_of(ino)] = true;
        self.free.push(ino);
    }

    /// Current version of `ino` — the uid check for cleaning (§3.3): a
    /// block stamped with an older version is dead, no inode read needed.
    pub fn version(&self, ino: Ino) -> u32 {
        self.entries[ino as usize].version
    }

    /// Serializes inode-map block `idx` into a caller-provided block-sized
    /// buffer (zero-filled first); see [`crate::summary::Summary::encode_into`].
    pub fn encode_block_into(&self, idx: usize, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        buf.fill(0);
        let start = idx * IMAP_ENTRIES_PER_BLOCK;
        let end = (start + IMAP_ENTRIES_PER_BLOCK).min(self.entries.len());
        let mut w = Writer::new(buf);
        for e in &self.entries[start..end] {
            w.put_u64(e.addr);
            w.put_u32(e.version);
            w.put_u8(e.slot);
            w.pad(3);
            w.put_u64(e.atime);
        }
    }

    /// Loads inode-map block `idx` from a raw disk block, replacing the
    /// in-memory entries it covers, and records `addr` as its on-disk home.
    pub fn load_block(&mut self, idx: usize, buf: &[u8], addr: DiskAddr) {
        let start = idx * IMAP_ENTRIES_PER_BLOCK;
        let end = (start + IMAP_ENTRIES_PER_BLOCK).min(self.entries.len());
        let mut r = Reader::new(buf);
        for i in start..end {
            self.entries[i] = ImapEntry {
                addr: r.get_u64(),
                version: r.get_u32(),
                slot: {
                    let s = r.get_u8();
                    r.skip(3);
                    s
                },
                atime: r.get_u64(),
            };
        }
        self.blocks.addrs[idx] = addr;
        self.blocks.dirty[idx] = false;
    }

    /// Rebuilds the free list after loading from disk (recovery path).
    pub fn rebuild_free_list(&mut self) {
        self.free.clear();
        let highest_live = self.live_inos().fold(1, Ino::max);
        self.next_unused = highest_live + 1;
        for i in 2..self.next_unused {
            if !self.entries[i as usize].is_live() {
                self.free.push(i);
            }
        }
    }

    /// Iterates over the live inodes and their entries.
    pub fn live_entries(&self) -> impl Iterator<Item = (Ino, &ImapEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_live())
            .map(|(i, e)| (i as Ino, e))
    }

    /// Iterates over the live inode numbers.
    pub fn live_inos(&self) -> impl Iterator<Item = Ino> + '_ {
        self.live_entries().map(|(ino, _)| ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_skips_zero_and_root() {
        let mut m = InodeMap::new(100);
        assert_eq!(m.allocate(), Some(2));
        assert_eq!(m.allocate(), Some(3));
    }

    #[test]
    fn free_bumps_version_and_recycles() {
        let mut m = InodeMap::new(100);
        let ino = m.allocate().unwrap();
        m.set_location(ino, 500, 3);
        assert_eq!(m.version(ino), 0);
        m.free(ino);
        assert_eq!(m.version(ino), 1);
        assert!(!m.get(ino).unwrap().is_live());
        assert_eq!(m.allocate(), Some(ino));
    }

    #[test]
    fn allocation_exhausts_at_capacity() {
        let mut m = InodeMap::new(4); // inos 2 and 3 allocatable.
        assert!(m.allocate().is_some());
        assert!(m.allocate().is_some());
        assert!(m.allocate().is_none());
    }

    #[test]
    fn live_count_tracks_set_and_free() {
        let mut m = InodeMap::new(100);
        m.reserve(1);
        assert_eq!(m.file_count(), 0);
        let (a, b) = (m.allocate().unwrap(), m.allocate().unwrap());
        m.set_location(a, 10, 0);
        m.set_location(b, 11, 0);
        assert_eq!(m.file_count(), 2);
        m.set_location(a, 20, 1); // Relocation, not a new life.
        assert_eq!(m.file_count(), 2);
        m.free(b);
        assert_eq!(m.file_count(), 1);
    }

    #[test]
    fn dirty_tracking_follows_mutations() {
        let mut m = InodeMap::new(IMAP_ENTRIES_PER_BLOCK as u32 * 3);
        assert!(!m.blocks.has_dirty());
        m.set_location(2, 1, 0);
        assert_eq!(m.blocks.dirty_indices(), vec![0]);
        let far = (IMAP_ENTRIES_PER_BLOCK * 2 + 1) as Ino;
        m.set_location(far, 2, 0);
        assert_eq!(m.blocks.dirty_indices(), vec![0, 2]);
        m.blocks.addrs[0] = 99;
        assert_eq!(m.blocks.dirty_indices(), vec![0, 2]);
        m.blocks.dirty[0] = false;
        assert_eq!(m.blocks.dirty_indices(), vec![2]);
        assert_eq!(m.blocks.addrs[0], 99);
    }

    #[test]
    fn block_encode_load_roundtrip() {
        let mut m = InodeMap::new(400);
        m.set_location(2, 1234, 5);
        m.set_atime(2, 777);
        m.set_location(3, 888, 1);
        let mut blk = [0u8; BLOCK_SIZE];
        m.encode_block_into(0, &mut blk);

        let mut m2 = InodeMap::new(400);
        m2.load_block(0, &blk, 4321);
        assert_eq!(m2.get(2).unwrap(), m.get(2).unwrap());
        assert_eq!(m2.get(3).unwrap(), m.get(3).unwrap());
        assert_eq!(m2.blocks.addrs[0], 4321);
        m2.rebuild_free_list();
        assert_eq!(m2.file_count(), 2);
    }

    #[test]
    fn rebuild_free_list_after_load() {
        let mut m = InodeMap::new(100);
        m.set_location(2, 10, 0);
        m.set_location(5, 11, 0);
        let mut blk = [0u8; BLOCK_SIZE];
        m.encode_block_into(0, &mut blk);
        let mut m2 = InodeMap::new(100);
        m2.load_block(0, &blk, 50);
        m2.rebuild_free_list();
        // 3 and 4 are free below the watermark; allocation must hand them
        // out before advancing past 5.
        let mut got = vec![
            m2.allocate().unwrap(),
            m2.allocate().unwrap(),
            m2.allocate().unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![3, 4, 6]);
    }

    #[test]
    fn reserve_makes_specific_ino_unavailable() {
        let mut m = InodeMap::new(100);
        m.reserve(1);
        m.reserve(4);
        let mut next4: Vec<Ino> = (0..4).filter_map(|_| m.allocate()).collect();
        next4.sort_unstable();
        assert_eq!(next4, vec![2, 3, 5, 6]);
    }

    #[test]
    fn live_inos_iterates_exactly_live() {
        let mut m = InodeMap::new(100);
        m.set_location(1, 5, 0);
        m.set_location(7, 6, 0);
        let live: Vec<Ino> = m.live_inos().collect();
        assert_eq!(live, vec![1, 7]);
    }

    #[test]
    fn entries_per_block_constant() {
        assert_eq!(IMAP_ENTRIES_PER_BLOCK, 170);
    }
}
