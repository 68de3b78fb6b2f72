//! The file-metadata cache: cached inodes and indirect blocks, what is
//! dirty among them, and the one piece of code that knows the block-pointer
//! tree.
//!
//! Sprite LFS keeps the index structure of Unix FFS (§3.1): "for each file
//! there exists a data structure called an inode, which contains the
//! file's attributes plus the disk addresses of the first ten blocks of
//! the file; for files larger than ten blocks, the inode also contains the
//! disk addresses of one or more indirect blocks". Here that is:
//!
//! ```text
//! inode.direct[0..10]        file blocks 0..10
//! inode.indirect  → Single(0), 512 pointers: file blocks 10..522
//! inode.dindirect → Double,    512 pointers, slot k-1 → Single(k),
//!                              512 pointers: file blocks 522 + (k-1)·512 ..
//! ```
//!
//! [`IndKey`] names the indirect blocks of a file. Every question about
//! the tree — where a block's pointer lives ([`MetaCache::ptrs`]), where
//! an indirect block's own address lives (its parent slot), how an
//! indirect block is described in a segment summary, and which blocks an
//! inode owns ([`owned_blocks`]) — is answered in this module and nowhere
//! else.
//!
//! [`MetaCache`] is the component [`crate::Lfs`] owns as `meta`, as the
//! block cache is `blocks`. It does no I/O. A lookup answers from cached
//! state or names the indirect block that must be read first ([`Load`]);
//! `Lfs` reads it and hands the bytes back ([`MetaCache::insert_ind`],
//! [`MetaCache::adopt_inode_block`]) and asks again.
//!
//! **The dirty rule.** A block whose pointer moved dirties the block that
//! holds the pointer. [`MetaCache::mark_ind_dirty`] applies it: marking a
//! single-indirect block under the double-indirect block dirty marks the
//! double-indirect block too, so a flush that writes the child at a new
//! address also writes the parent that records it. Pointers held by the
//! inode need no mark, because a flush writes the inode of every file it
//! writes anything of. Nothing is dirty without being cached: the dirty
//! sets index the caches, and dropping a block drops its dirty bit.

use std::collections::{BTreeSet, HashMap};

use vfs::{FsError, FsResult, Ino};

use crate::inode::{IndirectBlock, Inode, INODE_DISK_SIZE};
use crate::inodemap::InodeMap;
use crate::layout::{
    DiskAddr, IND1_START, IND2_START, INODES_PER_BLOCK, MAX_FILE_BLOCKS, NIL_ADDR, PTRS_PER_BLOCK,
};
use crate::summary::EntryKind;

/// Largest read-ahead window, in blocks (128 KB).
const READ_AHEAD_MAX: u32 = 32;

/// Per-file sequential-read detector, fed by every request that reaches
/// `Lfs::fetch_blocks`. Two marks, because the two front ends see
/// different requests: `Lfs::read` sees every one, so a scan keeps
/// landing on `next_req`; [`crate::SharedLfs`] serves hits without the
/// writer lane, so the next request the detector sees begins where the
/// last read-ahead ended.
#[derive(Clone, Copy, Default)]
pub(crate) struct ReadAhead {
    /// The file block after the last request.
    next_req: u64,
    /// The file block after the last read-ahead (never behind `next_req`
    /// while a scan lasts).
    next_ra: u64,
    /// Blocks the next fetch may read past its request.
    window: u32,
}

impl ReadAhead {
    /// Opens the window for a request that begins at `first`: doubled
    /// (2, 4, … [`READ_AHEAD_MAX`]) when the request continues a scan,
    /// zero after a seek.
    pub(crate) fn open(&mut self, first: u64) -> u32 {
        self.window = if first == self.next_req || first == self.next_ra {
            (self.window * 2).clamp(2, READ_AHEAD_MAX)
        } else {
            0
        };
        self.window
    }

    /// Records that the request ended at `last` and that blocks up to
    /// `end` (exclusive) were fetched for it.
    pub(crate) fn close(&mut self, last: u64, end: u64) {
        self.next_req = last + 1;
        self.next_ra = if self.window == 0 {
            end
        } else {
            self.next_ra.max(end)
        };
    }
}

/// A cached inode.
struct CachedInode {
    inode: Inode,
    /// Sequential-read detector; lives and dies with the cache entry.
    ra: ReadAhead,
}

/// Identifies one indirect block of a file: `Single(k)` is single-indirect
/// block `k` (k = 0 hangs off `inode.indirect`; k ≥ 1 off slot `k-1` of the
/// double-indirect block); `Double` is the double-indirect block itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum IndKey {
    Single(u32),
    Double,
}

impl IndKey {
    /// The indirect block that holds this block's address, or `None` when
    /// the inode does.
    pub(crate) fn parent(self) -> Option<IndKey> {
        match self {
            IndKey::Single(k) if k > 0 => Some(IndKey::Double),
            _ => None,
        }
    }

    /// The summary entry kind and offset that describe this block.
    pub(crate) fn summary(self) -> (EntryKind, u32) {
        match self {
            IndKey::Single(k) => (EntryKind::Indirect1, k),
            IndKey::Double => (EntryKind::Indirect2, 0),
        }
    }

    /// The block an `Indirect1` or `Indirect2` summary entry describes;
    /// `None` for any other entry, and for an offset no file has.
    pub(crate) fn from_summary(kind: EntryKind, offset: u32) -> Option<IndKey> {
        match kind {
            EntryKind::Indirect1 if offset as usize <= PTRS_PER_BLOCK => {
                Some(IndKey::Single(offset))
            }
            EntryKind::Indirect2 => Some(IndKey::Double),
            _ => None,
        }
    }

    /// The first file block whose pointer a single-indirect block holds.
    fn first_block(self) -> u64 {
        match self {
            IndKey::Single(0) => IND1_START,
            IndKey::Single(k) => IND2_START + (k as u64 - 1) * PTRS_PER_BLOCK as u64,
            IndKey::Double => IND2_START,
        }
    }
}

/// Where file block `bno`'s pointer lives: the indirect block that holds
/// it (`None`: the inode's direct array) and its slot there.
fn holder(bno: u64) -> FsResult<(Option<IndKey>, usize)> {
    let per = PTRS_PER_BLOCK as u64;
    if bno < IND1_START {
        Ok((None, bno as usize))
    } else if bno < IND2_START {
        Ok((Some(IndKey::Single(0)), (bno - IND1_START) as usize))
    } else if bno < MAX_FILE_BLOCKS {
        let off = bno - IND2_START;
        Ok((
            Some(IndKey::Single((off / per) as u32 + 1)),
            (off % per) as usize,
        ))
    } else {
        Err(FsError::FileTooLarge)
    }
}

/// A cached indirect block together with its current on-disk home.
struct CachedInd {
    blk: IndirectBlock,
    /// Where the block currently lives on disk ([`NIL_ADDR`] if never
    /// written); flush uses this to retire the old copy's live bytes.
    disk_addr: DiskAddr,
}

/// An indirect block to read from the device before a lookup can answer:
/// which one, and where it lives.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Load {
    pub(crate) key: IndKey,
    pub(crate) addr: DiskAddr,
}

/// What [`MetaCache::ptrs`] found for a file block.
pub(crate) enum Ptrs<'a> {
    /// The pointer array that holds the block's pointer, from that pointer
    /// on to the end of the array.
    Cached(&'a mut [DiskAddr]),
    /// No indirect block holds it: the block and the `n - 1` after it, to
    /// the end of the absent array, are holes.
    Hole(usize),
    /// The indirect block to read first.
    Load(Load),
}

/// A block an inode owns: a data block, by file block number, or an
/// indirect block.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Owned {
    Data(u64),
    Ind(IndKey),
}

/// Every block `inode` owns, with its address: its direct data blocks,
/// then its double-indirect block, then each single-indirect block — the
/// inode's own first — followed by the data blocks it points to. `read`
/// supplies the indirect block `key` at `addr`, in that order; whoever
/// asks says where it comes from (the cache, or the log being replayed).
pub(crate) fn owned_blocks(
    inode: &Inode,
    mut read: impl FnMut(IndKey, DiskAddr) -> FsResult<IndirectBlock>,
) -> FsResult<Vec<(Owned, DiskAddr)>> {
    fn live(ptrs: &[DiskAddr]) -> impl Iterator<Item = (usize, DiskAddr)> + '_ {
        ptrs.iter()
            .copied()
            .enumerate()
            .filter(|&(_, a)| a != NIL_ADDR)
    }
    let mut out: Vec<_> = live(&inode.direct)
        .map(|(i, a)| (Owned::Data(i as u64), a))
        .collect();
    let mut singles = Vec::new();
    if inode.indirect != NIL_ADDR {
        singles.push((IndKey::Single(0), inode.indirect));
    }
    if inode.dindirect != NIL_ADDR {
        out.push((Owned::Ind(IndKey::Double), inode.dindirect));
        let double = read(IndKey::Double, inode.dindirect)?;
        singles.extend(live(&double.ptrs[..]).map(|(k, a)| (IndKey::Single(k as u32 + 1), a)));
    }
    for (key, addr) in singles {
        out.push((Owned::Ind(key), addr));
        let first = key.first_block();
        let blk = read(key, addr)?;
        out.extend(live(&blk.ptrs[..]).map(|(j, a)| (Owned::Data(first + j as u64), a)));
    }
    Ok(out)
}

/// The cached inodes and indirect blocks, and which of them the log does
/// not hold yet. See the module docs.
#[derive(Default)]
pub(crate) struct MetaCache {
    inodes: HashMap<Ino, CachedInode>,
    /// The cached inodes the log does not hold yet.
    dirty_inodes: BTreeSet<Ino>,
    inds: HashMap<(Ino, IndKey), CachedInd>,
    /// The cached indirect blocks the log does not hold yet.
    dirty_inds: BTreeSet<(Ino, IndKey)>,
}

impl MetaCache {
    // ----- inodes ------------------------------------------------------

    /// The cached inode `ino`.
    pub(crate) fn inode(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(&ino).map(|c| &c.inode)
    }

    /// The cached inode `ino`, mutably, marked dirty.
    pub(crate) fn inode_mut(&mut self, ino: Ino) -> Option<&mut Inode> {
        let c = self.inodes.get_mut(&ino)?;
        self.dirty_inodes.insert(ino);
        Some(&mut c.inode)
    }

    /// Caches `inode` as it is in the log, with a fresh read-ahead
    /// detector.
    pub(crate) fn insert_inode(&mut self, inode: Inode) {
        let ra = ReadAhead::default();
        self.inodes.insert(inode.ino, CachedInode { inode, ra });
    }

    /// Caches a modified inode, with a fresh read-ahead detector, and
    /// marks it dirty.
    pub(crate) fn put_inode(&mut self, inode: Inode) {
        self.dirty_inodes.insert(inode.ino);
        self.insert_inode(inode);
    }

    /// Marks the cached inode `ino` dirty; false if it is not cached.
    pub(crate) fn mark_inode_dirty(&mut self, ino: Ino) -> bool {
        let cached = self.inodes.contains_key(&ino);
        if cached {
            self.dirty_inodes.insert(ino);
        }
        cached
    }

    /// The read-ahead detector of the cached inode `ino`.
    pub(crate) fn read_ahead(&mut self, ino: Ino) -> Option<&mut ReadAhead> {
        self.inodes.get_mut(&ino).map(|c| &mut c.ra)
    }

    /// The inode numbers cached.
    pub(crate) fn cached_inos(&self) -> impl Iterator<Item = Ino> + '_ {
        self.inodes.keys().copied()
    }

    /// Caches every inode of the inode block `buf`, read from `addr`, that
    /// `imap` still places there and the cache does not hold yet. Inodes
    /// are packed 16 to a block exactly so that one read serves many files
    /// (a big win for "read files in creation order" workloads — Figure
    /// 8's read phase).
    pub(crate) fn adopt_inode_block(
        &mut self,
        addr: DiskAddr,
        buf: &[u8],
        imap: &InodeMap,
    ) -> FsResult<()> {
        for slot in 0..INODES_PER_BLOCK {
            let raw = &buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE];
            let Some(inode) = Inode::decode(raw)? else {
                continue;
            };
            if self.inodes.contains_key(&inode.ino) {
                continue;
            }
            let current = imap
                .get(inode.ino)
                .is_ok_and(|e| e.is_live() && e.addr == addr && e.slot == slot as u8);
            if current {
                self.insert_inode(inode);
            }
        }
        Ok(())
    }

    // ----- the pointer tree --------------------------------------------

    /// The slot that holds the address of indirect block `key` of `ino`:
    /// a field of the inode, or a slot of the double-indirect block.
    /// `None` when that inode or block is not cached.
    fn parent_slot(&mut self, ino: Ino, key: IndKey) -> Option<&mut DiskAddr> {
        Some(match key {
            IndKey::Single(0) => &mut self.inodes.get_mut(&ino)?.inode.indirect,
            IndKey::Double => &mut self.inodes.get_mut(&ino)?.inode.dindirect,
            IndKey::Single(k) => {
                let double = self.inds.get_mut(&(ino, IndKey::Double))?;
                &mut double.blk.ptrs[k as usize - 1]
            }
        })
    }

    /// Whether indirect block `key` of `ino` is cached (`true`) or absent
    /// from the file (`false`); `Err` names the block to read first — its
    /// parent, if that is not cached.
    fn find(&mut self, ino: Ino, key: IndKey) -> Result<bool, Load> {
        if self.inds.contains_key(&(ino, key)) {
            return Ok(true);
        }
        if let Some(parent) = key.parent() {
            if !self.find(ino, parent)? {
                return Ok(false);
            }
        }
        debug_assert!(self.inodes.contains_key(&ino), "inode {ino} is not cached");
        match self.parent_slot(ino, key) {
            Some(&mut addr) if addr != NIL_ADDR => Err(Load { key, addr }),
            _ => Ok(false),
        }
    }

    /// The pointer of file block `bno` of `ino`, and the rest of the array
    /// that holds it, as far as cached state says. The inode must be
    /// cached.
    pub(crate) fn ptrs(&mut self, ino: Ino, bno: u64) -> FsResult<Ptrs<'_>> {
        let (holder, i) = holder(bno)?;
        let Some(key) = holder else {
            let c = self.inodes.get_mut(&ino).expect("inode cached");
            return Ok(Ptrs::Cached(&mut c.inode.direct[i..]));
        };
        Ok(match self.find(ino, key) {
            Ok(true) => {
                let e = self.inds.get_mut(&(ino, key)).expect("found cached");
                Ptrs::Cached(&mut e.blk.ptrs[i..])
            }
            Ok(false) => Ptrs::Hole(PTRS_PER_BLOCK - i),
            Err(load) => Ptrs::Load(load),
        })
    }

    /// The current home of indirect block `key` of `ino` (`None`: the
    /// file has no such block), or the block to read first. Reading the
    /// block itself is part of the answer: whoever asks next will want it.
    pub(crate) fn ind_home(&mut self, ino: Ino, key: IndKey) -> Result<Option<DiskAddr>, Load> {
        Ok(self
            .find(ino, key)?
            .then(|| self.inds[&(ino, key)].disk_addr))
    }

    /// Makes the pointer of file block `bno` of `ino` writable — caching
    /// the indirect blocks on its path, an absent one empty (it reaches
    /// the log once it holds a pointer) — and marks the indirect block
    /// that holds it dirty. `Some` names a block to read first.
    pub(crate) fn hold(&mut self, ino: Ino, bno: u64) -> FsResult<Option<Load>> {
        let Some(key) = holder(bno)?.0 else {
            return Ok(None);
        };
        for k in key.parent().into_iter().chain([key]) {
            match self.find(ino, k) {
                Ok(true) => {}
                Ok(false) => self.insert_ind(ino, k, NIL_ADDR, IndirectBlock::new()),
                Err(load) => return Ok(Some(load)),
            }
        }
        self.mark_ind_dirty(ino, key);
        Ok(None)
    }

    /// Caches indirect block `key` of `ino`, whose home is `disk_addr`.
    pub(crate) fn insert_ind(
        &mut self,
        ino: Ino,
        key: IndKey,
        disk_addr: DiskAddr,
        blk: IndirectBlock,
    ) {
        self.inds.insert((ino, key), CachedInd { blk, disk_addr });
    }

    /// The cached indirect block `key` of `ino`.
    pub(crate) fn ind(&self, ino: Ino, key: IndKey) -> Option<&IndirectBlock> {
        self.inds.get(&(ino, key)).map(|e| &e.blk)
    }

    /// Stores `addr` as the pointer of file block `bno` of `ino`, whose
    /// holder is cached ([`MetaCache::hold`]), and returns the old one.
    /// Marks nothing: a flush's assignment, whose holders it gathered.
    pub(crate) fn assign_ptr(&mut self, ino: Ino, bno: u64, addr: DiskAddr) -> FsResult<DiskAddr> {
        match self.ptrs(ino, bno)? {
            Ptrs::Cached(p) => Ok(std::mem::replace(&mut p[0], addr)),
            _ => unreachable!("the holder of file block {bno} of {ino} is not cached"),
        }
    }

    /// [`MetaCache::assign_ptr`] outside a flush: marks the holder dirty.
    pub(crate) fn set_ptr(&mut self, ino: Ino, bno: u64, addr: DiskAddr) -> FsResult<DiskAddr> {
        let old = self.assign_ptr(ino, bno, addr)?;
        if let (Some(key), _) = holder(bno)? {
            self.mark_ind_dirty(ino, key);
        }
        Ok(old)
    }

    /// Gives indirect block `key` of `ino` its new home `addr`, in its
    /// parent slot too, and returns the old home. Marks nothing: the flush
    /// that relocates a block has gathered its parent with it.
    pub(crate) fn relocate_ind(&mut self, ino: Ino, key: IndKey, addr: DiskAddr) -> DiskAddr {
        *self.parent_slot(ino, key).expect("parent cached") = addr;
        let e = self.inds.get_mut(&(ino, key)).expect("gathered as dirty");
        std::mem::replace(&mut e.disk_addr, addr)
    }

    /// The dirty rule (see the module docs): marks indirect block `key` of
    /// `ino` dirty, and the indirect block that holds its address with it.
    pub(crate) fn mark_ind_dirty(&mut self, ino: Ino, key: IndKey) {
        for k in [Some(key), key.parent()].into_iter().flatten() {
            debug_assert!(self.inds.contains_key(&(ino, k)), "dirty {k:?} not cached");
            self.dirty_inds.insert((ino, k));
        }
    }

    /// Serializes indirect block `key` of `ino` into `dst`.
    pub(crate) fn encode_ind(&self, ino: Ino, key: IndKey, dst: &mut [u8]) {
        self.inds[&(ino, key)].blk.encode_into(dst);
    }

    /// Releases the indirect blocks of `ino` that hold no pointers any
    /// more, and the double-indirect block once that empties too; clears
    /// the slots that held their addresses, dirtying what holds those
    /// slots. Returns the old homes, whose live bytes die.
    pub(crate) fn prune(&mut self, ino: Ino) -> Vec<DiskAddr> {
        let empty: Vec<IndKey> = self
            .inds
            .iter()
            .filter(|(&(i, k), e)| i == ino && k != IndKey::Double && e.blk.is_empty())
            .map(|(&(_, k), _)| k)
            .collect();
        let mut freed: Vec<DiskAddr> = empty.into_iter().map(|k| self.unlink(ino, k)).collect();
        let double = self.inds.get(&(ino, IndKey::Double));
        if !freed.is_empty() && double.is_some_and(|d| d.blk.is_empty()) {
            freed.push(self.unlink(ino, IndKey::Double));
        }
        freed
    }

    /// Drops indirect block `key` of `ino` from the cache and from the
    /// tree; returns its home.
    fn unlink(&mut self, ino: Ino, key: IndKey) -> DiskAddr {
        let e = self.inds.remove(&(ino, key)).expect("cached");
        self.dirty_inds.remove(&(ino, key));
        if let Some(slot) = self.parent_slot(ino, key) {
            *slot = NIL_ADDR;
            match key.parent() {
                Some(parent) => self.mark_ind_dirty(ino, parent),
                None => {
                    self.dirty_inodes.insert(ino);
                }
            }
        }
        e.disk_addr
    }

    // ----- what is dirty ----------------------------------------------

    /// Dirty inodes and indirect blocks, together.
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty_inodes.len() + self.dirty_inds.len()
    }

    /// The files with a dirty inode or indirect block (with repeats).
    pub(crate) fn dirty_inos(&self) -> impl Iterator<Item = Ino> + '_ {
        let inds = self.dirty_inds.iter().map(|&(ino, _)| ino);
        inds.chain(self.dirty_inodes.iter().copied())
    }

    /// The dirty indirect blocks of `ino`, singles in order, then the
    /// double: the order a flush writes them in, children before the
    /// parent that records their addresses.
    pub(crate) fn dirty_inds_of(&self, ino: Ino) -> impl Iterator<Item = IndKey> + '_ {
        let range = (ino, IndKey::Single(0))..=(ino, IndKey::Double);
        self.dirty_inds.range(range).map(|&(_, key)| key)
    }

    /// Whether the inode of `ino` is dirty.
    #[cfg(test)]
    pub(crate) fn inode_is_dirty(&self, ino: Ino) -> bool {
        self.dirty_inodes.contains(&ino)
    }

    /// Drops everything cached of a deleted file.
    pub(crate) fn purge(&mut self, ino: Ino) {
        self.inodes.remove(&ino);
        self.dirty_inodes.remove(&ino);
        self.inds.retain(|&(i, _), _| i != ino);
        self.dirty_inds.retain(|&(i, _)| i != ino);
    }

    /// Drops every clean indirect block, and the inodes of the files
    /// `keep` does not name.
    pub(crate) fn drop_clean(&mut self, keep: impl Fn(Ino) -> bool) {
        let dirty_inds = &self.dirty_inds;
        self.inds.retain(|k, _| dirty_inds.contains(k));
        self.inodes.retain(|&ino, _| keep(ino));
    }

    /// Marks everything clean but the state of the files `kept` names: a
    /// flush committed.
    pub(crate) fn clean_except(&mut self, kept: impl Fn(Ino) -> bool) {
        self.dirty_inodes.retain(|&ino| kept(ino));
        self.dirty_inds.retain(|&(ino, _)| kept(ino));
    }

    /// Asserts that everything dirty is cached. Debug builds only.
    pub(crate) fn assert_consistent(&self) {
        debug_assert!(
            self.dirty_inodes
                .iter()
                .all(|i| self.inodes.contains_key(i)),
            "a dirty inode is not cached"
        );
        debug_assert!(
            self.dirty_inds.iter().all(|k| self.inds.contains_key(k)),
            "a dirty indirect block is not cached"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_blocks_classify_direct() {
        assert_eq!(holder(0).unwrap(), (None, 0));
        assert_eq!(holder(9).unwrap(), (None, 9));
    }

    #[test]
    fn indirect_boundaries_are_exact() {
        assert_eq!(holder(10).unwrap(), (Some(IndKey::Single(0)), 0));
        assert_eq!(
            holder(IND2_START - 1).unwrap(),
            (Some(IndKey::Single(0)), PTRS_PER_BLOCK - 1)
        );
        assert_eq!(holder(IND2_START).unwrap(), (Some(IndKey::Single(1)), 0));
        assert_eq!(
            holder(IND2_START + PTRS_PER_BLOCK as u64).unwrap(),
            (Some(IndKey::Single(2)), 0)
        );
        for key in [IndKey::Single(0), IndKey::Single(1), IndKey::Single(7)] {
            assert_eq!(holder(key.first_block()).unwrap(), (Some(key), 0));
        }
    }

    #[test]
    fn max_file_block_is_rejected() {
        assert!(matches!(
            holder(MAX_FILE_BLOCKS),
            Err(FsError::FileTooLarge)
        ));
        let last = holder(MAX_FILE_BLOCKS - 1).unwrap();
        assert_eq!(
            last,
            (
                Some(IndKey::Single(PTRS_PER_BLOCK as u32)),
                PTRS_PER_BLOCK - 1
            )
        );
    }

    #[test]
    fn an_indirect_key_round_trips_through_its_summary_entry() {
        for key in [IndKey::Single(0), IndKey::Single(512), IndKey::Double] {
            let (kind, offset) = key.summary();
            assert_eq!(IndKey::from_summary(kind, offset), Some(key));
        }
        assert_eq!(IndKey::from_summary(EntryKind::Indirect1, 513), None);
        assert_eq!(IndKey::from_summary(EntryKind::Data, 0), None);
    }

    /// The cleaner moves a single-indirect block under the double-indirect
    /// block while nothing else of the file is dirty. The double must be
    /// written with it: a double whose new pointer stays in memory leaves
    /// the one on disk pointing into the victim, which the next checkpoint
    /// frees and the next write reuses.
    #[test]
    fn a_cleaned_child_of_the_double_indirect_block_keeps_its_new_address() {
        use blockdev::{MemDisk, BLOCK_SIZE};
        use vfs::FileSystem;

        use crate::{Lfs, LfsConfig};

        let bs = BLOCK_SIZE as u64;
        let block = |b: u64| vec![(b % 251) as u8 + 1; BLOCK_SIZE];
        let mut fs = Lfs::format(MemDisk::new(8192), LfsConfig::small()).unwrap();
        let ino = fs.create("/big").unwrap();
        for b in 0..1054 {
            fs.write(ino, b * bs, &block(b)).unwrap();
        }
        fs.checkpoint().unwrap();
        // Rewrites Single(1) and the double together; prunes Single(2).
        fs.truncate(ino, 622 * bs).unwrap();
        fs.checkpoint().unwrap();
        fs.write_file("/filler", &[7u8; 24 * BLOCK_SIZE]).unwrap();
        fs.checkpoint().unwrap();
        // The double moves; Single(1) stays.
        fs.write(ino, 1039 * bs, &block(1039)).unwrap();
        fs.checkpoint().unwrap();
        let child = fs.ind_home(ino, IndKey::Single(1)).unwrap().unwrap();
        let double = fs.ind_home(ino, IndKey::Double).unwrap().unwrap();
        let victim = fs.sb.seg_of(child).unwrap();
        assert_ne!(fs.sb.seg_of(double), Some(victim));

        fs.as_cleaner(|fs| fs.clean_segments(&[victim])).unwrap();
        fs.checkpoint().unwrap();
        let mut fs = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:#?}", report.errors);
        fs.write_file("/reuse", &[9u8; 40 * BLOCK_SIZE]).unwrap();
        fs.checkpoint().unwrap();
        assert!(fs.log.write_points()[0].0 > victim, "the victim was reused");
        fs.drop_caches();
        let back = fs.read_to_vec(ino).unwrap();
        assert_eq!(back.len() as u64, 1040 * bs);
        for (b, got) in (0..).zip(back.chunks(BLOCK_SIZE)) {
            let want = match b {
                0..622 | 1039 => block(b),
                _ => vec![0; BLOCK_SIZE],
            };
            assert!(got == want, "block {b} reads back wrong");
        }
    }
}
