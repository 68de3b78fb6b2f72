//! On-disk layout constants and address types.
//!
//! The disk is laid out as:
//!
//! ```text
//! block 0            superblock                      (fixed)
//! blocks 1..1+CR     checkpoint region A             (fixed)
//! blocks 1+CR..1+2CR checkpoint region B             (fixed)
//! remainder          segments 0..nsegments           (the log)
//! ```
//!
//! Everything except the superblock and the two checkpoint regions lives in
//! the log, exactly as in Table 1 of the paper. There is no bitmap and no
//! free list. Where in the log each partial write goes is `Placement`'s
//! rule, shared by the layout and roll-forward.

use blockdev::BLOCK_SIZE;

use crate::summary::MAX_SUMMARY_ENTRIES;

/// A disk block address.
pub type DiskAddr = u64;

/// The "no address" sentinel (an unwritten or freed pointer).
pub const NIL_ADDR: DiskAddr = u64::MAX;

/// Number of blocks reserved for each checkpoint region.
pub const CR_BLOCKS: u64 = 32;

/// Disk block of the superblock.
pub const SUPERBLOCK_ADDR: DiskAddr = 0;

/// Disk block where checkpoint region A starts.
pub const CR0_ADDR: DiskAddr = 1;

/// Disk block where checkpoint region B starts.
pub const CR1_ADDR: DiskAddr = CR0_ADDR + CR_BLOCKS;

/// First block available for segments.
pub const SEGMENTS_START: DiskAddr = CR1_ADDR + CR_BLOCKS;

/// Direct block pointers per inode (as in Unix FFS and the paper: the
/// inode holds "the disk addresses of the first ten blocks").
pub const NUM_DIRECT: usize = 10;

/// Block-address pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 8;

/// Inodes packed into one inode block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / crate::inode::INODE_DISK_SIZE;

/// First file block covered by the single-indirect tree.
pub const IND1_START: u64 = NUM_DIRECT as u64;

/// First file block covered by the double-indirect tree.
pub const IND2_START: u64 = IND1_START + PTRS_PER_BLOCK as u64;

/// One past the largest addressable file block.
pub const MAX_FILE_BLOCKS: u64 = IND2_START + (PTRS_PER_BLOCK * PTRS_PER_BLOCK) as u64;

/// Maximum file size in bytes.
pub const MAX_FILE_SIZE: u64 = MAX_FILE_BLOCKS * BLOCK_SIZE as u64;

/// Number of file blocks needed to hold `size` bytes.
pub fn blocks_for_size(size: u64) -> u64 {
    size.div_ceil(BLOCK_SIZE as u64)
}

/// The blocks of a table kept whole in memory and written to the log a
/// block at a time (the inode map, the usage table): where each lives,
/// which the checkpoint region persists, and which hold changes the log
/// has not seen. A block stays dirty until a flush that wrote it commits.
#[derive(Clone, Debug)]
pub struct MapBlocks {
    /// Each block's home in the log, [`NIL_ADDR`] until first written.
    pub(crate) addrs: Vec<DiskAddr>,
    pub(crate) dirty: Vec<bool>,
}

impl MapBlocks {
    pub(crate) fn new(count: usize) -> MapBlocks {
        MapBlocks {
            addrs: vec![NIL_ADDR; count],
            dirty: vec![false; count],
        }
    }

    /// Indices of the dirty blocks.
    pub fn dirty_indices(&self) -> Vec<usize> {
        (0..self.dirty.len()).filter(|&i| self.dirty[i]).collect()
    }

    /// True if any block is dirty.
    pub fn has_dirty(&self) -> bool {
        self.dirty.iter().any(|&d| d)
    }
}

/// Clean segments per shard that normal writes may never consume — the
/// cleaner's private pool for relocating live data when the log runs out
/// of space.
pub(crate) const CLEANER_RESERVE_SEGS: usize = 2;

/// Where [`Placement::next`] put one partial write.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Chunk {
    /// Segment and block offset of the chunk's summary block.
    pub(crate) seg: u32,
    pub(crate) off: u32,
    /// Blocks after the summary.
    pub(crate) n: usize,
    /// Entries of the chunk's summary: one per block, and one more per
    /// fragment a fragment block holds.
    pub(crate) entries: usize,
    /// Whether the cursor left a full segment for `seg`, a clean one.
    pub(crate) opened: bool,
}

/// The one rule that says where the log's chunk `seq` goes. The layout
/// follows it forwards ([`Placement::next`]); roll-forward follows it back
/// ([`Placement::candidates`], [`Placement::adopt`]) to find "the log
/// segments that were written after the last checkpoint" (§4.2) without
/// reading any other.
///
/// It holds the write points, one cursor per shard, and each shard's pool
/// of clean segments, and does no I/O.
#[derive(Clone, Debug)]
pub(crate) struct Placement {
    seg_blocks: u32,
    nshards: usize,
    wps: Vec<(u32, u32)>,
    /// Clean segments per shard, highest first, so `pop` takes the lowest.
    pools: Vec<Vec<u32>>,
}

impl Placement {
    /// A placement over the write points `wps` and the clean segments
    /// `clean`, given as `(segment, shard)` in ascending segment order and
    /// without the write points' own. Each shard keeps its `reserve`
    /// highest clean segments out of its pool.
    pub(crate) fn new(
        seg_blocks: u32,
        nshards: usize,
        wps: Vec<(u32, u32)>,
        clean: impl IntoIterator<Item = (u32, usize)>,
        reserve: usize,
    ) -> Placement {
        let mut pools = vec![Vec::new(); nshards];
        for (seg, shard) in clean {
            pools[shard].push(seg);
        }
        for pool in &mut pools {
            pool.truncate(pool.len().saturating_sub(reserve));
            pool.reverse();
        }
        Placement {
            seg_blocks,
            nshards,
            wps,
            pools,
        }
    }

    /// The write points, one per shard in shard order.
    pub(crate) fn into_write_points(self) -> Vec<(u32, u32)> {
        self.wps
    }

    /// Whether a cursor at `off` has room for a chunk: a summary plus at
    /// least one block.
    fn has_room(&self, off: u32) -> bool {
        off + 1 < self.seg_blocks
    }

    /// Whether some cursor sits on `seg`, so the segment stays open for
    /// writing, full or not, until the cursor moves on.
    pub(crate) fn holds(&self, seg: u32) -> bool {
        self.wps.iter().any(|&(s, _)| s == seg)
    }

    /// Places chunk `seq`, the next of the blocks still to lay out, which
    /// need `entries[i]` summary entries each; the returned chunk's `n`
    /// says how many it carries: as many as the segment has room for and
    /// the summary has entries for. `None` means no cursor has room and no
    /// pool it may draw on has a segment.
    ///
    /// The chunk tries the cursor of shard `seq % nshards` first and the
    /// next shards in wrap order after it. Rotating the shard with `seq`
    /// spreads consecutive chunks across the volumes. A cursor without
    /// room moves to the lowest-numbered segment of its shard's pool, and
    /// is passed over when the pool is empty. On a single volume this is
    /// the paper's one log head.
    pub(crate) fn next(&mut self, seq: u64, entries: &[usize]) -> Option<Chunk> {
        let nsh = self.nshards;
        for k in 0..nsh as u64 {
            let shard = ((seq + k) % nsh as u64) as usize;
            let (mut seg, mut off) = self.wps[shard];
            let opened = !self.has_room(off);
            if opened {
                match self.pools[shard].pop() {
                    Some(fresh) => (seg, off) = (fresh, 0),
                    None => continue,
                }
            }
            let room = (self.seg_blocks - off - 1) as usize;
            let (mut n, mut used) = (0, 0);
            for &e in entries.iter().take(room) {
                if used + e > MAX_SUMMARY_ENTRIES {
                    break;
                }
                (n, used) = (n + 1, used + e);
            }
            debug_assert!(
                n > 0 || entries.is_empty(),
                "a block no summary can describe"
            );
            self.wps[shard] = (seg, off + 1 + n as u32);
            return Some(Chunk {
                seg,
                off,
                n,
                entries: used,
                opened,
            });
        }
        None
    }

    /// Every place `(shard, seg, off)` where [`Placement::next`] can have
    /// put chunk `seq`, shard `seq % nshards` first: each shard's cursor
    /// where it stands, or at its shard's lowest clean segment when it has
    /// no room. A summary that decodes to this `seq` says which place
    /// holds it.
    pub(crate) fn candidates(&self, seq: u64) -> Vec<(usize, u32, u32)> {
        let nsh = self.nshards;
        let place = |shard: usize| match self.wps[shard] {
            (seg, off) if self.has_room(off) => Some((shard, seg, off)),
            _ => self.pools[shard].last().map(|&fresh| (shard, fresh, 0)),
        };
        (0..nsh as u64)
            .filter_map(|k| place(((seq + k) % nsh as u64) as usize))
            .collect()
    }

    /// Moves `shard`'s cursor past a chunk of `n` blocks found at `(seg,
    /// off)`, one of [`Placement::candidates`]. Returns the segment the
    /// cursor left when the chunk opened a fresh one.
    pub(crate) fn adopt(&mut self, shard: usize, seg: u32, off: u32, n: usize) -> Option<u32> {
        let left = std::mem::replace(&mut self.wps[shard], (seg, off + 1 + n as u32)).0;
        if seg == left {
            return None;
        }
        self.pools[shard].retain(|&s| s != seg);
        Some(left)
    }

    /// Adds the segments a cleaner pass released, `(segment, shard)`, to
    /// their shards' pools: roll-forward does this right after the chunk
    /// whose summary lists them, as the layout gets them once the fence
    /// after that chunk has made them clean.
    pub(crate) fn release(&mut self, segs: impl IntoIterator<Item = (u32, usize)>) {
        for (seg, shard) in segs {
            let pool = &mut self.pools[shard];
            // Highest first, so `pop` still takes the lowest.
            let at = pool.partition_point(|&s| s > seg);
            if pool.get(at) != Some(&seg) {
                pool.insert(at, seg);
            }
        }
    }

    /// Opens the write points of a placement made without any: a cursor
    /// on every shard, each at the start of its shard's lowest clean
    /// segment. Returns false, and changes nothing, when some shard's pool
    /// is empty.
    pub(crate) fn open_row(&mut self) -> bool {
        debug_assert!(self.wps.is_empty(), "one cursor per shard");
        if self.pools.iter().any(Vec::is_empty) {
            return false;
        }
        let row = self
            .pools
            .iter_mut()
            .filter_map(Vec::pop)
            .map(|seg| (seg, 0));
        self.wps.extend(row);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_file_size_exceeds_one_gigabyte() {
        // 10 direct + 512 indirect + 512*512 double-indirect 4 KB blocks.
        const { assert!(MAX_FILE_SIZE > 1 << 30) };
    }

    #[test]
    fn blocks_for_size_rounds_up() {
        assert_eq!(blocks_for_size(0), 0);
        assert_eq!(blocks_for_size(1), 1);
        assert_eq!(blocks_for_size(BLOCK_SIZE as u64), 1);
        assert_eq!(blocks_for_size(BLOCK_SIZE as u64 + 1), 2);
    }

    #[test]
    fn fixed_regions_do_not_overlap() {
        const { assert!(CR0_ADDR > SUPERBLOCK_ADDR) };
        assert_eq!(CR1_ADDR, CR0_ADDR + CR_BLOCKS);
        assert_eq!(SEGMENTS_START, CR1_ADDR + CR_BLOCKS);
    }

    #[test]
    fn sixteen_inodes_per_block() {
        assert_eq!(INODES_PER_BLOCK, 16);
        assert_eq!(PTRS_PER_BLOCK, 512);
    }

    #[test]
    fn open_row_takes_every_shards_lowest_clean_segment_or_nothing() {
        let mut place = Placement::new(8, 2, vec![], [(2, 0), (4, 0), (5, 1)], 0);
        assert!(place.open_row());
        assert_eq!(place.into_write_points(), [(2, 0), (5, 0)]);
        let mut place = Placement::new(8, 2, vec![], [(2, 0), (4, 0)], 0);
        assert!(!place.open_row(), "shard 1 has no clean segment");
        assert!(place.into_write_points().is_empty());
    }

    /// A random start: `nsh` shards (segment `g` on shard `g % nsh`) of
    /// `per_shard` segments, a cursor on each shard at a random segment
    /// and offset, and a random clean set among the other segments.
    type Start = (Vec<(u32, u32)>, Vec<(u32, usize)>);

    fn random_start(
        (nsh, per_shard, seg_blocks): (usize, usize, u32),
        picks: &[usize],
        clean_mask: &[bool],
    ) -> Start {
        let mut free: Vec<Vec<u32>> = (0..nsh)
            .map(|s| (0..per_shard).map(|i| (i * nsh + s) as u32).collect())
            .collect();
        let wps = (0..nsh)
            .map(|s| {
                let pool = &mut free[s];
                let seg = pool.remove(picks[2 * s] % pool.len());
                (seg, picks[2 * s + 1] as u32 % (seg_blocks + 1))
            })
            .collect();
        let mut clean: Vec<(u32, usize)> = free
            .iter()
            .enumerate()
            .flat_map(|(s, pool)| pool.iter().map(move |&g| (g, s)))
            .filter(|&(g, _)| clean_mask[g as usize])
            .collect();
        clean.sort_unstable();
        (wps, clean)
    }

    proptest::proptest! {
        /// The layout's placement and roll-forward's search are the same
        /// rule: every chunk `next` lays out is among its `seq`'s
        /// candidates, on the shard that carried it, and adopting each one
        /// where it was found ends on exactly the layout's final write
        /// points. Some flushes end by releasing a segment a cursor left,
        /// which both sides add to its pool after the flush's last chunk,
        /// and later chunks may land in it.
        #[test]
        fn candidates_find_every_chunk_next_placed(
            geometry in (1usize..=3, 1usize..=6, 3u32..=8),
            picks in proptest::collection::vec(0usize..64, 6),
            clean_mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 21),
            reserve in proptest::prop_oneof![proptest::prelude::Just(0usize), proptest::prelude::Just(2)],
            seq0 in 0u64..40,
            flushes in proptest::collection::vec((0usize..=24, proptest::prelude::any::<bool>()), 1..8),
            weights in proptest::collection::vec(proptest::prop_oneof![proptest::prelude::Just(1usize), 2usize..=65], 24),
        ) {
            let (nsh, per_shard, seg_blocks) = geometry;
            let per_shard = per_shard + 1;
            let (wps, clean) = random_start((nsh, per_shard, seg_blocks), &picks, &clean_mask);

            // Lay out flush after flush; a flush that finds no space changes
            // nothing, as the layout discards a failed plan.
            let mut place = Placement::new(seg_blocks, nsh, wps.clone(), clean.clone(), reserve);
            let mut laid: Vec<(u64, Chunk)> = Vec::new();
            // `(seq, segment)`: the flush ending with chunk `seq` released it.
            let mut released: Vec<(u64, u32)> = Vec::new();
            let mut seq = seq0;
            'flushes: for &(count, release) in &flushes {
                let (mut trial, mut s, mut chunks) = (place.clone(), seq, Vec::new());
                let mut left = count;
                while left > 0 {
                    s += 1;
                    let Some(c) = trial.next(s, &weights[count - left..count]) else {
                        break 'flushes;
                    };
                    proptest::prop_assert!(c.entries <= MAX_SUMMARY_ENTRIES);
                    left -= c.n;
                    chunks.push((s, c));
                }
                (place, seq) = (trial, s);
                laid.extend(chunks);
                // A segment the log filled and left, released once.
                let left_behind = laid.iter().map(|&(_, c)| c.seg).find(|&g| {
                    !place.holds(g) && !released.iter().any(|&(_, r)| r == g)
                });
                if let Some(g) = left_behind.filter(|_| release && !laid.is_empty()) {
                    place.release([(g, g as usize % nsh)]);
                    released.push((seq, g));
                }
            }

            // Replay from the same start, as roll-forward does.
            let mut back = Placement::new(seg_blocks, nsh, wps, clean, 0);
            for &(seq, c) in &laid {
                let found = back
                    .candidates(seq)
                    .into_iter()
                    .find(|&(_, seg, off)| (seg, off) == (c.seg, c.off));
                let Some((shard, ..)) = found else {
                    panic!("chunk {seq} at {:?} is not among its candidates", (c.seg, c.off));
                };
                proptest::prop_assert_eq!(shard, c.seg as usize % nsh);
                back.adopt(shard, c.seg, c.off, c.n);
                let after = released.iter().filter(|&&(r, _)| r == seq);
                back.release(after.map(|&(_, g)| (g, g as usize % nsh)));
            }
            proptest::prop_assert_eq!(back.wps, place.wps);
        }
    }
}
