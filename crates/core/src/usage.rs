//! The segment usage table.
//!
//! "For each segment, the table records the number of live bytes in the
//! segment and the most recent modified time of any block in the segment.
//! These two values are used by the segment cleaner when choosing segments
//! to clean" (§3.6). The table lives in memory; its blocks are written to
//! the log with checkpoints (and the closing flush of a cleaner pass
//! whose victims held live map blocks), and their addresses are stored
//! in the checkpoint regions. Roll-forward re-derives what changed since
//! from the log tail (§4.2).
//!
//! The space manager (`space.rs`) is this module's child, so it alone
//! reaches the table's private mutators of a segment's state, seal
//! sequence and live bytes; everything else reads.
//!
//! The live-byte counts are *advisory*: the cleaning mechanism re-verifies
//! every block's liveness against the inode map and inode pointers before
//! copying it (§3.3), so a count that is one checkpoint stale can never
//! corrupt data — it can only make the policy slightly suboptimal. This is
//! what lets Sprite LFS do without a bitmap or free list.

#[path = "space.rs"]
pub(crate) mod space;

use std::collections::BTreeSet;

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult};

use crate::codec::{Reader, Writer};
use crate::layout::{DiskAddr, MapBlocks};

/// Bytes per on-disk usage-table entry.
pub const USAGE_ENTRY_SIZE: usize = 24;

/// Usage-table entries per disk block.
pub const USAGE_ENTRIES_PER_BLOCK: usize = BLOCK_SIZE / USAGE_ENTRY_SIZE;

/// Life-cycle state of a segment. The discriminant is its byte on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegState {
    /// Contains no live data and may be allocated for writing.
    Clean = 0,
    /// The segment currently being filled by the log.
    Active = 1,
    /// Sealed and holding (possibly stale) data.
    Dirty = 2,
    /// Cleaned, but its old contents must survive until the relocation is
    /// durable: until the fence after the chunk that releases it, or,
    /// when it holds a map block the last checkpoint region names, until
    /// the next checkpoint. Only then does it become
    /// [`SegState::Clean`]. Without this, a crash after cleaning could
    /// leave the log's tail, or the checkpoint's maps, pointing into a
    /// reused segment.
    PendingFree = 3,
}

/// Every state, indexed by its byte on disk.
const STATES: [SegState; 4] = [
    SegState::Clean,
    SegState::Active,
    SegState::Dirty,
    SegState::PendingFree,
];

/// Per-segment bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegUsage {
    /// Live bytes still in the segment.
    pub live_bytes: u32,
    /// Most recent modified time of any block written to the segment —
    /// the age input to the cost-benefit policy.
    pub last_write: u64,
    /// Life-cycle state.
    pub state: SegState,
    /// Log sequence number at which the segment was sealed (used to keep
    /// the cleaner away from segments the roll-forward still needs).
    pub seal_seq: u64,
}

impl SegUsage {
    const CLEAN: SegUsage = SegUsage {
        live_bytes: 0,
        last_write: 0,
        state: SegState::Clean,
        seal_seq: 0,
    };

    /// Utilization `u` of this segment given its capacity in bytes.
    pub fn utilization(&self, seg_bytes: u64) -> f64 {
        self.live_bytes as f64 / seg_bytes as f64
    }
}

/// The in-memory segment usage table with dirty-block tracking.
pub struct UsageTable {
    entries: Vec<SegUsage>,
    /// The table's blocks in the log.
    pub blocks: MapBlocks,
    /// Segments currently in [`SegState::Clean`], maintained at every
    /// state transition so allocation and `clean_count` never rescan the
    /// whole table. Ordered, so low indices are still preferred.
    clean_set: BTreeSet<u32>,
}

impl UsageTable {
    /// A table for `nsegments` segments, all clean.
    pub fn new(nsegments: u32) -> UsageTable {
        let nblocks = (nsegments as usize).div_ceil(USAGE_ENTRIES_PER_BLOCK);
        UsageTable {
            entries: vec![SegUsage::CLEAN; nsegments as usize],
            blocks: MapBlocks::new(nblocks),
            clean_set: (0..nsegments).collect(),
        }
    }

    /// Keeps [`UsageTable::clean_set`] in step with one entry's state.
    fn note_state(&mut self, seg: u32, state: SegState) {
        if state == SegState::Clean {
            self.clean_set.insert(seg);
        } else {
            self.clean_set.remove(&seg);
        }
    }

    /// The table block holding segment `seg`.
    pub fn block_of(seg: u32) -> usize {
        seg as usize / USAGE_ENTRIES_PER_BLOCK
    }

    /// Reads a segment's entry.
    pub fn get(&self, seg: u32) -> &SegUsage {
        &self.entries[seg as usize]
    }

    /// Adds live bytes to a segment (a block was appended) and refreshes
    /// its age with the block's modification time. Saturates: counts
    /// seeded from a hostile checkpoint image must not overflow-panic.
    ///
    /// Only a `loud` change dirties the table block. The table's (and
    /// inode map's) *own* block relocations are quiet: accounting them
    /// loudly would re-dirty the table on every metadata write and the
    /// checkpoint stabilisation loop would never terminate. The in-memory
    /// counts stay exact (and the checkpoint persists them exactly); the
    /// on-disk copy of the affected entry is at most one checkpoint stale,
    /// which is safe because liveness is always re-verified by the
    /// cleaning mechanism (§3.3).
    fn add_live(&mut self, seg: u32, bytes: u32, block_mtime: u64, loud: bool) {
        let e = &mut self.entries[seg as usize];
        e.live_bytes = e.live_bytes.saturating_add(bytes);
        e.last_write = e.last_write.max(block_mtime);
        self.blocks.dirty[Self::block_of(seg)] |= loud;
    }

    /// Removes live bytes from a segment (a block there was superseded or
    /// deleted); `loud` as for [`UsageTable::add_live`]. Saturates rather
    /// than panicking: during roll-forward the counts are rebuilt from
    /// scratch and transient underflow is harmless.
    fn sub_live(&mut self, seg: u32, bytes: u32, loud: bool) {
        let e = &mut self.entries[seg as usize];
        e.live_bytes = e.live_bytes.saturating_sub(bytes);
        self.blocks.dirty[Self::block_of(seg)] |= loud;
    }

    /// Exact live counts for all segments (persisted by the checkpoint).
    pub fn live_vec(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.live_bytes).collect()
    }

    /// Restores exact live counts (from a checkpoint) without touching
    /// states, ages, or dirty bits.
    fn overlay_live(&mut self, live: &[u32]) {
        for (e, &l) in self.entries.iter_mut().zip(live) {
            e.live_bytes = l;
        }
    }

    /// Sets a segment's state.
    fn set_state(&mut self, seg: u32, state: SegState) {
        self.entries[seg as usize].state = state;
        self.note_state(seg, state);
        self.blocks.dirty[Self::block_of(seg)] = true;
    }

    /// Records the sequence number at which a segment was sealed.
    fn set_seal_seq(&mut self, seg: u32, seq: u64) {
        self.entries[seg as usize].seal_seq = seq;
        self.blocks.dirty[Self::block_of(seg)] = true;
    }

    /// Number of segments in [`SegState::Clean`]. O(1): the clean set is
    /// maintained incrementally at every state transition.
    pub fn clean_count(&self) -> u32 {
        debug_assert_eq!(
            self.clean_set.len(),
            self.entries
                .iter()
                .filter(|e| e.state == SegState::Clean)
                .count()
        );
        self.clean_set.len() as u32
    }

    /// Number of segments in [`SegState::PendingFree`]: cleaned, and
    /// waiting for a fence or a checkpoint to make them reusable.
    pub fn pending_count(&self) -> u32 {
        self.entries
            .iter()
            .filter(|e| e.state == SegState::PendingFree)
            .count() as u32
    }

    /// Clean segments in ascending index order, without scanning the
    /// whole table (the allocation order of the layout's `Placement`).
    pub fn clean_segs(&self) -> impl Iterator<Item = u32> + '_ {
        self.clean_set.iter().copied()
    }

    /// Promotes [`SegState::PendingFree`] segments whose relocations are
    /// covered by a durable checkpoint (their `seal_seq` — set to the log
    /// sequence of the relocation — is ≤ `covered_seq`).
    fn promote_pending(&mut self, covered_seq: u64) {
        for i in 0..self.entries.len() as u32 {
            let e = self.get(i);
            if e.state == SegState::PendingFree && e.seal_seq <= covered_seq {
                self.free(i);
            }
        }
    }

    /// Makes `seg` clean: no live bytes, no age, no seal sequence.
    fn free(&mut self, seg: u32) {
        self.entries[seg as usize] = SegUsage::CLEAN;
        self.clean_set.insert(seg);
        self.blocks.dirty[Self::block_of(seg)] = true;
    }

    /// Iterates `(seg, usage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &SegUsage)> + '_ {
        self.entries.iter().enumerate().map(|(i, e)| (i as u32, e))
    }

    /// Serializes table block `idx` into a caller-provided block-sized
    /// buffer (zero-filled first); see [`crate::summary::Summary::encode_into`].
    pub fn encode_block_into(&self, idx: usize, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        buf.fill(0);
        let start = idx * USAGE_ENTRIES_PER_BLOCK;
        let end = (start + USAGE_ENTRIES_PER_BLOCK).min(self.entries.len());
        let mut w = Writer::new(buf);
        for e in &self.entries[start..end] {
            w.put_u32(e.live_bytes);
            w.put_u8(e.state as u8);
            w.pad(3);
            w.put_u64(e.last_write);
            w.put_u64(e.seal_seq);
        }
    }

    /// Loads table block `idx` from a raw disk block. Refuses, as corrupt,
    /// a state byte no [`SegState`] encodes: read as clean, it would make
    /// a segment full of live data allocatable.
    fn load_block(&mut self, idx: usize, buf: &[u8], addr: DiskAddr) -> FsResult<()> {
        let start = idx * USAGE_ENTRIES_PER_BLOCK;
        let end = (start + USAGE_ENTRIES_PER_BLOCK).min(self.entries.len());
        let mut r = Reader::new(buf);
        for i in start..end {
            let live_bytes = r.get_u32();
            let byte = r.get_u8();
            let state = *STATES.get(byte as usize).ok_or_else(|| {
                FsError::Corrupt(format!("usage table: segment {i} has unknown state {byte}"))
            })?;
            r.skip(3);
            let last_write = r.get_u64();
            let seal_seq = r.get_u64();
            self.entries[i] = SegUsage {
                live_bytes,
                last_write,
                state,
                seal_seq,
            };
            self.note_state(i as u32, state);
        }
        self.blocks.addrs[idx] = addr;
        self.blocks.dirty[idx] = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_state_is_its_byte() {
        for (byte, &state) in STATES.iter().enumerate() {
            assert_eq!(state as usize, byte);
        }
    }

    #[test]
    fn fresh_table_is_all_clean() {
        let t = UsageTable::new(10);
        assert_eq!(t.clean_count(), 10);
        assert_eq!(t.clean_segs().next(), Some(0));
    }

    #[test]
    fn add_and_sub_live_track_bytes_and_age() {
        let mut t = UsageTable::new(4);
        t.add_live(1, 4096, 100, true);
        t.add_live(1, 4096, 50, true); // Older block must not lower last_write.
        assert_eq!(t.get(1).live_bytes, 8192);
        assert_eq!(t.get(1).last_write, 100);
        t.sub_live(1, 4096, true);
        assert_eq!(t.get(1).live_bytes, 4096);
    }

    #[test]
    fn sub_live_saturates() {
        let mut t = UsageTable::new(2);
        t.sub_live(0, 4096, true);
        assert_eq!(t.get(0).live_bytes, 0);
    }

    #[test]
    fn state_transitions_and_promotion() {
        let mut t = UsageTable::new(3);
        t.set_state(0, SegState::Active);
        t.set_state(1, SegState::Dirty);
        t.set_state(2, SegState::PendingFree);
        t.set_seal_seq(2, 5);
        assert_eq!((t.clean_count(), t.pending_count()), (0, 1));
        // Not yet covered by a checkpoint at seq 4.
        t.promote_pending(4);
        assert_eq!(t.pending_count(), 1);
        t.promote_pending(5);
        assert_eq!(t.get(2).state, SegState::Clean);
        assert_eq!((t.clean_count(), t.pending_count()), (1, 0));
        assert_eq!(t.clean_segs().next(), Some(2));
    }

    #[test]
    fn encode_load_roundtrip() {
        let mut t = UsageTable::new(300);
        t.add_live(0, 123, 9, true);
        t.set_state(0, SegState::Dirty);
        t.set_seal_seq(0, 77);
        t.add_live(299, 456, 8, true);
        let (mut b0, mut b1) = ([0u8; BLOCK_SIZE], [0u8; BLOCK_SIZE]);
        t.encode_block_into(0, &mut b0);
        t.encode_block_into(1, &mut b1);

        let mut t2 = UsageTable::new(300);
        t2.load_block(0, &b0, 11).unwrap();
        t2.load_block(1, &b1, 12).unwrap();
        assert_eq!(t2.get(0), t.get(0));
        assert_eq!(t2.get(299), t.get(299));
        assert_eq!(t2.blocks.addrs[0], 11);
        assert!(!t2.blocks.has_dirty());
    }

    #[test]
    fn clean_set_tracks_states_through_load_and_promotion() {
        let mut t = UsageTable::new(6);
        assert_eq!(t.clean_segs().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        t.set_state(0, SegState::Active);
        t.set_state(3, SegState::Dirty);
        t.set_state(4, SegState::PendingFree);
        t.set_seal_seq(4, 2);
        assert_eq!(t.clean_segs().collect::<Vec<_>>(), vec![1, 2, 5]);
        assert_eq!(t.clean_count(), 3);
        assert_eq!(t.clean_segs().next(), Some(1));
        t.promote_pending(2);
        assert_eq!(t.clean_segs().collect::<Vec<_>>(), vec![1, 2, 4, 5]);
        // Loading a block from disk resyncs the set with decoded states.
        let mut img = [0u8; BLOCK_SIZE];
        t.encode_block_into(0, &mut img);
        let mut t2 = UsageTable::new(6);
        t2.load_block(0, &img, 9).unwrap();
        assert_eq!(t2.clean_segs().collect::<Vec<_>>(), vec![1, 2, 4, 5]);
        assert_eq!(t2.clean_count(), 4);
    }

    #[test]
    fn utilization_is_fraction_of_capacity() {
        let mut t = UsageTable::new(1);
        t.add_live(0, 512 * 1024, 1, true);
        assert!((t.get(0).utilization(1 << 20) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dirty_blocks_reflect_touched_segments() {
        let mut t = UsageTable::new(USAGE_ENTRIES_PER_BLOCK as u32 + 5);
        t.add_live(0, 1, 1, true);
        t.add_live(USAGE_ENTRIES_PER_BLOCK as u32, 1, 1, true);
        assert_eq!(t.blocks.dirty_indices(), vec![0, 1]);
        t.blocks.addrs[0] = 5;
        assert_eq!(t.blocks.dirty_indices(), vec![0, 1]);
        t.blocks.dirty[0] = false;
        assert_eq!(t.blocks.dirty_indices(), vec![1]);
        assert_eq!(t.blocks.addrs[0], 5);
    }
}
