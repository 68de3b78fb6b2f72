//! The log writer: the one owner of the log's position.
//!
//! A checkpoint names a position in the log's sequence of partial writes
//! (§4.1), and roll-forward resumes from it (§4.2). [`Log`] holds that
//! position for [`crate::Lfs`] and is the only code that changes it: the
//! mount epoch, one write point per shard (the shard count is the length
//! of that row, never zero), the sequence counters, the next checkpoint
//! region, the log bytes since the last checkpoint, and the scratch pool.
//! [`Placement`] stays the pure rule of where a chunk goes; a `Log` hands
//! one out over its write points and takes them back from the placement a
//! flush or a roll-forward ends with.
//!
//! The counters stay ordered `checkpoint_seq ≤ durable_seq ≤ write_seq`.
//! A flush's commit advances `write_seq` only with its last chunk's
//! [`Flush<DataWritten>`] in hand; `durable_seq` catches up only on a
//! [`CheckpointReady`], which nothing but a fence mints; `checkpoint_seq`
//! follows the region write, which needs that token too.
//!
//! A chunk's synthesized blocks render into a pool entry, an `Arc<Vec<u8>>`
//! whose windows go to the device zero-copy ([`blockdev::IoBuf::Shared`]).
//! An entry is reused once its strong count is back to one, when the
//! submission sharing it completed, so the pool never grows past the ring
//! depth + 1. On a synchronous device that is one entry, which the
//! checkpoint region, rendered after its fence, reuses too.

use std::sync::Arc;

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult};

use crate::checkpoint::Checkpoint;
use crate::layout::Placement;
use crate::ordering::{CheckpointReady, DataWritten, Flush};
use crate::superblock::Superblock;

/// The log's position and the buffers it is written from.
#[derive(Default)]
pub(crate) struct Log {
    /// Stamped into summaries (see `summary.rs`).
    epoch: u32,
    /// `(segment, next free block offset)` per shard, in shard order.
    write_points: Vec<(u32, u32)>,
    write_seq: u64,
    durable_seq: u64,
    checkpoint_seq: u64,
    /// Which checkpoint region the next checkpoint goes to.
    next_cr: usize,
    /// Drives the `checkpoint_every_bytes` policy; the cleaner's writes
    /// do not count.
    bytes_since_checkpoint: u64,
    scratch_pool: Vec<Arc<Vec<u8>>>,
}

impl Log {
    /// A fresh log: on each of `shards` shards a write point at the start
    /// of its lowest segment (`segs` are `(segment, shard)`, ascending).
    /// `None` when a shard has no segment.
    pub(crate) fn open(
        seg_blocks: u32,
        shards: usize,
        segs: impl Iterator<Item = (u32, usize)>,
    ) -> Option<Log> {
        let mut place = Placement::new(seg_blocks, shards, Vec::new(), segs, 0);
        place.open_row().then(|| Log {
            write_points: place.into_write_points(),
            ..Log::default()
        })
    }

    /// The log checkpoint `cp`, read from region `region`, describes, in a
    /// new epoch. Refuses, as corrupt, anything but one write point per
    /// shard of this log, inside the disk and on its shard (`shard_of`).
    pub(crate) fn resume(
        &self,
        cp: &Checkpoint,
        region: usize,
        sb: &Superblock,
        shard_of: impl Fn(u32) -> usize,
    ) -> FsResult<Log> {
        let corrupt = |what: &str| Err(FsError::Corrupt(format!("checkpoint: {what}")));
        // A checkpoint from a volume set of a different width describes a
        // different disk geometry entirely.
        let write_points = cp.write_points();
        if write_points.len() != self.shards() {
            return corrupt("write-point count does not match shard count");
        }
        for (i, &(seg, off)) in write_points.iter().enumerate() {
            if seg >= sb.nsegments {
                return corrupt("log head segment out of range");
            }
            if off > sb.seg_blocks {
                return corrupt("log head offset out of range");
            }
            if shard_of(seg) != i {
                return corrupt("write point on wrong shard");
            }
        }
        Ok(Log {
            epoch: cp.epoch + 1,
            write_points,
            write_seq: cp.seq,
            durable_seq: cp.seq,
            checkpoint_seq: cp.seq,
            next_cr: 1 - region,
            ..Log::default()
        })
    }

    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    pub(crate) fn write_points(&self) -> &[(u32, u32)] {
        &self.write_points
    }

    pub(crate) fn shards(&self) -> usize {
        self.write_points.len()
    }

    pub(crate) fn write_seq(&self) -> u64 {
        self.write_seq
    }

    pub(crate) fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// The last partial write a fence covered: the watermark a summary
    /// encoded now carries.
    pub(crate) fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    pub(crate) fn bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint
    }

    /// Whether the last fence drained every partial write.
    pub(crate) fn is_durable(&self) -> bool {
        self.durable_seq == self.write_seq
    }

    /// Whether `seg` holds a write point. The cleaner leaves such a
    /// segment alone: the log is still growing into it.
    pub(crate) fn is_write_point_seg(&self, seg: u32) -> bool {
        self.write_points.iter().any(|&(s, _)| s == seg)
    }

    /// Bytes left behind the write points in their segments.
    pub(crate) fn head_room(&self, seg_blocks: u32) -> u64 {
        let room = |&(_, off): &(u32, u32)| seg_blocks.saturating_sub(off) as u64;
        self.write_points.iter().map(room).sum::<u64>() * BLOCK_SIZE as u64
    }

    /// The [`Placement`] over the write points and the `clean` segments
    /// off them (`(segment, shard)`, ascending), each shard keeping
    /// `reserve` segments back.
    pub(crate) fn placement(
        &self,
        seg_blocks: u32,
        clean: impl Iterator<Item = (u32, usize)>,
        reserve: usize,
    ) -> Placement {
        let clean = clean.filter(|&(s, _)| !self.is_write_point_seg(s));
        let wps = self.write_points.clone();
        Placement::new(seg_blocks, self.shards(), wps, clean, reserve)
    }

    /// Books `bytes` of log the cleaner did not write.
    pub(crate) fn wrote(&mut self, bytes: u64) {
        self.bytes_since_checkpoint += bytes;
    }

    /// A flush's commit: its `chunks` partial writes, the last one's token
    /// in hand, left the write points where `end` has them.
    pub(crate) fn commit(&mut self, _written: &Flush<DataWritten>, chunks: usize, end: Placement) {
        self.rolled_forward(self.write_seq + chunks as u64, end);
    }

    /// Roll-forward found the tail up to chunk `last_seq`, and the write
    /// points where `end` has them.
    pub(crate) fn rolled_forward(&mut self, last_seq: u64, end: Placement) {
        self.write_seq = last_seq;
        self.write_points = end.into_write_points();
    }

    /// A fence drained every partial write issued so far.
    pub(crate) fn fenced(&mut self, _ready: &CheckpointReady) {
        self.durable_seq = self.write_seq;
    }

    pub(crate) fn next_region(&self) -> usize {
        self.next_cr
    }

    /// The region [`Log::next_region`] named now covers the whole log, so
    /// the next checkpoint goes to the other one. Returns the region
    /// written.
    pub(crate) fn checkpointed(&mut self) -> usize {
        debug_assert!(self.is_durable(), "a checkpoint follows its fence");
        self.checkpoint_seq = self.write_seq;
        self.bytes_since_checkpoint = 0;
        self.next_cr = 1 - self.next_cr;
        1 - self.next_cr
    }

    /// A free pool entry, or a new one when every entry is still shared
    /// with a submission in flight.
    pub(crate) fn take_scratch(&mut self) -> Arc<Vec<u8>> {
        let pool = &mut self.scratch_pool;
        let free = pool.iter().position(|a| Arc::strong_count(a) == 1);
        free.map_or_else(Arc::default, |i| pool.swap_remove(i))
    }

    /// Puts an entry back, maybe still shared with a submission.
    pub(crate) fn put_scratch(&mut self, buf: Arc<Vec<u8>>) {
        self.scratch_pool.push(buf);
    }

    #[cfg(test)]
    pub(crate) fn scratch_pool_len(&self) -> usize {
        self.scratch_pool.len()
    }
}

#[cfg(test)]
mod tests {
    use blockdev::{MemDisk, QueueDevice, QueuedDev};
    use vfs::FileSystem;

    use crate::{Lfs, LfsConfig};

    /// Flushes, syncs and checkpoints through a mix of small and
    /// multi-chunk writes; returns the largest scratch pool seen.
    fn churn<D: QueueDevice>(fs: &mut Lfs<D>) -> usize {
        let files: Vec<_> = (0..7)
            .map(|i| fs.create(&format!("/f{i}")).unwrap())
            .collect();
        let mut most = fs.log.scratch_pool_len();
        for round in 0..40u32 {
            let len = if round % 4 == 0 { 300_000 } else { 9_000 };
            let ino = files[round as usize % files.len()];
            fs.write(ino, 0, &vec![round as u8; len]).unwrap();
            match round % 3 {
                0 => fs.flush().unwrap(),
                1 => fs.sync().unwrap(),
                _ => fs.checkpoint().unwrap(),
            }
            most = most.max(fs.log.scratch_pool_len());
        }
        most
    }

    /// The scratch pool stays at the ring depth + 1: exactly one entry on
    /// a synchronous device, where the checkpoint region renders into the
    /// same entry the chunks do, and at most five behind a 4-deep ring.
    #[test]
    fn the_scratch_pool_stays_bounded() {
        let mut fs = Lfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap();
        assert_eq!(churn(&mut fs), 1);
        assert_eq!(fs.log.scratch_pool_len(), 1);

        let dev = QueuedDev::new(MemDisk::new(4096), 4);
        let mut fs = Lfs::format(dev, LfsConfig::small()).unwrap();
        let most = churn(&mut fs);
        assert!((2..=5).contains(&most), "the pool grew to {most}");
    }
}
