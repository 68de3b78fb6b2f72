//! Crash injection: record the write stream, materialise any prefix.

use crate::device::{check_request, BlockDevice, WriteKind};
use crate::error::{BlockError, Result};
use crate::mem::MemDisk;
use crate::stats::IoStats;
use crate::BLOCK_SIZE;

/// One recorded block write.
#[derive(Clone, Debug)]
pub(crate) struct LoggedWrite {
    pub(crate) start: u64,
    pub(crate) data: Vec<u8>,
    pub(crate) kind: WriteKind,
}

/// A journaled write as seen from outside: where it landed, how many
/// blocks it carried, and whether the application waited for it.
///
/// This is the read-only view [`crate::ModelCheck`] enumerates over; the
/// data itself stays inside the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteRecord {
    /// First block of the request.
    pub start: u64,
    /// Number of blocks in the request.
    pub nblocks: usize,
    /// Whether the application waited for the write.
    pub kind: WriteKind,
}

/// SplitMix64 step, used to derive the torn-block subset deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed-chosen set of `budget` surviving blocks for a write of
/// `nblocks` blocks at `start` — the subset [`CrashDisk::torn_image_after`]
/// persists for the request straddling the cut. Factored out so the model
/// checker samples from exactly the same distribution.
pub(crate) fn torn_subset(start: u64, nblocks: usize, budget: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..nblocks).collect();
    // Partial Fisher-Yates: pick `budget` distinct blocks.
    let mut h = splitmix64(seed ^ start ^ ((nblocks as u64) << 32));
    for i in 0..budget {
        h = splitmix64(h);
        let j = i + (h as usize) % (nblocks - i);
        idx.swap(i, j);
    }
    idx.truncate(budget);
    idx
}

/// A block device that records every write so a crash can be simulated.
///
/// `CrashDisk` forwards all operations to in-memory storage, and in addition
/// appends each write to an ordered journal. [`CrashDisk::image_after`]
/// replays the first `n` journal entries onto the initial image, producing
/// the disk exactly as it would look had the machine lost power at that
/// point. This is the substitute for the real crashes used to measure
/// Table 3 of the paper, and it drives the roll-forward recovery tests.
///
/// Two granularities of cut point are available:
///
/// - [`CrashDisk::image_after`] cuts between whole requests
///   ([`CrashDisk::num_writes`] cut points) — the paper's clean
///   whole-request-atomic crash model.
/// - [`CrashDisk::torn_image_after`] cuts in units of *blocks*
///   ([`CrashDisk::num_block_cuts`] cut points), so a crash can land inside
///   a multi-block segment write. The request straddling the cut persists a
///   seed-chosen arbitrary subset of its remaining blocks — not just a
///   prefix — modelling drive-level write reordering.
///
/// The journal records each write's [`WriteKind`], so sweeps can optionally
/// treat `Sync` writes as barriers (see [`CrashDisk::torn_image_after`]'s
/// `sync_atomic` flag and [`CrashDisk::write_kind`]).
///
/// # Examples
///
/// ```
/// use blockdev::{BlockDevice, CrashDisk, WriteKind, BLOCK_SIZE};
///
/// let mut d = CrashDisk::new(8);
/// let a = [1u8; BLOCK_SIZE];
/// let b = [2u8; BLOCK_SIZE];
/// d.write_block(0, &a, WriteKind::Async).unwrap();
/// d.write_block(1, &b, WriteKind::Async).unwrap();
/// // Crash after the first write: block 1 never made it.
/// let mut crashed = d.image_after(1).unwrap();
/// let mut buf = [0u8; BLOCK_SIZE];
/// crashed.read_block(1, &mut buf).unwrap();
/// assert!(buf.iter().all(|&x| x == 0));
/// ```
pub struct CrashDisk {
    initial: Vec<u8>,
    current: MemDisk,
    journal: Vec<LoggedWrite>,
    /// Write-journal indices at which an ordering barrier landed: a fence
    /// at position `p` means every write with index `< p` had been applied
    /// to the device before any write with index `>= p` was issued.
    fences: Vec<usize>,
}

impl CrashDisk {
    /// Creates a zero-filled crash-recording disk of `num_blocks` blocks.
    pub fn new(num_blocks: u64) -> CrashDisk {
        let disk = MemDisk::new(num_blocks);
        CrashDisk {
            initial: disk.image().to_vec(),
            current: disk,
            journal: Vec::new(),
            fences: Vec::new(),
        }
    }

    /// Starts recording on top of an existing image (e.g. a freshly
    /// formatted file system).
    ///
    /// # Panics
    ///
    /// Panics if the image length is not a multiple of [`BLOCK_SIZE`].
    pub fn from_image(image: Vec<u8>) -> CrashDisk {
        CrashDisk {
            initial: image.clone(),
            current: MemDisk::from_image(image),
            journal: Vec::new(),
            fences: Vec::new(),
        }
    }

    /// Number of writes recorded so far (the number of possible
    /// request-granular cut points).
    pub fn num_writes(&self) -> usize {
        self.journal.len()
    }

    /// Total number of *blocks* journaled so far (the number of possible
    /// sub-request cut points for [`CrashDisk::torn_image_after`]).
    pub fn num_block_cuts(&self) -> usize {
        self.journal.iter().map(|w| w.data.len() / BLOCK_SIZE).sum()
    }

    /// Returns the [`WriteKind`] of the `i`-th journaled write, or `None`
    /// past the end of the journal.
    pub fn write_kind(&self, i: usize) -> Option<WriteKind> {
        self.journal.get(i).map(|w| w.kind)
    }

    /// Returns the shape of the `i`-th journaled write (start block, block
    /// count, kind), or `None` past the end of the journal.
    pub fn write_record(&self, i: usize) -> Option<WriteRecord> {
        self.journal.get(i).map(|w| WriteRecord {
            start: w.start,
            nblocks: w.data.len() / BLOCK_SIZE,
            kind: w.kind,
        })
    }

    /// The bytes the `i`-th journaled write carried, or `None` past the
    /// end of the journal.
    pub fn write_data(&self, i: usize) -> Option<&[u8]> {
        self.journal.get(i).map(|w| &w.data[..])
    }

    /// Write-journal positions at which an ordering barrier
    /// ([`crate::QueueDevice::fence`]) landed, ascending (one entry per
    /// barrier; entries repeat when no write landed in between). A fence
    /// at position `p` separates writes `< p` from writes `>= p`: the
    /// former were all applied before any of the latter was issued, so a
    /// crash can never persist a post-fence write while losing a
    /// pre-fence one.
    pub fn fence_points(&self) -> &[usize] {
        &self.fences
    }

    pub(crate) fn journal(&self) -> &[LoggedWrite] {
        &self.journal
    }

    pub(crate) fn initial_image(&self) -> &[u8] {
        &self.initial
    }

    /// Materialises the disk as it would look after the first
    /// `writes_survived` recorded writes, i.e. a crash that lost everything
    /// after that point.
    ///
    /// Returns [`BlockError::InvalidCut`] if `writes_survived` exceeds
    /// [`CrashDisk::num_writes`].
    pub fn image_after(&self, writes_survived: usize) -> Result<MemDisk> {
        if writes_survived > self.journal.len() {
            return Err(BlockError::InvalidCut {
                cut: writes_survived,
                max: self.journal.len(),
            });
        }
        let mut image = self.initial.clone();
        for w in &self.journal[..writes_survived] {
            let off = w.start as usize * BLOCK_SIZE;
            image[off..off + w.data.len()].copy_from_slice(&w.data);
        }
        Ok(MemDisk::from_image(image))
    }

    /// Materialises the disk after a crash that persisted exactly
    /// `blocks_survived` journaled *blocks* — cutting inside a multi-block
    /// request if the budget runs out mid-write.
    ///
    /// Writes wholly before the cut persist completely. The request
    /// straddling the cut persists a `seed`-chosen arbitrary subset of its
    /// blocks of size equal to the remaining budget — an arbitrary subset,
    /// not a prefix, because drives reorder sectors within a request.
    /// Everything after is lost.
    ///
    /// With `sync_atomic` set, a `Sync` write straddling the cut persists
    /// *nothing*: the synchronous barrier either completed or it did not,
    /// modelling a drive that honours flush boundaries.
    ///
    /// Returns [`BlockError::InvalidCut`] if `blocks_survived` exceeds
    /// [`CrashDisk::num_block_cuts`].
    pub fn torn_image_after(
        &self,
        blocks_survived: usize,
        seed: u64,
        sync_atomic: bool,
    ) -> Result<MemDisk> {
        let max = self.num_block_cuts();
        if blocks_survived > max {
            return Err(BlockError::InvalidCut {
                cut: blocks_survived,
                max,
            });
        }
        let mut image = self.initial.clone();
        let mut budget = blocks_survived;
        for w in &self.journal {
            let nblocks = w.data.len() / BLOCK_SIZE;
            if budget == 0 {
                break;
            }
            if nblocks <= budget {
                // Fully before the cut: persists whole.
                let off = w.start as usize * BLOCK_SIZE;
                image[off..off + w.data.len()].copy_from_slice(&w.data);
                budget -= nblocks;
            } else {
                // Straddles the cut: persist a seed-chosen subset of
                // `budget` blocks (or nothing, for an atomic Sync write).
                if !(sync_atomic && w.kind == WriteKind::Sync) {
                    for &b in &torn_subset(w.start, nblocks, budget, seed) {
                        let src = b * BLOCK_SIZE;
                        let dst = (w.start as usize + b) * BLOCK_SIZE;
                        image[dst..dst + BLOCK_SIZE]
                            .copy_from_slice(&w.data[src..src + BLOCK_SIZE]);
                    }
                }
                break;
            }
        }
        Ok(MemDisk::from_image(image))
    }

    /// Materialises the current (no-crash) state of the disk.
    pub fn image_now(&self) -> MemDisk {
        MemDisk::from_image(self.current.image().to_vec())
    }

    /// Drops the journal and makes the current state the new baseline.
    ///
    /// Useful for excluding a setup phase (formatting, workload priming)
    /// from the crash window.
    pub fn checkpoint_baseline(&mut self) {
        self.initial = self.current.image().to_vec();
        self.journal.clear();
        self.fences.clear();
    }
}

impl BlockDevice for CrashDisk {
    fn num_blocks(&self) -> u64 {
        self.current.num_blocks()
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        self.current.read_blocks(start, buf)
    }

    fn read_run(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        self.current.read_run(start, buf)
    }

    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        self.current.read_run_scatter(start, bufs)
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()> {
        check_request(self.current.num_blocks(), start, buf.len())?;
        self.journal.push(LoggedWrite {
            start,
            data: buf.to_vec(),
            kind,
        });
        self.current.write_blocks(start, buf, kind)
    }

    fn write_run_gather(&mut self, start: u64, bufs: &[&[u8]], kind: WriteKind) -> Result<()> {
        let count = crate::device::check_gather(self.current.num_blocks(), start, bufs)?;
        // Journal the assembled request as one entry, so
        // `torn_image_after` can cut inside it at block granularity — a
        // crash mid-gather-write tears across the source slices exactly as
        // it would across one contiguous buffer.
        let mut data = Vec::with_capacity(count as usize * BLOCK_SIZE);
        for b in bufs {
            data.extend_from_slice(b);
        }
        self.journal.push(LoggedWrite { start, data, kind });
        self.current.write_run_gather(start, bufs, kind)
    }

    fn stats(&self) -> IoStats {
        self.current.stats()
    }

    fn attach_obs(&mut self, obs: crate::DeviceObs) {
        self.current.attach_obs(obs);
    }

    fn note_fence(&mut self) {
        // Every barrier is recorded, even with no intervening write (the
        // entry then repeats the previous position, constraining nothing
        // extra). Keeping one entry per barrier means the k-th fence is
        // the k-th *global* barrier on every disk of a multi-volume set,
        // which is what lets a crash model align fence windows across
        // shards that idled through some of the barriers.
        self.fences.push(self.journal.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(v: u8) -> [u8; BLOCK_SIZE] {
        [v; BLOCK_SIZE]
    }

    #[test]
    fn full_replay_equals_current_state() {
        let mut d = CrashDisk::new(4);
        d.write_block(0, &blk(1), WriteKind::Sync).unwrap();
        d.write_block(2, &blk(2), WriteKind::Sync).unwrap();
        d.write_block(0, &blk(3), WriteKind::Sync).unwrap();
        let replayed = d.image_after(d.num_writes()).unwrap();
        assert_eq!(replayed.image(), d.image_now().image());
    }

    #[test]
    fn prefix_replay_drops_later_writes() {
        let mut d = CrashDisk::new(4);
        d.write_block(0, &blk(1), WriteKind::Sync).unwrap();
        d.write_block(0, &blk(9), WriteKind::Sync).unwrap();
        let mut crashed = d.image_after(1).unwrap();
        let mut b = [0u8; BLOCK_SIZE];
        crashed.read_block(0, &mut b).unwrap();
        assert_eq!(b, blk(1));
    }

    #[test]
    fn zero_cut_point_is_initial_image() {
        let mut d = CrashDisk::new(2);
        d.write_block(1, &blk(5), WriteKind::Sync).unwrap();
        let mut crashed = d.image_after(0).unwrap();
        let mut b = [9u8; BLOCK_SIZE];
        crashed.read_block(1, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn baseline_checkpoint_clears_journal() {
        let mut d = CrashDisk::new(2);
        d.write_block(0, &blk(1), WriteKind::Sync).unwrap();
        d.checkpoint_baseline();
        assert_eq!(d.num_writes(), 0);
        // The baseline now includes the first write.
        let mut crashed = d.image_after(0).unwrap();
        let mut b = [0u8; BLOCK_SIZE];
        crashed.read_block(0, &mut b).unwrap();
        assert_eq!(b, blk(1));
    }

    #[test]
    fn cut_point_past_journal_is_an_error() {
        let d = CrashDisk::new(2);
        assert!(matches!(
            d.image_after(1),
            Err(BlockError::InvalidCut { cut: 1, max: 0 })
        ));
        assert!(matches!(
            d.torn_image_after(1, 0, false),
            Err(BlockError::InvalidCut { cut: 1, max: 0 })
        ));
    }

    #[test]
    fn journal_records_write_kind() {
        let mut d = CrashDisk::new(4);
        d.write_block(0, &blk(1), WriteKind::Async).unwrap();
        d.write_block(1, &blk(2), WriteKind::Sync).unwrap();
        assert_eq!(d.write_kind(0), Some(WriteKind::Async));
        assert_eq!(d.write_kind(1), Some(WriteKind::Sync));
        assert_eq!(d.write_kind(2), None);
    }

    #[test]
    fn block_cuts_count_blocks_not_requests() {
        let mut d = CrashDisk::new(16);
        let big: Vec<u8> = vec![3; 4 * BLOCK_SIZE];
        d.write_blocks(0, &big, WriteKind::Async).unwrap();
        d.write_block(8, &blk(1), WriteKind::Sync).unwrap();
        assert_eq!(d.num_writes(), 2);
        assert_eq!(d.num_block_cuts(), 5);
    }

    #[test]
    fn torn_cut_persists_exact_block_count_as_arbitrary_subset() {
        let mut d = CrashDisk::new(16);
        let big: Vec<u8> = (0..8 * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE) as u8 + 1)
            .collect();
        d.write_blocks(4, &big, WriteKind::Async).unwrap();
        for cut in 0..=8 {
            let img = d.torn_image_after(cut, 99, false).unwrap();
            let survived = (0..8)
                .filter(|i| img.image()[(4 + i) * BLOCK_SIZE] != 0)
                .count();
            assert_eq!(survived, cut, "cut {cut}");
        }
        // At least one intermediate cut must be a non-prefix subset.
        let mut saw_non_prefix = false;
        for cut in 1..8 {
            let img = d.torn_image_after(cut, 99, false).unwrap();
            let is_prefix = (0..cut).all(|i| img.image()[(4 + i) * BLOCK_SIZE] != 0);
            if !is_prefix {
                saw_non_prefix = true;
            }
        }
        assert!(saw_non_prefix, "tearing should not always persist a prefix");
    }

    #[test]
    fn torn_cut_is_deterministic_in_seed() {
        let mut d = CrashDisk::new(16);
        let big: Vec<u8> = vec![7; 6 * BLOCK_SIZE];
        d.write_blocks(2, &big, WriteKind::Async).unwrap();
        let a = d.torn_image_after(3, 1, false).unwrap();
        let b = d.torn_image_after(3, 1, false).unwrap();
        assert_eq!(a.image(), b.image());
    }

    #[test]
    fn sync_atomic_drops_straddled_sync_write_entirely() {
        let mut d = CrashDisk::new(16);
        let big: Vec<u8> = vec![5; 4 * BLOCK_SIZE];
        d.write_blocks(0, &big, WriteKind::Sync).unwrap();
        let img = d.torn_image_after(2, 42, true).unwrap();
        assert!(
            img.image().iter().all(|&x| x == 0),
            "straddled Sync write should persist nothing under sync_atomic"
        );
        // Without the barrier flag the same cut tears the write.
        let img = d.torn_image_after(2, 42, false).unwrap();
        let survived = (0..4).filter(|i| img.image()[i * BLOCK_SIZE] != 0).count();
        assert_eq!(survived, 2);
    }

    /// Audit (ISSUE 3): journaling a write must charge the backing store
    /// exactly once — the journal copy is bookkeeping, not device traffic.
    #[test]
    fn crash_disk_charges_each_write_once() {
        let mut d = CrashDisk::new(8);
        let big: Vec<u8> = vec![1; 3 * BLOCK_SIZE];
        d.write_blocks(0, &big, WriteKind::Async).unwrap();
        d.write_block(5, &blk(2), WriteKind::Sync).unwrap();
        let mut r = [0u8; BLOCK_SIZE];
        d.read_block(5, &mut r).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, 4 * BLOCK_SIZE as u64);
        assert_eq!(s.reads, 1);
    }

    /// Audit (ISSUE 3): the composed torture stack — FaultDisk over
    /// CrashDisk — reports one success for a faulted-then-retried write.
    #[test]
    fn fault_over_crash_stack_charges_retry_once() {
        let plan = crate::FaultPlan::new(11)
            .with_write_faults(1.0)
            .with_torn_writes()
            .with_transient_failures(1);
        let mut d = crate::FaultDisk::new(CrashDisk::new(16), plan);
        let data: Vec<u8> = vec![6; 8 * BLOCK_SIZE];
        assert!(d.write_blocks(4, &data, WriteKind::Async).is_err());
        assert_eq!(d.counts().torn_writes, 1);
        d.write_blocks(4, &data, WriteKind::Async).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 8 * BLOCK_SIZE as u64);
        // The journal still records every physical persist for crash cuts.
        assert!(d.inner().num_writes() > 1);
    }

    #[test]
    fn gather_write_journals_one_entry_tearable_per_block() {
        let mut d = CrashDisk::new(16);
        let blocks: Vec<Vec<u8>> = (1..=6u8).map(|v| vec![v; BLOCK_SIZE]).collect();
        let slices: Vec<&[u8]> = blocks.iter().map(|v| v.as_slice()).collect();
        d.write_run_gather(4, &slices, WriteKind::Async).unwrap();
        // One journal entry, six block-granular cut points: a crash can
        // land *inside* the gather write and persist any subset size.
        assert_eq!(d.num_writes(), 1);
        assert_eq!(d.num_block_cuts(), 6);
        for cut in 0..=6 {
            let img = d.torn_image_after(cut, 17, false).unwrap();
            let survived = (0..6)
                .filter(|i| img.image()[(4 + i) * BLOCK_SIZE] != 0)
                .count();
            assert_eq!(survived, cut, "cut {cut}");
        }
        // The full replay is exactly the gathered bytes in slice order.
        assert_eq!(
            d.torn_image_after(6, 17, false).unwrap().image(),
            d.image_now().image()
        );
        // The device charge is still one request.
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn full_torn_replay_equals_current_state() {
        let mut d = CrashDisk::new(8);
        let big: Vec<u8> = vec![9; 3 * BLOCK_SIZE];
        d.write_blocks(1, &big, WriteKind::Async).unwrap();
        d.write_block(5, &blk(4), WriteKind::Sync).unwrap();
        let img = d.torn_image_after(d.num_block_cuts(), 0, true).unwrap();
        assert_eq!(img.image(), d.image_now().image());
    }
}
