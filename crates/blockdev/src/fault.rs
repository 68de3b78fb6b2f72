//! Fault injection: torn writes, transient I/O errors, and silent bit-rot.
//!
//! The paper's recovery story (Section 4) assumes disks fail cleanly —
//! requests complete whole or not at all. Real disks tear multi-block
//! writes, return transient errors that succeed on retry, and rot bits
//! silently. [`FaultDisk`] wraps any [`BlockDevice`] and injects exactly
//! those behaviours under the control of a deterministic, seedable
//! [`FaultPlan`], so the recovery path can be exercised against hostile
//! hardware in reproducible tests.
//!
//! The wrapper composes: `FaultDisk<CrashDisk>` gives randomized media
//! faults *and* a crash journal, which is the configuration the `torture`
//! binary drives.

use std::collections::{BTreeSet, HashMap};

use crate::device::{check_gather, check_request, BlockDevice, WriteKind};
use crate::error::Result;
use crate::stats::IoStats;
use crate::BLOCK_SIZE;

/// SplitMix64 step — a tiny, high-quality 64-bit mixer. All fault
/// decisions hash through this so a plan is a pure function of
/// `(seed, op kind, address, occurrence)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes several words into one hash value.
fn mix(words: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3; // pi digits, nothing up the sleeve
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

/// Converts a hash to a uniform probability in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic schedule of injected faults.
///
/// Every decision the plan makes is a pure function of the seed and the
/// operation's address/occurrence count, so a failing torture seed replays
/// bit-identically. Rates are per *request*, not per block.
///
/// The default plan injects nothing; use the builder methods to arm
/// individual fault classes.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability that a read request fails with a transient I/O error.
    pub read_fault_rate: f64,
    /// Probability that a write request fails with a transient I/O error.
    pub write_fault_rate: f64,
    /// How many consecutive times a faulting operation fails before it
    /// starts succeeding again (so bounded retry loops can make progress).
    pub transient_failures: u32,
    /// How many subsequent occurrences of the same operation succeed after
    /// a fault clears before the operation becomes eligible to fault again.
    pub forgiveness: u32,
    /// When true, a faulting multi-block write *tears*: an arbitrary,
    /// seed-chosen subset of its blocks persists before the error is
    /// reported (not just a prefix).
    pub tear_writes: bool,
    /// Blocks whose contents rot silently: reads succeed but return data
    /// with deterministic bit flips.
    pub bitrot: BTreeSet<u64>,
    /// Start blocks whose read requests fault as if `read_fault_rate`
    /// were 1 — one burst on the first read there — so a test can aim a
    /// transient error at one particular request.
    pub read_fault_at: BTreeSet<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_fault_rate: 0.0,
            write_fault_rate: 0.0,
            transient_failures: 1,
            forgiveness: 8,
            tear_writes: false,
            bitrot: BTreeSet::new(),
            read_fault_at: BTreeSet::new(),
        }
    }

    /// Sets the transient read-fault rate (probability per request).
    pub fn with_read_faults(mut self, rate: f64) -> Self {
        self.read_fault_rate = rate;
        self
    }

    /// Sets the transient write-fault rate (probability per request).
    pub fn with_write_faults(mut self, rate: f64) -> Self {
        self.write_fault_rate = rate;
        self
    }

    /// Sets how many consecutive failures each fault burst produces.
    pub fn with_transient_failures(mut self, n: u32) -> Self {
        self.transient_failures = n.max(1);
        self
    }

    /// Enables block-subset tearing on faulting multi-block writes.
    pub fn with_torn_writes(mut self) -> Self {
        self.tear_writes = true;
        self
    }

    /// Marks `block` as silently rotted.
    pub fn with_bitrot(mut self, block: u64) -> Self {
        self.bitrot.insert(block);
        self
    }

    /// Makes the first read request starting at block `start` fault.
    pub fn with_read_fault_at(mut self, start: u64) -> Self {
        self.read_fault_at.insert(start);
        self
    }
}

/// Counters of what a [`FaultDisk`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Read requests failed with a transient error.
    pub read_faults: u64,
    /// Write requests failed with a transient error.
    pub write_faults: u64,
    /// Faulting writes that persisted a partial block subset.
    pub torn_writes: u64,
    /// Blocks returned with rotted contents.
    pub rotted_reads: u64,
}

/// Per-operation fault state: `(kind tag, start block)` → burst progress.
#[derive(Clone, Copy, Debug, Default)]
struct KeyState {
    /// How many times this operation has been attempted.
    occurrences: u64,
    /// Remaining consecutive failures in the current burst.
    failing_left: u32,
    /// Remaining post-burst occurrences that are guaranteed to succeed.
    forgiven_left: u32,
}

const OP_READ: u64 = 0x52; // 'R'
const OP_WRITE: u64 = 0x57; // 'W'

/// A [`BlockDevice`] wrapper that injects faults per a [`FaultPlan`].
///
/// Three fault classes, all deterministic in the plan seed:
///
/// - **Transient errors**: chosen read/write requests fail with
///   [`crate::BlockError::Io`] for `transient_failures` consecutive
///   attempts, then succeed — so callers with bounded retry survive, and
///   callers without it surface the error.
/// - **Torn writes**: a faulting multi-block write (when
///   [`FaultPlan::tear_writes`] is set) first persists an arbitrary
///   seed-chosen *strict subset* of its blocks — not merely a prefix —
///   then reports the error. This models a power-cut or firmware reorder
///   mid-request.
/// - **Bit-rot**: reads covering a block in [`FaultPlan::bitrot`] succeed
///   but return contents with deterministic bit flips, modelling silent
///   media decay that only checksums can catch.
///
/// # Examples
///
/// ```
/// use blockdev::{BlockDevice, FaultDisk, FaultPlan, MemDisk, WriteKind, BLOCK_SIZE};
///
/// let plan = FaultPlan::new(42).with_write_faults(1.0).with_transient_failures(2);
/// let mut d = FaultDisk::new(MemDisk::new(8), plan);
/// let b = [7u8; BLOCK_SIZE];
/// assert!(d.write_block(0, &b, WriteKind::Sync).is_err()); // fault 1
/// assert!(d.write_block(0, &b, WriteKind::Sync).is_err()); // fault 2
/// assert!(d.write_block(0, &b, WriteKind::Sync).is_ok()); // burst over
/// ```
pub struct FaultDisk<D: BlockDevice> {
    inner: D,
    plan: FaultPlan,
    states: HashMap<(u64, u64), KeyState>,
    counts: FaultCounts,
    /// Inner-device charges incurred persisting the partial block subsets
    /// of torn writes. [`FaultDisk::stats`] deducts these so the reported
    /// stream matches what the *caller* successfully issued: a
    /// faulted-then-retried write charges exactly one success instead of
    /// the torn fragments plus the full retry (which skewed write-cost
    /// deltas measured across a fault window).
    tear_overhead: IoStats,
}

impl<D: BlockDevice> FaultDisk<D> {
    /// Wraps `inner` with the fault schedule in `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> FaultDisk<D> {
        FaultDisk {
            inner,
            plan,
            states: HashMap::new(),
            counts: FaultCounts::default(),
            tear_overhead: IoStats::default(),
        }
    }

    /// Returns the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Returns the wrapped device mutably (bypasses fault injection).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwraps the fault layer, returning the underlying device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Mutable access to the fault plan, so tests can arm or disarm fault
    /// classes on a live device (e.g. mount cleanly, then turn on faults).
    pub fn plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.plan
    }

    /// Returns counters of the faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Decides whether this occurrence of `(op, start)` faults, advancing
    /// the per-operation burst state machine.
    fn decide(&mut self, op: u64, start: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let st = self.states.entry((op, start)).or_default();
        if st.failing_left > 0 {
            st.failing_left -= 1;
            if st.failing_left == 0 {
                st.forgiven_left = self.plan.forgiveness;
            }
            return true;
        }
        if st.forgiven_left > 0 {
            st.forgiven_left -= 1;
            return false;
        }
        st.occurrences += 1;
        let h = mix(&[self.plan.seed, op, start, st.occurrences]);
        if unit(h) < rate {
            // Start a burst: this attempt plus (transient_failures - 1) more.
            st.failing_left = self.plan.transient_failures.saturating_sub(1);
            if st.failing_left == 0 {
                st.forgiven_left = self.plan.forgiveness;
            }
            return true;
        }
        false
    }

    /// [`FaultDisk::decide`] for a read request starting at `start`.
    fn decide_read(&mut self, start: u64) -> bool {
        let rate = if self.plan.read_fault_at.contains(&start) {
            1.0
        } else {
            self.plan.read_fault_rate
        };
        self.decide(OP_READ, start, rate)
    }

    fn injected_error() -> crate::error::BlockError {
        crate::error::BlockError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected transient device fault",
        ))
    }

    /// Rots any planned blocks inside a just-read request's buffer.
    fn apply_bitrot(&mut self, start: u64, count: u64, buf: &mut [u8]) {
        if self.plan.bitrot.is_empty() {
            return;
        }
        for i in 0..count {
            let block = start + i;
            if self.plan.bitrot.contains(&block) {
                let off = i as usize * BLOCK_SIZE;
                let mut chunk = buf[off..off + BLOCK_SIZE].to_vec();
                self.rot_block(block, &mut chunk);
                buf[off..off + BLOCK_SIZE].copy_from_slice(&chunk);
                self.counts.rotted_reads += 1;
            }
        }
    }

    /// Applies deterministic bit flips to one block's worth of data.
    fn rot_block(&self, block: u64, data: &mut [u8]) {
        // Flip one bit in each of 8 seed-chosen bytes: enough to defeat
        // any honest checksum, little enough to look plausible.
        for i in 0..8u64 {
            let h = mix(&[self.plan.seed, 0x524f54 /* "ROT" */, block, i]);
            let byte = (h as usize >> 3) % data.len();
            let bit = h & 7;
            data[byte] ^= 1 << bit;
        }
    }

    /// Persists a seed-chosen strict subset of the request's blocks.
    fn tear(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()> {
        let before = self.inner.stats();
        let nblocks = buf.len() / BLOCK_SIZE;
        let occ = self
            .states
            .get(&(OP_WRITE, start))
            .map(|s| s.occurrences)
            .unwrap_or(0);
        let mut persisted = 0u64;
        for i in 0..nblocks {
            let h = mix(&[
                self.plan.seed,
                0x544f524e, /* "TORN" */
                start,
                occ,
                i as u64,
            ]);
            // Persist each block with probability 1/2, but never all of
            // them: a torn write must lose something.
            if h & 1 == 0 && persisted + 1 < nblocks as u64 {
                let off = i * BLOCK_SIZE;
                self.inner
                    .write_blocks(start + i as u64, &buf[off..off + BLOCK_SIZE], kind)?;
                persisted += 1;
            }
        }
        self.counts.torn_writes += 1;
        // The partial persists above charged the inner device; remember
        // the delta so `stats()` can report the logical stream (the torn
        // request *failed* — its surviving fragments must not be billed
        // on top of the caller's eventual successful retry).
        self.tear_overhead
            .accumulate(&self.inner.stats().since(&before));
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for FaultDisk<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        let count = check_request(self.inner.num_blocks(), start, buf.len())?;
        if self.decide_read(start) {
            self.counts.read_faults += 1;
            return Err(Self::injected_error());
        }
        self.inner.read_blocks(start, buf)?;
        self.apply_bitrot(start, count, buf);
        Ok(())
    }

    fn read_run(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        let count = check_request(self.inner.num_blocks(), start, buf.len())?;
        if self.decide_read(start) {
            self.counts.read_faults += 1;
            return Err(Self::injected_error());
        }
        self.inner.read_run(start, buf)?;
        self.apply_bitrot(start, count, buf);
        Ok(())
    }

    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        check_request(self.inner.num_blocks(), start, bufs.len() * BLOCK_SIZE)?;
        if self.decide_read(start) {
            self.counts.read_faults += 1;
            return Err(Self::injected_error());
        }
        self.inner.read_run_scatter(start, bufs)?;
        for (i, b) in bufs.iter_mut().enumerate() {
            self.apply_bitrot(start + i as u64, 1, b);
        }
        Ok(())
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()> {
        check_request(self.inner.num_blocks(), start, buf.len())?;
        if self.decide(OP_WRITE, start, self.plan.write_fault_rate) {
            self.counts.write_faults += 1;
            if self.plan.tear_writes && buf.len() > BLOCK_SIZE {
                self.tear(start, buf, kind)?;
            }
            return Err(Self::injected_error());
        }
        self.inner.write_blocks(start, buf, kind)
    }

    fn write_run_gather(&mut self, start: u64, bufs: &[&[u8]], kind: WriteKind) -> Result<()> {
        let count = check_gather(self.inner.num_blocks(), start, bufs)?;
        if self.decide(OP_WRITE, start, self.plan.write_fault_rate) {
            self.counts.write_faults += 1;
            if self.plan.tear_writes && count > 1 {
                // Assemble only on this (failing) path so the torn subset
                // hashes over exactly the same (start, occurrence, block)
                // inputs as a contiguous write of the same bytes —
                // per-block tear semantics are identical either way.
                let mut data = Vec::with_capacity(count as usize * BLOCK_SIZE);
                for b in bufs {
                    data.extend_from_slice(b);
                }
                self.tear(start, &data, kind)?;
            }
            return Err(Self::injected_error());
        }
        self.inner.write_run_gather(start, bufs, kind)
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    /// Statistics of the *logical* request stream: inner-device charges
    /// from the partial persists of torn (failed) writes are deducted, so
    /// a faulted-then-retried write counts as exactly one success. The
    /// physical activity (torn fragments included) remains visible on
    /// `inner().stats()` and in any attached [`crate::DeviceObs`]
    /// histograms.
    fn stats(&self) -> IoStats {
        self.inner.stats().since(&self.tear_overhead)
    }

    fn attach_obs(&mut self, obs: crate::DeviceObs) {
        self.inner.attach_obs(obs);
    }

    fn queue_timed(&mut self) -> Option<&mut dyn crate::QueueTimed> {
        self.inner.queue_timed()
    }

    fn note_fence(&mut self) {
        self.inner.note_fence();
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn stripe_blocks(&self) -> Option<u64> {
        self.inner.stripe_blocks()
    }

    fn shard_of_stripe(&self, stripe: u64) -> usize {
        self.inner.shard_of_stripe(stripe)
    }

    fn shard_stats(&self, shard: usize) -> Option<IoStats> {
        self.inner.shard_stats(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDisk;

    fn blk(v: u8) -> [u8; BLOCK_SIZE] {
        [v; BLOCK_SIZE]
    }

    #[test]
    fn default_plan_is_transparent() {
        let mut d = FaultDisk::new(MemDisk::new(8), FaultPlan::new(1));
        d.write_block(2, &blk(9), WriteKind::Sync).unwrap();
        let mut b = [0u8; BLOCK_SIZE];
        d.read_block(2, &mut b).unwrap();
        assert_eq!(b, blk(9));
        assert_eq!(d.counts(), FaultCounts::default());
    }

    #[test]
    fn transient_write_fault_clears_after_burst() {
        let plan = FaultPlan::new(7)
            .with_write_faults(1.0)
            .with_transient_failures(3);
        let mut d = FaultDisk::new(MemDisk::new(4), plan);
        let b = blk(1);
        for _ in 0..3 {
            assert!(d.write_block(0, &b, WriteKind::Sync).is_err());
        }
        assert!(d.write_block(0, &b, WriteKind::Sync).is_ok());
        assert_eq!(d.counts().write_faults, 3);
    }

    #[test]
    fn transient_read_fault_clears_after_burst() {
        let plan = FaultPlan::new(9)
            .with_read_faults(1.0)
            .with_transient_failures(2);
        let mut d = FaultDisk::new(MemDisk::new(4), plan);
        let mut b = [0u8; BLOCK_SIZE];
        assert!(d.read_block(1, &mut b).is_err());
        assert!(d.read_block(1, &mut b).is_err());
        assert!(d.read_block(1, &mut b).is_ok());
    }

    #[test]
    fn fault_decisions_are_deterministic_in_seed() {
        let mk = |seed| {
            let plan = FaultPlan::new(seed).with_write_faults(0.5);
            let mut d = FaultDisk::new(MemDisk::new(64), plan);
            let b = blk(3);
            (0..64u64)
                .map(|i| d.write_block(i % 16, &b, WriteKind::Async).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6), "different seeds should differ");
    }

    #[test]
    fn torn_write_persists_strict_subset() {
        let plan = FaultPlan::new(11)
            .with_write_faults(1.0)
            .with_torn_writes()
            .with_transient_failures(1);
        let mut d = FaultDisk::new(MemDisk::new(16), plan);
        let data: Vec<u8> = (0..8 * BLOCK_SIZE).map(|_| 0xabu8).collect();
        assert!(d.write_blocks(4, &data, WriteKind::Async).is_err());
        assert_eq!(d.counts().torn_writes, 1);
        // Some blocks persisted, but not all 8.
        let img = d.inner().image();
        let persisted = (0..8).filter(|i| img[(4 + i) * BLOCK_SIZE] == 0xab).count();
        assert!(persisted < 8, "a torn write must lose at least one block");
    }

    #[test]
    fn bitrot_flips_bits_silently() {
        let mut clean = MemDisk::new(8);
        clean.write_block(3, &blk(0x55), WriteKind::Sync).unwrap();
        let plan = FaultPlan::new(13).with_bitrot(3);
        let mut d = FaultDisk::new(clean, plan);
        let mut b = [0u8; BLOCK_SIZE];
        d.read_block(3, &mut b).unwrap();
        assert_ne!(b, blk(0x55), "rotted block must differ");
        let diff = b
            .iter()
            .zip(blk(0x55).iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            (1..=8).contains(&diff),
            "expected few flipped bytes, got {diff}"
        );
        assert_eq!(d.counts().rotted_reads, 1);
        // Unrotted blocks read clean.
        d.read_block(2, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_range_still_rejected_before_fault_logic() {
        let plan = FaultPlan::new(1).with_write_faults(1.0);
        let mut d = FaultDisk::new(MemDisk::new(2), plan);
        assert!(matches!(
            d.write_block(5, &blk(0), WriteKind::Sync),
            Err(crate::error::BlockError::OutOfRange { .. })
        ));
        assert_eq!(d.counts().write_faults, 0);
    }

    /// Regression (ISSUE 3): a torn write persists some blocks on the
    /// inner device, and the caller's retry then writes all of them again.
    /// The pass-through stats used to bill both, inflating write-cost
    /// deltas measured across a fault window. A faulted-then-retried
    /// write must charge exactly one success.
    #[test]
    fn faulted_then_retried_write_charges_exactly_one_success() {
        let plan = FaultPlan::new(11)
            .with_write_faults(1.0)
            .with_torn_writes()
            .with_transient_failures(1);
        let mut d = FaultDisk::new(MemDisk::new(16), plan);
        let data: Vec<u8> = vec![0xcd; 8 * BLOCK_SIZE];
        assert!(d.write_blocks(4, &data, WriteKind::Async).is_err());
        assert_eq!(d.counts().torn_writes, 1, "the fault must actually tear");
        // Retry, as the fs retry loop would.
        d.write_blocks(4, &data, WriteKind::Async).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1, "exactly one successful write request");
        assert_eq!(s.bytes_written, 8 * BLOCK_SIZE as u64);
        // The physical fragments stay visible on the inner device.
        assert!(d.inner().stats().writes > 1);
    }

    /// Non-torn transient write faults never reach the inner device, so a
    /// faulted-then-retried single-block write also charges one success.
    #[test]
    fn transient_fault_without_tearing_charges_once() {
        let plan = FaultPlan::new(7)
            .with_write_faults(1.0)
            .with_transient_failures(2);
        let mut d = FaultDisk::new(MemDisk::new(4), plan);
        let b = blk(1);
        assert!(d.write_block(0, &b, WriteKind::Sync).is_err());
        assert!(d.write_block(0, &b, WriteKind::Sync).is_err());
        d.write_block(0, &b, WriteKind::Sync).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, BLOCK_SIZE as u64);
    }

    /// The stats correction never undercounts: reads and unrelated writes
    /// pass through untouched alongside a torn write.
    #[test]
    fn tear_correction_leaves_other_traffic_untouched() {
        let plan = FaultPlan::new(11)
            .with_write_faults(1.0)
            .with_torn_writes()
            .with_transient_failures(1);
        let mut d = FaultDisk::new(MemDisk::new(16), plan);
        let data: Vec<u8> = vec![1; 4 * BLOCK_SIZE];
        let _ = d.write_blocks(0, &data, WriteKind::Async); // torn, fails
        d.write_blocks(0, &data, WriteKind::Async).unwrap(); // retry
        let mut r = vec![0u8; 4 * BLOCK_SIZE];
        d.read_blocks(0, &mut r).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 4 * BLOCK_SIZE as u64);
        assert_eq!(s.writes, 1);
        assert!(d.inner().stats().dominates(&s));
    }

    #[test]
    fn torn_gather_write_matches_torn_contiguous_write() {
        // The gather path must keep per-block tear semantics identical to
        // a contiguous write of the same bytes: same faults, same torn
        // subset, same stats correction.
        let mk_plan = || {
            FaultPlan::new(11)
                .with_write_faults(1.0)
                .with_torn_writes()
                .with_transient_failures(1)
        };
        let blocks: Vec<Vec<u8>> = (1..=8u8).map(|v| vec![v; BLOCK_SIZE]).collect();
        let contiguous: Vec<u8> = blocks.concat();
        let slices: Vec<&[u8]> = blocks.iter().map(|v| v.as_slice()).collect();

        let mut a = FaultDisk::new(MemDisk::new(16), mk_plan());
        assert!(a.write_blocks(4, &contiguous, WriteKind::Async).is_err());
        let mut b = FaultDisk::new(MemDisk::new(16), mk_plan());
        assert!(b.write_run_gather(4, &slices, WriteKind::Async).is_err());
        assert_eq!(a.counts().torn_writes, 1);
        assert_eq!(b.counts().torn_writes, 1);
        assert_eq!(a.inner().image(), b.inner().image(), "same torn subset");

        // Retry both; logical stats charge exactly one success each.
        a.write_blocks(4, &contiguous, WriteKind::Async).unwrap();
        b.write_run_gather(4, &slices, WriteKind::Async).unwrap();
        assert_eq!(a.inner().image(), b.inner().image());
        assert_eq!(a.stats().writes, 1);
        assert_eq!(b.stats().writes, 1);
        assert_eq!(b.stats().bytes_written, 8 * BLOCK_SIZE as u64);
    }

    #[test]
    fn bitrot_applies_to_gather_written_blocks_on_read() {
        let plan = FaultPlan::new(13).with_bitrot(3);
        let mut d = FaultDisk::new(MemDisk::new(8), plan);
        let b = vec![0x55u8; BLOCK_SIZE];
        d.write_run_gather(2, &[&b, &b, &b], WriteKind::Async)
            .unwrap();
        let mut back = [0u8; BLOCK_SIZE];
        d.read_block(3, &mut back).unwrap();
        assert_ne!(&back[..], b.as_slice(), "rotted block must differ");
        d.read_block(2, &mut back).unwrap();
        assert_eq!(&back[..], b.as_slice());
    }

    #[test]
    fn forgiveness_window_guarantees_progress_after_burst() {
        let plan = FaultPlan::new(3)
            .with_write_faults(1.0)
            .with_transient_failures(2);
        let mut d = FaultDisk::new(MemDisk::new(4), plan);
        let b = blk(2);
        // Burst of 2 failures, then at least `forgiveness` successes.
        assert!(d.write_block(1, &b, WriteKind::Sync).is_err());
        assert!(d.write_block(1, &b, WriteKind::Sync).is_err());
        for _ in 0..8 {
            assert!(d.write_block(1, &b, WriteKind::Sync).is_ok());
        }
    }
}
