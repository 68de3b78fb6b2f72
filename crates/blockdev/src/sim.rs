//! A disk with a mechanical service-time model.

use crate::device::{check_request, BlockDevice, WriteKind};
use crate::error::Result;
use crate::queue::QueueTimed;
use crate::stats::IoStats;
use crate::BLOCK_SIZE;

/// Mechanical parameters of the simulated disk.
///
/// The model charges, per request:
///
/// - a **seek** whenever the request does not start where the previous one
///   ended, with `seek(d) = min_seek + coeff * sqrt(d)` where `d` is the
///   head travel in blocks — the classic square-root seek curve. `coeff` is
///   calibrated at construction so that the *average* seek over uniformly
///   random request pairs equals `avg_seek_ns`;
/// - an average **rotational latency** (half a revolution) on every request
///   that seeks;
/// - **transfer time** proportional to the request size.
///
/// Sequential requests (the next request starts at the block after the
/// previous one ended) pay transfer time only, which is what lets
/// whole-segment log writes run at full disk bandwidth (Section 3.2).
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Minimum (track-to-track) seek time in nanoseconds.
    pub min_seek_ns: u64,
    /// Average seek time over random pairs, in nanoseconds.
    pub avg_seek_ns: u64,
    /// Rotational speed in revolutions per minute.
    pub rpm: u64,
    /// Sustained transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl DiskModel {
    /// The Wren IV disk used in the paper's evaluation (Section 5.1):
    /// 1.3 MB/s maximum transfer bandwidth, 17.5 ms average seek time,
    /// 3600 RPM (8.3 ms average rotational latency).
    pub fn wren_iv() -> DiskModel {
        DiskModel {
            min_seek_ns: 2_000_000,
            avg_seek_ns: 17_500_000,
            rpm: 3600,
            bandwidth_bytes_per_sec: 1_300_000,
        }
    }

    /// A modern-ish disk, used by ablation benches to check that the
    /// paper's conclusions are not an artifact of 1991 disk parameters.
    pub fn modern_hdd() -> DiskModel {
        DiskModel {
            min_seek_ns: 500_000,
            avg_seek_ns: 8_000_000,
            rpm: 7200,
            bandwidth_bytes_per_sec: 150_000_000,
        }
    }

    /// Average rotational latency (half a revolution) in nanoseconds.
    pub fn avg_rotational_ns(&self) -> u64 {
        // Half a revolution: 60e9 / rpm / 2.
        30_000_000_000 / self.rpm
    }

    /// Transfer time for `bytes` bytes, in nanoseconds.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        // bytes * 1e9 / bandwidth, computed in u128 to avoid overflow.
        ((bytes as u128 * 1_000_000_000) / self.bandwidth_bytes_per_sec as u128) as u64
    }

    /// Seek-time coefficient such that the mean of `seek(d)` over the
    /// distance distribution of two uniform random points on a disk of
    /// `num_blocks` blocks equals `avg_seek_ns`.
    ///
    /// For `d = |x - y|` with `x`, `y` uniform on `[0, 1]`,
    /// `E[sqrt(d)] = 8/15`, so `coeff = (avg - min) / ((8/15) sqrt(N))`.
    fn seek_coeff(&self, num_blocks: u64) -> f64 {
        if num_blocks <= 1 {
            return 0.0;
        }
        let span = self.avg_seek_ns.saturating_sub(self.min_seek_ns) as f64;
        span / ((8.0 / 15.0) * (num_blocks as f64).sqrt())
    }
}

/// A simulated disk: [`MemDisk`](crate::MemDisk)-style storage plus the
/// [`DiskModel`] timing model and full [`IoStats`] accounting.
///
/// # Examples
///
/// ```
/// use blockdev::{BlockDevice, DiskModel, SimDisk, WriteKind, BLOCK_SIZE};
///
/// let mut d = SimDisk::new(1024, DiskModel::wren_iv());
/// let seg = vec![1u8; 64 * BLOCK_SIZE];
/// d.write_blocks(0, &seg, WriteKind::Async).unwrap();
/// // A large sequential write is dominated by transfer time.
/// let s = d.stats();
/// assert!(s.busy_ns > 0);
/// assert!(s.positioning_ns < s.busy_ns / 2);
/// ```
pub struct SimDisk {
    data: Vec<u8>,
    num_blocks: u64,
    model: DiskModel,
    seek_coeff: f64,
    /// Block the head will be over after the last request (one past its end).
    head: u64,
    stats: IoStats,
    obs: Option<crate::DeviceObs>,
    /// Simulated host clock (ns). Directly issued requests block the host:
    /// the host clock advances to their completion. Queued requests do not.
    host_ns: u64,
    /// Simulated time the arm finishes its last accepted request (ns).
    device_free_ns: u64,
    /// When `Some(submit_ns)`, the next request is serviced in queued
    /// context: it starts at `max(device_free_ns, submit_ns)` and leaves
    /// the host clock untouched. Set via [`QueueTimed::begin_queued`].
    queued_submit: Option<u64>,
    /// Completion timestamp of the most recent request (ns).
    last_completion_ns: u64,
}

impl SimDisk {
    /// Creates a zero-filled simulated disk.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks * BLOCK_SIZE` overflows `usize`.
    pub fn new(num_blocks: u64, model: DiskModel) -> SimDisk {
        let Some(bytes) = usize::try_from(num_blocks)
            .ok()
            .and_then(|n| n.checked_mul(BLOCK_SIZE))
        else {
            panic!("SimDisk size overflows usize");
        };
        SimDisk {
            data: vec![0; bytes],
            num_blocks,
            seek_coeff: model.seek_coeff(num_blocks),
            model,
            head: 0,
            stats: IoStats::default(),
            obs: None,
            host_ns: 0,
            device_free_ns: 0,
            queued_submit: None,
            last_completion_ns: 0,
        }
    }

    /// Creates a simulated disk from an existing raw image.
    ///
    /// # Panics
    ///
    /// Panics if the image length is not a multiple of [`BLOCK_SIZE`].
    pub fn from_image(image: Vec<u8>, model: DiskModel) -> SimDisk {
        assert!(
            image.len().is_multiple_of(BLOCK_SIZE),
            "image length {} is not block-aligned",
            image.len()
        );
        let num_blocks = (image.len() / BLOCK_SIZE) as u64;
        SimDisk {
            data: image,
            num_blocks,
            seek_coeff: model.seek_coeff(num_blocks),
            model,
            head: 0,
            stats: IoStats::default(),
            obs: None,
            host_ns: 0,
            device_free_ns: 0,
            queued_submit: None,
            last_completion_ns: 0,
        }
    }

    /// Returns the timing model in use.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Returns the raw disk image.
    pub fn image(&self) -> &[u8] {
        &self.data
    }

    fn positioning_ns(&self, start: u64) -> u64 {
        if start == self.head {
            return 0;
        }
        let dist = self.head.abs_diff(start);
        let seek = self.model.min_seek_ns as f64 + self.seek_coeff * (dist as f64).sqrt();
        seek as u64 + self.model.avg_rotational_ns()
    }

    /// Charges a request to the stats and moves the head.
    fn account(&mut self, start: u64, count: u64, bytes: u64, sync: bool, is_read: bool) {
        let positioning = self.positioning_ns(start);
        let service = positioning + self.model.transfer_ns(bytes);
        self.charge(start, count, bytes, positioning, service, sync, is_read);
    }

    /// Records an already-computed positioning/service charge and moves
    /// the head. Split from [`SimDisk::account`] so `read_run` can charge
    /// per-block-quantized transfer time.
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &mut self,
        start: u64,
        count: u64,
        bytes: u64,
        positioning: u64,
        service: u64,
        sync: bool,
        is_read: bool,
    ) {
        if positioning > 0 {
            self.stats.seeks += 1;
        }
        self.stats.positioning_ns += positioning;
        self.stats.busy_ns += service;
        if sync {
            self.stats.sync_busy_ns += service;
        }
        if is_read {
            self.stats.reads += 1;
            self.stats.bytes_read += bytes;
        } else {
            self.stats.writes += 1;
            self.stats.bytes_written += bytes;
        }
        if let Some(obs) = &self.obs {
            obs.record(is_read, service);
        }
        // Timeline: a queued request starts when the arm is free and it has
        // been submitted; a direct request additionally blocks the host, so
        // it starts no earlier than "now" and the host waits for it.
        match self.queued_submit.take() {
            Some(submit_ns) => {
                let begin = self.device_free_ns.max(submit_ns);
                self.last_completion_ns = begin + service;
                self.device_free_ns = self.last_completion_ns;
                // Residency: from submission until completion (includes
                // time spent waiting behind earlier queued requests).
                self.stats.service_ns += self.last_completion_ns - submit_ns;
            }
            None => {
                let arrival = self.host_ns;
                let begin = self.device_free_ns.max(arrival);
                self.last_completion_ns = begin + service;
                self.device_free_ns = self.last_completion_ns;
                self.host_ns = self.last_completion_ns;
                self.stats.service_ns += self.last_completion_ns - arrival;
            }
        }
        self.head = start + count;
    }

    fn byte_range(&self, start: u64, len: usize) -> core::ops::Range<usize> {
        let off = start as usize * BLOCK_SIZE;
        off..off + len
    }

    /// Simulated wall-clock of the run so far: the host clock can never be
    /// behind a request it waited for, and the arm may still be working on
    /// queued requests the host has run past.
    pub fn elapsed_ns(&self) -> u64 {
        self.host_ns.max(self.device_free_ns)
    }
}

impl QueueTimed for SimDisk {
    fn host_ns(&self) -> u64 {
        self.host_ns
    }

    fn advance_host(&mut self, ns: u64) {
        self.host_ns += ns;
    }

    fn device_free_ns(&self) -> u64 {
        self.device_free_ns
    }

    fn begin_queued(&mut self, submit_ns: u64) {
        self.queued_submit = Some(submit_ns);
    }

    fn end_queued(&mut self) -> u64 {
        self.queued_submit = None;
        self.last_completion_ns
    }

    fn wait_idle(&mut self) {
        self.host_ns = self.host_ns.max(self.device_free_ns);
    }
}

impl BlockDevice for SimDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        let count = check_request(self.num_blocks, start, buf.len())?;
        buf.copy_from_slice(&self.data[self.byte_range(start, buf.len())]);
        // Reads always make the caller wait.
        self.account(start, count, buf.len() as u64, true, true);
        Ok(())
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()> {
        let count = check_request(self.num_blocks, start, buf.len())?;
        let range = self.byte_range(start, buf.len());
        self.data[range].copy_from_slice(buf);
        self.account(
            start,
            count,
            buf.len() as u64,
            kind == WriteKind::Sync,
            false,
        );
        Ok(())
    }

    fn write_run_gather(&mut self, start: u64, bufs: &[&[u8]], kind: WriteKind) -> Result<()> {
        let count = crate::device::check_gather(self.num_blocks, start, bufs)?;
        let mut off = start as usize * BLOCK_SIZE;
        let mut len = 0;
        for b in bufs {
            self.data[off..off + b.len()].copy_from_slice(b);
            off += b.len();
            len += b.len();
        }
        // Charged exactly like one contiguous `write_blocks` of the same
        // total length: the flush path issues each chunk as a single
        // request either way, so transfer time is rounded once per request
        // (unlike `read_run`, which replaces N single-block reads and must
        // quantize per block). Gathering only changes where the host reads
        // the bytes from, never the simulated service time.
        self.account(start, count, len as u64, kind == WriteKind::Sync, false);
        Ok(())
    }

    fn read_run(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        let count = check_request(self.num_blocks, start, buf.len())?;
        buf.copy_from_slice(&self.data[self.byte_range(start, buf.len())]);
        // Exactly what `count` back-to-back single-block reads would pay:
        // the first pays positioning (zero when sequential), the rest
        // start where the head already is. Transfer time is quantized per
        // block because `transfer_ns` rounds down per request.
        let positioning = self.positioning_ns(start);
        let service = positioning + count * self.model.transfer_ns(BLOCK_SIZE as u64);
        self.charge(
            start,
            count,
            buf.len() as u64,
            positioning,
            service,
            true,
            true,
        );
        Ok(())
    }

    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        let len = bufs.len() * BLOCK_SIZE;
        let count = check_request(self.num_blocks, start, len)?;
        for (i, b) in bufs.iter_mut().enumerate() {
            b.copy_from_slice(&self.data[self.byte_range(start + i as u64, BLOCK_SIZE)]);
        }
        // Charged exactly like `read_run` over the same range.
        let positioning = self.positioning_ns(start);
        let service = positioning + count * self.model.transfer_ns(BLOCK_SIZE as u64);
        self.charge(start, count, len as u64, positioning, service, true, true);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn attach_obs(&mut self, obs: crate::DeviceObs) {
        self.obs = Some(obs);
    }

    fn queue_timed(&mut self) -> Option<&mut dyn QueueTimed> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attached_obs_records_request_service_times() {
        let reg = lfs_obs::Registry::new();
        let mut d = SimDisk::new(1024, DiskModel::wren_iv());
        d.attach_obs(crate::DeviceObs::register(&reg, "disk"));
        let b = [0u8; BLOCK_SIZE];
        d.write_block(0, &b, WriteKind::Async).unwrap();
        d.write_block(1, &b, WriteKind::Async).unwrap();
        let mut r = [0u8; BLOCK_SIZE];
        d.read_blocks(0, &mut r).unwrap();
        let snap = reg.snapshot();
        let writes = snap.hist("disk.write_ns").expect("registered");
        let reads = snap.hist("disk.read_ns").expect("registered");
        assert_eq!(writes.count, 2);
        assert_eq!(reads.count, 1);
        // Histogram sums equal the stats' busy time split by direction.
        assert_eq!(writes.sum + reads.sum, d.stats().busy_ns);
        // The second (sequential) write is pure transfer time.
        assert_eq!(writes.min, d.model().transfer_ns(BLOCK_SIZE as u64));
    }

    #[test]
    fn sequential_writes_pay_no_positioning_after_first() {
        let mut d = SimDisk::new(1024, DiskModel::wren_iv());
        let b = [0u8; BLOCK_SIZE];
        d.write_block(0, &b, WriteKind::Async).unwrap();
        let after_first = d.stats();
        d.write_block(1, &b, WriteKind::Async).unwrap();
        d.write_block(2, &b, WriteKind::Async).unwrap();
        let s = d.stats().since(&after_first);
        assert_eq!(s.seeks, 0);
        assert_eq!(s.positioning_ns, 0);
        assert_eq!(s.busy_ns, 2 * d.model().transfer_ns(BLOCK_SIZE as u64));
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut d = SimDisk::new(100_000, DiskModel::wren_iv());
        let b = [0u8; BLOCK_SIZE];
        d.write_block(0, &b, WriteKind::Sync).unwrap();
        let before = d.stats();
        d.write_block(90_000, &b, WriteKind::Sync).unwrap();
        let s = d.stats().since(&before);
        assert_eq!(s.seeks, 1);
        assert!(s.positioning_ns >= d.model().min_seek_ns + d.model().avg_rotational_ns());
    }

    #[test]
    fn average_random_seek_close_to_model_parameter() {
        // Empirically check the seek-coefficient calibration: the mean
        // positioning time minus rotation over random pairs should be near
        // avg_seek_ns.
        let model = DiskModel::wren_iv();
        let n = 1_000_000u64;
        let d = SimDisk::new(n, model);
        // Deterministic pseudo-random walk over positions.
        let mut x: u64 = 12345;
        let mut head = 0u64;
        let mut total_seek = 0f64;
        let samples = 20_000;
        for _ in 0..samples {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let target = x % n;
            let dist = head.abs_diff(target);
            let seek = model.min_seek_ns as f64 + d.seek_coeff * (dist as f64).sqrt();
            total_seek += seek;
            head = target;
        }
        let mean = total_seek / samples as f64;
        let err = (mean - model.avg_seek_ns as f64).abs() / model.avg_seek_ns as f64;
        assert!(
            err < 0.05,
            "mean seek {mean} vs target {}",
            model.avg_seek_ns
        );
    }

    #[test]
    fn sync_writes_accrue_sync_busy_time() {
        let mut d = SimDisk::new(1024, DiskModel::wren_iv());
        let b = [0u8; BLOCK_SIZE];
        d.write_block(10, &b, WriteKind::Sync).unwrap();
        let s1 = d.stats();
        assert_eq!(s1.sync_busy_ns, s1.busy_ns);
        d.write_block(500, &b, WriteKind::Async).unwrap();
        let s2 = d.stats();
        assert_eq!(s2.sync_busy_ns, s1.sync_busy_ns);
        assert!(s2.busy_ns > s1.busy_ns);
    }

    #[test]
    fn whole_segment_write_is_mostly_transfer() {
        // A 1 MB segment at 1.3 MB/s transfers in ~770 ms; positioning is
        // at most ~40 ms, i.e. under 5% — "nearly the full bandwidth of the
        // disk" (Section 3.2).
        let model = DiskModel::wren_iv();
        let mut d = SimDisk::new(100_000, model);
        let seg = vec![0u8; 256 * BLOCK_SIZE];
        d.write_blocks(50_000, &seg, WriteKind::Async).unwrap();
        let s = d.stats();
        assert!(s.positioning_ns as f64 / (s.busy_ns as f64) < 0.06);
    }

    #[test]
    fn rotational_latency_matches_rpm() {
        assert_eq!(DiskModel::wren_iv().avg_rotational_ns(), 8_333_333);
        assert_eq!(DiskModel::modern_hdd().avg_rotational_ns(), 4_166_666);
    }

    #[test]
    fn read_run_costs_exactly_n_single_block_reads() {
        // Counts chosen so the per-request floor in transfer_ns would
        // bite: at 1.3 MB/s a 4 KB block transfers in 3150769 + 3/13 ns,
        // so floor(n*x) exceeds n*floor(x) from n = 5 upward.
        for &(first, n) in &[(7u64, 1u64), (100, 4), (100, 13), (2000, 256)] {
            let model = DiskModel::wren_iv();
            let mut a = SimDisk::new(4096, model);
            let mut b = SimDisk::new(4096, model);
            let img: Vec<u8> = (0..n as usize * BLOCK_SIZE)
                .map(|i| (i % 253) as u8)
                .collect();
            a.write_blocks(first, &img, WriteKind::Async).unwrap();
            b.write_blocks(first, &img, WriteKind::Async).unwrap();
            // Park both heads at the same spot away from the run.
            let blk = [0u8; BLOCK_SIZE];
            a.write_block(0, &blk, WriteKind::Async).unwrap();
            b.write_block(0, &blk, WriteKind::Async).unwrap();
            let a0 = a.stats();
            let b0 = b.stats();

            let mut one = vec![0u8; BLOCK_SIZE];
            let mut per_block = Vec::new();
            for i in 0..n {
                a.read_blocks(first + i, &mut one).unwrap();
                per_block.extend_from_slice(&one);
            }
            let mut run = vec![0u8; n as usize * BLOCK_SIZE];
            b.read_run(first, &mut run).unwrap();

            assert_eq!(run, per_block);
            let da = a.stats().since(&a0);
            let db = b.stats().since(&b0);
            assert_eq!(da.busy_ns, db.busy_ns, "n={n}");
            assert_eq!(da.positioning_ns, db.positioning_ns, "n={n}");
            assert_eq!(da.sync_busy_ns, db.sync_busy_ns, "n={n}");
            assert_eq!(da.seeks, db.seeks, "n={n}");
            assert_eq!(da.bytes_read, db.bytes_read, "n={n}");
            assert_eq!(da.reads, n);
            assert_eq!(db.reads, 1);
            assert_eq!(a.head, b.head);
        }
    }

    #[test]
    fn read_blocks_is_not_a_substitute_for_read_run() {
        // Documents why read_run exists: a 13-block read_blocks request
        // rounds its transfer time down once, not 13 times, so its service
        // time differs from 13 back-to-back single-block reads by a few ns
        // — enough to shift every downstream figure float.
        let model = DiskModel::wren_iv();
        let n = 13u64;
        let mut a = SimDisk::new(1024, model);
        let mut b = SimDisk::new(1024, model);
        let mut one = vec![0u8; BLOCK_SIZE];
        for i in 0..n {
            a.read_blocks(i, &mut one).unwrap();
        }
        let mut big = vec![0u8; n as usize * BLOCK_SIZE];
        b.read_blocks(0, &mut big).unwrap();
        assert_ne!(a.stats().busy_ns, b.stats().busy_ns);
        assert_eq!(
            a.stats().busy_ns + 3, // 13 * (3/13 ns) of per-request floor
            b.stats().busy_ns
        );
    }

    #[test]
    fn write_run_gather_charges_exactly_one_contiguous_write() {
        // The gather write's timing contract is the *opposite* of
        // read_run's: it replaces one contiguous write_blocks request, so
        // service time must match that single request bit-for-bit
        // (positioning + one per-request transfer rounding), including at
        // counts where per-block quantization would differ.
        for &(first, n) in &[(7u64, 1usize), (100, 4), (100, 13), (2000, 256)] {
            let model = DiskModel::wren_iv();
            let mut a = SimDisk::new(4096, model);
            let mut b = SimDisk::new(4096, model);
            let blocks: Vec<Vec<u8>> = (0..n)
                .map(|i| vec![(i % 251) as u8 + 1; BLOCK_SIZE])
                .collect();
            let contiguous: Vec<u8> = blocks.concat();
            // Park both heads at the same spot away from the run.
            let blk = [0u8; BLOCK_SIZE];
            a.write_block(0, &blk, WriteKind::Async).unwrap();
            b.write_block(0, &blk, WriteKind::Async).unwrap();
            let a0 = a.stats();
            let b0 = b.stats();

            a.write_blocks(first, &contiguous, WriteKind::Sync).unwrap();
            let slices: Vec<&[u8]> = blocks.iter().map(|v| v.as_slice()).collect();
            b.write_run_gather(first, &slices, WriteKind::Sync).unwrap();

            assert_eq!(a.image(), b.image(), "n={n}");
            let da = a.stats().since(&a0);
            let db = b.stats().since(&b0);
            assert_eq!(da.busy_ns, db.busy_ns, "n={n}");
            assert_eq!(da.sync_busy_ns, db.sync_busy_ns, "n={n}");
            assert_eq!(da.positioning_ns, db.positioning_ns, "n={n}");
            assert_eq!(da.seeks, db.seeks, "n={n}");
            assert_eq!(da.writes, db.writes, "n={n}");
            assert_eq!(da.bytes_written, db.bytes_written, "n={n}");
            assert_eq!(a.head, b.head, "n={n}");
        }
    }

    #[test]
    fn write_run_gather_accepts_multi_block_slices() {
        let model = DiskModel::wren_iv();
        let mut a = SimDisk::new(64, model);
        let mut b = SimDisk::new(64, model);
        let big: Vec<u8> = (0..3 * BLOCK_SIZE).map(|i| (i % 239) as u8).collect();
        let one = vec![7u8; BLOCK_SIZE];
        let contiguous: Vec<u8> = [one.as_slice(), big.as_slice()].concat();
        a.write_blocks(5, &contiguous, WriteKind::Async).unwrap();
        b.write_run_gather(5, &[&one, &big], WriteKind::Async)
            .unwrap();
        assert_eq!(a.image(), b.image());
        assert_eq!(a.stats().busy_ns, b.stats().busy_ns);
        assert_eq!(a.stats().writes, b.stats().writes);
    }

    #[test]
    fn data_roundtrips_through_sim_disk() {
        let mut d = SimDisk::new(64, DiskModel::wren_iv());
        let data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i * 7 % 256) as u8).collect();
        d.write_blocks(5, &data, WriteKind::Async).unwrap();
        let mut back = vec![0u8; 2 * BLOCK_SIZE];
        d.read_blocks(5, &mut back).unwrap();
        assert_eq!(back, data);
    }
}
