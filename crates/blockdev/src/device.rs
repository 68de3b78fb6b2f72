//! The [`BlockDevice`] trait.

use crate::error::{BlockError, Result};
use crate::stats::IoStats;
use crate::BLOCK_SIZE;

/// Whether a write blocks the issuing application.
///
/// The paper's central performance argument (Section 2.3) is about exactly
/// this distinction: Unix FFS writes metadata *synchronously*, coupling
/// application progress to disk latency, while a log-structured file system
/// issues large *asynchronous* log writes from its file cache. The simulated
/// disk accounts busy time separately for the two kinds so the harness can
/// recompute elapsed time and disk utilization the way Figure 8 does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// The application waits for the write (FFS metadata, checkpoints).
    Sync,
    /// The write is issued in the background (log writes, delayed data).
    Async,
}

/// A block-addressed storage device.
///
/// Blocks are [`BLOCK_SIZE`] bytes. Multi-block operations address a
/// *contiguous* range and are serviced as a single request — a single seek
/// plus one transfer — which is the property that makes whole-segment log
/// writes fast (Section 3.2 of the paper).
///
/// All methods take `&mut self`: even reads move the disk head and advance
/// the simulated clock on [`crate::SimDisk`].
pub trait BlockDevice {
    /// Returns the total number of blocks on the device.
    fn num_blocks(&self) -> u64;

    /// Reads `buf.len() / BLOCK_SIZE` contiguous blocks starting at `start`.
    ///
    /// `buf.len()` must be a non-zero multiple of [`BLOCK_SIZE`].
    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf.len() / BLOCK_SIZE` contiguous blocks starting at `start`.
    ///
    /// `buf.len()` must be a non-zero multiple of [`BLOCK_SIZE`].
    fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()>;

    /// Reads a *run* of contiguous blocks as one request, charging exactly
    /// the service time of issuing each block as its own back-to-back
    /// single-block read.
    ///
    /// Coalesced read paths (file read-runs, cleaner segment scavenging)
    /// use this instead of [`BlockDevice::read_blocks`] so that batching
    /// never changes simulated time: on a timed device a run is one
    /// request (one positioning charge — the same one the first
    /// single-block read of the sequence would pay, since the rest start
    /// where the head already is) but transfer time is quantized
    /// *per block*, because `transfer_ns` rounds down per request and
    /// `N * floor(x)` differs from `floor(N * x)` for the paper's disk
    /// parameters.
    ///
    /// The default delegates to [`BlockDevice::read_blocks`], which is
    /// correct for devices without a timing model.
    fn read_run(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        self.read_blocks(start, buf)
    }

    /// [`BlockDevice::read_run`], scattering block `start + i` of the run
    /// into `bufs[i]` instead of one contiguous buffer.
    ///
    /// Identical request accounting and (on timed devices) service time to
    /// `read_run` over the same range. Block caches use this to fetch a
    /// run directly into per-block cache entries without staging the run
    /// in a bounce buffer.
    ///
    /// Each buffer must be exactly [`BLOCK_SIZE`] bytes and `bufs` must be
    /// non-empty. The default stages through `read_run`; memory-backed
    /// devices override it to copy each block straight to its destination.
    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        let mut bounce = vec![0u8; bufs.len() * BLOCK_SIZE];
        self.read_run(start, &mut bounce)?;
        for (i, b) in bufs.iter_mut().enumerate() {
            b.copy_from_slice(&bounce[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE]);
        }
        Ok(())
    }

    /// Writes a contiguous range of blocks *gathered* from multiple source
    /// slices as one request, charged exactly like a single
    /// [`BlockDevice::write_blocks`] call of the same total length at the
    /// same start.
    ///
    /// This is the write-side twin of [`BlockDevice::read_run_scatter`],
    /// but with the opposite timing contract: the flush path it serves
    /// already issued each chunk as *one* contiguous `write_blocks`
    /// request, so the gather variant must charge one request with a
    /// single per-request transfer rounding — not per-block quantization —
    /// for batching to stay invisible to simulated time. The only thing
    /// that changes is where the bytes come from: straight out of
    /// per-block cache entries instead of a host-side bounce buffer.
    ///
    /// Each slice in `bufs` must be a non-empty multiple of [`BLOCK_SIZE`]
    /// (slices may span several blocks) and `bufs` must be non-empty. The
    /// default assembles the slices into one buffer and forwards to
    /// [`BlockDevice::write_blocks`]; memory-backed devices override it to
    /// copy each slice straight to its destination.
    fn write_run_gather(&mut self, start: u64, bufs: &[&[u8]], kind: WriteKind) -> Result<()> {
        let len = check_gather(self.num_blocks(), start, bufs)? as usize * BLOCK_SIZE;
        let mut bounce = Vec::with_capacity(len);
        for b in bufs {
            bounce.extend_from_slice(b);
        }
        self.write_blocks(start, &bounce, kind)
    }

    /// Flushes any buffered state to stable storage.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    /// Returns a snapshot of the accumulated I/O statistics.
    ///
    /// Devices without a timing model report zero service times but still
    /// count operations and bytes.
    fn stats(&self) -> IoStats;

    /// Attaches per-request latency histograms (see [`crate::DeviceObs`]).
    ///
    /// The default is a no-op, so devices that do not model time may
    /// simply ignore observability. Wrapper devices forward the handles
    /// to the device they wrap.
    fn attach_obs(&mut self, _obs: crate::DeviceObs) {}

    /// The device's timing contract for queued submissions, when it has
    /// one (see [`crate::QueueTimed`]).
    ///
    /// The default is `None`: devices without a timing model service
    /// queued requests exactly like direct ones. Wrapper devices forward
    /// to the device they wrap.
    fn queue_timed(&mut self) -> Option<&mut dyn crate::QueueTimed> {
        None
    }

    /// Records that an ordering barrier ([`crate::QueueDevice::fence`])
    /// reached this device, for devices that journal the write stream.
    ///
    /// The default is a no-op: most devices have no journal, and a fence
    /// carries no data. [`crate::CrashDisk`] overrides it to mark the
    /// barrier in its crash journal so model checking can tell which
    /// in-flight writes were allowed to reorder across which. Wrapper
    /// devices forward it to the device they wrap.
    fn note_fence(&mut self) {}

    /// Number of independent shards (physical disks) behind this device.
    ///
    /// `1` for every real device; [`crate::VolumeSet`] overrides it with
    /// its disk count so layout code (write points, cleaner pick policy)
    /// can become shard-aware without naming the concrete type. Wrapper
    /// devices forward to the device they wrap.
    fn shard_count(&self) -> usize {
        1
    }

    /// Size in blocks of the striping unit when this device shards a
    /// block space across several disks, or `None` on an unsharded
    /// device.
    ///
    /// The file system validates at mount that the stripe unit equals
    /// its segment size, so every segment lives on exactly one disk.
    /// Wrapper devices forward to the device they wrap.
    fn stripe_blocks(&self) -> Option<u64> {
        None
    }

    /// Which shard hosts stripe `stripe` of the striped region: plain
    /// round-robin, `stripe % shard_count`, since every shard of a
    /// sharded device holds the same number of stripes. Meaningless (and
    /// 0) on unsharded devices. Wrapper devices forward to the device
    /// they wrap.
    fn shard_of_stripe(&self, stripe: u64) -> usize {
        (stripe % self.shard_count().max(1) as u64) as usize
    }

    /// I/O statistics of one shard of a sharded device, or `None` when
    /// `shard` is out of range — which is always, on unsharded devices:
    /// their only statistics view is [`BlockDevice::stats`]. Wrapper
    /// devices forward to the device they wrap.
    fn shard_stats(&self, _shard: usize) -> Option<IoStats> {
        None
    }

    /// Reads a single block into `buf`.
    fn read_block(&mut self, block: u64, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.read_blocks(block, buf.as_mut_slice())
    }

    /// Writes a single block from `buf`.
    fn write_block(&mut self, block: u64, buf: &[u8; BLOCK_SIZE], kind: WriteKind) -> Result<()> {
        self.write_blocks(block, buf, kind)
    }
}

/// Validates a request against the device size and buffer alignment.
///
/// Returns the block count of the request.
pub(crate) fn check_request(device_blocks: u64, start: u64, len: usize) -> Result<u64> {
    if len == 0 || !len.is_multiple_of(BLOCK_SIZE) {
        return Err(BlockError::Misaligned { len });
    }
    let count = (len / BLOCK_SIZE) as u64;
    if start
        .checked_add(count)
        .is_none_or(|end| end > device_blocks)
    {
        return Err(BlockError::OutOfRange {
            block: start,
            count,
            device_blocks,
        });
    }
    Ok(count)
}

/// Validates a gather-write request: every slice must be non-empty, the
/// slices together a whole number of blocks, and the combined range must
/// fit the device. A slice may end mid-block — a file system packing the
/// tails of several cached blocks into one log block gathers them in
/// place — but a request that ends mid-block is refused, with the length
/// of its trailing partial block.
///
/// Returns the total block count of the request.
pub(crate) fn check_gather(device_blocks: u64, start: u64, bufs: &[&[u8]]) -> Result<u64> {
    if bufs.iter().any(|b| b.is_empty()) {
        return Err(BlockError::Misaligned { len: 0 });
    }
    let len: usize = bufs.iter().map(|b| b.len()).sum();
    if !len.is_multiple_of(BLOCK_SIZE) {
        return Err(BlockError::Misaligned {
            len: len % BLOCK_SIZE,
        });
    }
    check_request(device_blocks, start, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_request_accepts_exact_fit() {
        assert_eq!(check_request(8, 4, 4 * BLOCK_SIZE).unwrap(), 4);
    }

    #[test]
    fn check_request_rejects_overflowing_range() {
        assert!(matches!(
            check_request(8, 5, 4 * BLOCK_SIZE),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn check_request_rejects_wraparound() {
        assert!(matches!(
            check_request(8, u64::MAX, BLOCK_SIZE),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn check_request_rejects_empty_and_misaligned() {
        assert!(matches!(
            check_request(8, 0, 0),
            Err(BlockError::Misaligned { .. })
        ));
        assert!(matches!(
            check_request(8, 0, BLOCK_SIZE + 1),
            Err(BlockError::Misaligned { .. })
        ));
    }

    #[test]
    fn check_gather_sums_multi_block_slices() {
        let a = vec![0u8; 2 * BLOCK_SIZE];
        let b = vec![0u8; BLOCK_SIZE];
        assert_eq!(check_gather(8, 4, &[&a, &b, &b]).unwrap(), 4);
    }

    /// Slices may end mid-block as long as the request does not.
    #[test]
    fn check_gather_accepts_slices_that_end_mid_block() {
        let (head, tail) = (vec![0u8; 1024], vec![0u8; BLOCK_SIZE + 3072]);
        assert_eq!(check_gather(8, 0, &[&head, &tail]).unwrap(), 2);
        assert!(matches!(
            check_gather(8, 0, &[&head, &head]),
            Err(BlockError::Misaligned { len: 2048 })
        ));
    }

    #[test]
    fn check_gather_rejects_bad_slices_and_overflow() {
        let ok = vec![0u8; BLOCK_SIZE];
        let bad = vec![0u8; BLOCK_SIZE - 1];
        assert!(matches!(
            check_gather(8, 0, &[&ok, &bad]),
            Err(BlockError::Misaligned { .. })
        ));
        assert!(matches!(
            check_gather(8, 0, &[&ok, &[]]),
            Err(BlockError::Misaligned { len: 0 })
        ));
        assert!(matches!(
            check_gather(8, 0, &[]),
            Err(BlockError::Misaligned { len: 0 })
        ));
        assert!(matches!(
            check_gather(2, 1, &[&ok, &ok]),
            Err(BlockError::OutOfRange { .. })
        ));
    }
}
