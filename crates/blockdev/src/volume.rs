//! [`VolumeSet`]: N queue devices presented as one sharded block space.
//!
//! The paper's performance argument turns every write workload into
//! sequential log bandwidth — so once a single arm is saturated (run
//! coalescing, gather writes, and the submission ring got us there), the
//! only remaining multiplier is *more spindles*. `VolumeSet` supplies
//! them without changing a single caller type: it implements
//! [`BlockDevice`] + [`QueueDevice`] over a vector of shards, so the
//! file system, the torture harness, and the benches run unchanged on
//! 1, 2, 4, or 8 disks.
//!
//! # Address mapping
//!
//! The logical space is split at `meta_blocks`:
//!
//! - Blocks `0 .. meta_blocks` (superblock + both checkpoint regions)
//!   live on shard 0 at the same local addresses, so a single-disk
//!   image's fixed region is literally a prefix of shard 0's image.
//! - The rest is striped round-robin in units of `stripe_blocks`:
//!   stripe `t` lives on shard `t % N` at local blocks
//!   `meta_blocks + (t / N) * stripe_blocks ..`. The file system passes
//!   its segment size as the stripe unit, so *each whole segment lands
//!   on exactly one disk* (segment-granular sharding): a segment write
//!   stays one contiguous request on one arm, and segment `s` lives on
//!   shard `s % N`.
//!
//! Shards other than 0 keep their first `meta_blocks` blocks unused so
//! local addressing is uniform across shards — a few dozen blocks per
//! disk, traded for the ability to read any shard with the same offsets.
//!
//! # Single-shard transparency
//!
//! A `VolumeSet` of one shard passes **every** method straight through,
//! so images, [`IoStats`] (including simulated service times), queue
//! statistics, and tickets are bit-identical to the bare device. This is
//! the N=1 equivalence the proptests pin.
//!
//! # Fan-out submissions
//!
//! With N > 1, a queued gather submission is split at stripe boundaries
//! and submitted to each affected shard's own ring; `VolumeSet` mints a
//! global ticket and remembers which per-shard tickets it maps to
//! (shard tickets from different rings share no ordering, so they can
//! never be compared directly). [`QueueDevice::fence`] fences every
//! shard — the checkpoint ordering contract ("all log writes before the
//! checkpoint header") therefore spans all disks.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::device::{check_gather, check_request, BlockDevice, WriteKind};
use crate::error::Result;
use crate::queue::{IoBuf, QueueDevice, QueueStats, QueueTimed, Ticket};
use crate::stats::IoStats;
use crate::{DeviceObs, BLOCK_SIZE};

/// One contiguous piece of a logical request on one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Extent {
    shard: usize,
    local: u64,
    blocks: u64,
}

/// One fanned-out submission: the global sequence number handed to the
/// caller and the per-shard tickets it maps to.
#[derive(Debug)]
struct PendingFan {
    seq: u64,
    parts: Vec<(usize, Ticket)>,
}

/// N underlying [`QueueDevice`]s presented as one sharded block space
/// (see the module docs for the mapping and transparency contracts).
pub struct VolumeSet<D: QueueDevice> {
    shards: Vec<D>,
    meta_blocks: u64,
    stripe: u64,
    /// Whole stripes each shard holds (the same on every shard).
    shard_stripes: u64,
    next_seq: u64,
    completed_seq: u64,
    pending: VecDeque<PendingFan>,
    /// Aggregate clocks, refreshed on entry to [`BlockDevice::queue_timed`]
    /// and after every mutating [`QueueTimed`] call, so the `&self`
    /// accessors of the timing contract can answer without re-borrowing
    /// the shards.
    cached_host_ns: u64,
    cached_free_ns: u64,
}

impl<D: QueueDevice> VolumeSet<D> {
    /// Presents `shards` as one block space: blocks `0 .. meta_blocks`
    /// on shard 0, the remainder striped round-robin in units of
    /// `stripe_blocks` (stripe `t` on shard `t % N`).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, `stripe_blocks` is zero, or (with
    /// more than one shard) some shard is too small to hold the meta
    /// region plus at least one stripe, or the shards do not all hold
    /// the same number of whole stripes.
    pub fn new(shards: Vec<D>, meta_blocks: u64, stripe_blocks: u64) -> VolumeSet<D> {
        assert!(!shards.is_empty(), "VolumeSet needs at least one shard");
        assert!(stripe_blocks >= 1, "stripe must be at least one block");
        let caps: Vec<u64> = shards
            .iter()
            .map(|s| s.num_blocks().saturating_sub(meta_blocks) / stripe_blocks)
            .collect();
        assert!(
            shards.len() == 1 || caps.iter().all(|&c| c >= 1),
            "every shard must hold the meta region plus at least one stripe"
        );
        assert!(
            caps.iter().all(|&c| c == caps[0]),
            "every shard must hold the same number of whole stripes: {caps:?}"
        );
        VolumeSet {
            shards,
            meta_blocks,
            stripe: stripe_blocks,
            shard_stripes: caps[0],
            next_seq: 1,
            completed_seq: 0,
            pending: VecDeque::new(),
            cached_host_ns: 0,
            cached_free_ns: 0,
        }
    }

    /// Maps global stripe `t` to `(shard, local stripe index)`.
    fn locate_stripe(&self, t: u64) -> (usize, u64) {
        let n = self.shards.len() as u64;
        ((t % n) as usize, t / n)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in order.
    pub fn shards(&self) -> &[D] {
        &self.shards
    }

    /// The shards, mutably. Mutating a shard directly bypasses the
    /// ticket bookkeeping — [`QueueDevice::fence`] first.
    pub fn shards_mut(&mut self) -> &mut [D] {
        &mut self.shards
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &D {
        &self.shards[i]
    }

    /// Shard `i`, mutably (same caveat as [`VolumeSet::shards_mut`]).
    pub fn shard_mut(&mut self, i: usize) -> &mut D {
        &mut self.shards[i]
    }

    /// Unwraps the set, fencing first so queued submissions are applied
    /// (best effort, exactly like [`crate::QueuedDev::into_inner`]).
    pub fn into_shards(mut self) -> Vec<D> {
        let _ = QueueDevice::fence(&mut self);
        self.shards
    }

    /// The shard a logical block address maps to.
    pub fn shard_of_block(&self, addr: u64) -> usize {
        if self.shards.len() == 1 || addr < self.meta_blocks {
            0
        } else {
            self.locate_stripe((addr - self.meta_blocks) / self.stripe)
                .0
        }
    }

    /// Splits the logical range `start .. start + blocks` into per-shard
    /// extents, in logical order. Adjacent pieces that land contiguously
    /// on the same shard (the meta region flowing into stripe 0) are
    /// coalesced, so a request never costs more per-shard requests than
    /// the stripe boundaries it actually crosses.
    fn extents(&self, start: u64, blocks: u64) -> Vec<Extent> {
        let mut out: Vec<Extent> = Vec::new();
        let mut a = start;
        let mut rem = blocks;
        while rem > 0 {
            let (shard, local, take) = if a < self.meta_blocks {
                (0usize, a, (self.meta_blocks - a).min(rem))
            } else {
                let t = (a - self.meta_blocks) / self.stripe;
                let o = (a - self.meta_blocks) % self.stripe;
                let (shard, r) = self.locate_stripe(t);
                let local = self.meta_blocks + r * self.stripe + o;
                (shard, local, (self.stripe - o).min(rem))
            };
            match out.last_mut() {
                Some(e) if e.shard == shard && e.local + e.blocks == local => e.blocks += take,
                _ => out.push(Extent {
                    shard,
                    local,
                    blocks: take,
                }),
            }
            a += take;
            rem -= take;
        }
        out
    }

    /// Refreshes the cached aggregate clocks from the shards.
    fn refresh_timed_cache(&mut self) {
        let mut host = 0u64;
        let mut free = 0u64;
        for s in &mut self.shards {
            if let Some(t) = s.queue_timed() {
                host = host.max(t.host_ns());
                free = free.max(t.device_free_ns());
            }
        }
        self.cached_host_ns = host;
        self.cached_free_ns = free;
    }
}

/// Re-windows a gather's buffers along `extents`: the piece of the byte
/// stream covering each extent becomes that extent's buffer list. Owned
/// buffers are converted to shared ones (an `Arc::new` moves the vector
/// header, never the data), so splitting stays zero-copy.
fn split_iobufs(bufs: Vec<IoBuf>, extents: &[Extent]) -> Vec<Vec<IoBuf>> {
    let norm: Vec<(Arc<Vec<u8>>, usize, usize)> = bufs
        .into_iter()
        .map(|b| match b {
            IoBuf::Owned(v) => {
                let len = v.len();
                (Arc::new(v), 0, len)
            }
            IoBuf::Shared { buf, off, len } => (buf, off, len),
        })
        .collect();
    let mut out = Vec::with_capacity(extents.len());
    let mut i = 0usize;
    let mut consumed = 0usize;
    for e in extents {
        let mut need = e.blocks as usize * BLOCK_SIZE;
        let mut part = Vec::new();
        while need > 0 {
            let (buf, off, len) = &norm[i];
            let avail = len - consumed;
            let take = avail.min(need);
            part.push(IoBuf::shared_range(buf.clone(), off + consumed, take));
            consumed += take;
            need -= take;
            if consumed == *len {
                i += 1;
                consumed = 0;
            }
        }
        out.push(part);
    }
    out
}

impl<D: QueueDevice> BlockDevice for VolumeSet<D> {
    fn num_blocks(&self) -> u64 {
        if self.shards.len() == 1 {
            return self.shards[0].num_blocks();
        }
        self.meta_blocks + self.shard_stripes * self.shards.len() as u64 * self.stripe
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].read_blocks(start, buf);
        }
        check_request(self.num_blocks(), start, buf.len())?;
        let mut off = 0usize;
        for e in self.extents(start, (buf.len() / BLOCK_SIZE) as u64) {
            let len = e.blocks as usize * BLOCK_SIZE;
            self.shards[e.shard].read_blocks(e.local, &mut buf[off..off + len])?;
            off += len;
        }
        Ok(())
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].write_blocks(start, buf, kind);
        }
        check_request(self.num_blocks(), start, buf.len())?;
        let mut off = 0usize;
        for e in self.extents(start, (buf.len() / BLOCK_SIZE) as u64) {
            let len = e.blocks as usize * BLOCK_SIZE;
            self.shards[e.shard].write_blocks(e.local, &buf[off..off + len], kind)?;
            off += len;
        }
        Ok(())
    }

    fn read_run(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].read_run(start, buf);
        }
        check_request(self.num_blocks(), start, buf.len())?;
        let mut off = 0usize;
        for e in self.extents(start, (buf.len() / BLOCK_SIZE) as u64) {
            let len = e.blocks as usize * BLOCK_SIZE;
            self.shards[e.shard].read_run(e.local, &mut buf[off..off + len])?;
            off += len;
        }
        Ok(())
    }

    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].read_run_scatter(start, bufs);
        }
        check_request(self.num_blocks(), start, bufs.len() * BLOCK_SIZE)?;
        let mut idx = 0usize;
        for e in self.extents(start, bufs.len() as u64) {
            let k = e.blocks as usize;
            self.shards[e.shard].read_run_scatter(e.local, &mut bufs[idx..idx + k])?;
            idx += k;
        }
        Ok(())
    }

    fn write_run_gather(&mut self, start: u64, bufs: &[&[u8]], kind: WriteKind) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].write_run_gather(start, bufs, kind);
        }
        let total = check_gather(self.num_blocks(), start, bufs)?;
        let extents = self.extents(start, total);
        // Walk the slice stream, carving off each extent's byte span;
        // a slice crossing a stripe boundary contributes sub-slices.
        let mut i = 0usize;
        let mut consumed = 0usize;
        for e in extents {
            let mut need = e.blocks as usize * BLOCK_SIZE;
            let mut part: Vec<&[u8]> = Vec::new();
            while need > 0 {
                let b = bufs[i];
                let avail = b.len() - consumed;
                let take = avail.min(need);
                part.push(&b[consumed..consumed + take]);
                consumed += take;
                need -= take;
                if consumed == b.len() {
                    i += 1;
                    consumed = 0;
                }
            }
            self.shards[e.shard].write_run_gather(e.local, &part, kind)?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].sync();
        }
        for s in &mut self.shards {
            s.sync()?;
        }
        Ok(())
    }

    fn stats(&self) -> IoStats {
        if self.shards.len() == 1 {
            return self.shards[0].stats();
        }
        let mut agg = IoStats::default();
        for s in &self.shards {
            agg.accumulate(&s.stats());
        }
        agg
    }

    fn attach_obs(&mut self, obs: DeviceObs) {
        if self.shards.len() == 1 {
            return self.shards[0].attach_obs(obs);
        }
        for s in &mut self.shards {
            s.attach_obs(obs.clone());
        }
    }

    fn queue_timed(&mut self) -> Option<&mut dyn QueueTimed> {
        if self.shards.len() == 1 {
            return self.shards[0].queue_timed();
        }
        let mut host = 0u64;
        let mut free = 0u64;
        for s in &mut self.shards {
            let t = s.queue_timed()?;
            host = host.max(t.host_ns());
            free = free.max(t.device_free_ns());
        }
        self.cached_host_ns = host;
        self.cached_free_ns = free;
        Some(self)
    }

    fn note_fence(&mut self) {
        if self.shards.len() == 1 {
            return self.shards[0].note_fence();
        }
        for s in &mut self.shards {
            s.note_fence();
        }
    }

    fn shard_count(&self) -> usize {
        if self.shards.len() == 1 {
            return self.shards[0].shard_count();
        }
        self.shards.len()
    }

    fn stripe_blocks(&self) -> Option<u64> {
        if self.shards.len() == 1 {
            return self.shards[0].stripe_blocks();
        }
        Some(self.stripe)
    }

    fn shard_stats(&self, shard: usize) -> Option<IoStats> {
        if self.shards.len() == 1 {
            return self.shards[0].shard_stats(shard);
        }
        self.shards.get(shard).map(BlockDevice::stats)
    }
}

/// The aggregate timing contract over timed shards: the host clock and
/// device-free clock are the maxima across shards, and host compute is
/// charged to every shard so their clocks advance in lockstep — exactly
/// the timeline of one host driving N independent arms.
impl<D: QueueDevice> QueueTimed for VolumeSet<D> {
    fn host_ns(&self) -> u64 {
        self.cached_host_ns
    }

    fn advance_host(&mut self, ns: u64) {
        for s in &mut self.shards {
            if let Some(t) = s.queue_timed() {
                t.advance_host(ns);
            }
        }
        self.cached_host_ns += ns;
    }

    fn device_free_ns(&self) -> u64 {
        self.cached_free_ns
    }

    fn begin_queued(&mut self, submit_ns: u64) {
        for s in &mut self.shards {
            if let Some(t) = s.queue_timed() {
                t.begin_queued(submit_ns);
            }
        }
    }

    fn end_queued(&mut self) -> u64 {
        let mut done = 0u64;
        for s in &mut self.shards {
            if let Some(t) = s.queue_timed() {
                done = done.max(t.end_queued());
            }
        }
        self.refresh_timed_cache();
        done
    }

    fn wait_idle(&mut self) {
        for s in &mut self.shards {
            if let Some(t) = s.queue_timed() {
                t.wait_idle();
            }
        }
        self.refresh_timed_cache();
    }
}

impl<D: QueueDevice> QueueDevice for VolumeSet<D> {
    fn submit_gather(&mut self, start: u64, bufs: Vec<IoBuf>, kind: WriteKind) -> Result<Ticket> {
        if self.shards.len() == 1 {
            return self.shards[0].submit_gather(start, bufs, kind);
        }
        let total = {
            let slices: Vec<&[u8]> = bufs.iter().map(IoBuf::as_slice).collect();
            check_gather(self.num_blocks(), start, &slices)?
        };
        let extents = self.extents(start, total);
        let parts = split_iobufs(bufs, &extents);
        let mut constituents = Vec::with_capacity(extents.len());
        for (e, part) in extents.iter().zip(parts) {
            // A failure partway leaves earlier shards' pieces submitted —
            // the same torn-write exposure a crash has; the caller's
            // retry/recovery machinery owns it, as it does on one disk.
            let t = self.shards[e.shard].submit_gather(e.local, part, kind)?;
            constituents.push((e.shard, t));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingFan {
            seq,
            parts: constituents,
        });
        Ok(Ticket::from_seq(seq))
    }

    fn poll(&mut self) -> u64 {
        if self.shards.len() == 1 {
            return self.shards[0].poll();
        }
        while let Some(f) = self.pending.front() {
            let parts = f.parts.clone();
            let mut done = true;
            for (i, t) in parts {
                if t != Ticket::IMMEDIATE && self.shards[i].poll() < t.seq() {
                    done = false;
                    break;
                }
            }
            if !done {
                break;
            }
            if let Some(f) = self.pending.pop_front() {
                self.completed_seq = f.seq;
            }
        }
        self.completed_seq
    }

    fn complete(&mut self, ticket: Ticket) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].complete(ticket);
        }
        while self.completed_seq < ticket.seq() {
            let Some(front) = self.pending.pop_front() else {
                break;
            };
            for (i, t) in &front.parts {
                self.shards[*i].complete(*t)?;
            }
            self.completed_seq = front.seq;
        }
        Ok(())
    }

    fn fence(&mut self) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].fence();
        }
        for s in &mut self.shards {
            s.fence()?;
        }
        self.completed_seq = self.next_seq - 1;
        self.pending.clear();
        Ok(())
    }

    fn queue_capacity(&self) -> usize {
        if self.shards.len() == 1 {
            return self.shards[0].queue_capacity();
        }
        // Capacity doubles as the caller's error-handling contract: above
        // 1 it promises the ring retries transient apply failures
        // internally (see [`QueueDevice::queue_capacity`]). A set of
        // synchronous shims keeps no such ring — every submit applies in
        // place — so it must report 1 and leave retries to the caller;
        // only real per-shard rings aggregate their capacities.
        let sum: usize = self.shards.iter().map(QueueDevice::queue_capacity).sum();
        if sum == self.shards.len() {
            1
        } else {
            sum
        }
    }

    fn queue_stats(&self) -> QueueStats {
        if self.shards.len() == 1 {
            return self.shards[0].queue_stats();
        }
        let mut agg = QueueStats::default();
        for s in &self.shards {
            let q = s.queue_stats();
            agg.submitted += q.submitted;
            agg.completed += q.completed;
            agg.depth_sum += q.depth_sum;
            // Max across shards: a lower bound on the instantaneous
            // aggregate (per-shard maxima need not coincide in time).
            agg.max_depth = agg.max_depth.max(q.max_depth);
            agg.ring_full_waits += q.ring_full_waits;
            agg.retries += q.retries;
            agg.giveups += q.giveups;
            agg.dropped += q.dropped;
            agg.fences += q.fences;
        }
        agg
    }

    fn take_queue_errors(&mut self) -> (u64, u64) {
        if self.shards.len() == 1 {
            return self.shards[0].take_queue_errors();
        }
        let mut retries = 0u64;
        let mut giveups = 0u64;
        for s in &mut self.shards {
            let (r, g) = s.take_queue_errors();
            retries += r;
            giveups += g;
        }
        (retries, giveups)
    }

    fn shard_queue_stats(&self, shard: usize) -> Option<QueueStats> {
        if self.shards.len() == 1 {
            return self.shards[0].shard_queue_stats(shard);
        }
        self.shards.get(shard).map(QueueDevice::queue_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, MemDisk, QueuedDev, SimDisk};

    const META: u64 = 65;
    const STRIPE: u64 = 16;

    /// Deterministic multi-block write trace within the logical space.
    fn trace(n: u64, device_blocks: u64) -> Vec<(u64, usize, u8)> {
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let blocks = 1 + (x >> 17) as usize % 40;
                let start = (x >> 33) % (device_blocks - blocks as u64);
                (start, blocks, (x >> 7) as u8 | 1)
            })
            .collect()
    }

    fn mem_set(n: usize, shard_blocks: u64) -> VolumeSet<MemDisk> {
        VolumeSet::new(
            (0..n).map(|_| MemDisk::new(shard_blocks)).collect(),
            META,
            STRIPE,
        )
    }

    /// Regression: a set of synchronous shims must report capacity 1 —
    /// there is no ring retrying transient faults internally, so a
    /// capacity above 1 would tell the caller submit errors are terminal
    /// and leak every transient fault a per-shard retry would absorb.
    #[test]
    fn all_shim_set_reports_capacity_one() {
        let vs = mem_set(4, META + 4 * STRIPE);
        assert_eq!(vs.queue_capacity(), 1);
    }

    #[test]
    fn single_shard_is_bit_exact_pass_through() {
        let mut raw = SimDisk::new(1024, DiskModel::wren_iv());
        let mut vs = VolumeSet::new(vec![SimDisk::new(1024, DiskModel::wren_iv())], META, STRIPE);
        assert_eq!(vs.num_blocks(), 1024, "no truncation at N=1");
        for (start, blocks, fill) in trace(50, 1024) {
            let data = vec![fill; blocks * BLOCK_SIZE];
            raw.write_run_gather(start, &[&data], WriteKind::Async)
                .unwrap();
            let t = vs
                .submit_gather(start, vec![IoBuf::Owned(data)], WriteKind::Async)
                .unwrap();
            assert_eq!(t, Ticket::IMMEDIATE, "shim ticket forwarded verbatim");
        }
        raw.sync().unwrap();
        vs.sync().unwrap();
        assert_eq!(raw.image(), vs.shard(0).image());
        assert_eq!(raw.stats(), vs.stats(), "all fields incl. service_ns");
        assert_eq!(raw.elapsed_ns(), vs.shard(0).elapsed_ns());
        assert_eq!(vs.shard_count(), 1);
        assert_eq!(vs.stripe_blocks(), None, "N=1 looks exactly like a disk");
        assert_eq!(vs.shard_stats(0), None);
    }

    #[test]
    fn logical_space_matches_reference_disk_under_random_traffic() {
        for n in [2usize, 3, 4, 8] {
            let mut vs = mem_set(n, META + 8 * STRIPE);
            let logical = vs.num_blocks();
            assert_eq!(logical, META + (n as u64) * 8 * STRIPE);
            let mut reference = MemDisk::new(logical);
            for (start, blocks, fill) in trace(80, logical) {
                let data = vec![fill; blocks * BLOCK_SIZE];
                reference
                    .write_blocks(start, &data, WriteKind::Async)
                    .unwrap();
                // Alternate the three write entry points.
                match fill % 3 {
                    0 => vs.write_blocks(start, &data, WriteKind::Async).unwrap(),
                    1 => {
                        let mid = (blocks / 2).max(1) * BLOCK_SIZE;
                        let (a, b) = data.split_at(mid.min(data.len()));
                        let bufs: Vec<&[u8]> = if b.is_empty() { vec![a] } else { vec![a, b] };
                        vs.write_run_gather(start, &bufs, WriteKind::Async).unwrap();
                    }
                    _ => {
                        vs.submit_gather(start, vec![IoBuf::Owned(data)], WriteKind::Async)
                            .unwrap();
                        vs.fence().unwrap();
                    }
                }
            }
            let mut want = vec![0u8; logical as usize * BLOCK_SIZE];
            reference.read_blocks(0, &mut want).unwrap();
            let mut got = vec![0u8; want.len()];
            vs.read_blocks(0, &mut got).unwrap();
            assert_eq!(got, want, "n={n} contiguous read");
            let mut got_run = vec![0u8; want.len()];
            vs.read_run(0, &mut got_run).unwrap();
            assert_eq!(got_run, want, "n={n} run read");
        }
    }

    #[test]
    fn every_stripe_lives_on_exactly_one_shard() {
        let vs = mem_set(4, META + 8 * STRIPE);
        for stripe in 0..(4 * 8) as u64 {
            let first = vs.shard_of_block(META + stripe * STRIPE);
            assert_eq!(first, (stripe % 4) as usize, "round-robin placement");
            for b in 0..STRIPE {
                assert_eq!(
                    vs.shard_of_block(META + stripe * STRIPE + b),
                    first,
                    "stripe {stripe} torn across shards at offset {b}"
                );
            }
        }
        for b in 0..META {
            assert_eq!(vs.shard_of_block(b), 0, "meta region pinned to shard 0");
        }
    }

    #[test]
    fn meta_region_is_a_prefix_of_shard_zero() {
        let mut vs = mem_set(2, META + 4 * STRIPE);
        let data = vec![0x5au8; META as usize * BLOCK_SIZE];
        vs.write_blocks(0, &data, WriteKind::Sync).unwrap();
        assert_eq!(
            &vs.shard(0).image()[..data.len()],
            data.as_slice(),
            "fixed region at identical local addresses"
        );
        assert!(
            vs.shard(1).image().iter().all(|&b| b == 0),
            "other shards untouched by meta writes"
        );
    }

    #[test]
    fn extents_coalesce_across_the_meta_boundary() {
        let vs = mem_set(2, META + 4 * STRIPE);
        // meta tail + stripe 0 head are contiguous on shard 0.
        let e = vs.extents(META - 2, 4);
        assert_eq!(
            e,
            vec![Extent {
                shard: 0,
                local: META - 2,
                blocks: 4
            }]
        );
        // A full stripe is exactly one extent.
        let e = vs.extents(META + STRIPE, STRIPE);
        assert_eq!(
            e,
            vec![Extent {
                shard: 1,
                local: META,
                blocks: STRIPE
            }]
        );
        // Crossing a stripe boundary costs exactly one split.
        let e = vs.extents(META + STRIPE - 1, 2);
        assert_eq!(e.len(), 2);
        assert_eq!((e[0].shard, e[0].blocks), (0, 1));
        assert_eq!((e[1].shard, e[1].blocks), (1, 1));
    }

    #[test]
    fn fanned_submissions_complete_in_global_order() {
        let shards = (0..2).map(|_| QueuedDev::new(MemDisk::new(META + 4 * STRIPE), 4));
        let mut vs = VolumeSet::new(shards.collect(), META, STRIPE);
        // t1 spans shards 0+1, t2 lands on shard 1, t3 on shard 0.
        let t1 = vs
            .submit_gather(
                META + STRIPE - 1,
                vec![IoBuf::Owned(vec![1u8; 2 * BLOCK_SIZE])],
                WriteKind::Async,
            )
            .unwrap();
        let t2 = vs
            .submit_gather(
                META + STRIPE + 1,
                vec![IoBuf::Owned(vec![2u8; BLOCK_SIZE])],
                WriteKind::Async,
            )
            .unwrap();
        let t3 = vs
            .submit_gather(
                META,
                vec![IoBuf::Owned(vec![3u8; BLOCK_SIZE])],
                WriteKind::Async,
            )
            .unwrap();
        assert!(t1 < t2 && t2 < t3, "global tickets are ordered");
        assert_eq!(vs.poll(), 0, "nothing applied yet");
        vs.complete(t2).unwrap();
        assert!(vs.poll() >= t2.seq());
        vs.fence().unwrap();
        assert_eq!(vs.poll(), t3.seq(), "fence completes everything");
        // The torn-across-shards write landed whole.
        let mut back = vec![0u8; 2 * BLOCK_SIZE];
        vs.read_blocks(META + STRIPE - 1, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 1));
    }

    #[test]
    fn aggregate_stats_and_queue_counters_sum_over_shards() {
        let shards = (0..4).map(|_| QueuedDev::new(MemDisk::new(META + 4 * STRIPE), 2));
        let mut vs = VolumeSet::new(shards.collect(), META, STRIPE);
        assert_eq!(vs.queue_capacity(), 8, "sum of shard rings");
        for s in 0..4u64 {
            vs.submit_gather(
                META + s * STRIPE,
                vec![IoBuf::Owned(vec![7u8; BLOCK_SIZE])],
                WriteKind::Async,
            )
            .unwrap();
        }
        vs.fence().unwrap();
        let agg = vs.stats();
        let per: Vec<IoStats> = (0..4).map(|i| vs.shard_stats(i).unwrap()).collect();
        assert_eq!(agg.writes, per.iter().map(|s| s.writes).sum::<u64>());
        assert_eq!(
            agg.bytes_written,
            per.iter().map(|s| s.bytes_written).sum::<u64>()
        );
        assert_eq!(per.iter().filter(|s| s.writes == 1).count(), 4);
        let q = vs.queue_stats();
        assert_eq!(q.submitted, 4);
        assert_eq!(q.completed, 4);
        assert_eq!(q.fences, 4, "each shard ring fenced once");
        assert!(vs.shard_queue_stats(0).is_some());
        assert!(vs.shard_queue_stats(4).is_none());
    }

    #[test]
    fn independent_arms_overlap_segment_writes() {
        // Eight segment-sized writes round-robin across four shards (two
        // per arm, amortizing each arm's one-time positioning cost)
        // finish in roughly a quarter of the single-disk time on the
        // aggregate timeline (max over shards). This is the mechanism
        // behind the N=4 >= 3x bandwidth gate.
        let seg_bytes = STRIPE as usize * BLOCK_SIZE;
        let mut single = SimDisk::new(META + 8 * STRIPE, DiskModel::wren_iv());
        for s in 0..8u64 {
            let data = vec![9u8; seg_bytes];
            single
                .write_run_gather(META + s * STRIPE, &[&data], WriteKind::Async)
                .unwrap();
        }
        let single_elapsed = single.elapsed_ns();

        let shards = (0..4).map(|_| SimDisk::new(META + 2 * STRIPE, DiskModel::wren_iv()));
        let mut vs = VolumeSet::new(shards.collect(), META, STRIPE);
        for s in 0..8u64 {
            let data = vec![9u8; seg_bytes];
            vs.write_run_gather(META + s * STRIPE, &[&data], WriteKind::Async)
                .unwrap();
        }
        let vs_elapsed = vs.shards().iter().map(SimDisk::elapsed_ns).max().unwrap();
        assert!(
            single_elapsed as f64 / vs_elapsed as f64 >= 3.0,
            "4 arms must be >= 3x one arm: {single_elapsed} vs {vs_elapsed}"
        );
    }

    #[test]
    fn timed_contract_aggregates_over_shards() {
        let shards = (0..2).map(|_| SimDisk::new(META + 2 * STRIPE, DiskModel::wren_iv()));
        let mut vs = VolumeSet::new(shards.collect(), META, STRIPE);
        {
            let t = vs.queue_timed().expect("SimDisk shards are timed");
            assert_eq!(t.host_ns(), 0);
            t.advance_host(1_000);
            assert_eq!(t.host_ns(), 1_000);
        }
        // Both shard host clocks advanced in lockstep.
        for s in vs.shards_mut() {
            assert_eq!(s.queue_timed().unwrap().host_ns(), 1_000);
        }
        // Untimed shards expose no contract.
        let mut untimed = mem_set(2, META + 2 * STRIPE);
        assert!(untimed.queue_timed().is_none());
    }

    #[test]
    #[should_panic(expected = "same number of whole stripes")]
    fn rejects_shards_of_unequal_stripe_counts() {
        let shards = vec![
            MemDisk::new(META + 4 * STRIPE),
            MemDisk::new(META + 2 * STRIPE),
        ];
        let _ = VolumeSet::new(shards, META, STRIPE);
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn rejects_shards_smaller_than_one_stripe() {
        let _ = mem_set(2, META + STRIPE - 1);
    }

    #[test]
    fn out_of_range_requests_fail_against_the_logical_size() {
        let mut vs = mem_set(2, META + 2 * STRIPE);
        let end = vs.num_blocks();
        let buf = vec![0u8; 2 * BLOCK_SIZE];
        assert!(vs.write_blocks(end - 1, &buf, WriteKind::Async).is_err());
        assert!(vs
            .submit_gather(end - 1, vec![IoBuf::Owned(buf)], WriteKind::Async)
            .is_err());
    }
}
