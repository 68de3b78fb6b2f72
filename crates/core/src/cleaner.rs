//! The segment cleaner: mechanism (§3.3) and policies (§3.4–3.6).
//!
//! The mechanism is the paper's three-step process: "read a number of
//! segments into memory, identify the live data, and write the live data
//! back to a smaller number of clean segments." Liveness is established
//! from the segment summary: the uid (inode number + version) check
//! discards blocks of deleted or truncated files without touching the
//! inode; surviving candidates are confirmed against the actual block
//! pointers.
//!
//! This module is the mechanism, and the schedule of a cleaning run: it
//! needs the cache, the inodes and the device. The policy half reads only
//! the usage table, and lives with it in the space manager (`space.rs`):
//! victims are selected by [`crate::CleaningPolicy`] — greedy,
//! cost-benefit or adaptive — whose ranking and pacing maths live in the
//! `lfs_policy` crate, which the simulator shares. A pass hands its
//! victims back to the space manager, which alone turns them
//! `PendingFree` and, at the fence after the chunk that lists them, clean
//! (§3.3: a segment is reusable once its live data is rewritten). A
//! cleaning run writes no checkpoint. Every policy but
//! greedy also writes live blocks back grouped by age (see `flush`), so
//! cold data segregates into its own segments — the source of the bimodal
//! distribution in Figure 6.

use blockdev::{QueueDevice, BLOCK_SIZE};
use vfs::{FsError, FsResult, Ino};

use crate::fs::Lfs;
use crate::layout::DiskAddr;
use crate::meta::{Frag, IndKey};
use crate::summary::{EntryKind, Summary, SummaryEntry};
use crate::usage::space::{Progress, View};

/// A run of blocks the cleaner reads from a victim also covers a dead
/// stretch (summary blocks included) of at most this many blocks, instead
/// of ending there and starting a second request behind it. With a request
/// costing what `R` block transfers cost, bridging a gap of `g` blocks
/// pays exactly when `g <= R`; EXPERIMENTS.md ("Cleaner-read methodology")
/// measures `R` on the devices we run on and sweeps this constant.
const CLEAN_BRIDGE_BLOCKS: usize = 2;

/// One live block of a victim: found by the liveness walk, consulted by
/// the read plan, staged — and kept until the pass ends, so the pass's
/// audit can name a block that did not move without re-reading anything.
struct LiveBlock {
    seg: u32,
    /// Segment-relative block offset.
    blk: u32,
    entry: SummaryEntry,
    /// Whether the read plan fetched the block's bytes.
    read: bool,
}

/// The cleaner's working memory. It lives in the space manager so that no
/// victim and no run allocates: every buffer grows to its high-water mark
/// once and is reused by every victim after.
#[derive(Default)]
pub(crate) struct CleanScratch {
    /// One segment of read buffer; block `b` of a victim lands at
    /// `b * BLOCK_SIZE`.
    buf: Vec<u8>,
    /// `(inode block address, ino)`, sorted, for every inode the map
    /// placed in a victim when the pass began
    /// ([`Lfs::index_inode_homes`]).
    homes: Vec<(DiskAddr, Ino)>,
    /// The pass's live blocks, victim by victim in summary order.
    live: Vec<LiveBlock>,
}

impl<D: QueueDevice> Lfs<D> {
    /// Runs the cleaner if the number of clean segments has fallen below
    /// the low-water mark, continuing until the high-water mark is
    /// reached or nothing more can be cleaned.
    pub(crate) fn maybe_clean(&mut self) -> FsResult<()> {
        if self.space.cleaning || self.space.usage().clean_count() >= self.cfg.clean_low_water {
            return Ok(());
        }
        self.as_cleaner(Self::clean_until_high_water)
    }

    /// Runs `f` as the cleaner: its flushes count as relocation, and no
    /// cleaning run starts inside it.
    pub(crate) fn as_cleaner<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> FsResult<T>,
    ) -> FsResult<T> {
        let was_cleaning = std::mem::replace(&mut self.space.cleaning, true);
        let res = f(self);
        self.space.cleaning = was_cleaning;
        res
    }

    /// Forces one cleaning pass regardless of the watermarks; returns the
    /// number of segments cleaned. Useful for experiments that study the
    /// cleaner directly. Like every pass it writes no checkpoint: its
    /// victims are clean when it returns.
    pub fn clean_pass(&mut self) -> FsResult<u32> {
        self.as_cleaner(Self::pass)
    }

    /// One pass: pick victims, relocate their live data, and release them
    /// behind a fence (see [`Lfs::clean_segments`]). Returns the number of
    /// segments cleaned.
    fn pass(&mut self) -> FsResult<u32> {
        let shard_of = |seg| self.shard_of_seg(seg);
        let view = View {
            cfg: &self.cfg,
            log: &self.log,
            now: self.clock,
            overhead: self.blocks.dirty_bytes()
                + (self.imap.blocks.addrs.len() * BLOCK_SIZE) as u64,
            shard_of: &shard_of,
        };
        let cands = self.space.select_candidates(&view);
        if !cands.is_empty() {
            self.clean_segments(&cands)?;
        }
        Ok(cands.len() as u32)
    }

    /// The one cleaning schedule: pass after pass until the clean segments
    /// reach the high-water mark, or a pass finds nothing worth cleaning.
    /// Also the emergency path `flush` takes when segment allocation
    /// fails — regenerate whatever clean segments the policy can, using
    /// the cleaner's reserved pool for the relocations. A pass's victims
    /// are clean at its end, so the run writes no checkpoint to free them,
    /// and may run inside a namespace operation too: a fence, unlike a
    /// checkpoint, buries no directory-log record.
    ///
    /// The one checkpoint a run may write ends the log tail. Roll-forward
    /// reads every segment written since the last checkpoint, so none of
    /// them is a victim until the next one. When clean segments are short
    /// and the tail holds all that is left to clean, the run checkpoints,
    /// once, and goes on.
    pub(crate) fn clean_until_high_water(&mut self) -> FsResult<()> {
        let high = self.cfg.clean_high_water;
        let mut progress = Progress::new(self.space.regenerated());
        let mut tail_ended = false;
        while self.space.usage().clean_count() < high {
            if self.pass()? > 0 {
                // Guard against zero-net oscillation: when the best
                // available candidates are so full that relocating them
                // consumes as much space as it frees, stop — more free
                // space must come from future deletions, not from copying.
                if progress.stuck(self.space.regenerated()) {
                    break;
                }
                continue;
            }
            let short = self.space.usage().clean_count() < self.cfg.clean_low_water;
            if tail_ended || !short || !self.space.tail_holds_victims(&self.cfg, &self.log) {
                break;
            }
            self.checkpoint()?;
            tail_ended = true;
        }
        Ok(())
    }

    /// The cleaning mechanism: read segments, identify live blocks, stage
    /// them for rewriting, flush, and retire the sources. The last chunk
    /// of the closing flush lists the victims; the fence after it makes
    /// them clean.
    pub(crate) fn clean_segments(&mut self, segs: &[u32]) -> FsResult<()> {
        self.timed(|o| &o.clean, |fs| fs.clean_segments_inner(segs))
    }

    fn clean_segments_inner(&mut self, segs: &[u32]) -> FsResult<()> {
        self.stats.cleaner.passes += 1;
        let seg_bytes = self.cfg.seg_bytes();
        // Gathered before scavenging mutates the usage table, so the
        // trace shows the utilizations the pick policy actually saw.
        let mut empty = 0u32;
        let mut utilizations = Vec::new();
        if self.obs.obs.trace.is_on() {
            for &seg in segs {
                let u = self.space.usage().get(seg);
                if u.live_bytes == 0 {
                    empty += 1;
                } else {
                    utilizations.push(u.live_bytes as f64 / seg_bytes as f64);
                }
            }
        }
        self.emit(|| lfs_obs::TraceEvent::CleanerPass {
            segments: segs.len() as u32,
            empty,
            utilizations,
        });
        // One segment's worth of staged copy data is the per-installment
        // bound: the old code scavenged *every* candidate before flushing
        // once, so a pass over tens of segments held the write point — and
        // any foreground flush behind it — for the whole multi-segment
        // burst. Flushing whenever the staged bytes reach one segment
        // bounds the delay a background pass can impose on a foreground
        // flush to roughly one segment write. Such a flush is a
        // buffer-full one: it stops at the last segment boundary it
        // reaches, and the closing flush writes what it leaves.
        let stage_bound = (self.sb.seg_blocks.saturating_sub(1)) as u64 * BLOCK_SIZE as u64;
        self.index_inode_homes(segs);
        self.space.scratch.live.clear();
        for &seg in segs {
            let usage = *self.space.usage().get(seg);
            self.stats.cleaner.segments_cleaned += 1;
            let shard = self.shard_of_seg(seg);
            self.space.cleaned_per_shard[shard] += 1;
            if usage.live_bytes == 0 {
                // "If a segment to be cleaned has no live blocks then it
                // need not be read at all" (§3.4).
                self.stats.cleaner.segments_empty += 1;
                continue;
            }
            if self.blocks.dirty_bytes() >= stage_bound {
                self.flush_buffer()?;
            }
            let u = usage.live_bytes as f64 / seg_bytes as f64;
            self.stats.cleaner.utilization_sum += u;
            self.stats.cleaner.record_clean_utilization(u);
            self.scavenge_segment(seg)?;
        }
        // Write the remaining staged live data back to the head of the
        // log (with age-sorting if configured — see `flush`). Its last
        // chunk lists the victims, and the fence after it makes them
        // clean.
        let listed = self.flush_releasing(segs)?;
        for &seg in segs {
            self.space.release(seg, self.log.write_seq());
        }
        let fenced = self.fence_release(listed)?;
        self.space.promote(fenced);
        Ok(())
    }

    /// The error for victim `seg` of a pass, which still holds live bytes
    /// when the closing flush is to release it.
    pub(crate) fn still_live(&mut self, seg: u32) -> FsError {
        let live = self.space.usage().get(seg).live_bytes;
        let detail = self.debug_scavenge_report(seg);
        FsError::Corrupt(format!(
            "segment {seg} still has {live} live bytes after cleaning: {detail}"
        ))
    }

    /// Diagnostic for the corruption error path: what of `seg` is still
    /// live. The pass's plan is asked first — a block it staged that the
    /// flush did not move is the answer, found without touching the disk;
    /// only when the plan knows of none is the summary chain walked again
    /// (on nobody's account: the reads of a diagnostic are not cleaning
    /// cost).
    fn debug_scavenge_report(&mut self, seg: u32) -> String {
        let start = self.sb.seg_start(seg);
        for i in 0..self.space.scratch.live.len() {
            let LiveBlock {
                seg: s, blk, entry, ..
            } = self.space.scratch.live[i];
            if s == seg && matches!(self.entry_is_live(&entry, start + blk as u64), Ok(true)) {
                return format!(
                    " {:?}(ino {} off {}) at block {blk} was staged but not relocated",
                    entry.kind, entry.ino, entry.offset
                );
            }
        }
        let mut out = String::new();
        let walked = self.with_seg_buf(|fs, buf| {
            fs.walk_summaries(seg, buf, |fs, summary, first| {
                for (j, (head, frags)) in summary.blocks().enumerate() {
                    let addr = start + (first + j) as u64;
                    for entry in std::iter::once(head).chain(frags) {
                        if fs.entry_is_live(entry, addr)? {
                            out.push_str(&format!(
                                " {:?}(ino {} off {})",
                                entry.kind, entry.ino, entry.offset
                            ));
                        }
                    }
                }
                Ok(())
            })
        });
        if walked.is_err() {
            return "unreadable".into();
        }
        if out.is_empty() {
            out = " nothing verifiably live (accounting drift)".into();
        }
        out
    }

    /// Lends `f` the cleaner's segment-sized buffer.
    pub(crate) fn with_seg_buf<T>(&mut self, f: impl FnOnce(&mut Self, &mut [u8]) -> T) -> T {
        let mut buf = std::mem::take(&mut self.space.scratch.buf);
        buf.resize(self.sb.seg_blocks as usize * BLOCK_SIZE, 0);
        let out = f(self, &mut buf);
        self.space.scratch.buf = buf;
        out
    }

    /// Decodes `seg`'s summary chain, handing `visit` each summary and the
    /// segment-relative block offset of its first entry. Each summary
    /// block is read on its own into its place in `buf`; returns how many
    /// were read (the block that ends a short chain included), for the
    /// caller to account.
    pub(crate) fn walk_summaries(
        &mut self,
        seg: u32,
        buf: &mut [u8],
        mut visit: impl FnMut(&mut Self, &Summary, usize) -> FsResult<()>,
    ) -> FsResult<u64> {
        let seg_blocks = self.sb.seg_blocks as usize;
        let start = self.sb.seg_start(seg);
        let mut off = 0usize;
        let mut prev_seq = 0u64;
        let mut read = 0u64;
        while off + 1 < seg_blocks {
            let sblock = &mut buf[off * BLOCK_SIZE..(off + 1) * BLOCK_SIZE];
            self.read_retry(start + off as u64, sblock)?;
            read += 1;
            let Ok(summary) = Summary::decode(sblock) else {
                break; // End of this segment's valid chain.
            };
            // Stale summaries left over from the segment's previous life
            // have smaller sequence numbers; the live chain is strictly
            // increasing.
            let nblocks = summary.block_count();
            if summary.seq <= prev_seq || off + 1 + nblocks > seg_blocks {
                break;
            }
            prev_seq = summary.seq;
            visit(self, &summary, off + 1)?;
            off += 1 + nblocks;
        }
        Ok(read)
    }

    /// Relocates one victim in three steps, none of which reads a byte it
    /// will not use. *Liveness*: walk the summary chain (summary blocks
    /// only) and keep the entries [`Lfs::entry_is_live`] confirms from
    /// memory. *Plan*: of those, only a data block the cache does not hold
    /// and an inode block with an inode the cache does not hold need their
    /// bytes; address-adjacent ones — across chunk boundaries too — form
    /// one run, and a run also swallows a dead stretch of at most
    /// [`CLEAN_BRIDGE_BLOCKS`], so a full segment degenerates to a single
    /// first-live‥last-live request. *Stage*: every live entry, in summary
    /// order, becomes dirty cache state for the next flush to relocate.
    fn scavenge_segment(&mut self, seg: u32) -> FsResult<()> {
        self.with_seg_buf(|fs, buf| {
            let start = fs.sb.seg_start(seg);
            let first = fs.space.scratch.live.len();
            let summaries = fs.walk_summaries(seg, buf, |fs, summary, first_blk| {
                for (j, (head, frags)) in summary.blocks().enumerate() {
                    let blk = (first_blk + j) as u32;
                    // A fragment block is live while any fragment is.
                    for entry in std::iter::once(head).chain(frags) {
                        if fs.entry_is_live(entry, start + blk as u64)? {
                            fs.space.scratch.live.push(LiveBlock {
                                seg,
                                blk,
                                entry: *entry,
                                read: false,
                            });
                        }
                    }
                }
                Ok(())
            })?;
            fs.stats.cleaner.read_requests += summaries;
            fs.stats.cleaner.bytes_read += summaries * BLOCK_SIZE as u64;

            // The pending run, as segment-relative blocks `from..to`.
            let mut run: Option<(usize, usize)> = None;
            for i in first..fs.space.scratch.live.len() {
                let LiveBlock { blk, entry, .. } = fs.space.scratch.live[i];
                if !fs.needs_bytes(&entry, start + blk as u64) {
                    continue;
                }
                fs.space.scratch.live[i].read = true;
                let blk = blk as usize;
                run = Some(match run {
                    // Two fragments of one block share its read.
                    Some((from, to)) if blk < to => (from, to),
                    Some((from, to)) if blk - to <= CLEAN_BRIDGE_BLOCKS => (from, blk + 1),
                    Some((from, to)) => {
                        fs.read_victim_run(start, from, to, buf)?;
                        (blk, blk + 1)
                    }
                    None => (blk, blk + 1),
                });
            }
            if let Some((from, to)) = run {
                fs.read_victim_run(start, from, to, buf)?;
            }

            for i in first..fs.space.scratch.live.len() {
                let LiveBlock {
                    blk, entry, read, ..
                } = fs.space.scratch.live[i];
                let at = blk as usize * BLOCK_SIZE;
                let content = read.then(|| &buf[at..at + BLOCK_SIZE]);
                fs.stage(&entry, start + blk as u64, content)?;
            }
            Ok(())
        })
    }

    /// Reads blocks `from..to` of the victim starting at `start` into their
    /// place in `buf` as one request, on the cleaner's account.
    fn read_victim_run(
        &mut self,
        start: DiskAddr,
        from: usize,
        to: usize,
        buf: &mut [u8],
    ) -> FsResult<()> {
        let span = &mut buf[from * BLOCK_SIZE..to * BLOCK_SIZE];
        self.read_run_retry(start + from as u64, span)?;
        self.stats.cleaner.read_requests += 1;
        self.stats.cleaner.bytes_read += span.len() as u64;
        Ok(())
    }

    /// Indexes, with one scan of the inode map, every inode the map places
    /// in a non-empty segment of `segs`: what lets a pass decide an inode
    /// block's liveness without reading it.
    fn index_inode_homes(&mut self, segs: &[u32]) {
        let mut homes = std::mem::take(&mut self.space.scratch.homes);
        homes.clear();
        let mut victims: Vec<u32> = segs
            .iter()
            .copied()
            .filter(|&seg| self.space.usage().get(seg).live_bytes != 0)
            .collect();
        victims.sort_unstable();
        if !victims.is_empty() {
            let in_victim = |addr| {
                let seg = self.sb.seg_of(addr);
                seg.is_some_and(|seg| victims.binary_search(&seg).is_ok())
            };
            homes.extend(
                self.imap
                    .live_entries()
                    .filter(|(_, e)| in_victim(e.addr))
                    .map(|(ino, e)| (e.addr, ino)),
            );
            homes.sort_unstable();
        }
        self.space.scratch.homes = homes;
    }

    /// The stretch of the pass's index that is about the inode block at
    /// `addr`.
    fn homes_at(&self, addr: DiskAddr) -> std::ops::Range<usize> {
        let homes = &self.space.scratch.homes;
        let lo = homes.partition_point(|&(a, _)| a < addr);
        lo..lo + homes[lo..].partition_point(|&(a, _)| a == addr)
    }

    /// Whether the inode map places `ino` in the inode block at `addr`
    /// right now. Relocation only ever moves inodes *out* of victims, so
    /// the pass's index can be stale only by excess, which this filters.
    fn inode_lives_at(&self, ino: Ino, addr: DiskAddr) -> bool {
        self.imap.get(ino).is_ok_and(|e| e.addr == addr)
    }

    /// The inodes the inode map places in the inode block at `addr` — a
    /// block of one of this pass's victims.
    fn live_inodes_at(&self, addr: DiskAddr) -> impl Iterator<Item = Ino> + '_ {
        self.space.scratch.homes[self.homes_at(addr)]
            .iter()
            .map(|&(_, ino)| ino)
            .filter(move |&ino| self.inode_lives_at(ino, addr))
    }

    /// Whether staging the live block `entry` describes, at `addr`, takes
    /// its bytes from the disk: a data block only when the cache does not
    /// hold it, an inode block only when it holds an inode the cache does
    /// not. Everything else relocates from memory.
    fn needs_bytes(&self, entry: &SummaryEntry, addr: DiskAddr) -> bool {
        match entry.kind {
            EntryKind::Data | EntryKind::Fragment => {
                !self.blocks.contains((entry.ino, entry.offset as u64))
            }
            EntryKind::InodeBlock => self
                .live_inodes_at(addr)
                .any(|ino| self.meta.inode(ino).is_none()),
            _ => false,
        }
    }

    /// Whether the block `entry` summarises, written at `addr` in a victim
    /// of this pass, is still part of the file system — decided from the
    /// maps and block pointers alone (confirming a pointer may load an
    /// inode or indirect block, but never the block itself).
    fn entry_is_live(&mut self, entry: &SummaryEntry, addr: DiskAddr) -> FsResult<bool> {
        // The uid fast path: a version mismatch means the file was deleted
        // or truncated — "the block can be discarded immediately without
        // examining the file's inode" (§3.3).
        let uid_current = |fs: &Self| {
            fs.imap
                .get(entry.ino)
                .is_ok_and(|e| e.is_live() && e.version == entry.version)
        };
        let idx = entry.offset as usize;
        Ok(match entry.kind {
            EntryKind::Data => {
                uid_current(self) && self.block_ptr(entry.ino, entry.offset as u64)? == addr
            }
            EntryKind::Fragment => {
                let frag = Frag {
                    block: addr,
                    start: entry.start as usize,
                    len: entry.len as usize,
                };
                uid_current(self) && self.block_ptr(entry.ino, entry.offset as u64)? == frag.ptr()
            }
            // Live only through its fragments, which are asked one by one.
            EntryKind::FragBlock => false,
            EntryKind::Indirect1 | EntryKind::Indirect2 => {
                match IndKey::from_summary(entry.kind, entry.offset) {
                    Some(key) => uid_current(self) && self.ind_home(entry.ino, key)? == Some(addr),
                    None => false,
                }
            }
            // Live while the inode map places any inode in it.
            EntryKind::InodeBlock => self.live_inodes_at(addr).next().is_some(),
            EntryKind::ImapBlock => self.imap.blocks.addrs.get(idx) == Some(&addr),
            EntryKind::UsageBlock => self.space.usage().blocks.addrs.get(idx) == Some(&addr),
            // Directory-log records matter only between a checkpoint and
            // a crash; segments eligible for cleaning are older than the
            // last checkpoint, so these are dead.
            EntryKind::DirLog => false,
        })
    }

    /// Stages one summarised block, which `entry_is_live` has confirmed,
    /// for relocation. `content` is the block as just read from `addr`,
    /// when [`Lfs::needs_bytes`] asked for it.
    fn stage(
        &mut self,
        entry: &SummaryEntry,
        addr: DiskAddr,
        content: Option<&[u8]>,
    ) -> FsResult<()> {
        let ino = entry.ino;
        // A fragment is its own bytes of the block, zero-padded to its
        // file's block.
        let mut padded: [u8; BLOCK_SIZE];
        let content = match (entry.kind, content) {
            (EntryKind::Fragment, Some(c)) => {
                let (start, len) = (entry.start as usize, entry.len as usize);
                padded = [0; BLOCK_SIZE];
                padded[..len].copy_from_slice(&c[start..start + len]);
                Some(&padded[..])
            }
            _ => content,
        };
        // The block is confirmed live; refuse to relocate it if the media
        // rotted it (silent propagation of bad data is worse than a loud
        // failure); a fragment's sum covers its own bytes. Dead blocks
        // are never read, let alone checked — a torn chunk in a crashed
        // segment legally holds garbage behind a valid summary.
        let summed = |c: &[u8]| match entry.kind {
            EntryKind::Fragment => crate::codec::block_checksum(&c[..entry.len as usize]),
            _ => crate::codec::block_checksum(c),
        };
        if content.is_some_and(|c| summed(c) != entry.csum) {
            return Err(FsError::Corrupt(format!(
                "cleaner: live {:?} block (ino {ino} off {}) at addr {addr} \
                 failed its summary checksum (media rot?)",
                entry.kind, entry.offset
            )));
        }
        match entry.kind {
            EntryKind::Data | EntryKind::Fragment => {
                // Stage the block: dirty cache state relocates on flush.
                // Crucially, keep the block's ORIGINAL modification time
                // (from the summary entry): relocation does not make data
                // young, and the cost-benefit policy depends on that.
                let key = (ino, entry.offset as u64);
                self.blocks.relocate(key, content, entry.mtime);
            }
            EntryKind::Indirect1 | EntryKind::Indirect2 => {
                // `entry_is_live` cached it; the rule marks its parent too.
                let key = IndKey::from_summary(entry.kind, entry.offset).expect("a live entry");
                self.meta.mark_ind_dirty(ino, key);
            }
            EntryKind::InodeBlock => {
                if let Some(content) = content {
                    self.meta.adopt_inode_block(addr, content, &self.imap)?;
                }
                for i in self.homes_at(addr) {
                    let ino = self.space.scratch.homes[i].1;
                    if !self.inode_lives_at(ino, addr) {
                        continue;
                    }
                    if !self.meta.mark_inode_dirty(ino) {
                        return Err(FsError::Corrupt(format!(
                            "inode {ino}: block {addr} does not hold it"
                        )));
                    }
                }
            }
            // Never live in a victim: a live map block is either the last
            // checkpoint's, whose segment is no victim, or in the log tail.
            EntryKind::ImapBlock
            | EntryKind::UsageBlock
            | EntryKind::DirLog
            | EntryKind::FragBlock => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use blockdev::MemDisk;
    use vfs::FileSystem;

    use crate::usage::space::Progress;
    use crate::usage::SegState;
    use crate::{BlockKind, Lfs, LfsConfig};

    /// The segments `fs` holds `PendingFree`, with their seal sequences.
    fn pending(fs: &Lfs<MemDisk>) -> Vec<(u32, u64)> {
        fs.space
            .usage()
            .iter()
            .filter(|(_, u)| u.state == SegState::PendingFree)
            .map(|(seg, u)| (seg, u.seal_seq))
            .collect()
    }

    /// A pass writes no checkpoint and ends with a fence, and it leaves
    /// no victim waiting: the fence made them clean. The churn's own
    /// runs clean heavily; every 40 rounds the test runs one more pass
    /// itself. The checkpoints come from the byte interval, but for one
    /// in twenty passes at most, which ends a log tail the runs could not
    /// clean past.
    #[test]
    fn a_cleaning_pass_frees_its_victims_at_its_fence() {
        let cfg = LfsConfig::small();
        let mut fs = Lfs::format(MemDisk::new(1024), cfg).unwrap();
        for i in 0..40u32 {
            fs.write_file(&format!("/cold{i}"), &vec![i as u8; 48 * 1024])
                .unwrap();
        }
        let hot = fs.create("/hot").unwrap();
        let mut passes = 0u64;
        for round in 0..1200u32 {
            let off = (round * 7 % 16) as u64 * 32 * 1024;
            fs.write(hot, off, &vec![round as u8; 32 * 1024]).unwrap();
            assert_eq!(pending(&fs), [], "victims left pending");
            if round % 40 == 39 {
                fs.sync().unwrap();
                let checkpoints = fs.stats().checkpoints;
                if fs.clean_pass().unwrap() > 0 {
                    assert_eq!(fs.stats().checkpoints, checkpoints, "a pass checkpointed");
                    assert!(fs.log.is_durable(), "the pass ended without a fence");
                    passes += 1;
                }
            }
        }
        let c = fs.stats().cleaner;
        assert!(c.segments_cleaned >= 100, "cleaned {}", c.segments_cleaned);
        assert!(passes >= 5, "only {passes} passes ran");
        let s = fs.stats();
        let written: u64 = BlockKind::ALL.iter().map(|&k| s.log_bytes_new(k)).sum();
        let interval = written / cfg.checkpoint_every_bytes;
        // Two from format; beyond the interval's, only the few that end
        // a tail the cleaner could not clean past.
        let ended_tails = s.checkpoints - 2 - interval.min(s.checkpoints - 2);
        assert!(
            ended_tails * 20 <= c.passes,
            "{} checkpoints, {interval} from the interval, in {} passes",
            s.checkpoints,
            c.passes
        );
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:#?}", report.errors);
    }

    /// A pass that wins back one segment and log writes that open one
    /// again before the next: the count after each pass is the
    /// high-water mark, and before each one short of it. Measured against
    /// the count just before each pass, every pass would look like
    /// progress and the run would never end; measured against the best,
    /// it ends eight passes after the first.
    #[test]
    fn a_pass_and_checkpoint_cycle_that_nets_nothing_ends_the_run() {
        let high = 12;
        let mut progress = Progress::new(high - 1);
        let mut passes = 0;
        while !progress.stuck(high) {
            passes += 1;
            assert!(passes < 100, "the run never ends");
        }
        assert_eq!(passes, 8);
    }

    /// A run toward a high-water mark cleaning cannot reach, on an image
    /// whose every segment is three-quarters live, returns, and leaves
    /// nothing pending.
    #[test]
    fn a_run_toward_an_unreachable_high_water_mark_returns() {
        let mut fs = Lfs::format(MemDisk::new(1024), LfsConfig::small()).unwrap();
        let mut n = 0u32;
        while fs.space.usage().clean_count() > 14 {
            fs.write_file(&format!("/f{n}"), &[n as u8; 4096]).unwrap();
            n += 1;
        }
        for i in (0..n).filter(|i| i % 4 == 3) {
            fs.unlink(&format!("/f{i}")).unwrap();
        }
        fs.checkpoint().unwrap();
        let nsegs = fs.space.usage().iter().count() as u32;
        fs.cfg.clean_high_water = nsegs;
        fs.cfg.segs_per_clean = 1;
        fs.clean_until_high_water().unwrap();
        assert!(fs.space.usage().clean_count() < nsegs);
        assert!(pending(&fs).is_empty());
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:#?}", report.errors);
    }
}
