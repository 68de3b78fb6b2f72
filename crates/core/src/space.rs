//! The space manager: the one owner of free space.
//!
//! The usage table records each segment's live bytes and age (§3.6), and
//! only the cleaner turns a dirty segment clean again (§3.3). [`Space`]
//! owns the table and the cleaner's state for [`crate::Lfs`]. This module
//! is the table's child, so only [`Space`] reaches the table's private
//! mutators of a segment's state, seal sequence and live bytes. Each
//! life-cycle step is a named transition that checks, in debug builds,
//! where it starts:
//!
//! ```text
//! Clean ─open─▶ Active ─seal─▶ Dirty ─release─▶ PendingFree ─promote (at its fence)─▶ Clean
//! ```
//!
//! A segment is `Active` exactly while a write point is in it, full or
//! not, and is sealed when the write point moves on. A flush's plan opens
//! and seals through one [`Claim`], which [`Space::abandon`] undoes if the
//! flush fails. A cleaner pass releases its victims, and the last chunk it
//! writes lists them; the fence after that chunk yields the
//! [`Released<Fenced>`] that [`Space::promote`] requires. A segment
//! holding a map block the last checkpoint region names is never a
//! victim: mount reads that block before roll-forward. The cleaner's
//! *policy* lives here too, reading only the table and the [`View`] its
//! caller passes in: the victims a pass picks, how much it may relocate,
//! when a run stops making progress, and the reserve normal writes leave
//! it. The *mechanism* needs the cache, the inodes and the device, and
//! stays on `Lfs` in `cleaner.rs`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult};

use super::{SegState, SegUsage, UsageTable};
use crate::cleaner::CleanScratch;
use crate::config::LfsConfig;
use crate::layout::{Chunk, DiskAddr, MapBlocks, Placement, CLEANER_RESERVE_SEGS};
use crate::log::Log;
use crate::ordering::{Fenced, Released};
use crate::summary::MAX_RELEASED;

/// The usage table and the cleaner's state.
pub(crate) struct Space {
    usage: UsageTable,
    /// Segments cleaned per shard since mount. Not part of
    /// [`crate::stats::CleanerStats`] — that struct is `Copy` — but
    /// published next to it as `shard.<i>.*` metrics so an operator can
    /// spot a cleaner neglecting one disk.
    pub(crate) cleaned_per_shard: Vec<u64>,
    /// Set while the cleaner runs: its flushes count as relocation, and no
    /// cleaning run starts inside it.
    pub(crate) cleaning: bool,
    /// Set while a checkpoint writes its final metadata: those writes may
    /// use every clean segment, including the cleaner's reserve, because
    /// completing the checkpoint is what makes reserved space reusable.
    pub(crate) settling: bool,
    /// The cleaning mechanism's reusable working memory.
    pub(crate) scratch: CleanScratch,
    /// The segments holding the map blocks the last checkpoint region
    /// names, ascending: none of them is a victim.
    pinned: Vec<u32>,
}

/// The segments a flush's plan may open or seal (the write points' and
/// its chunks'), each as it was before.
#[must_use = "a flush that fails hands its claim to `Space::abandon`"]
pub(crate) struct Claim(Vec<(u32, SegUsage)>);

/// What the cleaner's policy reads besides the usage table.
pub(crate) struct View<'a> {
    pub(crate) cfg: &'a LfsConfig,
    pub(crate) log: &'a Log,
    /// The logical clock, against which segments age.
    pub(crate) now: u64,
    /// Bytes a pass writes besides the live data it picks and the usage
    /// table: the dirty cache and the inode map.
    pub(crate) overhead: u64,
    pub(crate) shard_of: &'a dyn Fn(u32) -> usize,
}

/// Non-empty cleaning candidates as a max-heap of `(score bits, segment,
/// live bytes)`; ties pop the lower segment first.
type Ranked = BinaryHeap<(u64, Reverse<u32>, u64)>;

/// A pass's victims so far, and what relocating them costs and reclaims.
struct Pick {
    segs: Vec<u32>,
    /// Live bytes the picked victims relocate.
    live: u64,
    /// Bytes the picked victims give back.
    reclaim: u64,
    /// The most live bytes the pass may relocate.
    budget: u64,
    seg_bytes: u64,
}

impl Pick {
    /// Picks `seg`, holding `live` bytes, unless that overruns the budget
    /// or the pass's release list is full.
    fn take(&mut self, seg: u32, live: u64) -> bool {
        if self.live + live > self.budget || self.segs.len() == MAX_RELEASED {
            return false;
        }
        self.live += live;
        self.reclaim += self.seg_bytes - live;
        self.segs.push(seg);
        true
    }

    /// Whether the pass reclaims meaningfully more than its own overhead;
    /// otherwise copying nearly-full segments burns bandwidth (and, near
    /// capacity, the very space it is trying to regenerate) without making
    /// progress.
    fn pays_off(&self) -> bool {
        self.reclaim > 8 * BLOCK_SIZE as u64 + self.live / 8
    }
}

/// A cleaning run's progress: the most segments it has had clean or
/// pending after a pass, and how many passes since have set no new best.
/// Passes whose own log writes eat what they regenerate are no progress:
/// a cycle of passes that nets nothing still ends the run.
pub(crate) struct Progress {
    best: u32,
    stalled: u32,
}

impl Progress {
    /// A run that starts with `regenerated` segments clean or pending.
    pub(crate) fn new(regenerated: u32) -> Progress {
        Progress {
            best: regenerated,
            stalled: 0,
        }
    }

    /// Notes the clean plus pending count after a pass; true once eight
    /// passes in a row have set no new best.
    pub(crate) fn stuck(&mut self, regenerated: u32) -> bool {
        if regenerated > self.best {
            self.best = regenerated;
            self.stalled = 0;
        } else {
            self.stalled += 1;
        }
        self.stalled >= 8
    }
}

impl Space {
    /// `nsegments` clean segments on `shards` shards.
    pub(crate) fn new(nsegments: u32, shards: usize) -> Space {
        Space {
            usage: UsageTable::new(nsegments),
            cleaned_per_shard: vec![0; shards],
            cleaning: false,
            settling: false,
            scratch: CleanScratch::default(),
            pinned: Vec::new(),
        }
    }

    pub(crate) fn usage(&self) -> &UsageTable {
        &self.usage
    }

    /// Where the table's blocks live, and which are dirty.
    pub(crate) fn blocks_mut(&mut self) -> &mut MapBlocks {
        &mut self.usage.blocks
    }

    // ----- the life cycle ----------------------------------------------

    /// Moves `seg` from one of the states `from` to `to`.
    fn shift(&mut self, seg: u32, from: &[SegState], to: SegState) {
        let state = self.usage.get(seg).state;
        debug_assert!(from.contains(&state), "segment {seg}: {state:?} to {to:?}");
        self.usage.set_state(seg, to);
    }

    /// A write point moves into `seg`, a clean segment.
    pub(crate) fn open(&mut self, seg: u32) {
        self.shift(seg, &[SegState::Clean], SegState::Active);
    }

    /// Closes `seg` to writing, as its write point moves on; `seq` is the
    /// last chunk written into it.
    pub(crate) fn seal(&mut self, seg: u32, seq: u64) {
        self.shift(seg, &[SegState::Active], SegState::Dirty);
        self.usage.set_seal_seq(seg, seq);
    }

    /// Makes the write points' clean segments `Active` at format.
    pub(crate) fn activate(&mut self, write_points: &[(u32, u32)]) {
        for &(seg, _) in write_points {
            self.open(seg);
        }
    }

    /// A flush's plan, from the log at `write_points` and `seq` to `end`,
    /// opens the clean segments its `chunks` start, and seals every
    /// segment it leaves with no cursor on it at the sequence number of
    /// the last chunk written into it. A write point on a full segment
    /// stays `Active` until its cursor moves on.
    pub(crate) fn claim(
        &mut self,
        write_points: &[(u32, u32)],
        seq: u64,
        chunks: &[Chunk],
        end: &Placement,
    ) -> Claim {
        let mut last_seq: BTreeMap<u32, u64> =
            write_points.iter().map(|&(seg, _)| (seg, seq)).collect();
        for (seq, c) in (seq + 1..).zip(chunks) {
            last_seq.insert(c.seg, seq);
        }
        // Each segment once, though several chunks may share it.
        let claim = last_seq.keys().map(|&seg| (seg, *self.usage.get(seg)));
        let claim = Claim(claim.collect());
        for c in chunks.iter().filter(|c| c.opened) {
            self.open(c.seg);
        }
        for (seg, seq) in last_seq {
            if !end.holds(seg) {
                self.seal(seg, seq);
            }
        }
        claim
    }

    /// The flush of `claim` failed before its commit, so the write points
    /// stay put and each segment gets its state and seal sequence back:
    /// the next flush's layout, and roll-forward replaying it, takes the
    /// same clean segments again.
    pub(crate) fn abandon(&mut self, claim: Claim) {
        for (seg, before) in claim.0 {
            self.shift(seg, &[SegState::Active, SegState::Dirty], before.state);
            self.usage.set_seal_seq(seg, before.seal_seq);
        }
    }

    /// A cleaned victim, its live data relocated by the log up to `seq`,
    /// waits `PendingFree` for the fence after the chunk that lists it.
    pub(crate) fn release(&mut self, seg: u32, seq: u64) {
        self.usage.set_seal_seq(seg, seq);
        self.shift(seg, &[SegState::Dirty], SegState::PendingFree);
    }

    /// Makes clean the victims a fence has covered the release of.
    pub(crate) fn promote(&mut self, released: Released<Fenced>) {
        for &seg in released.segs() {
            let state = self.usage.get(seg).state;
            debug_assert_eq!(state, SegState::PendingFree, "segment {seg}");
            self.usage.free(seg);
        }
    }

    /// Whether `seg` holds a map block the last checkpoint region names.
    fn is_pinned(&self, seg: u32) -> bool {
        self.pinned.binary_search(&seg).is_ok()
    }

    /// A checkpoint at `seq` whose map blocks live in `map_segs` is
    /// durable: it makes clean every `PendingFree` segment it covers (a
    /// pass whose fence failed left them so), and its map blocks now pin
    /// their segments.
    pub(crate) fn checkpointed(&mut self, seq: u64, map_segs: impl Iterator<Item = u32>) {
        self.usage.promote_pending(seq);
        self.pinned = map_segs.collect();
        self.pinned.sort_unstable();
        self.pinned.dedup();
    }

    /// Loads table block `idx`, read from `addr`, at mount.
    pub(crate) fn load_block(&mut self, idx: usize, buf: &[u8], addr: DiskAddr) -> FsResult<()> {
        self.usage.load_block(idx, buf, addr)
    }

    /// Ends mount's load of the table from checkpoint `seq`, whose exact
    /// live counts `live` replace the blocks' (quietly stale for their own
    /// segments), and whose map blocks live in `map_segs`. Refuses a
    /// write point in a segment that is not `Active`.
    pub(crate) fn resume(
        &mut self,
        live: &[u32],
        seq: u64,
        map_segs: impl Iterator<Item = u32>,
        write_points: &[(u32, u32)],
    ) -> FsResult<()> {
        self.usage.overlay_live(live);
        // A checkpoint that stored PendingFree followed the relocations.
        self.checkpointed(seq, map_segs);
        for &(seg, _) in write_points {
            let state = self.usage.get(seg).state;
            if state != SegState::Active {
                return Err(FsError::Corrupt(format!(
                    "checkpoint: write point in {state:?} segment {seg}"
                )));
            }
        }
        Ok(())
    }

    /// Replaces every segment's live bytes with `live`, recounted at
    /// mount; like a checkpoint's counts, they leave the blocks quietly
    /// stale.
    pub(crate) fn recount(&mut self, live: &[u32]) {
        self.usage.overlay_live(live);
    }

    // ----- live bytes --------------------------------------------------

    /// A block of `bytes` moves to segment `seg` from segment `old`
    /// (`None`: it is new to the log), bringing its modification time.
    pub(crate) fn move_live(&mut self, old: Option<u32>, seg: u32, bytes: usize, mtime: u64) {
        self.kill(old, bytes);
        self.usage.add_live(seg, bytes as u32, mtime, true);
    }

    /// Refreshes `seg`'s age with a block written into it at `mtime`,
    /// leaving its live bytes to a recount.
    pub(crate) fn touch(&mut self, seg: u32, mtime: u64) {
        self.usage.add_live(seg, 0, mtime, true);
    }

    /// A block of `bytes` in segment `seg`, if any, is dead.
    pub(crate) fn kill(&mut self, seg: Option<u32>, bytes: usize) {
        if let Some(seg) = seg {
            self.usage.sub_live(seg, bytes as u32, true);
        }
    }

    /// [`Space::move_live`] for an inode-map or usage-table block, quietly:
    /// accounting the maps' own moves loudly would dirty the table again
    /// (see `UsageTable::add_live`).
    pub(crate) fn move_map_block(&mut self, old: Option<u32>, seg: u32, mtime: u64) {
        if let Some(old) = old {
            self.usage.sub_live(old, BLOCK_SIZE as u32, false);
        }
        self.usage.add_live(seg, BLOCK_SIZE as u32, mtime, false);
    }

    // ----- the cleaner's state and policy ------------------------------

    /// Clean segments per shard that normal writes leave the cleaner,
    /// which needs somewhere to copy live data even when the log is full:
    /// without this reserve the file system can wedge with free space it
    /// cannot reach. The cleaner's own relocations and a checkpoint's
    /// settle writes may use everything (the selection budget guarantees
    /// they fit, and completing them is what regenerates free space).
    pub(crate) fn reserve(&self) -> usize {
        if self.cleaning || self.settling {
            0
        } else {
            CLEANER_RESERVE_SEGS
        }
    }

    /// Clean plus pending segments: what cleaning has regenerated, the
    /// pending ones waiting for their fence or checkpoint.
    pub(crate) fn regenerated(&self) -> u32 {
        self.usage.clean_count() + self.usage.pending_count()
    }

    /// Segments per shard of `shards` in one of `states`.
    pub(crate) fn per_shard(
        &self,
        shards: usize,
        shard_of: &dyn Fn(u32) -> usize,
        states: &[SegState],
    ) -> Vec<u32> {
        let mut count = vec![0u32; shards];
        for (seg, u) in self.usage.iter() {
            if states.contains(&u.state) {
                count[shard_of(seg)] += 1;
            }
        }
        count
    }

    /// The sealed segments off the write points with something to
    /// reclaim, but for those the last checkpoint's map blocks pin. Those
    /// sealed since the last checkpoint are the log tail, which
    /// roll-forward reads, so only the others are victims.
    fn reclaimable<'a>(
        &'a self,
        cfg: &LfsConfig,
        log: &'a Log,
    ) -> impl Iterator<Item = (u32, &'a SegUsage)> + 'a {
        let seg_bytes = cfg.seg_bytes();
        self.usage.iter().filter(move |&(seg, u)| {
            u.state == SegState::Dirty
                && (u.live_bytes as u64) < seg_bytes
                && !log.is_write_point_seg(seg)
                && !self.is_pinned(seg)
        })
    }

    /// Whether a segment of the log tail has something to reclaim: a
    /// victim once a checkpoint ends the tail.
    pub(crate) fn tail_holds_victims(&self, cfg: &LfsConfig, log: &Log) -> bool {
        let mut tail = self.reclaimable(cfg, log);
        tail.any(|(_, u)| u.seal_seq > log.checkpoint_seq())
    }

    /// Chooses segments to clean under the configured policy, bounded by
    /// `segs_per_clean` and by the free space available to absorb the
    /// live data.
    pub(crate) fn select_candidates(&self, view: &View) -> Vec<u32> {
        let (empties, mut heap, per_pass) = self.rank_victims(view);
        let mut pick = Pick {
            segs: Vec::new(),
            live: 0,
            reclaim: 0,
            budget: self.relocation_budget(view),
            seg_bytes: view.cfg.seg_bytes(),
        };
        // Empty segments first, unconditionally: they cost nothing to
        // reclaim ("need not be read at all") but, under cost-benefit
        // ranking, young empty segments can paradoxically rank below old
        // half-full ones and starve the free pool.
        for seg in empties {
            pick.take(seg, 0);
        }
        let nempties = pick.segs.len();
        // Lazy best-first pop: most passes examine only a few segments
        // beyond the `segs_per_clean` they pick (budget skips excepted).
        while pick.segs.len() - nempties < per_pass as usize {
            let Some((_, Reverse(seg), live)) = heap.pop() else {
                break;
            };
            // Over budget, the segment is skipped: an emptier one later
            // may still fit.
            pick.take(seg, live);
        }
        if view.log.shards() > 1 {
            self.top_up_starved_shards(view, &mut pick, heap);
        }
        if !pick.pays_off() {
            return Vec::new();
        }
        pick.segs
    }

    /// Ranks the cleanable segments under the configured policy: sealed
    /// dirty segments off the write points with something to reclaim.
    /// Returns the empty ones best first (capped), the rest as a max-heap,
    /// and how many non-empty segments the policy's pace asks for.
    fn rank_victims(&self, view: &View) -> (Vec<u32>, Ranked, u32) {
        let cfg = view.cfg;
        let seg_bytes = cfg.seg_bytes();
        let policy = cfg.policy;
        // Candidates as `(segment, live bytes, utilization, age)`.
        let candidates = || {
            self.reclaimable(cfg, view.log)
                .filter(|&(_, u)| u.seal_seq <= view.log.checkpoint_seq())
                .map(|(seg, u)| {
                    let age = (view.now.saturating_sub(u.last_write) + 1) as f64;
                    (seg, u.live_bytes as u64, u.utilization(seg_bytes), age)
                })
        };
        let pop = policy.population(
            candidates().map(|(_, _, util, age)| (util, age)),
            self.usage.clean_count(),
            cfg.clean_high_water,
        );
        let per_pass = policy.pace(cfg.segs_per_clean, &pop);
        // Split candidates as they stream out of the usage table: empty
        // segments go to their own (small, capped) list, the rest into a
        // max-heap popped lazily by the pick. Only the handful of segments
        // a pass actually picks pay ordering cost, instead of a full sort
        // of every dirty segment on each pass. Ties break toward the
        // lower segment id, matching what the previous stable sort (over
        // the id-ordered usage iterator) produced. Scores are never
        // negative or NaN, and such floats order exactly like their bit
        // patterns, which (unlike `f64`) a heap can key on.
        let desc = |a: &(f64, u32), b: &(f64, u32)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let mut empties: Vec<(f64, u32)> = Vec::new();
        let heap: Ranked = candidates()
            .filter_map(|(seg, live, util, age)| {
                let score = policy.rank(util, age, &pop);
                debug_assert!(score >= 0.0, "segment {seg} scored {score}");
                if live == 0 {
                    empties.push((score, seg));
                    None
                } else {
                    Some((score.to_bits(), Reverse(seg), live))
                }
            })
            .collect();
        let empty_cap = 2 * cfg.clean_high_water as usize;
        if empties.len() > empty_cap {
            // Top-k selection: only the best `empty_cap` empties matter.
            empties.select_nth_unstable_by(empty_cap - 1, desc);
            empties.truncate(empty_cap);
        }
        empties.sort_by(desc);
        let empties = empties.into_iter().map(|(_, seg)| seg).collect();
        (empties, heap, per_pass)
    }

    /// The most live data a pass may pick: no more than can be written
    /// back into the free space there is now, or the relocation itself
    /// runs out of room.
    fn relocation_budget(&self, view: &View) -> u64 {
        // The cleaner may use its reserved segments, so the full clean
        // count stands, plus what is left behind each write point. This
        // pass's victims do not count: they become clean only after the
        // fence that ends it.
        let head_room = view.log.head_room(view.cfg.seg_blocks);
        let free_budget = self.usage.clean_count() as u64 * view.cfg.seg_bytes() + head_room;
        // Picked live data is rewritten alongside whatever dirty
        // application data is waiting, plus metadata whose fixed part can
        // be substantial: a relocation touching scattered files can dirty
        // every inode-map block, and the next checkpoint settles the map
        // and usage table again. Budget half of what remains after those,
        // so a pass can never outgrow the space it runs in.
        let usage_fixed = (self.usage.blocks.addrs.len() as u64 + 8) * BLOCK_SIZE as u64;
        free_budget.saturating_sub(view.overhead + usage_fixed) / 2
    }

    /// On a multi-volume set, makes sure no shard starves: the layout can
    /// only place chunks for shard `s` in segments with `seg % n == s`, so
    /// a shard with no clean or pending segment and no pick in this pass
    /// would stall even while the aggregate clean count looks healthy.
    /// Keeps popping the heap for the best candidate on each starved shard
    /// (still subject to the live-data budget).
    fn top_up_starved_shards(&self, view: &View, pick: &mut Pick, mut heap: Ranked) {
        let n = view.log.shards();
        // Pending segments count: a fence or the next checkpoint makes
        // them clean, so a shard holding one is not starved.
        let regenerated = [SegState::Clean, SegState::PendingFree];
        let regenerated_per_shard = self.per_shard(n, view.shard_of, &regenerated);
        let mut has_pick = vec![false; n];
        for &seg in &pick.segs {
            has_pick[(view.shard_of)(seg)] = true;
        }
        let starved =
            |sh: usize, has_pick: &[bool]| regenerated_per_shard[sh] == 0 && !has_pick[sh];
        if !(0..n).any(|sh| starved(sh, &has_pick)) {
            return;
        }
        while let Some((_, Reverse(seg), live)) = heap.pop() {
            let sh = (view.shard_of)(seg);
            if !starved(sh, &has_pick) || !pick.take(seg, live) {
                continue;
            }
            has_pick[sh] = true;
            if !(0..n).any(|s| starved(s, &has_pick)) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use blockdev::{FaultDisk, FaultPlan, MemDisk, BLOCK_SIZE};
    use vfs::{FileSystem, FsError};

    use crate::usage::SegState;
    use crate::{Lfs, LfsConfig};

    /// A flush whose every write fails leaves each segment as it found
    /// it. Its plan had sealed the write point's segment, which the flush
    /// was to fill, and opened a fresh one; afterwards the write point
    /// has not moved, its segment is `Active` with its seal sequence
    /// unchanged, and no other segment is `Active`. With 256-block
    /// segments, the fresh segment takes two chunks of the plan.
    #[test]
    fn a_failed_flush_leaves_the_write_points_segments_active() {
        let small = LfsConfig::small();
        let (seg_blocks, flush_threshold_bytes) = (256, 1 << 30);
        let big = LfsConfig {
            seg_blocks,
            flush_threshold_bytes,
            ..small
        };
        for (cfg, blocks) in [(small, 12), (big, 400)] {
            failed_flush_leaves_segments_as_they_were(cfg, blocks);
        }
    }

    /// A victim is released once, when its pass's closing flush has
    /// relocated its data, with the pass's other victims: an empty one no
    /// longer goes `PendingFree` before that flush and again after it,
    /// which moved its seal sequence to the pass's end. A second release
    /// is a bug.
    #[test]
    #[should_panic(expected = "PendingFree to PendingFree")]
    fn a_victim_is_released_once() {
        let mut space = super::Space::new(4, 1);
        space.open(1);
        space.seal(1, 3);
        space.release(1, 5);
        assert_eq!(space.usage().get(1).state, SegState::PendingFree);
        space.release(1, 9);
    }

    /// A write point's full segment stays `Active` until its cursor moves
    /// on, and is sealed once, then, at the last chunk written into it.
    #[test]
    fn a_full_write_point_segment_is_sealed_once() {
        let cfg = LfsConfig::small();
        let mut fs = Lfs::format(MemDisk::new(2048), cfg).unwrap();
        // Small synced files until a flush leaves the cursor with no room.
        let full = (0..200u32).find_map(|n| {
            fs.write_file(&format!("/f{n}"), &[n as u8; 100]).unwrap();
            fs.sync().unwrap();
            let (seg, off) = fs.write_points()[0];
            (off + 1 >= cfg.seg_blocks).then_some(seg)
        });
        let full = full.expect("no flush filled a segment");
        assert_eq!(fs.space.usage().get(full).state, SegState::Active);
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:#?}", report.errors);
        let last = fs.log.write_seq();
        fs.write_file("/next", &[7u8; 3 * BLOCK_SIZE]).unwrap();
        fs.sync().unwrap();
        assert_ne!(fs.write_points()[0].0, full);
        let u = fs.space.usage().get(full);
        assert_eq!((u.state, u.seal_seq), (SegState::Dirty, last));
    }

    fn failed_flush_leaves_segments_as_they_were(cfg: LfsConfig, blocks: usize) {
        let clean = Lfs::format(MemDisk::new(8192), cfg).unwrap().into_device();
        let mut fs = Lfs::mount(FaultDisk::new(clean, FaultPlan::new(7)), cfg).unwrap();
        // More than what the mount's checkpoint left of its segment.
        fs.write_file("/a", &vec![1u8; blocks * BLOCK_SIZE])
            .unwrap();
        let (wps, clean) = (fs.write_points().to_vec(), fs.clean_segment_count());
        let before: Vec<_> = wps
            .iter()
            .map(|&(seg, _)| *fs.space.usage().get(seg))
            .collect();
        {
            let plan = fs.device_mut().plan_mut();
            plan.write_fault_rate = 1.0;
            plan.transient_failures = 100;
        }
        assert!(matches!(fs.flush(), Err(FsError::Device(_))));
        assert_eq!(fs.write_points(), wps);
        for (&(seg, _), before) in wps.iter().zip(&before) {
            let after = fs.space.usage().get(seg);
            assert_eq!(after.state, SegState::Active, "segment {seg}");
            assert_eq!(after.seal_seq, before.seal_seq, "segment {seg}");
        }
        let active = fs.space.usage().iter();
        let active: Vec<u32> = active
            .filter(|(_, u)| u.state == SegState::Active)
            .map(|(seg, _)| seg)
            .collect();
        assert_eq!(active, wps.iter().map(|&(seg, _)| seg).collect::<Vec<_>>());
        assert_eq!(fs.clean_segment_count(), clean);
    }
}
