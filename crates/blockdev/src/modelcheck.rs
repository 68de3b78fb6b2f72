//! Bounded model checking over a [`CrashDisk`] journal: enumerate every
//! reachable post-crash image instead of sampling seeded cut points.
//!
//! The torture harness (PR 2) samples crash states: for each seed it
//! picks a handful of block-granular cut points and, at each, *one*
//! seed-chosen torn subset of the request straddling the cut. That finds
//! bugs eventually; it proves nothing. [`ModelCheck`] inverts the
//! approach for short traces: it walks the journal and yields
//!
//! 1. **every** block-granular cut point (the full
//!    [`CrashDisk::num_block_cuts`] range, including every whole-request
//!    boundary),
//! 2. at each intra-request cut, the torn-write block subsets of the
//!    straddling request — **all** `C(n, k)` of them when that count fits
//!    the budget, a seeded sample (drawn from exactly the
//!    [`CrashDisk::torn_image_after`] distribution) with an explicit
//!    `subsets_skipped` count when it does not, and
//! 3. the in-flight reorderings permitted by
//!    [`crate::QueueDevice::fence`] semantics: within a fence epoch a
//!    bounded tail window of whole requests may persist as *any* subset,
//!    not just a prefix — exactly the freedom a volatile submission ring
//!    plus a reordering drive has between barriers.
//!
//! States are deduplicated by image hash before they reach the caller,
//! and every state carries a [`CrashSpec`] — a self-contained recipe that
//! re-materialises the same image via [`CrashSpec::materialize`], so a
//! failing state minimizes and replays without re-running the search.
//!
//! The exhaustive part is the point: for a canonical short trace the full
//! cut enumeration is thousands of states, and an invariant asserted on
//! all of them is a proof over the modelled crash behaviours, not a
//! statistical argument.

use std::collections::HashSet;
use std::fmt;

use crate::crash::{torn_subset, CrashDisk};
use crate::device::WriteKind;
use crate::error::{BlockError, Result};
use crate::mem::MemDisk;
use crate::BLOCK_SIZE;

/// Budgets bounding the non-exhaustive dimensions of the search.
///
/// The block-granular cut sweep is always exhaustive; the budgets govern
/// how many torn subsets are enumerated per intra-request cut and how
/// wide the per-fence-epoch reorder window is.
#[derive(Clone, Copy, Debug)]
pub struct ModelCheckBudget {
    /// Enumerate all `C(n, k)` torn subsets of a straddled request when
    /// the count is at most this; otherwise fall back to seeded samples.
    pub max_subsets_per_cut: u64,
    /// Number of seeded subset samples taken at a cut whose exhaustive
    /// subset count exceeds `max_subsets_per_cut`.
    pub sampled_subsets_per_cut: u64,
    /// Within each fence epoch, the last `reorder_window` whole requests
    /// may persist as any subset (2^w states per epoch boundary). Writes
    /// earlier in the epoch are treated as applied in order, which the
    /// prefix-cut sweep already covers.
    pub reorder_window: u32,
    /// Treat [`WriteKind::Sync`] writes as ordering barriers in addition
    /// to explicit fences: the application blocked on them, so no later
    /// write was in flight concurrently.
    pub sync_barrier: bool,
    /// Stop after visiting this many states (0 = unlimited). The
    /// returned stats mark the run as truncated.
    pub max_states: u64,
}

impl Default for ModelCheckBudget {
    fn default() -> Self {
        ModelCheckBudget {
            max_subsets_per_cut: 64,
            sampled_subsets_per_cut: 8,
            reorder_window: 6,
            sync_barrier: true,
            max_states: 0,
        }
    }
}

/// A reachable crash state, as a recipe over a [`CrashDisk`] journal:
/// which writes persisted whole, and (at most) one write that persisted a
/// partial block subset. Everything else was lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Journal indices of writes that persisted completely, ascending.
    pub persisted: Vec<u32>,
    /// A torn write: `(journal index, surviving block indices)`. The
    /// index is never in `persisted`.
    pub torn: Option<(u32, Vec<u32>)>,
}

impl CrashSpec {
    /// The crash state that persisted nothing past the baseline.
    pub fn nothing() -> CrashSpec {
        CrashSpec {
            persisted: Vec::new(),
            torn: None,
        }
    }

    /// The crash state that persisted the first `n` writes whole.
    pub fn prefix(n: usize) -> CrashSpec {
        CrashSpec {
            persisted: (0..n as u32).collect(),
            torn: None,
        }
    }

    /// Re-materialises this crash state from the journal it was
    /// enumerated over. Journal writes are applied in journal order
    /// (later writes overwrite earlier ones on overlap, as on the
    /// device), restricted to the persisted set.
    ///
    /// Returns [`BlockError::InvalidCut`] if any index is out of range.
    pub fn materialize(&self, disk: &CrashDisk) -> Result<MemDisk> {
        let journal = disk.journal();
        let bad = |i: usize| BlockError::InvalidCut {
            cut: i,
            max: journal.len(),
        };
        let mut image = disk.initial_image().to_vec();
        let mut persisted = self.persisted.iter().peekable();
        for (i, w) in journal.iter().enumerate() {
            if persisted.peek() == Some(&&(i as u32)) {
                persisted.next();
                let off = w.start as usize * BLOCK_SIZE;
                image[off..off + w.data.len()].copy_from_slice(&w.data);
            } else if let Some((t, blocks)) = &self.torn {
                if *t == i as u32 {
                    let nblocks = w.data.len() / BLOCK_SIZE;
                    for &b in blocks {
                        let b = b as usize;
                        if b >= nblocks {
                            return Err(bad(b));
                        }
                        let src = b * BLOCK_SIZE;
                        let dst = (w.start as usize + b) * BLOCK_SIZE;
                        image[dst..dst + BLOCK_SIZE]
                            .copy_from_slice(&w.data[src..src + BLOCK_SIZE]);
                    }
                }
            }
        }
        if let Some(&&i) = persisted.peek() {
            return Err(bad(i as usize));
        }
        if let Some((t, _)) = &self.torn {
            if *t as usize >= journal.len() {
                return Err(bad(*t as usize));
            }
        }
        Ok(MemDisk::from_image(image))
    }

    /// Drops one element from the spec (for greedy repro minimization):
    /// shrink step `0..persisted.len()` removes that persisted write,
    /// step `persisted.len()..persisted.len() + torn_blocks` removes one
    /// surviving block of the torn write. Returns `None` past the end.
    pub fn shrink(&self, step: usize) -> Option<CrashSpec> {
        if step < self.persisted.len() {
            let mut s = self.clone();
            s.persisted.remove(step);
            return Some(s);
        }
        let t = step - self.persisted.len();
        if let Some((i, blocks)) = &self.torn {
            if t < blocks.len() {
                let mut blocks = blocks.clone();
                blocks.remove(t);
                return Some(CrashSpec {
                    persisted: self.persisted.clone(),
                    torn: if blocks.is_empty() {
                        None
                    } else {
                        Some((*i, blocks))
                    },
                });
            }
        }
        None
    }

    /// Total shrink steps available from this spec.
    pub fn shrink_steps(&self) -> usize {
        self.persisted.len() + self.torn.as_ref().map_or(0, |(_, b)| b.len())
    }
}

impl fmt::Display for CrashSpec {
    /// Compact repro form: persisted indices as ranges, then the torn
    /// write, e.g. `persist=[0-12,15] torn=13[0,2,5]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "persist=[")?;
        let mut i = 0;
        let mut first = true;
        while i < self.persisted.len() {
            let lo = self.persisted[i];
            let mut hi = lo;
            while i + 1 < self.persisted.len() && self.persisted[i + 1] == hi + 1 {
                i += 1;
                hi = self.persisted[i];
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}-{hi}")?;
            }
            i += 1;
        }
        write!(f, "]")?;
        if let Some((t, blocks)) = &self.torn {
            write!(f, " torn={t}[")?;
            for (j, b) in blocks.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{b}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// How a state was generated, for the caller's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    /// A block-granular prefix cut landing on a whole-request boundary.
    Cut,
    /// A torn-subset refinement of an intra-request cut.
    TornSubset,
    /// A fence-epoch reordering: a non-prefix subset of in-flight writes.
    Reorder,
}

/// Counters describing one exploration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Whole-request-boundary cut states generated (always exhaustive:
    /// `num_writes + 1` of them).
    pub cut_states: u64,
    /// Torn-subset states generated at intra-request cuts.
    pub subset_states: u64,
    /// Fence-epoch reordering states generated.
    pub reorder_states: u64,
    /// Torn subsets that exist but were not enumerated because their
    /// count at some cut exceeded the budget (minus the seeded samples
    /// taken in their place).
    pub subsets_skipped: u64,
    /// States whose image duplicated an earlier state's (not delivered).
    pub duplicates: u64,
    /// Unique images delivered to the visitor.
    pub unique: u64,
    /// `true` if `max_states` stopped the run or the visitor bailed out.
    pub truncated: bool,
}

impl ExploreStats {
    /// Total states generated, unique or not.
    pub fn visited(&self) -> u64 {
        self.cut_states + self.subset_states + self.reorder_states
    }

    /// Fraction of generated states that were duplicates of an earlier
    /// image. `None` before any state was generated.
    pub fn dedup_rate(&self) -> Option<f64> {
        let v = self.visited();
        if v == 0 {
            return None;
        }
        Some(self.duplicates as f64 / v as f64)
    }
}

/// `C(n, k)` saturating at `u64::MAX`.
fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n.saturating_sub(k));
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// FNV-1a over the image, for dedup.
fn image_hash(image: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in image.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in image.chunks_exact(8).remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Exhaustive-within-budget crash-state enumerator over a recorded
/// [`CrashDisk`] journal. See the module docs for the state space.
///
/// # Examples
///
/// ```
/// use blockdev::{BlockDevice, CrashDisk, ModelCheck, ModelCheckBudget, WriteKind, BLOCK_SIZE};
///
/// let mut d = CrashDisk::new(8);
/// d.write_blocks(0, &vec![1; 3 * BLOCK_SIZE], WriteKind::Async).unwrap();
/// d.write_block(5, &[2; BLOCK_SIZE], WriteKind::Async).unwrap();
///
/// let mut states = 0;
/// let stats = ModelCheck::new(&d, ModelCheckBudget::default())
///     .explore(|_image, _spec| {
///         states += 1;
///         true // keep going
///     })
///     .unwrap();
/// assert_eq!(states, stats.unique);
/// assert!(!stats.truncated);
/// // Every block-granular cut appears, plus torn refinements.
/// assert!(stats.unique as usize > d.num_block_cuts());
/// ```
pub struct ModelCheck<'a> {
    disk: &'a CrashDisk,
    budget: ModelCheckBudget,
}

impl<'a> ModelCheck<'a> {
    /// A checker over `disk`'s journal with the given budgets.
    pub fn new(disk: &'a CrashDisk, budget: ModelCheckBudget) -> ModelCheck<'a> {
        ModelCheck { disk, budget }
    }

    /// Barrier positions (write indices) in ascending order, including
    /// the implicit barriers at 0 and at the end of the journal.
    fn barriers(&self) -> Vec<usize> {
        let n = self.disk.journal().len();
        let mut b = vec![0usize];
        b.extend_from_slice(self.disk.fence_points());
        if self.budget.sync_barrier {
            for (i, w) in self.disk.journal().iter().enumerate() {
                if w.kind == WriteKind::Sync {
                    // The application blocked on write `i`: nothing later
                    // was in flight with it, and it was issued only after
                    // everything earlier completed.
                    b.push(i);
                    b.push(i + 1);
                }
            }
        }
        b.push(n);
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Enumerates the reachable crash states, invoking `visit` on each
    /// *unique* image (duplicates are hashed away). `visit` returns
    /// `false` to stop the search early (the stats are then marked
    /// truncated).
    ///
    /// States arrive in deterministic order: fence-epoch reorderings,
    /// then prefix cuts (with their torn refinements) by journal
    /// position.
    pub fn explore<F>(&self, mut visit: F) -> Result<ExploreStats>
    where
        F: FnMut(MemDisk, &CrashSpec) -> bool,
    {
        let mut stats = ExploreStats::default();
        let mut seen: HashSet<u64> = HashSet::new();
        let journal = self.disk.journal();

        // Deliver one state; returns false when the search must stop.
        let mut emit =
            |image: Vec<u8>, spec: &CrashSpec, kind: StateKind, stats: &mut ExploreStats| -> bool {
                match kind {
                    StateKind::Cut => stats.cut_states += 1,
                    StateKind::TornSubset => stats.subset_states += 1,
                    StateKind::Reorder => stats.reorder_states += 1,
                }
                if !seen.insert(image_hash(&image)) {
                    stats.duplicates += 1;
                } else {
                    stats.unique += 1;
                    if !visit(MemDisk::from_image(image), spec) {
                        stats.truncated = true;
                        return false;
                    }
                }
                if self.budget.max_states > 0 && stats.visited() >= self.budget.max_states {
                    stats.truncated = true;
                    return false;
                }
                true
            };

        // Fence-epoch reorderings first, so a walk `max_states` cuts
        // short still reaches them: they are few, and a missing fence
        // shows only there. Within [lo, hi) no barrier intervenes, so a
        // crash may persist any subset of the epoch's in-flight tail —
        // not just a prefix. Bounded to the last
        // `reorder_window` writes of the epoch; the subset also ranges
        // over *every* crash point inside the epoch because smaller
        // subsets are themselves valid earlier states.
        let barriers = self.barriers();
        let mut image_at = self.disk.initial_image().to_vec();
        let mut applied = 0usize;
        for win in barriers.windows(2) {
            let (lo, hi) = (win[0], win[1]);
            let w = (hi - lo).min(self.budget.reorder_window as usize);
            let tail = hi - w;
            // Advance the shared image to `tail`.
            for wr in &journal[applied..tail] {
                let off = wr.start as usize * BLOCK_SIZE;
                image_at[off..off + wr.data.len()].copy_from_slice(&wr.data);
            }
            applied = applied.max(tail);
            if w < 2 {
                continue; // subsets of <2 writes are all prefix cuts
            }
            for mask in 1u64..(1u64 << w) - 1 {
                if mask.count_ones() == mask.trailing_ones() {
                    continue; // contiguous prefix: a prefix cut
                }
                let mut image = image_at.clone();
                let mut persisted: Vec<u32> = (0..tail as u32).collect();
                for b in 0..w {
                    if mask & (1 << b) != 0 {
                        let wr = &journal[tail + b];
                        let off = wr.start as usize * BLOCK_SIZE;
                        image[off..off + wr.data.len()].copy_from_slice(&wr.data);
                        persisted.push((tail + b) as u32);
                    }
                }
                let spec = CrashSpec {
                    persisted,
                    torn: None,
                };
                if !emit(image, &spec, StateKind::Reorder, &mut stats) {
                    return Ok(stats);
                }
            }
        }
        // Then every block-granular prefix cut, with torn-subset
        // refinements inside each request. `prefix` holds all writes
        // before the current position, applied whole.
        let mut prefix = self.disk.initial_image().to_vec();
        if !emit(
            prefix.clone(),
            &CrashSpec::nothing(),
            StateKind::Cut,
            &mut stats,
        ) {
            return Ok(stats);
        }
        for (i, w) in journal.iter().enumerate() {
            let nblocks = w.data.len() / BLOCK_SIZE;
            // Intra-request cuts: k of the request's blocks survived.
            for k in 1..nblocks {
                let total = binomial(nblocks as u64, k as u64);
                let exhaustive = total <= self.budget.max_subsets_per_cut;
                let subsets: Vec<Vec<usize>> = if exhaustive {
                    combinations(nblocks, k)
                } else {
                    stats.subsets_skipped +=
                        total.saturating_sub(self.budget.sampled_subsets_per_cut);
                    (0..self.budget.sampled_subsets_per_cut)
                        .map(|seed| {
                            let mut s = torn_subset(w.start, nblocks, k, seed);
                            s.sort_unstable();
                            s
                        })
                        .collect()
                };
                for subset in subsets {
                    let mut image = prefix.clone();
                    for &b in &subset {
                        let src = b * BLOCK_SIZE;
                        let dst = (w.start as usize + b) * BLOCK_SIZE;
                        image[dst..dst + BLOCK_SIZE]
                            .copy_from_slice(&w.data[src..src + BLOCK_SIZE]);
                    }
                    let spec = CrashSpec {
                        persisted: (0..i as u32).collect(),
                        torn: Some((i as u32, subset.iter().map(|&b| b as u32).collect())),
                    };
                    if !emit(image, &spec, StateKind::TornSubset, &mut stats) {
                        return Ok(stats);
                    }
                }
            }
            // The cut at this request's end boundary: it persisted whole.
            let off = w.start as usize * BLOCK_SIZE;
            prefix[off..off + w.data.len()].copy_from_slice(&w.data);
            if !emit(
                prefix.clone(),
                &CrashSpec::prefix(i + 1),
                StateKind::Cut,
                &mut stats,
            ) {
                return Ok(stats);
            }
        }

        Ok(stats)
    }
}

/// All `C(n, k)` sorted index subsets, lexicographic.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..k).collect();
    loop {
        out.push(cur.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] != i + n - k {
                break;
            }
        }
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDevice;
    use crate::queue::{QueueDevice, QueuedDev};

    fn blk(v: u8) -> [u8; BLOCK_SIZE] {
        [v; BLOCK_SIZE]
    }

    #[test]
    fn combinations_enumerate_all_subsets() {
        let c = combinations(4, 2);
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], vec![0, 1]);
        assert_eq!(c[5], vec![2, 3]);
        let uniq: HashSet<Vec<usize>> = c.into_iter().collect();
        assert_eq!(uniq.len(), 6);
        assert_eq!(combinations(5, 5), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn binomial_matches_pascal_and_saturates() {
        assert_eq!(binomial(16, 8), 12870);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(4, 4), 1);
        assert_eq!(binomial(200, 100), u64::MAX);
    }

    /// Distinct single-block writes: states are exactly the prefixes.
    #[test]
    fn single_block_writes_enumerate_prefixes_only() {
        let mut d = CrashDisk::new(8);
        for i in 0..4u8 {
            d.write_block(i as u64, &blk(i + 1), WriteKind::Async)
                .unwrap();
        }
        let mut n = 0;
        let stats = ModelCheck::new(&d, ModelCheckBudget::default())
            .explore(|_, _| {
                n += 1;
                true
            })
            .unwrap();
        // 5 prefix cuts; reorder phase adds non-prefix subsets of the
        // 4-write epoch (2^4 - 2 interior masks, minus the prefix masks
        // it skips, minus hash-dups: none here since blocks differ).
        assert_eq!(stats.cut_states, 5);
        assert_eq!(stats.subset_states, 0);
        assert!(stats.reorder_states > 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(n, stats.unique);
    }

    /// The exhaustive subset sweep covers every torn state
    /// `torn_image_after` could ever produce for any seed.
    #[test]
    fn exhaustive_subsets_cover_every_seeded_torn_state() {
        let mut d = CrashDisk::new(16);
        let big: Vec<u8> = (0..5 * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE) as u8 + 1)
            .collect();
        d.write_blocks(3, &big, WriteKind::Async).unwrap();

        let mut images: HashSet<Vec<u8>> = HashSet::new();
        ModelCheck::new(&d, ModelCheckBudget::default())
            .explore(|img, _| {
                images.insert(img.image().to_vec());
                true
            })
            .unwrap();
        for cut in 0..=d.num_block_cuts() {
            for seed in 0..50 {
                let img = d.torn_image_after(cut, seed, false).unwrap();
                assert!(
                    images.contains(img.image()),
                    "cut {cut} seed {seed} produced a state the checker missed"
                );
            }
        }
    }

    #[test]
    fn specs_rematerialize_their_images() {
        let mut d = CrashDisk::new(16);
        d.write_blocks(0, &vec![1; 3 * BLOCK_SIZE], WriteKind::Async)
            .unwrap();
        d.write_block(7, &blk(2), WriteKind::Sync).unwrap();
        d.write_blocks(2, &vec![3; 2 * BLOCK_SIZE], WriteKind::Async)
            .unwrap();
        let mut pairs: Vec<(Vec<u8>, CrashSpec)> = Vec::new();
        ModelCheck::new(&d, ModelCheckBudget::default())
            .explore(|img, spec| {
                pairs.push((img.image().to_vec(), spec.clone()));
                true
            })
            .unwrap();
        assert!(pairs.len() > 10);
        for (image, spec) in pairs {
            let again = spec.materialize(&d).unwrap();
            assert_eq!(again.image(), &image[..], "spec {spec} diverged");
        }
    }

    #[test]
    fn budget_caps_subsets_and_counts_skips() {
        let mut d = CrashDisk::new(64);
        // One 16-block write: C(16, 8) = 12870 >> any small budget.
        d.write_blocks(0, &vec![9; 16 * BLOCK_SIZE], WriteKind::Async)
            .unwrap();
        let budget = ModelCheckBudget {
            max_subsets_per_cut: 16,
            sampled_subsets_per_cut: 4,
            ..ModelCheckBudget::default()
        };
        let stats = ModelCheck::new(&d, budget).explore(|_, _| true).unwrap();
        assert!(stats.subsets_skipped > 0, "wide cuts must record skips");
        // Every cut still appears: sampling bounds subsets, not cuts.
        assert_eq!(stats.cut_states, 2);
        assert!(stats.subset_states >= 15); // ≥1 per interior cut
    }

    #[test]
    fn max_states_truncates() {
        let mut d = CrashDisk::new(32);
        d.write_blocks(0, &vec![1; 8 * BLOCK_SIZE], WriteKind::Async)
            .unwrap();
        let budget = ModelCheckBudget {
            max_states: 5,
            ..ModelCheckBudget::default()
        };
        let stats = ModelCheck::new(&d, budget).explore(|_, _| true).unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.visited(), 5);
    }

    /// A walk `max_states` cuts short still reaches the reorderings.
    #[test]
    fn a_capped_walk_reaches_the_reorderings() {
        let mut d = CrashDisk::new(32);
        for b in 0..4 {
            let data = vec![b as u8 + 1; 4 * BLOCK_SIZE];
            d.write_blocks(b * 4, &data, WriteKind::Async).unwrap();
        }
        let budget = ModelCheckBudget {
            max_states: 3,
            ..ModelCheckBudget::default()
        };
        let stats = ModelCheck::new(&d, budget).explore(|_, _| true).unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.reorder_states, 3);
    }

    #[test]
    fn visitor_bailout_truncates() {
        let mut d = CrashDisk::new(8);
        d.write_block(0, &blk(1), WriteKind::Async).unwrap();
        d.write_block(1, &blk(2), WriteKind::Async).unwrap();
        let mut n = 0;
        let stats = ModelCheck::new(&d, ModelCheckBudget::default())
            .explore(|_, _| {
                n += 1;
                n < 2
            })
            .unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.unique, 2);
    }

    /// A fence between two writes removes the reordering in which the
    /// second persists without the first.
    #[test]
    fn fence_constrains_reorderings() {
        let free = {
            let mut d = CrashDisk::new(8);
            d.write_block(0, &blk(1), WriteKind::Async).unwrap();
            d.write_block(1, &blk(2), WriteKind::Async).unwrap();
            d
        };
        let fenced = {
            let mut d = CrashDisk::new(8);
            d.write_block(0, &blk(1), WriteKind::Async).unwrap();
            d.fence().unwrap();
            d.write_block(1, &blk(2), WriteKind::Async).unwrap();
            d
        };
        let count_b_without_a = |d: &CrashDisk| {
            let mut hits = 0;
            ModelCheck::new(d, ModelCheckBudget::default())
                .explore(|img, _| {
                    let a = img.image()[0] != 0;
                    let b = img.image()[BLOCK_SIZE] != 0;
                    if b && !a {
                        hits += 1;
                    }
                    true
                })
                .unwrap();
            hits
        };
        assert_eq!(count_b_without_a(&free), 1);
        assert_eq!(
            count_b_without_a(&fenced),
            0,
            "fence must forbid b-without-a"
        );
    }

    /// Sync writes act as barriers by default, and the flag disables it.
    #[test]
    fn sync_writes_are_barriers_unless_disabled() {
        let mut d = CrashDisk::new(8);
        d.write_block(0, &blk(1), WriteKind::Sync).unwrap();
        d.write_block(1, &blk(2), WriteKind::Async).unwrap();
        let count_b_without_a = |sync_barrier: bool| {
            let mut hits = 0;
            let budget = ModelCheckBudget {
                sync_barrier,
                ..ModelCheckBudget::default()
            };
            ModelCheck::new(&d, budget)
                .explore(|img, _| {
                    if img.image()[BLOCK_SIZE] != 0 && img.image()[0] == 0 {
                        hits += 1;
                    }
                    true
                })
                .unwrap();
            hits
        };
        assert_eq!(count_b_without_a(true), 0);
        assert_eq!(count_b_without_a(false), 1);
    }

    /// The ring's fence journals a barrier on the wrapped CrashDisk, and
    /// submissions parked at crash time simply never reach the journal.
    #[test]
    fn queued_fences_journal_barriers() {
        let mut q = QueuedDev::new(CrashDisk::new(8), 4);
        q.submit_gather(
            0,
            vec![crate::IoBuf::Owned(blk(1).to_vec())],
            WriteKind::Async,
        )
        .unwrap();
        q.fence().unwrap();
        q.submit_gather(
            1,
            vec![crate::IoBuf::Owned(blk(2).to_vec())],
            WriteKind::Async,
        )
        .unwrap();
        // The second submission is still parked: not in the journal.
        assert_eq!(q.inner().num_writes(), 1);
        assert_eq!(q.inner().fence_points(), &[1]);
        q.fence().unwrap();
        assert_eq!(q.inner().num_writes(), 2);
        assert_eq!(q.inner().fence_points(), &[1, 2]);
    }

    #[test]
    fn shrink_removes_one_element_per_step() {
        let spec = CrashSpec {
            persisted: vec![0, 2],
            torn: Some((3, vec![1, 4])),
        };
        assert_eq!(spec.shrink_steps(), 4);
        assert_eq!(spec.shrink(0).unwrap().persisted, vec![2]);
        assert_eq!(spec.shrink(2).unwrap().torn, Some((3, vec![4])));
        let s = spec.shrink(3).unwrap();
        assert_eq!(s.torn, Some((3, vec![1])));
        assert!(spec.shrink(4).is_none());
        // Shrinking the last torn block drops the tear entirely.
        let one = CrashSpec {
            persisted: vec![],
            torn: Some((0, vec![2])),
        };
        assert_eq!(one.shrink(0).unwrap().torn, None);
    }

    #[test]
    fn display_compacts_ranges() {
        let spec = CrashSpec {
            persisted: vec![0, 1, 2, 3, 7, 9, 10],
            torn: Some((11, vec![0, 5])),
        };
        assert_eq!(spec.to_string(), "persist=[0-3,7,9-10] torn=11[0,5]");
        assert_eq!(CrashSpec::nothing().to_string(), "persist=[]");
    }
}
