//! Per-inode update-temperature estimation.
//!
//! The paper's cost-benefit policy separates hot and cold data only
//! *after* the fact, by how segments age. Lomet & Luo observe that most
//! of the cleaning cost disappears if data is separated by update
//! temperature *at write time*; this module supplies the temperature
//! signal: an exponentially-decaying write counter per inode, advanced
//! on the file system's logical clock.
//!
//! The counter arithmetic and the hot/warm/cold thresholds are
//! [`lfs_policy::heat`] — integer-only Q16, shared with the simulator;
//! this module keeps the per-inode map and its checkpoint snapshot. No
//! floats, no wall clock, no randomness — the same operation sequence
//! always yields the same routing, which is what lets `streams = 1`
//! stay bit-identical and multi-stream runs stay reproducible.

use std::collections::BTreeMap;

use lfs_policy::heat::{class, decayed, ONE};
use vfs::Ino;

/// Entry-count bound; reaching it triggers a sweep of fully-decayed
/// entries so the map tracks live temperature, not history.
const SWEEP_LEN: usize = 8192;

#[derive(Clone, Copy, Debug)]
struct Heat {
    /// Q16 decayed write counter.
    q: u32,
    /// Logical-clock time of the last touch (decay anchor).
    last: u64,
}

impl Heat {
    fn decayed(self, now: u64, half_life: u64) -> u32 {
        decayed(self.q, now.saturating_sub(self.last), half_life)
    }
}

/// The per-inode heat map. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct HeatMap {
    half_life: u64,
    entries: BTreeMap<Ino, Heat>,
}

impl HeatMap {
    /// Creates a heat map whose counters halve every `half_life` logical
    /// clock ticks.
    pub fn new(half_life: u64) -> HeatMap {
        HeatMap {
            half_life: half_life.max(1),
            entries: BTreeMap::new(),
        }
    }

    /// Records one write to `ino` at logical time `now`.
    pub fn touch(&mut self, ino: Ino, now: u64) {
        if !self.entries.contains_key(&ino) && self.entries.len() >= SWEEP_LEN {
            let hl = self.half_life;
            self.entries.retain(|_, h| h.decayed(now, hl) > 0);
        }
        let e = self.entries.entry(ino).or_insert(Heat { q: 0, last: now });
        e.q = e.decayed(now, self.half_life).saturating_add(ONE);
        e.last = now;
    }

    /// Drops `ino`'s history (the file was unlinked).
    pub fn forget(&mut self, ino: Ino) {
        self.entries.remove(&ino);
    }

    /// Current decayed heat of `ino`, Q16.
    pub fn heat(&self, ino: Ino, now: u64) -> u32 {
        self.entries
            .get(&ino)
            .map_or(0, |h| h.decayed(now, self.half_life))
    }

    /// Temperature class of `ino` among `nstreams` streams: 0 is
    /// hottest, `nstreams - 1` coldest. Data never seen before is cold —
    /// the first write carries no evidence of re-writing.
    pub fn class(&self, ino: Ino, now: u64, nstreams: usize) -> usize {
        class(self.heat(ino, now), nstreams)
    }

    /// Serializes the hottest entries (decayed to `now`, zero entries
    /// dropped, at most `cap`) as `(ino, q)` pairs for the checkpoint.
    /// Heat is a hint, so truncation only costs placement quality.
    pub fn snapshot(&self, now: u64, cap: usize) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self
            .entries
            .iter()
            .map(|(&ino, h)| (ino, h.decayed(now, self.half_life)))
            .filter(|&(_, q)| q != 0)
            .collect();
        // Hottest first; ties to the lower inode for determinism.
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(cap);
        v
    }

    /// Restores a snapshot taken at logical time `then`.
    pub fn restore(&mut self, entries: &[(u32, u32)], then: u64) {
        self.entries.clear();
        for &(ino, q) in entries {
            self.entries.insert(ino as Ino, Heat { q, last: then });
        }
    }

    /// Number of tracked inodes (for tests and metrics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no inode has recorded heat.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_writes_become_hot() {
        let mut h = HeatMap::new(100);
        for t in 0..4 {
            h.touch(7, t);
        }
        assert_eq!(h.class(7, 4, 3), 0, "four quick writes must be hot");
    }

    #[test]
    fn heat_decays_to_cold() {
        let mut h = HeatMap::new(10);
        for t in 0..4 {
            h.touch(7, t);
        }
        assert_eq!(h.class(7, 4, 3), 0);
        // Five half-lives later the counter has lost 97% of its value.
        assert_eq!(h.class(7, 4 + 50, 3), 2);
    }

    #[test]
    fn unseen_inodes_are_cold() {
        let h = HeatMap::new(10);
        assert_eq!(h.class(42, 1000, 3), 2);
        assert_eq!(h.class(42, 1000, 2), 1);
        assert_eq!(h.class(42, 1000, 1), 0);
    }

    #[test]
    fn two_stream_split_merges_warm_into_cold() {
        let mut h = HeatMap::new(100);
        h.touch(1, 0); // warm: one write
        for t in 0..5 {
            h.touch(2, t);
        }
        assert_eq!(h.class(2, 5, 2), 0, "hot stays hot");
        assert_eq!(h.class(1, 5, 2), 1, "warm folds into cold");
    }

    #[test]
    fn snapshot_roundtrip_preserves_classes() {
        let mut h = HeatMap::new(100);
        for t in 0..6 {
            h.touch(3, t);
        }
        h.touch(9, 5);
        let snap = h.snapshot(6, 512);
        assert_eq!(snap[0].0, 3, "hottest first");
        let mut back = HeatMap::new(100);
        back.restore(&snap, 6);
        assert_eq!(back.class(3, 6, 3), h.class(3, 6, 3));
        assert_eq!(back.class(9, 6, 3), h.class(9, 6, 3));
    }

    #[test]
    fn snapshot_caps_and_drops_zeroes() {
        let mut h = HeatMap::new(1);
        for ino in 0..20 {
            h.touch(ino, 0);
        }
        // All heat fully decayed: nothing worth persisting.
        assert!(h.snapshot(1_000, 512).is_empty());
        for ino in 0..20 {
            h.touch(ino, 2_000);
        }
        assert_eq!(h.snapshot(2_000, 5).len(), 5);
    }

    #[test]
    fn forget_removes_history() {
        let mut h = HeatMap::new(100);
        for t in 0..5 {
            h.touch(4, t);
        }
        h.forget(4);
        assert_eq!(h.heat(4, 5), 0);
    }
}
