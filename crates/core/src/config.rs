//! Run-time configuration of the file system.

use blockdev::BLOCK_SIZE;

/// Which policy the cleaner uses to select segments (Section 3.4, policy
/// question 3): the one definition the simulator measures.
pub use lfs_policy::CleaningPolicy;

/// Configuration for [`crate::Lfs`].
///
/// The defaults follow the production Sprite LFS settings reported in the
/// paper — one-megabyte segments, cleaning triggered when clean segments
/// drop below a low-water mark and continuing until a high-water mark is
/// reached — except the segment-selection policy: the defaults clean
/// greedily, without age-sort, because this cleaner reads only summaries
/// and uncached live blocks, and greedy measures cheaper than the
/// paper's cost-benefit on every workload where it cleans (EXPERIMENTS.md,
/// "File-system cleaner policy"). The figures that reproduce the paper
/// pin cost-benefit through their own configuration.
#[derive(Clone, Copy, Debug)]
pub struct LfsConfig {
    /// Segment size in blocks. The paper uses 512 KB or 1 MB segments
    /// (128 or 256 four-kilobyte blocks).
    pub seg_blocks: u32,
    /// Maximum number of inodes (sizes the inode map).
    pub max_inodes: u32,
    /// Start cleaning when the number of clean segments drops below this
    /// ("a threshold value (typically a few tens of segments)").
    pub clean_low_water: u32,
    /// Stop cleaning once this many clean segments exist
    /// ("typically 50-100 clean segments").
    pub clean_high_water: u32,
    /// How many segments the cleaner reads per pass ("a few tens of
    /// segments at a time").
    pub segs_per_clean: u32,
    /// Segment-selection policy. Every policy but
    /// [`CleaningPolicy::Greedy`] also sorts live blocks by age before
    /// rewriting them (the age-sort of Section 3.4, policy question 4):
    /// "LFS Greedy" in Figures 5 and 7 is greedy without the sort.
    pub policy: CleaningPolicy,
    /// Flush the write buffer once this many dirty bytes accumulate.
    /// Defaults to one segment's payload, and such a flush stops at the
    /// last segment boundary it reaches, leaving the rest for the next
    /// one: most flushes fill a whole segment behind one summary block,
    /// as the paper assumes (§3.1–3.3).
    pub flush_threshold_bytes: u64,
    /// Write a checkpoint automatically after this many bytes of new log
    /// data (0 disables; checkpoints then happen only on an explicit
    /// [`crate::Lfs::checkpoint`], and when a cleaning run short of clean
    /// segments finds victims only among the segments written since the
    /// last one; `sync` appends to the log and leaves the rest to
    /// roll-forward). The cleaner's own writes do not count.
    /// This is the paper's suggested alternative to the fixed 30-second
    /// interval: "perform checkpoints after a given amount of new data
    /// has been written" (§4.1).
    pub checkpoint_every_bytes: u64,
    /// Maximum bytes of clean blocks cached in memory (the "file cache").
    pub cache_limit_bytes: u64,
}

impl LfsConfig {
    /// Production-like defaults: 1 MB segments, greedy cleaning.
    pub fn default_config() -> LfsConfig {
        LfsConfig {
            seg_blocks: 256,
            max_inodes: 65_536,
            clean_low_water: 16,
            clean_high_water: 40,
            segs_per_clean: 16,
            policy: CleaningPolicy::Greedy,
            flush_threshold_bytes: 255 * BLOCK_SIZE as u64,
            checkpoint_every_bytes: 8 << 20,
            cache_limit_bytes: 64 << 20,
        }
    }

    /// A small configuration for unit tests and doctests: 64 KB segments
    /// and a few thousand inodes, so that interesting cleaning behaviour
    /// happens on disks of a few megabytes. It cleans with the paper's
    /// cost-benefit policy, which the goldens pin; [`LfsConfig::greedy`]
    /// gives the shipped policy at this size.
    pub fn small() -> LfsConfig {
        LfsConfig {
            seg_blocks: 16,
            max_inodes: 2048,
            clean_low_water: 6,
            clean_high_water: 12,
            segs_per_clean: 4,
            policy: CleaningPolicy::CostBenefit,
            flush_threshold_bytes: 15 * BLOCK_SIZE as u64,
            checkpoint_every_bytes: 1 << 20,
            cache_limit_bytes: 8 << 20,
        }
    }

    /// The paper's alternative segment size: 512 KB.
    pub fn with_half_megabyte_segments(mut self) -> LfsConfig {
        self.seg_blocks = 128;
        self.flush_threshold_bytes = 127 * BLOCK_SIZE as u64;
        self
    }

    /// Switches the cleaner to the greedy policy without age-sort — the
    /// "LFS Greedy" configuration of Figures 5 and 7.
    pub fn greedy(mut self) -> LfsConfig {
        self.policy = CleaningPolicy::Greedy;
        self
    }

    /// Switches the cleaner to the adaptive policy.
    pub fn adaptive(mut self) -> LfsConfig {
        self.policy = CleaningPolicy::Adaptive;
        self
    }

    /// Segment payload capacity in bytes (excluding nothing — summaries are
    /// carved out of the same blocks as they are written).
    pub fn seg_bytes(&self) -> u64 {
        self.seg_blocks as u64 * BLOCK_SIZE as u64
    }
}

impl Default for LfsConfig {
    fn default() -> Self {
        LfsConfig::default_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_segment_size() {
        assert_eq!(LfsConfig::default().seg_bytes(), 1 << 20);
    }

    #[test]
    fn default_is_greedy() {
        assert_eq!(LfsConfig::default().policy, CleaningPolicy::Greedy);
        assert_eq!(LfsConfig::small().policy, CleaningPolicy::CostBenefit);
    }

    #[test]
    fn half_megabyte_variant() {
        let c = LfsConfig::default().with_half_megabyte_segments();
        assert_eq!(c.seg_bytes(), 512 << 10);
    }

    #[test]
    fn watermarks_are_sane() {
        let c = LfsConfig::default();
        assert!(c.clean_low_water < c.clean_high_water);
        assert!(c.segs_per_clean > 0);
    }
}
