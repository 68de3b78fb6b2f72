//! Run-time statistics: log-bandwidth accounting per block type (Table 4),
//! cleaning statistics and write cost (Table 2), and operation counters.

/// The kind of a block written to the log — the row labels of Table 4.
/// The discriminant is its row, its index in [`BlockKind::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// File data blocks.
    Data = 0,
    /// Single- and double-indirect blocks.
    Indirect = 1,
    /// Blocks of packed inodes.
    Inode = 2,
    /// Inode-map blocks.
    Imap = 3,
    /// Segment-usage-table blocks.
    Usage = 4,
    /// Segment summary blocks.
    Summary = 5,
    /// Directory-operation-log blocks.
    DirLog = 6,
}

impl BlockKind {
    /// All kinds, in Table 4 row order.
    pub const ALL: [BlockKind; 7] = [
        BlockKind::Data,
        BlockKind::Indirect,
        BlockKind::Inode,
        BlockKind::Imap,
        BlockKind::Usage,
        BlockKind::Summary,
        BlockKind::DirLog,
    ];

    /// Human-readable row label.
    pub fn label(self) -> &'static str {
        match self {
            BlockKind::Data => "Data blocks",
            BlockKind::Indirect => "Indirect blocks",
            BlockKind::Inode => "Inode blocks",
            BlockKind::Imap => "Inode map",
            BlockKind::Usage => "Seg usage map",
            BlockKind::Summary => "Summary blocks",
            BlockKind::DirLog => "Dir op log",
        }
    }
}

/// The kinds of flush, by what they write and who asks: the rows of
/// [`LfsStats::by_scope`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushScope {
    /// A buffer-full flush: the write path's, and a cleaner pass's
    /// between two victims. It stops at the last segment boundary it
    /// reaches.
    Threshold = 0,
    /// A `sync`'s.
    Sync = 1,
    /// An explicit flush, which writes everything.
    All = 2,
    /// A cleaner pass's closing flush, whose last chunk lists the victims.
    Closing = 3,
    /// The flushes of a checkpoint, its settle loop's included.
    Checkpoint = 4,
}

impl FlushScope {
    /// All scopes, in row order.
    pub const ALL: [FlushScope; 5] = [
        FlushScope::Threshold,
        FlushScope::Sync,
        FlushScope::All,
        FlushScope::Closing,
        FlushScope::Checkpoint,
    ];

    /// Stable metric-name slug (`lfs.flushes.<slug>`).
    pub fn slug(self) -> &'static str {
        match self {
            FlushScope::Threshold => "threshold",
            FlushScope::Sync => "sync",
            FlushScope::All => "all",
            FlushScope::Closing => "closing",
            FlushScope::Checkpoint => "checkpoint",
        }
    }
}

/// What the flushes of one [`FlushScope`] wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Flushes that wrote to the log.
    pub flushes: u64,
    /// Their partial writes.
    pub partial_writes: u64,
}

/// Statistics of the segment cleaner (the inputs to Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct CleanerStats {
    /// Segments cleaned in total.
    pub segments_cleaned: u64,
    /// Of those, segments that were entirely empty (reused without any
    /// copying — and, per formula (1), without even being read).
    pub segments_empty: u64,
    /// Sum of the utilizations of the *non-empty* cleaned segments (for
    /// the "Avg" column of Table 2).
    pub utilization_sum: f64,
    /// Bytes read from disk by the cleaner: the summary blocks of every
    /// non-empty victim, and the runs of live blocks it had to fetch.
    pub bytes_read: u64,
    /// Device read requests behind `bytes_read` (one per summary block,
    /// one per run).
    pub read_requests: u64,
    /// Live bytes written back by the cleaner.
    pub bytes_written: u64,
    /// Number of cleaning passes.
    pub passes: u64,
    /// Histogram of the utilizations at which non-empty segments were
    /// cleaned, in ten deciles (`[0,0.1)`, `[0.1,0.2)`, …, `[0.9,1.0]`).
    /// The adaptive policy's pacing reads the same shape; `lfstop`
    /// renders it as the utilization-at-clean panel.
    pub util_deciles: [u64; 10],
}

impl CleanerStats {
    /// Fraction of cleaned segments that were empty.
    pub fn empty_fraction(&self) -> f64 {
        if self.segments_cleaned == 0 {
            return 0.0;
        }
        self.segments_empty as f64 / self.segments_cleaned as f64
    }

    /// Records one non-empty segment cleaned at utilization `u` into the
    /// decile histogram.
    pub fn record_clean_utilization(&mut self, u: f64) {
        let decile = ((u * 10.0) as usize).min(9);
        self.util_deciles[decile] += 1;
    }

    /// Mean utilization of the non-empty segments cleaned (`u` in
    /// Table 2).
    pub fn avg_nonempty_utilization(&self) -> f64 {
        let nonempty = self.segments_cleaned - self.segments_empty;
        if nonempty == 0 {
            return 0.0;
        }
        self.utilization_sum / nonempty as f64
    }
}

/// Aggregate statistics for one [`crate::Lfs`] instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct LfsStats {
    /// Bytes appended to the log, per block kind, by normal operation
    /// (not by the cleaner).
    log_bytes: [u64; 7],
    /// Bytes appended to the log by the cleaner, per block kind.
    cleaner_log_bytes: [u64; 7],
    /// Cleaner statistics.
    pub cleaner: CleanerStats,
    /// Checkpoints performed.
    pub checkpoints: u64,
    /// `sync` calls satisfied by group commit: nothing was dirty and the
    /// last fence already covered every partial write, so the call
    /// amortized into the log append already on disk and issued no
    /// device request.
    pub group_commits: u64,
    /// Partial writes performed: one summary block and the blocks it
    /// describes, written as one device request.
    pub partial_writes: u64,
    /// Flushes that wrote to the log, each one or more partial writes.
    pub flushes: u64,
    /// Flushes and partial writes per kind of flush, indexed by
    /// [`FlushScope`]; they sum to `flushes` and `partial_writes`.
    pub by_scope: [ScopeStats; 5],
    /// Bytes of data blocks the log was given that hold no file byte:
    /// past end of file in a whole block, and in a fragment block, every
    /// byte that is not a fragment's file bytes (the alignment of each
    /// fragment and the room no fragment took). Directory blocks are full
    /// to their size, so this is the regular files' rounding.
    pub padding_bytes: u64,
    /// Fragments written: regular files' partial last blocks, each
    /// written as a fragment of a fragment block (see DESIGN.md §7.3).
    pub fragments: u64,
    /// Fragment blocks written.
    pub fragment_blocks: u64,
    /// Bytes of new file data accepted from applications.
    pub app_bytes_written: u64,
    /// Host-side bytes memcpy'd into write buffers while serializing
    /// partial writes. Only synthesized blocks (summaries, inode groups,
    /// map encodes) are rendered; data and directory-log blocks go to the
    /// device by reference, so this counter staying below the user bytes
    /// written is the direct check that the write path is zero-copy.
    pub flush_copy_bytes: u64,
    /// Transient device errors absorbed by retrying.
    pub io_retries: u64,
    /// Device operations abandoned after the retry budget was exhausted.
    /// Any non-zero value means the file system is running degraded: an
    /// error was surfaced to the caller instead of silently absorbed.
    pub io_giveups: u64,
}

impl LfsStats {
    /// True when at least one device operation exhausted its retry budget
    /// (the degraded-mode signal of the fault-injection experiments).
    pub fn degraded(&self) -> bool {
        self.io_giveups > 0
    }

    /// Books a flush of `scope` that wrote `partial_writes` partial writes.
    pub(crate) fn count_flush(&mut self, scope: FlushScope, partial_writes: u64) {
        self.flushes += 1;
        let row = &mut self.by_scope[scope as usize];
        row.flushes += 1;
        row.partial_writes += partial_writes;
    }

    /// The flushes and partial writes of `scope`.
    pub fn scope(&self, scope: FlushScope) -> ScopeStats {
        self.by_scope[scope as usize]
    }

    /// Records `bytes` of kind `kind` appended to the log.
    pub fn add_log_bytes(&mut self, kind: BlockKind, bytes: u64, by_cleaner: bool) {
        if by_cleaner {
            self.cleaner_log_bytes[kind as usize] += bytes;
        } else {
            self.log_bytes[kind as usize] += bytes;
        }
    }

    /// Bytes of `kind` written to the log (including cleaner rewrites).
    pub fn log_bytes(&self, kind: BlockKind) -> u64 {
        self.log_bytes[kind as usize] + self.cleaner_log_bytes[kind as usize]
    }

    /// Bytes of `kind` appended by normal operation only.
    pub fn log_bytes_new(&self, kind: BlockKind) -> u64 {
        self.log_bytes[kind as usize]
    }

    /// Bytes of `kind` appended by the cleaner only.
    pub fn log_bytes_cleaner(&self, kind: BlockKind) -> u64 {
        self.cleaner_log_bytes[kind as usize]
    }

    /// Total bytes appended to the log.
    pub fn total_log_bytes(&self) -> u64 {
        BlockKind::ALL.iter().map(|&k| self.log_bytes(k)).sum()
    }

    /// Share of log bandwidth consumed by `kind` — the "Log bandwidth"
    /// column of Table 4.
    pub fn log_bandwidth_share(&self, kind: BlockKind) -> f64 {
        let total = self.total_log_bytes();
        if total == 0 {
            return 0.0;
        }
        self.log_bytes(kind) as f64 / total as f64
    }

    /// Bytes appended to the log by normal operation (the "new data" of
    /// the write-cost formula).
    pub fn new_log_bytes(&self) -> u64 {
        self.log_bytes.iter().sum()
    }

    /// Bytes moved by the cleaner (its log appends).
    pub fn cleaner_written_bytes(&self) -> u64 {
        self.cleaner_log_bytes.iter().sum()
    }

    /// The long-term write cost: total bytes moved to and from the disk
    /// per byte of new data written (§3.4's formula generalised to
    /// measured traffic, as used for Table 2):
    ///
    /// `(new + cleaner reads + cleaner writes) / new`.
    pub fn write_cost(&self) -> f64 {
        self.write_cost_reading(self.cleaner.bytes_read)
    }

    /// [`LfsStats::write_cost`] had the cleaner read `cleaner_read` bytes
    /// — every non-empty victim whole, say, which is how the paper's
    /// formula (1) accounts it and what Table 2 reports next to the
    /// measured cost.
    pub fn write_cost_reading(&self, cleaner_read: u64) -> f64 {
        let new = self.new_log_bytes();
        if new == 0 {
            return 1.0;
        }
        (new + cleaner_read + self.cleaner_written_bytes()) as f64 / new as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_block_kind_is_its_index() {
        for (i, &kind) in BlockKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn bandwidth_share_sums_to_one() {
        let mut s = LfsStats::default();
        s.add_log_bytes(BlockKind::Data, 800, false);
        s.add_log_bytes(BlockKind::Inode, 100, false);
        s.add_log_bytes(BlockKind::Summary, 100, true);
        let total: f64 = BlockKind::ALL
            .iter()
            .map(|&k| s.log_bandwidth_share(k))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.log_bandwidth_share(BlockKind::Data) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn write_cost_of_clean_run_is_one() {
        let mut s = LfsStats::default();
        s.add_log_bytes(BlockKind::Data, 1000, false);
        assert!((s.write_cost() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_cost_counts_cleaner_traffic() {
        let mut s = LfsStats::default();
        s.add_log_bytes(BlockKind::Data, 1000, false);
        s.cleaner.bytes_read = 500;
        s.add_log_bytes(BlockKind::Data, 250, true);
        // (1000 + 500 + 250) / 1000.
        assert!((s.write_cost() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn cleaner_stats_fractions() {
        let c = CleanerStats {
            segments_cleaned: 10,
            segments_empty: 6,
            utilization_sum: 0.8,
            ..CleanerStats::default()
        };
        assert!((c.empty_fraction() - 0.6).abs() < 1e-12);
        assert!((c.avg_nonempty_utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LfsStats::default();
        assert_eq!(s.write_cost(), 1.0);
        assert_eq!(s.log_bandwidth_share(BlockKind::Data), 0.0);
        assert_eq!(CleanerStats::default().empty_fraction(), 0.0);
        assert_eq!(CleanerStats::default().avg_nonempty_utilization(), 0.0);
    }

    #[test]
    fn labels_cover_all_kinds() {
        for k in BlockKind::ALL {
            assert!(!k.label().is_empty());
        }
    }
}
