//! How many partial writes, and so summary blocks, the log pays for its
//! data, counted at fixed work. Sprite LFS writes the log a segment at a
//! time where it can, and each partial write carries a summary block of
//! its own (§3.1–3.3). A buffer-full flush therefore writes through the
//! last chunk that fills a segment and leaves the rest dirty for the next
//! flush (`crates/core/src/flush.rs`), instead of spilling a few blocks
//! into the next segment behind a summary of their own.

use blockdev::MemDisk;
use lfs_core::{BlockKind, FlushScope, Lfs, LfsConfig, ScopeStats};
use vfs::FileSystem;
use workload::{KvChurn, KvRun};

/// `cleaner_policy.rs`'s half-size `kv_clean`: 128 segments of 128 KB on
/// 16 MB, a flush threshold of one segment's payload, 896 keys (about
/// 56 % utilization) and a 4 MB cache, under the shipped policy.
fn kv_clean_geometry() -> LfsConfig {
    LfsConfig {
        seg_blocks: 32,
        flush_threshold_bytes: 31 * 4096,
        max_inodes: 4096,
        clean_low_water: 4,
        clean_high_water: 10,
        segs_per_clean: 4,
        cache_limit_bytes: 4 << 20,
        ..LfsConfig::default()
    }
}

/// What the log paid over the measured part of the churn.
struct Window {
    partial_writes: u64,
    flushes: u64,
    /// The buffer-full flushes alone ([`FlushScope::Threshold`]).
    threshold: ScopeStats,
    /// Summary bytes, the cleaner's included, per application byte.
    summary_per_user_byte: f64,
}

/// `cleaner_policy.rs`'s churn: 2 000 Zipfian overwrites of ageing, then
/// 4 000 measured ones, with a `sync` every 64, at seed 12.
fn kv_churn() -> Window {
    let mut fs = Lfs::format(MemDisk::new(16 * 256), kv_clean_geometry()).unwrap();
    let churn = KvChurn {
        keys: 896,
        theta: 0.9,
        mean_value: 8192,
        sync_every: 64,
    };
    let mut run = KvRun::setup(&mut fs, churn, 12).unwrap();
    for _ in 0..2_000 {
        run.step(&mut fs).unwrap();
    }
    fs.sync().unwrap();
    let before = *fs.stats();
    for _ in 0..4_000 {
        run.step(&mut fs).unwrap();
    }
    fs.sync().unwrap();
    assert!(run.verify_all(&mut fs).unwrap().is_empty());
    let after = fs.stats();
    assert!(
        after.cleaner.passes > before.cleaner.passes,
        "the churn never cleaned"
    );
    let summary = after.log_bytes(BlockKind::Summary) - before.log_bytes(BlockKind::Summary);
    let user = after.app_bytes_written - before.app_bytes_written;
    let scope = |s: &lfs_core::LfsStats| s.scope(FlushScope::Threshold);
    for kind in FlushScope::ALL {
        let (a, b) = (after.scope(kind), before.scope(kind));
        println!(
            "{:>10}: {} flushes, {} partial writes",
            kind.slug(),
            a.flushes - b.flushes,
            a.partial_writes - b.partial_writes
        );
    }
    Window {
        partial_writes: after.partial_writes - before.partial_writes,
        flushes: after.flushes - before.flushes,
        threshold: ScopeStats {
            flushes: scope(after).flushes - scope(&before).flushes,
            partial_writes: scope(after).partial_writes - scope(&before).partial_writes,
        },
        summary_per_user_byte: summary as f64 / user as f64,
    }
}

/// Measured at seed 12. When a buffer-full flush still wrote everything
/// it gathered (parent `6f5be22`), the window made 1 085 partial writes,
/// 1.97 per flush, and wrote 0.1359 summary bytes per user byte. With
/// the stop at the segment boundary: 744 partial writes in 614 flushes
/// (1.21 per flush) and 0.0932 summary bytes per user byte (−31.4 %).
/// The write path's buffer-full flushes are one partial write each; most
/// of the rest is a cleaner pass's closing flush, 1.69 partial writes on
/// average, which writes everything before the fence that frees its
/// victims. The full-size `kv_clean` replay (1792 keys on 32 MB, 60 000
/// measured overwrites) cleans in 8-segment passes and gives 1.09 per
/// flush and −38.8 %.
///
/// Counted per kind of flush (format v4, with fragments), the window's
/// 412 buffer-full flushes make 416 partial writes, 1.01 each: the bound
/// of 1.2 below is on them alone. The rest are 63 syncs (85 partial
/// writes), 111 closing flushes (180) and 4 checkpoint flushes (7); 688
/// partial writes in 590 flushes, 1.17 per flush, in all.
#[test]
fn a_buffer_full_flush_stops_at_the_segment_boundary() {
    let w = kv_churn();
    let t = w.threshold;
    let per_threshold_flush = t.partial_writes as f64 / t.flushes as f64;
    assert!(
        per_threshold_flush <= 1.2,
        "{} partial writes in {} buffer-full flushes: {per_threshold_flush:.3} per flush",
        t.partial_writes,
        t.flushes
    );
    let per_flush = w.partial_writes as f64 / w.flushes as f64;
    assert!(
        per_flush <= 1.25,
        "{} partial writes in {} flushes: {per_flush:.3} per flush",
        w.partial_writes,
        w.flushes
    );
    let parent = 0.1359;
    assert!(
        w.summary_per_user_byte <= 0.70 * parent,
        "summary bytes per user byte {:.4}, the parent's {parent}",
        w.summary_per_user_byte
    );
}
