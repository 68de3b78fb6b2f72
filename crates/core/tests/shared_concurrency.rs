//! Tests for the concurrent front-end (`SharedLfs`).
//!
//! Five contracts:
//!
//! 1. **Single-client equivalence** — a single client driving `SharedLfs`
//!    produces a byte-identical disk image to the same trace on a plain
//!    `Lfs`. The concurrent front-end is a pure wrapper: lock-free reads,
//!    deferred atimes, and the settled-sync fast path must not change a
//!    single on-disk byte when there is no concurrency.
//! 2. **Stats consistency** — `stats()` snapshots taken while other
//!    threads write, flush, and checkpoint are never torn: cumulative
//!    counters never go backwards between successive snapshots.
//! 3. **Eviction vs lock-free reads** — reads copy out of the one block
//!    cache while the lane evicts from it under constant pressure; the
//!    running dirty/clean counters must never diverge from the cache's
//!    true state (`assert_running_counts`), and a trace replays with the
//!    same device and read-side counts.
//! 4. **Per-block atomicity** — a reader racing a writer sees any block
//!    either entirely-old or entirely-new, never a torn mix.
//! 5. **One cache** — what a write leaves in the cache serves another
//!    handle's read without the lane or the device.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use blockdev::{BlockDevice, MemDisk};
use lfs_core::{BlockKind, Lfs, LfsConfig, SharedLfs};
use proptest::prelude::*;
use vfs::model::assert_same_tree;
use vfs::{FileSystem, Ino, Names, Op, Outcome};

const DISK_BLOCKS: u64 = 4096; // 16 MB

const NFILES: u8 = 3;

/// One generated step: file-system calls on the files `/f0`…, whose
/// inode names are their numbers, or `None` for a cache drop.
type Step = Option<Vec<(Op, Outcome)>>;

fn path(file: u8) -> String {
    format!("/f{file}")
}

fn call(op: Op) -> Step {
    Some(vec![(op, Outcome::Unit)])
}

fn op_strategy() -> impl Strategy<Value = Step> {
    let read = || {
        (0..NFILES, 0u32..220_000, 1u16..16_384)
            .prop_map(|(file, offset, len)| call(Op::Read(file as Ino, offset as u64, len as u32)))
    };
    prop_oneof![
        (0..NFILES, 0u32..200_000, 1u16..12_288, any::<u8>()).prop_map(
            |(file, offset, len, fill)| call(Op::Write(
                file as Ino,
                offset as u64,
                vec![fill; len as usize]
            ))
        ),
        (0..NFILES, 0u32..200_000)
            .prop_map(|(file, size)| call(Op::Truncate(file as Ino, size as u64))),
        read(),
        read(),
        // Unlink + recreate: forces inode reuse, the stale-size hazard
        // `create` republishes the inode's word for.
        (0..NFILES).prop_map(|file| Some(vec![
            (Op::Unlink(path(file)), Outcome::Unit),
            (Op::Create(path(file)), Outcome::Ino(file as Ino)),
        ])),
        Just(call(Op::Sync)),
        Just(None),
    ]
}

/// Creates the files every step addresses, binding their names.
fn setup() -> Step {
    Some(
        (0..NFILES)
            .map(|file| (Op::Create(path(file)), Outcome::Ino(file as Ino)))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The acceptance-criterion property: depth-1, single-client traces
    /// leave bit-identical disk images with and without the concurrent
    /// front-end, after returning the same outcome — read bytes and
    /// allocated inodes included — for every call.
    #[test]
    fn single_client_shared_matches_plain_bit_for_bit(
        ops in proptest::collection::vec(op_strategy(), 1..50),
    ) {
        let cfg = LfsConfig::small();
        let mut plain = Lfs::format(MemDisk::new(DISK_BLOCKS), cfg).expect("format");
        let mut shared =
            SharedLfs::format(MemDisk::new(DISK_BLOCKS), cfg).expect("format");
        let (mut plain_names, mut shared_names) = (Names::default(), Names::default());

        for step in std::iter::once(&setup()).chain(&ops) {
            let Some(calls) = step else {
                plain.drop_caches();
                shared.drop_caches();
                continue;
            };
            for (op, recorded) in calls {
                let out_p = plain_names.apply(&mut plain, op, recorded).expect("plain");
                let out_s = shared_names.apply(&mut shared, op, recorded).expect("shared");
                prop_assert_eq!(out_p, out_s, "outcomes diverged on {:?}", op);
            }
        }
        assert_same_tree(&mut plain, &mut shared);

        plain.sync().expect("final sync");
        shared.sync_all().expect("final sync");
        let plain_dev = plain.into_device();
        let shared_dev = shared
            .into_inner()
            .unwrap_or_else(|_| panic!("outstanding SharedLfs handles"))
            .into_device();
        prop_assert_eq!(plain_dev.image(), shared_dev.image());
    }

    /// Lock-free reads through a second handle, interleaved with the
    /// lane's writes under a pathologically small cache limit, copy out of
    /// the same cache the next operation evicts from; the running
    /// dirty/clean eviction counters must stay exactly consistent
    /// (`assert_running_counts` recounts from scratch).
    #[test]
    fn eviction_under_interleaved_lockfree_reads_keeps_counts_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut cfg = LfsConfig::small();
        cfg.cache_limit_bytes = 16 * 4096; // constant eviction pressure
        let mut shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), cfg).expect("format");
        let mut names = Names::default();
        // A second handle reads back every write, lock-free when the
        // blocks are still resident.
        let mut reader = shared.clone();

        for step in std::iter::once(&setup()).chain(&ops) {
            let Some(calls) = step else {
                shared.drop_caches();
                continue;
            };
            for (op, recorded) in calls {
                names.apply(&mut shared, op, recorded).expect("apply");
                if let Op::Write(file, offset, _) = op {
                    // Read right after the write, while the tiny cache
                    // limit forces evictions on the next op.
                    let read = Op::Read(*file, *offset, 4096);
                    names.apply(&mut reader, &read, &Outcome::Unit).expect("read back");
                }
            }
            shared.with_fs(|fs| fs.assert_running_counts());
        }
        shared.with_fs(|fs| fs.assert_running_counts());
        shared.sync_all().expect("final sync");
    }
}

/// Satellite: `stats()` and `shared_stats()` snapshots racing writes and
/// checkpoints are never torn — every cumulative counter is monotonic
/// across successive snapshots, and derived totals stay self-consistent.
#[test]
fn stats_snapshots_are_monotonic_under_concurrent_flushes() {
    let shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), LfsConfig::small()).expect("format");
    let mut w = shared.clone();
    let ino = w.create("/hammer").expect("create");
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Writer: keeps the flush/checkpoint machinery busy.
        let stop_w = stop.clone();
        let writer = s.spawn(move || {
            let data = vec![0xABu8; 3 * 4096];
            let mut i = 0u64;
            while !stop_w.load(Ordering::Relaxed) {
                w.write(ino, (i % 8) * 4096, &data).expect("write");
                if i.is_multiple_of(7) {
                    w.sync().expect("sync");
                }
                i += 1;
            }
            w.sync().expect("final sync");
        });

        // Snapshot hammers: cumulative counters must never go backwards.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let h = shared.clone();
                let stop_r = stop.clone();
                s.spawn(move || {
                    let mut last = h.stats();
                    let mut last_shared = h.shared_stats();
                    let mut snaps = 0u64;
                    while !stop_r.load(Ordering::Relaxed) {
                        let now = h.stats();
                        assert!(
                            now.checkpoints >= last.checkpoints,
                            "checkpoints went backwards"
                        );
                        assert!(
                            now.partial_writes >= last.partial_writes,
                            "partial_writes went backwards"
                        );
                        assert!(
                            now.group_commits >= last.group_commits,
                            "group_commits went backwards"
                        );
                        assert!(
                            now.app_bytes_written >= last.app_bytes_written,
                            "app_bytes_written went backwards"
                        );
                        assert!(
                            now.total_log_bytes() >= last.total_log_bytes(),
                            "total_log_bytes went backwards"
                        );
                        assert!(
                            now.cleaner.passes >= last.cleaner.passes,
                            "cleaner passes went backwards"
                        );
                        let ns = h.shared_stats();
                        assert!(ns.reads >= last_shared.reads);
                        assert!(ns.read_bytes >= last_shared.read_bytes);
                        assert!(ns.lockfree_reads >= last_shared.lockfree_reads);
                        assert!(
                            ns.lockfree_reads <= ns.reads,
                            "more lock-free reads than reads"
                        );
                        last = now;
                        last_shared = ns;
                        snaps += 1;
                    }
                    snaps
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer panicked");
        for r in readers {
            let snaps = r.join().expect("stats reader panicked");
            assert!(snaps > 10, "stats hammer barely ran ({snaps} snapshots)");
        }
    });

    // The writer synced at the end; the final snapshot must reflect it.
    let end = shared.stats();
    assert!(end.checkpoints > 0);
    assert!(end.app_bytes_written > 0);
}

/// A reader racing a same-block writer sees every block either
/// entirely-old or entirely-new — the lane overwrites a cached block only
/// under its shard's write lock and the lock-free path copies it out only
/// under the read lock, so a torn block is impossible by construction.
/// This test makes the construction observable: any mixed-fill buffer
/// fails.
#[test]
fn racing_reads_never_observe_torn_blocks() {
    let shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), LfsConfig::small()).expect("format");
    let mut w = shared.clone();
    let ino = w.create("/torn").expect("create");
    w.write(ino, 0, &[0u8; 4096]).expect("seed write");
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let stop_w = stop.clone();
        let writer = s.spawn(move || {
            let mut v = 1u8;
            while !stop_w.load(Ordering::Relaxed) {
                w.write(ino, 0, &vec![v; 4096]).expect("write");
                v = v.wrapping_add(1);
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let mut h = shared.clone();
                let stop_r = stop.clone();
                s.spawn(move || {
                    let mut buf = vec![0u8; 4096];
                    let mut reads = 0u64;
                    while !stop_r.load(Ordering::Relaxed) {
                        let n = h.read(ino, 0, &mut buf).expect("read");
                        assert_eq!(n, 4096);
                        let first = buf[0];
                        assert!(
                            buf.iter().all(|&b| b == first),
                            "torn block: starts with {first}, contains {:?}",
                            buf.iter().find(|&&b| b != first)
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer panicked");
        for r in readers {
            assert!(r.join().expect("reader panicked") > 10);
        }
    });
    shared.with_fs(|fs| fs.assert_running_counts());
}

/// Concurrent `sync` from many clients batches through group commit: once
/// a sync has fenced the log (`durable_seq == write_seq`) and nothing is
/// dirty, every further call returns via the lock-free handoff — no
/// lane, no device write, no fence, no checkpoint.
#[test]
fn concurrent_syncs_batch_through_group_commit() {
    let shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), LfsConfig::small()).expect("format");
    let mut w = shared.clone();
    let ino = w.create("/gc").expect("create");
    w.write(ino, 0, &[7u8; 4096]).expect("write");
    w.sync().expect("sync");
    let base = shared.stats();
    let base_shared = shared.shared_stats();
    let base_writes = shared.with_fs(|fs| fs.device().stats().writes);

    const SYNCS_PER_THREAD: u64 = 200;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut h = shared.clone();
                s.spawn(move || {
                    for _ in 0..SYNCS_PER_THREAD {
                        h.sync().expect("sync");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sync thread panicked");
        }
    });

    let stats = shared.stats();
    let sstats = shared.shared_stats();
    let total = 4 * SYNCS_PER_THREAD;
    assert_eq!(
        sstats.sync_handoffs - base_shared.sync_handoffs,
        total,
        "every idle sync must hand off without the lane"
    );
    assert_eq!(stats.group_commits, base.group_commits);
    assert_eq!(stats.checkpoints, base.checkpoints);
    assert_eq!(
        shared.with_fs(|fs| fs.device().stats().writes),
        base_writes,
        "idle syncs wrote to the device"
    );
}

/// A `sync` that leaves a directory already on disk to the directory log
/// still settles: concurrent `sync_all` calls after it hand off without
/// the lane, and the directory's block reaches the log with the next
/// checkpoint.
#[test]
fn syncs_hand_off_while_a_directory_waits_for_the_checkpoint() {
    let shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), LfsConfig::small()).expect("format");
    let mut w = shared.clone();
    w.mkdir("/d").expect("mkdir");
    shared.checkpoint().expect("checkpoint");
    let data = || shared.stats().log_bytes_new(BlockKind::Data);
    let before = data();
    let ino = w.create("/d/f").expect("create");
    w.write(ino, 0, &[7u8; 4096]).expect("write");
    w.sync().expect("sync");
    assert_eq!(data() - before, 4096, "the sync wrote the directory block");
    let handoffs = shared.shared_stats().sync_handoffs;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let h = shared.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    h.sync_all().expect("sync");
                }
            });
        }
    });
    assert_eq!(shared.shared_stats().sync_handoffs - handoffs, 200);
    shared.checkpoint().expect("checkpoint");
    assert_eq!(
        data() - before,
        2 * 4096,
        "the checkpoint wrote no directory block"
    );
}

/// A write through one handle leaves its blocks in the one cache and its
/// size in the inode's word, so reading it back through another handle
/// takes neither the writer lane nor the device.
#[test]
fn a_read_after_another_handles_write_is_lock_free() {
    let shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), LfsConfig::small()).expect("format");
    let (mut w, mut r) = (shared.clone(), shared.clone());
    let ino = w.create("/f").expect("create");
    w.write(ino, 0, &[5u8; 3 * 4096]).expect("write");
    let before = r.shared_stats();
    let device_reads = r.with_fs(|fs| fs.device().stats().reads);

    let mut buf = vec![0u8; 3 * 4096];
    assert_eq!(r.read(ino, 0, &mut buf).expect("read"), buf.len());
    assert!(buf.iter().all(|&b| b == 5), "wrong bytes");
    assert_eq!(
        r.shared_stats().lockfree_reads - before.lockfree_reads,
        1,
        "the read took the writer lane"
    );
    assert_eq!(
        r.with_fs(|fs| fs.device().stats().reads),
        device_reads,
        "the read reached the device"
    );
}

/// One single-threaded trace — writes through one handle, reads of three
/// files twice the cache's size through another — run twice on a 16-block
/// cache costs the device the same and counts the same reads both times:
/// what is resident follows the lane's LRU order alone, never a hash
/// map's iteration order.
#[test]
fn a_trace_through_a_tiny_cache_replays_identically() {
    fn run() -> (blockdev::IoStats, String) {
        let mut cfg = LfsConfig::small();
        cfg.cache_limit_bytes = 16 * 4096;
        let shared = SharedLfs::format(MemDisk::new(DISK_BLOCKS), cfg).expect("format");
        let (mut w, mut r) = (shared.clone(), shared.clone());
        const FILE_BLOCKS: u64 = 128;
        let inos: Vec<Ino> = (0..3u8)
            .map(|f| {
                w.write_file(&path(f), &vec![f; FILE_BLOCKS as usize * 4096])
                    .expect("write")
            })
            .collect();
        w.sync().expect("sync");
        // A fixed linear congruential sequence, so both runs see one trace.
        let mut x = 12u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let mut buf = vec![0u8; 4 * 4096];
        for step in 0..2000u64 {
            let at = next(FILE_BLOCKS - 4) * 4096 + next(2) * 1000;
            match next(10) {
                0 => w.write(inos[0], at, &[step as u8; 6000]).expect("write"),
                1 => w.sync().expect("sync"),
                _ => {
                    let len = (1 + next(4) as usize) * 4096 - 1000;
                    let ino = inos[next(3) as usize];
                    r.read(ino, at, &mut buf[..len]).expect("read");
                }
            }
        }
        let io = shared.with_fs(|fs| fs.device().stats());
        (io, format!("{:?}", shared.shared_stats()))
    }
    let first = run();
    assert!(first.0.reads > 0, "the trace never missed the cache");
    assert_eq!(first, run());
}
