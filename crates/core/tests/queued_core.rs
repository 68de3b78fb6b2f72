//! File-system-level tests for the submission-queue device model:
//! on-disk image parity between direct and queued devices, group-commit
//! amortization of idle `sync` calls, the bounded-staging behaviour of
//! the cleaner, and the ring's error paths — how retries and giveups
//! fold into [`LfsStats`], and what a crash cut between submit and fence
//! leaves on disk.

use blockdev::{BlockDevice, CrashDisk, FaultDisk, FaultPlan, MemDisk, QueueDevice, QueuedDev};
use lfs_core::{InvariantSuite, Lfs, LfsConfig};
use lfs_obs::Obs;
use vfs::FileSystem;

/// A mixed workload: creates, multi-block writes, overwrites, deletes,
/// and interior syncs — enough traffic to force several flushes.
fn workload<D: QueueDevice>(fs: &mut Lfs<D>) {
    for i in 0..40u32 {
        let ino = fs.create(&format!("/f{i}")).unwrap();
        let data = vec![(i % 251) as u8; 3 * 4096 + 123];
        fs.write(ino, 0, &data).unwrap();
        fs.advance_clock(50);
        if i % 3 == 0 {
            fs.sync().unwrap();
        }
        if i % 7 == 0 && i > 0 {
            fs.unlink(&format!("/f{}", i / 2)).unwrap();
        }
    }
    fs.sync().unwrap();
}

/// The tentpole equivalence claim, at the file-system level: the same
/// workload against a direct device and against the same device behind
/// a depth-8 submission queue must produce a bit-identical disk image
/// and identical mechanical device statistics. Queue depth may only
/// change *when* requests are serviced, never *what* reaches the disk.
#[test]
fn queued_device_image_and_stats_parity() {
    let cfg = LfsConfig::small();

    let mut direct = Lfs::format(MemDisk::new(4096), cfg).unwrap();
    workload(&mut direct);

    let mut queued = Lfs::format(QueuedDev::new(MemDisk::new(4096), 8), cfg).unwrap();
    workload(&mut queued);

    // Same files readable through both.
    for i in 0..40u32 {
        let a = direct.lookup(&format!("/f{i}"));
        let b = queued.lookup(&format!("/f{i}"));
        match (a, b) {
            (Ok(ia), Ok(ib)) => {
                assert_eq!(
                    direct.read_to_vec(ia).unwrap(),
                    queued.read_to_vec(ib).unwrap(),
                    "content of /f{i} diverged"
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("lookup of /f{i} diverged: direct={a:?} queued={b:?}"),
        }
    }

    // The queue actually carried traffic (this was not a degenerate
    // pass-through run) and never dropped or abandoned anything.
    let q = queued.device().queue_stats();
    assert!(q.submitted > 0, "no queued submissions recorded");
    assert_eq!(q.submitted, q.completed);
    assert!(q.fences > 0, "syncs and checkpoints must fence the ring");
    assert_eq!(q.giveups, 0);
    assert_eq!(queued.stats().io_giveups, 0);

    let d = direct.into_device();
    let qd = queued.into_device().into_inner();
    assert_eq!(d.stats().writes, qd.stats().writes);
    assert_eq!(d.stats().bytes_written, qd.stats().bytes_written);
    assert_eq!(d.stats().reads, qd.stats().reads);
    assert_eq!(d.stats().bytes_read, qd.stats().bytes_read);
    assert_eq!(d.image(), qd.image(), "disk images diverged");
}

/// Idle `sync` calls group-commit: once the last fence covers every
/// partial write (`durable_seq == write_seq`) and nothing is dirty,
/// `sync` returns without touching the disk. A `sync` with work to do is
/// a log append — one flush and one fence — and never a checkpoint.
#[test]
fn group_commit_amortizes_idle_syncs() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    // format's checkpoints fenced everything, so the very first idle
    // sync is already free.
    let w0 = fs.device().stats().writes;
    let cp0 = fs.stats().checkpoints;
    fs.sync().unwrap();
    assert_eq!(fs.stats().group_commits, 1);
    assert_eq!(
        fs.device().stats().writes,
        w0,
        "group commit must not write"
    );

    // New data: the next sync appends it to the log...
    fs.write_file("/f", b"dirty again").unwrap();
    fs.sync().unwrap();
    assert!(fs.device().stats().writes > w0, "the sync wrote nothing");
    assert_eq!(fs.stats().group_commits, 1);
    // ...and every idle sync after it amortizes away.
    let w1 = fs.device().stats().writes;
    fs.sync().unwrap();
    fs.sync().unwrap();
    assert_eq!(fs.stats().group_commits, 3);
    assert_eq!(fs.device().stats().writes, w1);
    assert_eq!(
        fs.stats().checkpoints,
        cp0,
        "a sync must not checkpoint, idle or not"
    );

    // The image stays mountable after a run that group-committed, and
    // roll-forward brings back what only the sync wrote.
    let ino = fs.lookup("/f").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"dirty again");
    let disk = fs.into_device();
    let mut fs = Lfs::mount(disk, LfsConfig::small()).unwrap();
    let ino = fs.lookup("/f").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"dirty again");
}

/// Group commit composes with the queue: an idle sync issues no
/// submission and no fence. A sync after a flush that left nothing dirty
/// still fences — the flushed writes are not yet covered by one.
#[test]
fn group_commit_skips_queue_traffic() {
    let mut fs = Lfs::format(QueuedDev::new(MemDisk::new(2048), 8), LfsConfig::small()).unwrap();
    fs.write_file("/f", b"x").unwrap();
    fs.sync().unwrap();
    let q0 = fs.device().queue_stats();
    let w0 = fs.device().inner().stats().writes;
    fs.sync().unwrap();
    assert_eq!(fs.stats().group_commits, 1);
    let q1 = fs.device().queue_stats();
    assert_eq!(q0.submitted, q1.submitted);
    assert_eq!(q0.fences, q1.fences);
    assert_eq!(fs.device().inner().stats().writes, w0);

    fs.write_file("/g", b"y").unwrap();
    fs.flush().unwrap();
    let q2 = fs.device().queue_stats();
    assert!(q2.submitted > q1.submitted);
    fs.sync().unwrap();
    let q3 = fs.device().queue_stats();
    assert_eq!(q3.submitted, q2.submitted, "nothing was left to flush");
    assert_eq!(q3.fences, q2.fences + 1, "the flushed writes need a fence");
    assert_eq!(fs.stats().group_commits, 1);
    assert_eq!(fs.device().in_flight(), 0);
}

/// A cleaning pass over many segments must flush incrementally — at
/// most about one segment of staged live data may accumulate before
/// the pass gives the log head back — rather than staging every
/// candidate's live blocks and holding the write point across the
/// whole copy loop.
#[test]
fn cleaner_bounds_staged_data_per_flush() {
    let mut cfg = LfsConfig::small();
    cfg.segs_per_clean = 8;
    let mut fs = Lfs::format(MemDisk::new(4096), cfg).unwrap();
    fs.set_obs(Obs::recording(64));

    // 16 files of 8 blocks each, then delete every other: many
    // half-live segments for one wide pass to relocate.
    for i in 0..16u32 {
        let data = vec![(i + 1) as u8; 8 * 4096];
        fs.write_file(&format!("/f{i}"), &data).unwrap();
    }
    fs.checkpoint().unwrap();
    for i in (0..16u32).step_by(2) {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    // Only segments a checkpoint covers are eligible victims.
    fs.checkpoint().unwrap();

    let flushes = |fs: &Lfs<MemDisk>| {
        fs.metrics_snapshot()
            .and_then(|s| s.hist("op.flush_ns").map(|h| h.count))
            .unwrap_or(0)
    };
    let before = flushes(&fs);
    let cleaned = fs.clean_pass().unwrap();
    assert!(
        cleaned >= 4,
        "workload too small to exercise multi-segment staging (cleaned {cleaned})"
    );
    let delta = flushes(&fs) - before;
    assert!(
        delta >= 2,
        "a {cleaned}-segment pass must flush incrementally, got {delta} flush(es)"
    );

    // Survivors intact after the incremental pass.
    for i in (1..16u32).step_by(2) {
        let ino = fs.lookup(&format!("/f{i}")).unwrap();
        let data = fs.read_to_vec(ino).unwrap();
        assert!(data.iter().all(|&b| b == (i + 1) as u8), "/f{i} corrupted");
    }
}

/// A faulty device behind the ring, with faults off so formatting and
/// the baseline workload run clean; tests flip the plan on afterwards.
fn faulty_queued_fs(seed: u64, depth: usize) -> Lfs<QueuedDev<FaultDisk<MemDisk>>> {
    let disk = FaultDisk::new(MemDisk::new(2048), FaultPlan::new(seed));
    let mut fs = Lfs::format(QueuedDev::new(disk, depth), LfsConfig::small()).unwrap();
    fs.write_file("/base", b"stable ground").unwrap();
    fs.sync().unwrap();
    fs
}

/// A fault burst that outlasts the ring's retry budget becomes a
/// giveup: the sync's fence surfaces the error, and the very same
/// call folds the ring's unclaimed retry/giveup counts into [`LfsStats`]
/// — a later probe of the device finds nothing left to claim.
#[test]
fn ring_giveup_mid_trace_folds_into_stats_once() {
    let mut fs = faulty_queued_fs(11, 8);
    {
        let plan = fs.device_mut().inner_mut().plan_mut();
        plan.write_fault_rate = 1.0;
        plan.transient_failures = 32; // outlasts the ring's retry budget
    }
    fs.write_file("/doomed", &[0x5a; 3 * 4096]).unwrap();
    assert!(fs.sync().is_err(), "fence over a giveup must surface");

    let stats = *fs.stats();
    assert_eq!(stats.io_giveups, 1, "one submission exhausted its budget");
    assert!(
        stats.io_retries >= 1,
        "the giveup's earlier attempts count as retries"
    );
    assert!(stats.degraded(), "a giveup marks the fs degraded");
    // `absorb_queue_errors` already claimed the ring's counters — the
    // device has nothing left for a second accounting.
    assert_eq!(fs.device_mut().take_queue_errors(), (0, 0));

    // The giveup lost in-flight log writes, but nothing durable: the
    // sync failed, so nothing was acknowledged, and the on-disk image
    // still recovers to the last fenced state — `/base` intact, `/doomed`
    // simply never happened.
    let mut suite = InvariantSuite::new();
    suite.expect_exact("/base", b"stable ground".to_vec());
    suite.expect_history("/doomed", vec![vec![0x5a; 3 * 4096]]);
    let img = fs.device().inner().inner().image().to_vec();
    let (report, rfs) = suite.verify_device(MemDisk::from_image(img), LfsConfig::small());
    assert!(report.is_ok(), "post-giveup image unclean: {report}");
    let mut rfs = rfs.unwrap();
    assert!(
        rfs.lookup("/doomed").is_err(),
        "/doomed's writes died in the ring; it must not be visible"
    );
}

/// Fault bursts shorter than the retry budget stay invisible to the
/// caller: the ring absorbs them, the flush succeeds, and the attempts
/// surface only as `io_retries` — never as giveups or degradation.
#[test]
fn transient_ring_retries_fold_into_io_retries() {
    let mut fs = faulty_queued_fs(23, 8);
    {
        let plan = fs.device_mut().inner_mut().plan_mut();
        plan.write_fault_rate = 1.0;
        plan.transient_failures = 2; // within the ring's retry budget
    }
    fs.write_file("/survivor", &[0x7b; 2 * 4096]).unwrap();
    fs.sync().unwrap();

    let stats = *fs.stats();
    assert!(
        stats.io_retries >= 2,
        "absorbed ring retries must reach the stats ledger, got {}",
        stats.io_retries
    );
    assert_eq!(stats.io_giveups, 0);
    assert!(!stats.degraded(), "retries alone must not degrade the fs");
    assert_eq!(fs.device_mut().take_queue_errors(), (0, 0));

    let ino = fs.lookup("/survivor").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), vec![0x7b; 2 * 4096]);
}

/// A crash cut between submit and fence: a flush parks its gather
/// submissions in the ring, so none of them reach the journal beneath —
/// the crash image is exactly the last fenced state, and recovery from
/// it is clean (the parked file simply never happened).
#[test]
fn crash_cut_between_submit_and_fence_recovers_clean() {
    let cfg = LfsConfig::small();
    let mut suite = InvariantSuite::new();
    let mut fs = Lfs::format(QueuedDev::new(CrashDisk::new(2048), 4), cfg).unwrap();
    for i in 0..3u8 {
        let content = vec![b'a' + i; 1500];
        suite.expect_exact(format!("/base{i}"), content.clone());
        fs.write_file(&format!("/base{i}"), &content).unwrap();
    }
    fs.sync().unwrap();
    let fenced_writes = fs.device().inner().num_writes();
    assert_eq!(fs.device().in_flight(), 0, "fence must drain the ring");

    // Dirty data, flushed but never fenced: the chunk is submitted to
    // the ring and parked there.
    suite.expect_history("/parked", vec![vec![0x42; 6000]]);
    fs.write_file("/parked", &[0x42; 6000]).unwrap();
    fs.flush().unwrap();
    assert!(
        fs.device().in_flight() > 0,
        "an unfenced flush must leave submissions parked"
    );
    assert_eq!(
        fs.device().inner().num_writes(),
        fenced_writes,
        "parked submissions must not reach the journal"
    );

    // Crash now: the journal image *is* the crash state — parked
    // submissions evaporate with the ring.
    let crash_image = fs.device().inner().image_now();
    let (report, rfs) = suite.verify_device(crash_image, cfg);
    assert!(report.is_ok(), "crash-cut state unclean: {report}");
    let mut rfs = rfs.unwrap();
    assert!(rfs.lookup("/parked").is_err(), "/parked predates any fence");

    // The original fs still holds the data in memory; a later sync
    // fences it through, and the full image then shows the file.
    fs.sync().unwrap();
    assert!(fs.device().inner().num_writes() > fenced_writes);
    let (report, rfs) = suite.verify_device(fs.device().inner().image_now(), cfg);
    assert!(report.is_ok(), "post-fence image unclean: {report}");
    let mut rfs = rfs.unwrap();
    let ino = rfs.lookup("/parked").unwrap();
    assert_eq!(rfs.read_to_vec(ino).unwrap(), vec![0x42; 6000]);
}
