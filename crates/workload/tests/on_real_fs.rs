#![allow(clippy::field_reassign_with_default)]

//! The workload generators must run cleanly against the real file systems,
//! not just the in-memory model.

use blockdev::MemDisk;
use ffs_baseline::{Ffs, FfsConfig};
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;
use workload::{
    CrashWorkload, LargeFileBench, LargeFilePhase, PartitionModel, ProductionWorkload,
    SmallFileBench,
};

#[test]
fn small_file_bench_on_lfs_and_ffs() {
    let b = SmallFileBench {
        nfiles: 150,
        file_size: 1024,
        files_per_dir: 25,
    };
    let mut lfs = Lfs::format(MemDisk::new(8192), LfsConfig::small()).unwrap();
    b.create_phase(&mut lfs).unwrap();
    b.read_phase(&mut lfs).unwrap();
    b.delete_phase(&mut lfs).unwrap();
    assert_eq!(lfs.statfs().unwrap().num_files, 6); // Just the dirs.
    assert!(lfs.check().unwrap().is_clean());

    let mut ffs = Ffs::format(MemDisk::new(8192), FfsConfig::small()).unwrap();
    b.create_phase(&mut ffs).unwrap();
    b.read_phase(&mut ffs).unwrap();
    b.delete_phase(&mut ffs).unwrap();
    assert!(ffs.fsck().unwrap().is_clean());
}

#[test]
fn large_file_bench_on_lfs() {
    let b = LargeFileBench {
        file_bytes: 2 << 20,
        io_size: 8192,
        seed: 5,
    };
    let mut fs = Lfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap();
    let ino = b.setup(&mut fs).unwrap();
    for phase in LargeFilePhase::ALL {
        b.run_phase(&mut fs, ino, phase).unwrap();
    }
    assert_eq!(fs.metadata(ino).unwrap().size, 2 << 20);
    fs.sync().unwrap();
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn production_workloads_run_on_lfs() {
    // Quick pass over every partition model at reduced scale.
    for model in PartitionModel::all() {
        let mut cfg = LfsConfig::default();
        cfg.seg_blocks = 64; // 256 KB segments on a 24 MB disk.
        cfg.flush_threshold_bytes = 63 * 4096;
        cfg.max_inodes = 4096;
        cfg.clean_low_water = 6;
        cfg.clean_high_water = 12;
        let mut fs = Lfs::format(MemDisk::new(24 * 256), cfg).unwrap();
        let mut w = ProductionWorkload::new(model, 7);
        w.prime(&mut fs).unwrap();
        w.run_ops(&mut fs, 300).unwrap();
        fs.sync().unwrap();
        let report = fs.check().unwrap();
        assert!(
            report.is_clean(),
            "{}: fsck errors: {:#?}",
            model.name,
            report.errors
        );
        assert!(w.bytes_written > 0, "{}: no traffic", model.name);
    }
}

#[test]
fn crash_workload_then_recovery() {
    let mut cfg = LfsConfig::small();
    cfg.checkpoint_every_bytes = 0;
    let mut fs = Lfs::format(MemDisk::new(4096), cfg).unwrap();
    let w = CrashWorkload::new(10 * 1024, 2 << 20);
    w.run(&mut fs).unwrap();
    fs.flush().unwrap(); // Log tail only, no checkpoint.
    let image = fs.into_device().into_image();
    let mut recovered = Lfs::mount(MemDisk::from_image(image), cfg).unwrap();
    assert_eq!(recovered.statfs().unwrap().num_files, w.count);
    assert!(recovered.check().unwrap().is_clean());
}

#[test]
fn kv_churn_on_lfs() {
    use workload::{KvChurn, KvRun};
    let cfg = LfsConfig::small();
    let mut fs = Lfs::format(MemDisk::new(8192), cfg).unwrap();
    let mut kv = KvRun::setup(
        &mut fs,
        KvChurn {
            keys: 64,
            mean_value: 1500,
            sync_every: 32,
            ..KvChurn::default()
        },
        11,
    )
    .unwrap();
    for _ in 0..1200 {
        kv.step(&mut fs).unwrap();
    }
    let failures = kv.verify_all(&mut fs).unwrap();
    assert!(failures.is_empty(), "{failures:?}");
    fs.sync().unwrap();
    assert!(fs.check().unwrap().is_clean());
    // The churn must have pushed enough traffic to exercise the cleaner.
    assert!(kv.write_bytes > 1 << 20);
}

#[test]
fn wal_on_lfs_and_survives_remount() {
    use workload::{WalConfig, WalRun};
    let cfg = LfsConfig::small();
    let mut fs = Lfs::format(MemDisk::new(8192), cfg).unwrap();
    let mut wal = WalRun::create(
        &mut fs,
        "/wal",
        WalConfig {
            mean_record: 700,
            group: 8,
            rotate_bytes: 96 << 10,
        },
    )
    .unwrap();
    for _ in 0..900 {
        wal.append(&mut fs).unwrap();
    }
    assert!(wal.rotations > 0 && wal.commits > 0);
    assert!(wal.verify(&mut fs).unwrap().is_empty());
    fs.sync().unwrap();
    // The synced tail must survive a crash-free remount intact.
    let mut back = Lfs::mount(fs.into_device(), cfg).unwrap();
    assert!(wal.verify(&mut back).unwrap().is_empty());
    assert!(back.check().unwrap().is_clean());
}
