//! Fault-injection integration tests: checkpoint fallback, transient
//! device errors, and media rot must all surface as recovered state or a
//! clean `FsError` — never as a panic.

use blockdev::{BlockDevice, FaultDisk, FaultPlan, MemDisk, WriteKind, BLOCK_SIZE};
use lfs_core::checkpoint::Checkpoint;
use lfs_core::layout::{CR0_ADDR, CR1_ADDR};
use lfs_core::{Lfs, LfsConfig};
use vfs::{FileSystem, FsError};

const CR_ADDRS: [u64; 2] = [CR0_ADDR, CR1_ADDR];

/// Formats a small file system, writes `/a`, checkpoints, writes `/b`,
/// checkpoints again, and returns the raw device. The newest checkpoint
/// region knows about both files; the older one only about `/a`.
fn two_checkpoint_image() -> MemDisk {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    fs.write_file("/a", b"alpha").unwrap();
    fs.checkpoint().unwrap();
    fs.write_file("/b", b"beta").unwrap();
    fs.checkpoint().unwrap();
    fs.into_device()
}

/// Mount used by the fallback tests: the checkpoint view alone, so
/// mounting from the older region visibly loses `/b` instead of
/// replaying it back from the log.
fn mount_no_replay<D: blockdev::QueueDevice>(dev: D) -> Result<Lfs<D>, FsError> {
    Lfs::mount_checkpoint_only(dev, LfsConfig::small())
}

#[test]
fn torn_newest_checkpoint_falls_back_to_older_region() {
    let mut dev = two_checkpoint_image();
    let (_, newest) = Checkpoint::read_latest(&mut dev, CR_ADDRS).unwrap();

    // Tear the newest region: garbage over its header block, as if the
    // crash hit mid-way through the checkpoint write.
    let garbage = [0xffu8; BLOCK_SIZE];
    dev.write_block(CR_ADDRS[newest], &garbage, WriteKind::Sync)
        .unwrap();

    let mut fs = mount_no_replay(dev).expect("mount must fall back to the older region");
    assert!(fs.lookup("/a").is_ok(), "older checkpoint state lost");
    assert!(
        matches!(fs.lookup("/b"), Err(FsError::NotFound)),
        "/b postdates the surviving checkpoint and the tail is not replayed"
    );
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn geometry_corrupt_but_checksummed_checkpoint_falls_back() {
    let mut dev = two_checkpoint_image();
    let (mut cp, newest) = Checkpoint::read_latest(&mut dev, CR_ADDRS).unwrap();

    // The checksum is valid but the geometry is impossible: the claimed
    // log head segment does not exist. Mount must reject this region on
    // semantic grounds and fall back, not index out of bounds.
    cp.cur_seg = u32::MAX / 2;
    cp.write_to(&mut dev, CR_ADDRS[newest]).unwrap();

    let mut fs = mount_no_replay(dev).expect("mount must reject impossible geometry");
    assert!(fs.lookup("/a").is_ok());
    assert!(matches!(fs.lookup("/b"), Err(FsError::NotFound)));
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn both_checkpoint_regions_torn_is_corrupt_not_panic() {
    let mut dev = two_checkpoint_image();
    let garbage = [0xa5u8; BLOCK_SIZE];
    for addr in CR_ADDRS {
        dev.write_block(addr, &garbage, WriteKind::Sync).unwrap();
    }
    match mount_no_replay(dev) {
        Err(FsError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("mount succeeded with no valid checkpoint"),
    }
}

#[test]
fn transient_write_faults_are_absorbed_by_retry() {
    let cfg = LfsConfig::small();
    let clean = Lfs::format(MemDisk::new(2048), cfg).unwrap().into_device();

    // Every second-ish write request fails twice before succeeding; the
    // file system's retry budget (5 attempts) rides it out.
    let plan = FaultPlan::new(0x51ed)
        .with_write_faults(0.5)
        .with_transient_failures(2);
    let mut fs = Lfs::mount(FaultDisk::new(clean, plan), cfg).unwrap();
    for i in 0..20 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 3000])
            .unwrap();
    }
    fs.sync().unwrap();

    assert!(fs.stats().io_retries > 0, "no faults were injected");
    assert_eq!(fs.stats().io_giveups, 0);
    assert!(!fs.stats().degraded());
    assert!(fs.device().counts().write_faults > 0);

    // Unwrap the fault layer: the persisted image is fully consistent.
    let image = fs.into_device().into_inner();
    let mut fs2 = Lfs::mount(image, cfg).unwrap();
    assert!(fs2.check().unwrap().is_clean());
    for i in 0..20 {
        let ino = fs2.lookup(&format!("/f{i}")).unwrap();
        assert_eq!(fs2.read_to_vec(ino).unwrap(), vec![i as u8; 3000]);
    }
}

#[test]
fn exhausted_retries_surface_device_error_and_degraded_stat() {
    let cfg = LfsConfig::small();
    let clean = Lfs::format(MemDisk::new(2048), cfg).unwrap().into_device();

    // Mount through a quiet fault layer, then arm a fault burst longer
    // than the retry budget: flush must fail with `Device`, not panic.
    let mut fs = Lfs::mount(FaultDisk::new(clean, FaultPlan::new(7)), cfg).unwrap();
    {
        let plan = fs.device_mut().plan_mut();
        plan.write_fault_rate = 1.0;
        plan.transient_failures = 100;
    }
    fs.write_file("/doomed", &[1u8; 5000]).unwrap();
    match fs.flush() {
        Err(FsError::Device(_)) => {}
        Err(e) => panic!("expected Device error, got {e}"),
        Ok(()) => panic!("flush succeeded through a permanent fault"),
    }
    assert!(fs.stats().io_giveups > 0);
    assert!(fs.stats().degraded());
}

/// A flush that fails hands the segments its layout opened back to the
/// clean set, so the next flush opens the same ones. Roll-forward replays
/// that choice to find where the tail went on, so a sync after the
/// failure must survive a crash.
#[test]
fn sync_after_a_failed_flush_survives_a_crash() {
    let cfg = LfsConfig::small();
    let clean = Lfs::format(MemDisk::new(2048), cfg).unwrap().into_device();
    let mut fs = Lfs::mount(FaultDisk::new(clean, FaultPlan::new(7)), cfg).unwrap();
    // Twelve data blocks plus their inode, directory and directory-log
    // blocks do not fit in what the mount's checkpoint left of its
    // segment, so the flush has to open a fresh one.
    fs.write_file("/a", &[1u8; 12 * BLOCK_SIZE]).unwrap();
    {
        let plan = fs.device_mut().plan_mut();
        plan.write_fault_rate = 1.0;
        plan.transient_failures = 100;
    }
    assert!(matches!(fs.flush(), Err(FsError::Device(_))));
    fs.device_mut().plan_mut().write_fault_rate = 0.0;
    fs.write_file("/b", &[2u8; 3 * BLOCK_SIZE]).unwrap();
    fs.sync().unwrap();

    let mut fs2 = Lfs::mount(fs.into_device().into_inner(), cfg).unwrap();
    let a = fs2
        .lookup("/a")
        .expect("synced file lost after a failed flush");
    assert_eq!(fs2.read_to_vec(a).unwrap(), vec![1u8; 12 * BLOCK_SIZE]);
    let b = fs2
        .lookup("/b")
        .expect("synced file lost after a failed flush");
    assert_eq!(fs2.read_to_vec(b).unwrap(), vec![2u8; 3 * BLOCK_SIZE]);
    assert!(fs2.check().unwrap().is_clean());
}

/// A checkpoint whose flush fails leaves the inode-map and usage-table
/// blocks it placed dirty, at their old addresses: the new ones never
/// reached the disk. The next checkpoint then writes them again instead
/// of recording where they would have gone, which would lose every file
/// of the map block.
#[test]
fn failed_checkpoint_keeps_its_map_blocks_for_the_next() {
    let cfg = LfsConfig::small();
    let clean = Lfs::format(MemDisk::new(4096), cfg).unwrap().into_device();
    let mut fs = Lfs::mount(FaultDisk::new(clean, FaultPlan::new(7)), cfg).unwrap();
    for i in 0..200 {
        fs.write_file(&format!("/f{i}"), b"x").unwrap();
    }
    fs.checkpoint().unwrap();
    // `/f199`'s inode sits in the second inode-map block, with the
    // inodes of `/f168` onwards.
    fs.unlink("/f199").unwrap();
    {
        let plan = fs.device_mut().plan_mut();
        plan.write_fault_rate = 1.0;
        plan.transient_failures = 100;
    }
    assert!(matches!(fs.checkpoint(), Err(FsError::Device(_))));
    fs.device_mut().plan_mut().write_fault_rate = 0.0;
    fs.checkpoint().unwrap();

    let image = fs.into_device().into_inner();
    let mut fs2 = Lfs::mount_checkpoint_only(image, cfg).unwrap();
    for i in 0..199 {
        let ino = fs2
            .lookup(&format!("/f{i}"))
            .unwrap_or_else(|e| panic!("/f{i} lost: {e}"));
        assert_eq!(fs2.read_to_vec(ino).unwrap(), b"x");
    }
    assert!(matches!(fs2.lookup("/f199"), Err(FsError::NotFound)));
    let report = fs2.check().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}

#[test]
fn rotted_checkpoint_headers_fail_mount_cleanly() {
    let cfg = LfsConfig::small();
    let dev = two_checkpoint_image();
    // Seed chosen so the deterministic flips land inside the validated
    // prefix of both header blocks (flips in the region's dead padding are
    // harmless by design — the checksum only covers live bytes).
    let plan = FaultPlan::new(0)
        .with_bitrot(CR0_ADDR)
        .with_bitrot(CR1_ADDR);
    match Lfs::mount(FaultDisk::new(dev, plan), cfg) {
        Err(FsError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("mount trusted rotted checkpoint headers"),
    }
}

#[test]
fn rotted_newest_checkpoint_falls_back_to_older_region() {
    let mut dev = two_checkpoint_image();
    let (_, newest) = Checkpoint::read_latest(&mut dev, CR_ADDRS).unwrap();

    let plan = FaultPlan::new(3).with_bitrot(CR_ADDRS[newest]);
    let mut fs = mount_no_replay(FaultDisk::new(dev, plan))
        .expect("mount must fall back past the rotted region");
    assert!(fs.lookup("/a").is_ok());
    assert!(matches!(fs.lookup("/b"), Err(FsError::NotFound)));
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn transient_read_fault_does_not_truncate_roll_forward() {
    let cfg = LfsConfig::small();
    let mut fs = Lfs::format(MemDisk::new(2048), cfg).unwrap();
    fs.write_file("/durable", b"safe").unwrap();
    fs.checkpoint().unwrap();
    // Flushed to the log but not checkpointed: only roll-forward finds it.
    fs.write_file("/tail", &[0xab; 9000]).unwrap();
    fs.flush().unwrap();
    let sb = *fs.superblock();
    let mut image = fs.into_device();

    // The first post-checkpoint chunk sits at the checkpointed write
    // point: summary block first, then the blocks it describes.
    let (cp, _) = Checkpoint::read_latest(&mut image, CR_ADDRS).unwrap();
    let (seg, off) = cp.write_points()[0];
    let chunk = sb.seg_start(seg) + off as u64 + 1;

    // One transient error on the read of that chunk's blocks, which
    // roll-forward used to take as the end of the log.
    let plan = FaultPlan::new(20).with_read_fault_at(chunk);
    let mut fs2 = Lfs::mount(FaultDisk::new(image, plan), cfg).unwrap();
    assert_eq!(
        fs2.device().counts().read_faults,
        1,
        "fault missed the chunk"
    );
    let ino = fs2.lookup("/tail").expect("synced log tail was dropped");
    assert_eq!(fs2.read_to_vec(ino).unwrap(), vec![0xab; 9000]);
    assert_eq!(fs2.stats().io_retries, 1);
    assert!(fs2.check().unwrap().is_clean());
}

/// A user's read is retried like the cleaner's and roll-forward's: one
/// transient error on a file's data used to reach the caller as `EIO`.
#[test]
fn transient_read_fault_is_retried_for_a_user_read() {
    let plan = FaultPlan::new(20);
    let mut fs = Lfs::format(FaultDisk::new(MemDisk::new(2048), plan), LfsConfig::small()).unwrap();
    let data = [[0x11u8; BLOCK_SIZE], [0x22; BLOCK_SIZE]].concat();
    let ino = fs.write_file("/f", &data).unwrap();
    fs.sync().unwrap();
    fs.drop_caches();

    // The file's first data block is the only block holding 0x11s.
    let disk = fs.device_mut().inner_mut();
    let mut buf = [0u8; BLOCK_SIZE];
    let first = (0..disk.num_blocks())
        .find(|&b| {
            disk.read_block(b, &mut buf).unwrap();
            buf == [0x11; BLOCK_SIZE]
        })
        .expect("data block on disk");
    fs.device_mut().plan_mut().read_fault_at.insert(first);

    assert_eq!(fs.read_to_vec(ino).unwrap(), data);
    assert_eq!(fs.device().counts().read_faults, 1, "fault missed the read");
    assert_eq!(fs.stats().io_retries, 1);
}

/// Sets segment 0's state byte, the fifth of its usage-table entry, in the
/// usage block the checkpoint in region `region` points to.
fn set_segment0_state(dev: &mut MemDisk, region: usize, state: u8) {
    let cp = Checkpoint::read_from(dev, CR_ADDRS[region]).unwrap();
    let mut block = [0u8; BLOCK_SIZE];
    dev.read_block(cp.usage_addrs[0], &mut block).unwrap();
    block[4] = state;
    dev.write_block(cp.usage_addrs[0], &block, WriteKind::Sync)
        .unwrap();
}

/// A usage-table state byte that encodes no segment state used to load as
/// clean, which made a segment full of live data allocatable. Mount
/// refuses the checkpoint that points to it, naming the segment and the
/// byte, and falls back to the other region.
#[test]
fn an_unknown_segment_state_is_refused() {
    let image = || {
        let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
        fs.write_file("/a", &[7u8; 8 * BLOCK_SIZE]).unwrap();
        fs.checkpoint().unwrap();
        let mut dev = fs.into_device();
        let (_, newest) = Checkpoint::read_latest(&mut dev, CR_ADDRS).unwrap();
        set_segment0_state(&mut dev, newest, 9);
        (dev, newest)
    };
    // The older region is the one format wrote, before `/a`.
    let mut fs = mount_no_replay(image().0).expect("mount must fall back to the older region");
    assert!(matches!(fs.lookup("/a"), Err(FsError::NotFound)));
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    // Roll-forward from there finds `/a` in the log.
    let mut fs = Lfs::mount(image().0, LfsConfig::small()).unwrap();
    let a = fs.lookup("/a").unwrap();
    assert_eq!(fs.read_to_vec(a).unwrap(), vec![7u8; 8 * BLOCK_SIZE]);
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);

    let (mut dev, newest) = image();
    set_segment0_state(&mut dev, 1 - newest, 9);
    match mount_no_replay(dev) {
        Err(FsError::Corrupt(msg)) => {
            assert!(
                msg.contains("segment 0") && msg.contains("state 9"),
                "{msg}"
            )
        }
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("mount trusted an unknown segment state"),
    }
}
