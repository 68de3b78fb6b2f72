//! End-to-end tests for the log-structured file system.

use blockdev::{BlockDevice, CrashDisk, MemDisk};
use lfs_core::{BlockKind, CleaningPolicy, Lfs, LfsConfig};
use vfs::{FileSystem, FsError};

/// A 16 MB memory disk.
fn disk() -> MemDisk {
    MemDisk::new(4096)
}

fn small_fs() -> Lfs<MemDisk> {
    Lfs::format(disk(), LfsConfig::small()).unwrap()
}

fn check_clean(fs: &mut Lfs<MemDisk>) {
    fs.sync().unwrap();
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "fsck errors: {:#?}", report.errors);
}

#[test]
fn create_write_read_many_small_files() {
    let mut fs = small_fs();
    fs.mkdir("/d").unwrap();
    let mut inos = Vec::new();
    for i in 0..200 {
        let data = vec![i as u8; 1024];
        let ino = fs.write_file(&format!("/d/file{i}"), &data).unwrap();
        inos.push((ino, data));
    }
    for (ino, data) in &inos {
        assert_eq!(&fs.read_to_vec(*ino).unwrap(), data);
    }
    check_clean(&mut fs);
}

#[test]
fn large_file_through_indirect_blocks() {
    // A file spanning direct, single-indirect, and double-indirect
    // pointers: > (10 + 512) blocks.
    let mut fs = Lfs::format(MemDisk::new(8192), LfsConfig::small()).unwrap();
    let nblocks = 560u64;
    let ino = fs.create("/big").unwrap();
    let mut expect = Vec::new();
    for b in 0..nblocks {
        let chunk = vec![(b % 251) as u8; 4096];
        fs.write(ino, b * 4096, &chunk).unwrap();
        expect.extend_from_slice(&chunk);
    }
    fs.sync().unwrap();
    let back = fs.read_to_vec(ino).unwrap();
    assert_eq!(back.len(), expect.len());
    assert_eq!(back, expect);
    check_clean(&mut fs);
}

/// A file with three children under its double-indirect block, truncated
/// step by step down through every level of the tree. After the write and
/// after each step, a remount's roll-forward walks the old tree and the
/// new one; the check must be clean, the indirect blocks live exactly
/// those the size needs, and the contents read back.
#[test]
fn truncating_through_the_double_indirect_tree_survives_remounts() {
    const BS: u64 = 4096;
    let pattern = |b: u64| vec![(b % 251) as u8 + 1; BS as usize];
    let mut fs = Lfs::format(MemDisk::new(8192), LfsConfig::small()).unwrap();
    let ino = fs.create("/big").unwrap();
    let nblocks = 10 + 512 + 2 * 512 + 40;
    for b in 0..nblocks {
        fs.write(ino, b * BS, &pattern(b)).unwrap();
    }
    // (size in bytes, indirect blocks it needs): into Single(2), into
    // Single(1), the end of Single(0), into the direct blocks, empty.
    let steps = [
        (nblocks * BS, 5),
        ((10 + 512 + 512 + 100) * BS, 4),
        ((10 + 512 + 100) * BS + 123, 3),
        ((10 + 512) * BS, 1),
        (5 * BS + 7, 0),
        (0, 0),
    ];
    for (i, &(size, indirect)) in steps.iter().enumerate() {
        if i > 0 {
            fs.truncate(ino, size).unwrap();
        }
        fs.sync().unwrap();
        fs = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "size {size}: {:#?}", report.errors);
        let live = fs.live_bytes_by_kind().unwrap();
        assert_eq!(
            live[BlockKind::Indirect as usize],
            indirect * BS,
            "size {size}"
        );
        let back = fs.read_to_vec(ino).unwrap();
        assert_eq!(back.len() as u64, size);
        for (b, got) in (0..).zip(back.chunks(BS as usize)) {
            assert!(got == &pattern(b)[..got.len()], "size {size}: block {b}");
        }
    }
}

#[test]
fn sparse_file_reads_zero_in_holes() {
    let mut fs = small_fs();
    let ino = fs.create("/sparse").unwrap();
    // Write one block far into the file (inside the indirect range).
    fs.write(ino, 100 * 4096, b"end").unwrap();
    fs.sync().unwrap();
    let mut buf = [1u8; 16];
    assert_eq!(fs.read(ino, 50 * 4096, &mut buf).unwrap(), 16);
    assert!(buf.iter().all(|&b| b == 0));
    let mut tail = [0u8; 3];
    fs.read(ino, 100 * 4096, &mut tail).unwrap();
    assert_eq!(&tail, b"end");
    check_clean(&mut fs);
}

#[test]
fn overwrite_supersedes_old_blocks() {
    let mut fs = small_fs();
    let ino = fs.write_file("/f", &[1u8; 8192]).unwrap();
    fs.sync().unwrap();
    let live_before = fs.statfs().unwrap().live_bytes;
    fs.write(ino, 0, &[2u8; 8192]).unwrap();
    fs.sync().unwrap();
    let live_after = fs.statfs().unwrap().live_bytes;
    // Overwriting in place must not grow live data.
    assert_eq!(live_before, live_after);
    assert_eq!(fs.read_to_vec(ino).unwrap(), vec![2u8; 8192]);
    check_clean(&mut fs);
}

#[test]
fn unlink_frees_space() {
    let mut fs = small_fs();
    fs.sync().unwrap();
    let base = fs.statfs().unwrap().live_bytes;
    for i in 0..20 {
        fs.write_file(&format!("/f{i}"), &[7u8; 16384]).unwrap();
    }
    fs.sync().unwrap();
    assert!(fs.statfs().unwrap().live_bytes > base + 20 * 16384);
    for i in 0..20 {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    fs.sync().unwrap();
    let after = fs.statfs().unwrap().live_bytes;
    // All the file data must be dead again (metadata may differ slightly).
    assert!(
        after < base + 8 * 4096,
        "live after deletes: {after} vs {base}"
    );
    check_clean(&mut fs);
}

#[test]
fn truncate_shrink_extend_zeroes() {
    let mut fs = small_fs();
    let ino = fs.write_file("/t", b"abcdefgh").unwrap();
    fs.truncate(ino, 3).unwrap();
    fs.truncate(ino, 6).unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"abc\0\0\0");
    check_clean(&mut fs);
}

#[test]
fn truncate_to_zero_bumps_version() {
    let mut fs = small_fs();
    let ino = fs.write_file("/v", &[9u8; 4096]).unwrap();
    fs.sync().unwrap();
    fs.truncate(ino, 0).unwrap();
    fs.write(ino, 0, &[1u8; 100]).unwrap();
    fs.sync().unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), vec![1u8; 100]);
    check_clean(&mut fs);
}

#[test]
fn rename_and_hard_links() {
    let mut fs = small_fs();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    let ino = fs.write_file("/a/x", b"payload").unwrap();
    fs.link("/a/x", "/b/y").unwrap();
    assert_eq!(fs.metadata(ino).unwrap().nlink, 2);
    fs.rename("/a/x", "/b/z").unwrap();
    assert!(fs.lookup("/a/x").is_err());
    assert_eq!(fs.lookup("/b/z").unwrap(), ino);
    assert_eq!(fs.lookup("/b/y").unwrap(), ino);
    fs.unlink("/b/y").unwrap();
    assert_eq!(fs.metadata(ino).unwrap().nlink, 1);
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"payload");
    check_clean(&mut fs);
}

#[test]
fn rename_replaces_target_file() {
    let mut fs = small_fs();
    let a = fs.write_file("/a", b"aaa").unwrap();
    fs.write_file("/b", b"bbb").unwrap();
    fs.rename("/a", "/b").unwrap();
    assert_eq!(fs.lookup("/b").unwrap(), a);
    assert_eq!(fs.read_to_vec(a).unwrap(), b"aaa");
    assert!(fs.lookup("/a").is_err());
    check_clean(&mut fs);
}

#[test]
fn directory_with_many_entries_spans_blocks() {
    let mut fs = Lfs::format(MemDisk::new(8192), LfsConfig::small()).unwrap();
    fs.mkdir("/big").unwrap();
    for i in 0..600 {
        fs.create(&format!("/big/file-with-a-longer-name-{i:05}"))
            .unwrap();
    }
    let entries = fs.readdir("/big").unwrap();
    assert_eq!(entries.len(), 600);
    // Sorted by name.
    let mut names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
    // Remove half, re-list.
    for i in (0..600).step_by(2) {
        fs.unlink(&format!("/big/file-with-a-longer-name-{i:05}"))
            .unwrap();
    }
    names = fs
        .readdir("/big")
        .unwrap()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(names.len(), 300);
    check_clean(&mut fs);
}

#[test]
fn rmdir_semantics() {
    let mut fs = small_fs();
    fs.mkdir("/d").unwrap();
    fs.create("/d/f").unwrap();
    assert!(matches!(fs.rmdir("/d"), Err(FsError::DirectoryNotEmpty)));
    fs.unlink("/d/f").unwrap();
    fs.rmdir("/d").unwrap();
    assert!(fs.lookup("/d").is_err());
    assert!(matches!(fs.rmdir("/d"), Err(FsError::NotFound)));
    check_clean(&mut fs);
}

#[test]
fn remount_preserves_everything() {
    let mut fs = small_fs();
    fs.mkdir("/dir1").unwrap();
    fs.mkdir("/dir1/sub").unwrap();
    let ino = fs.write_file("/dir1/sub/data", &[0x5a; 10_000]).unwrap();
    fs.write_file("/top", b"hello").unwrap();
    fs.sync().unwrap();
    let dev = fs.into_device();

    let mut fs2 = Lfs::mount(dev, LfsConfig::small()).unwrap();
    assert_eq!(fs2.lookup("/dir1/sub/data").unwrap(), ino);
    assert_eq!(fs2.read_to_vec(ino).unwrap(), vec![0x5a; 10_000]);
    let top = fs2.lookup("/top").unwrap();
    assert_eq!(fs2.read_to_vec(top).unwrap(), b"hello");
    assert_eq!(fs2.statfs().unwrap().num_files, 4);
    check_clean(&mut fs2);
}

#[test]
fn remount_twice_is_stable() {
    let mut fs = small_fs();
    fs.write_file("/f", b"x").unwrap();
    fs.sync().unwrap();
    let dev = fs.into_device();
    let fs2 = Lfs::mount(dev, LfsConfig::small()).unwrap();
    let dev = fs2.into_device();
    let mut fs3 = Lfs::mount(dev, LfsConfig::small()).unwrap();
    let ino = fs3.lookup("/f").unwrap();
    assert_eq!(fs3.read_to_vec(ino).unwrap(), b"x");
    check_clean(&mut fs3);
}

#[test]
fn cleaner_reclaims_overwritten_segments() {
    // Small disk; write and overwrite until the cleaner must run.
    let mut fs = Lfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap();
    let ino = fs.create("/churn").unwrap();
    // 16 MB disk, ~60 KB segments: overwrite a 256 KB file many times.
    for round in 0..200u32 {
        let data = vec![(round % 251) as u8; 64 * 1024];
        fs.write(ino, 0, &data).unwrap();
    }
    let stats = *fs.stats();
    assert!(
        stats.cleaner.segments_cleaned > 0,
        "cleaner never ran: {stats:?}"
    );
    assert_eq!(fs.read_to_vec(ino).unwrap(), vec![199u8; 64 * 1024]);
    check_clean(&mut fs);
}

#[test]
fn cleaner_preserves_cold_data() {
    let mut fs = Lfs::format(MemDisk::new(1536), LfsConfig::small()).unwrap();
    // Cold files written once.
    let mut cold = Vec::new();
    for i in 0..30 {
        let data = vec![i as u8; 8192];
        let ino = fs.write_file(&format!("/cold{i}"), &data).unwrap();
        cold.push((ino, data));
    }
    // Hot churn to force cleaning. Rotate the offset so each round
    // dirties fresh blocks — overwrites of still-dirty blocks would just
    // coalesce in the write buffer and never reach the log.
    let hot = fs.create("/hot").unwrap();
    for round in 0..300u32 {
        let off = (round % 8) as u64 * 32 * 1024;
        fs.write(hot, off, &vec![(round % 256) as u8; 32 * 1024])
            .unwrap();
    }
    assert!(fs.stats().cleaner.segments_cleaned > 0);
    for (ino, data) in &cold {
        assert_eq!(
            &fs.read_to_vec(*ino).unwrap(),
            data,
            "cold file {ino} damaged"
        );
    }
    check_clean(&mut fs);
}

#[test]
fn every_policy_cleans_the_same_churn() {
    for policy in CleaningPolicy::ALL {
        let mut cfg = LfsConfig::small();
        cfg.policy = policy;
        let mut fs = Lfs::format(MemDisk::new(1024), cfg).unwrap();
        let ino = fs.create("/churn").unwrap();
        for round in 0..150u32 {
            fs.write(ino, 0, &vec![(round % 251) as u8; 64 * 1024])
                .unwrap();
        }
        let name = policy.name();
        assert!(fs.stats().cleaner.segments_cleaned > 0, "{name}");
        assert_eq!(fs.config().policy, policy);
        assert_eq!(
            fs.read_to_vec(ino).unwrap(),
            vec![149u8; 64 * 1024],
            "{name}"
        );
        check_clean(&mut fs);
    }
}

#[test]
fn no_space_is_reported_not_corrupted() {
    // A tiny disk fills up; writes must fail with NoSpace and the data
    // already written must survive.
    let mut fs = Lfs::format(MemDisk::new(512), LfsConfig::small()).unwrap();
    let mut written = Vec::new();
    let mut failed = false;
    for i in 0..200 {
        match fs.write_file(&format!("/f{i}"), &vec![i as u8; 16384]) {
            Ok(ino) => written.push((i, ino)),
            Err(FsError::NoSpace) => {
                failed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(failed, "disk never filled");
    // Everything fully written must still read back. (The failed write
    // may have been partially applied, which POSIX allows.)
    for (i, ino) in &written[..written.len() - 1] {
        assert_eq!(fs.read_to_vec(*ino).unwrap(), vec![*i as u8; 16384]);
    }
}

#[test]
fn crash_without_sync_loses_tail_but_stays_consistent() {
    let cfg = LfsConfig::small();
    let crash = CrashDisk::new(4096);
    let mut fs = Lfs::format(crash, cfg).unwrap();
    fs.write_file("/durable", b"safe").unwrap();
    fs.checkpoint().unwrap();
    fs.write_file("/volatile", b"gone").unwrap();
    // Crash now (no sync).
    let image = {
        let crash: &CrashDisk = fs.device();
        crash.image_after(crash.num_writes()).unwrap()
    };
    let mut fs2 = Lfs::mount_checkpoint_only(image, cfg).unwrap();
    let d = fs2.lookup("/durable").unwrap();
    assert_eq!(fs2.read_to_vec(d).unwrap(), b"safe");
    // From the checkpoint alone, the unsynced file is gone.
    assert!(fs2.lookup("/volatile").is_err());
    let report = fs2.check().unwrap();
    assert!(report.is_clean(), "{:#?}", report.errors);
}

#[test]
fn roll_forward_recovers_flushed_but_not_checkpointed_data() {
    let cfg = LfsConfig::small();
    let crash = CrashDisk::new(4096);
    let mut fs = Lfs::format(crash, cfg).unwrap();
    fs.write_file("/durable", b"safe").unwrap();
    fs.checkpoint().unwrap();
    // Write and flush (to the log) but do NOT checkpoint.
    let v = fs.write_file("/recovered", &[0xab; 9000]).unwrap();
    fs.flush().unwrap();
    let image = {
        let crash: &CrashDisk = fs.device();
        crash.image_after(crash.num_writes()).unwrap()
    };
    let mut fs2 = Lfs::mount(image, cfg).unwrap();
    let r = fs2.lookup("/recovered").unwrap();
    assert_eq!(r, v);
    assert_eq!(fs2.read_to_vec(r).unwrap(), vec![0xab; 9000]);
    let report = fs2.check().unwrap();
    assert!(report.is_clean(), "{:#?}", report.errors);
}

/// Roll-forward follows the tail from the checkpoint's write points and
/// reads nothing else (§4.2): the same tail, spread over several
/// segments, costs the same device reads on a disk with four times as
/// many segments, with one write stream or three. Each segment the tail
/// opened is found where the layout put it — the lowest clean segment of
/// the shard — not through an index of every segment's first block.
#[test]
fn roll_forward_reads_the_tail_not_the_disk() {
    let replay_reads = |cfg: LfsConfig, blocks: u64| {
        let mut fs = Lfs::format(MemDisk::new(blocks), cfg).unwrap();
        fs.write_file("/durable", b"safe").unwrap();
        fs.checkpoint().unwrap();
        let before = fs.stats().partial_writes;
        for i in 0..6u8 {
            fs.write_file(&format!("/t{i}"), &[i; 20_000]).unwrap();
        }
        fs.sync().unwrap();
        assert!(fs.stats().partial_writes - before >= 4, "tail too short");
        let image = fs.into_device().into_image();
        let mut full = Lfs::mount(MemDisk::from_image(image.clone()), cfg).unwrap();
        let reads = full.device().stats().reads;
        for i in 0..6u8 {
            let ino = full.lookup(&format!("/t{i}")).unwrap();
            assert_eq!(full.read_to_vec(ino).unwrap(), vec![i; 20_000]);
        }
        check_clean(&mut full);
        let bare = Lfs::mount_checkpoint_only(MemDisk::from_image(image), cfg).unwrap();
        reads - bare.device().stats().reads
    };
    let mut cfg = LfsConfig::small();
    cfg.checkpoint_every_bytes = 0;
    let (small, large) = (replay_reads(cfg, 1024), replay_reads(cfg, 4096));
    assert_eq!(small, large, "read beyond the tail");
}

#[test]
fn roll_forward_removes_half_finished_creates() {
    // Crash at every single write boundary of a small workload; every
    // crash image must mount to a consistent file system.
    let cfg = LfsConfig::small();
    let crash = CrashDisk::new(2048);
    let mut fs = Lfs::format(crash, cfg).unwrap();
    fs.device_mut().checkpoint_baseline();
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/a", b"aaaa").unwrap();
    fs.flush().unwrap();
    fs.write_file("/d/b", b"bbbb").unwrap();
    fs.rename("/d/a", "/d/c").unwrap();
    fs.unlink("/d/b").unwrap();
    fs.sync().unwrap();

    let crash_ref: &CrashDisk = fs.device();
    let n = crash_ref.num_writes();
    for cut in 0..=n {
        let image = crash_ref.image_after(cut).unwrap();
        let mut fs2 = match Lfs::mount(image, cfg) {
            Ok(f) => f,
            Err(e) => panic!("cut {cut}/{n}: mount failed: {e}"),
        };
        let report = fs2.check().unwrap();
        assert!(
            report.is_clean(),
            "cut {cut}/{n}: fsck errors: {:#?}",
            report.errors
        );
    }
    // The full image must contain the final state.
    let image = crash_ref.image_after(n).unwrap();
    let mut fs3 = Lfs::mount(image, cfg).unwrap();
    assert!(fs3.lookup("/d/c").is_ok());
    assert!(fs3.lookup("/d/a").is_err());
    assert!(fs3.lookup("/d/b").is_err());
}

/// Flushes without checkpointing, drops the file system (a crash right
/// after the flush) and mounts the image, so everything since the last
/// checkpoint comes back through roll-forward alone.
fn flush_and_remount(mut fs: Lfs<MemDisk>) -> Lfs<MemDisk> {
    fs.flush().unwrap();
    Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap()
}

/// Inode-map and usage-table blocks reach the log with checkpoints only
/// (§4.1): flushes and syncs, however many, leave them to the next
/// checkpoint.
#[test]
fn map_blocks_reach_the_log_with_checkpoints_only() {
    let mut fs = small_fs();
    let map_bytes = |fs: &Lfs<MemDisk>| {
        fs.stats().log_bytes(BlockKind::Imap) + fs.stats().log_bytes(BlockKind::Usage)
    };
    let before = map_bytes(&fs);
    for i in 0..20 {
        fs.write_file(&format!("/f{i}"), &[i as u8; 6000]).unwrap();
        if i % 2 == 0 {
            fs.flush().unwrap();
        } else {
            fs.sync().unwrap();
        }
    }
    assert_eq!(map_bytes(&fs), before, "a flush or sync wrote map blocks");
    fs.checkpoint().unwrap();
    assert!(
        map_bytes(&fs) > before,
        "the checkpoint wrote no map blocks"
    );
    let mut fs = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
    let ino = fs.lookup("/f7").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), [7u8; 6000]);
    check_clean(&mut fs);
}

/// `sync` makes data, inodes and namespace operations durable through
/// roll-forward; state only the inode map records — access times (§3.1)
/// — becomes durable at the next checkpoint, as in Sprite (§4.1).
#[test]
fn access_times_become_durable_at_the_next_checkpoint() {
    let setup = || {
        let mut fs = small_fs();
        let a = fs.write_file("/a", b"read me").unwrap();
        let b = fs.write_file("/b", b"old").unwrap();
        fs.checkpoint().unwrap();
        let before = fs.metadata(a).unwrap().atime;
        fs.advance_clock(1000);
        fs.read(a, 0, &mut [0u8; 4]).unwrap();
        let read_at = fs.metadata(a).unwrap().atime;
        assert!(read_at > before);
        // /b's inode shares /a's inode-map block and moves in the log,
        // so that block is dirty as well.
        fs.write(b, 0, b"new").unwrap();
        fs.sync().unwrap();
        (fs, a, b, before, read_at)
    };

    let (fs, a, b, before, _) = setup();
    let mut fs = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
    assert_eq!(
        fs.read_to_vec(b).unwrap(),
        b"new",
        "the synced write was lost"
    );
    assert_eq!(
        fs.metadata(a).unwrap().atime,
        before,
        "a sync wrote the inode map"
    );

    let (mut fs, a, _, _, read_at) = setup();
    fs.checkpoint().unwrap();
    let mut fs = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
    assert_eq!(fs.metadata(a).unwrap().atime, read_at);
    check_clean(&mut fs);
}

#[test]
fn roll_forward_takes_adopted_inodes_off_the_free_list() {
    let mut fs = small_fs();
    fs.mkdir("/c2").unwrap();
    let mut fs = flush_and_remount(fs);
    // The tail's inode for /c2 was adopted; its number must not be
    // handed out again.
    fs.mkdir("/c").unwrap();
    assert_ne!(fs.lookup("/c").unwrap(), fs.lookup("/c2").unwrap());
    check_clean(&mut fs);
}

#[test]
fn roll_forward_keeps_a_create_truncated_to_zero() {
    let mut fs = small_fs();
    let ino = fs.write_file("/t", &[9u8; 50_000]).unwrap();
    fs.flush().unwrap();
    fs.truncate(ino, 0).unwrap();
    fs.write(ino, 0, b"fresh").unwrap();
    // The tail holds the create record at the file's first version and
    // the inode at the version the truncation gave it.
    let mut fs = flush_and_remount(fs);
    let ino = fs.lookup("/t").expect("a written, truncated file survives");
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"fresh");
    check_clean(&mut fs);
}

#[test]
fn roll_forward_ignores_records_for_a_directory_number_reused_by_a_file() {
    let mut fs = small_fs();
    fs.mkdir("/dir2").unwrap();
    fs.create("/dir2/y").unwrap();
    fs.unlink("/dir2/y").unwrap();
    fs.rmdir("/dir2").unwrap();
    // Reuses the directory's inode number for a regular file.
    fs.write_file("/dir2", b"now a file").unwrap();
    let mut fs = flush_and_remount(fs);
    let ino = fs.lookup("/dir2").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"now a file");
    check_clean(&mut fs);
}

#[test]
fn roll_forward_frees_a_file_truncated_then_unlinked() {
    let mut fs = small_fs();
    let ino = fs.write_file("/f", &[4u8; 20_000]).unwrap();
    fs.checkpoint().unwrap();
    fs.truncate(ino, 0).unwrap();
    fs.unlink("/f").unwrap();
    // Only the unlink record, at the truncated version, reaches the tail.
    let mut fs = flush_and_remount(fs);
    assert!(matches!(fs.lookup("/f"), Err(FsError::NotFound)));
    check_clean(&mut fs);
}

#[test]
fn atomic_rename_under_crashes() {
    // After a rename, any crash point shows exactly one of: old name, new
    // name — never both, never neither.
    let cfg = LfsConfig::small();
    let crash = CrashDisk::new(2048);
    let mut fs = Lfs::format(crash, cfg).unwrap();
    let ino = fs.write_file("/old", b"content").unwrap();
    fs.sync().unwrap();
    fs.device_mut().checkpoint_baseline();
    fs.rename("/old", "/new").unwrap();
    fs.sync().unwrap();

    let crash_ref: &CrashDisk = fs.device();
    let n = crash_ref.num_writes();
    for cut in 0..=n {
        let image = crash_ref.image_after(cut).unwrap();
        let mut fs2 = Lfs::mount(image, cfg).unwrap();
        let old = fs2.lookup("/old").is_ok();
        let new = fs2.lookup("/new").is_ok();
        assert!(
            old ^ new,
            "cut {cut}/{n}: old={old} new={new} — rename not atomic"
        );
        let name = if old { "/old" } else { "/new" };
        let i = fs2.lookup(name).unwrap();
        assert_eq!(i, ino);
        assert_eq!(fs2.read_to_vec(i).unwrap(), b"content");
    }
}

#[test]
fn stats_track_write_cost_components() {
    let mut fs = small_fs();
    for i in 0..50 {
        fs.write_file(&format!("/f{i}"), &[1u8; 4096]).unwrap();
    }
    fs.sync().unwrap();
    let s = fs.stats();
    assert!(s.new_log_bytes() > 50 * 4096);
    assert!(s.write_cost() >= 1.0);
    assert!(s.log_bytes(lfs_core::BlockKind::Data) >= 50 * 4096);
    assert!(s.log_bytes(lfs_core::BlockKind::Summary) > 0);
    assert!(s.log_bytes(lfs_core::BlockKind::Inode) > 0);
    // The flush path renders only the blocks it synthesizes; cached data
    // and directory-log payloads reach the device by reference, uncopied.
    assert_eq!(
        s.flush_copy_bytes,
        s.total_log_bytes()
            - s.log_bytes(lfs_core::BlockKind::Data)
            - s.log_bytes(lfs_core::BlockKind::DirLog)
    );
}

#[test]
fn segment_snapshot_reflects_usage() {
    let mut fs = small_fs();
    fs.write_file("/f", &[1u8; 65536]).unwrap();
    fs.sync().unwrap();
    let snap = fs.segment_snapshot();
    assert_eq!(snap.len(), fs.superblock().nsegments as usize);
    let used: f64 = snap.iter().map(|(_, u)| u).sum();
    assert!(used > 0.0);
}

#[test]
fn read_write_at_odd_offsets() {
    let mut fs = small_fs();
    let ino = fs.create("/odd").unwrap();
    // Overlapping unaligned writes.
    fs.write(ino, 100, &[1u8; 5000]).unwrap();
    fs.write(ino, 4000, &[2u8; 3000]).unwrap();
    fs.write(ino, 0, &[3u8; 50]).unwrap();
    let mut expect = vec![0u8; 7000];
    expect[100..5100].fill(1);
    expect[4000..7000].fill(2);
    expect[0..50].fill(3);
    assert_eq!(fs.read_to_vec(ino).unwrap(), expect);
    // Unaligned read.
    let mut buf = vec![0u8; 1234];
    let n = fs.read(ino, 3999, &mut buf).unwrap();
    assert_eq!(n, 1234);
    assert_eq!(&buf[..], &expect[3999..3999 + 1234]);
    check_clean(&mut fs);
}
