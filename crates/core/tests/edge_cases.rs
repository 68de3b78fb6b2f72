//! Edge-case tests: limits, errors, deep structures, and public API
//! corners not covered by the main integration suite.

use blockdev::{BlockDevice, MemDisk, WriteKind, BLOCK_SIZE};
use lfs_core::{Lfs, LfsConfig};
use vfs::{FileSystem, FsError, MAX_NAME_LEN};

fn small_fs() -> Lfs<MemDisk> {
    Lfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap()
}

#[test]
fn deep_directory_nesting() {
    let mut fs = small_fs();
    let mut path = String::new();
    for i in 0..40 {
        path.push_str(&format!("/level{i}"));
        fs.mkdir(&path).unwrap();
    }
    let file = format!("{path}/leaf");
    fs.write_file(&file, b"deep").unwrap();
    fs.sync().unwrap();
    let dev = fs.into_device();
    let mut fs2 = Lfs::mount(dev, LfsConfig::small()).unwrap();
    let ino = fs2.lookup(&file).unwrap();
    assert_eq!(fs2.read_to_vec(ino).unwrap(), b"deep");
}

#[test]
fn max_length_names_roundtrip() {
    let mut fs = small_fs();
    let name = "n".repeat(MAX_NAME_LEN);
    let path = format!("/{name}");
    fs.write_file(&path, b"x").unwrap();
    assert!(fs.lookup(&path).is_ok());
    let too_long = format!("/{}", "n".repeat(MAX_NAME_LEN + 1));
    assert!(matches!(fs.create(&too_long), Err(FsError::NameTooLong)));
}

#[test]
fn inode_exhaustion_reports_noinodes() {
    let mut cfg = LfsConfig::small();
    cfg.max_inodes = 20; // Inos 2..19 usable (0 invalid, 1 root).
    let mut fs = Lfs::format(MemDisk::new(2048), cfg).unwrap();
    let mut made = 0;
    let err = loop {
        match fs.create(&format!("/f{made}")) {
            Ok(_) => made += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(made, 18);
    assert!(matches!(err, FsError::NoInodes));
    // Deleting frees a number for reuse.
    fs.unlink("/f0").unwrap();
    fs.create("/again").unwrap();
}

#[test]
fn many_hard_links_count_correctly() {
    let mut fs = small_fs();
    let ino = fs.write_file("/base", b"shared").unwrap();
    for i in 0..50 {
        fs.link("/base", &format!("/l{i}")).unwrap();
    }
    assert_eq!(fs.metadata(ino).unwrap().nlink, 51);
    for i in 0..50 {
        fs.unlink(&format!("/l{i}")).unwrap();
    }
    assert_eq!(fs.metadata(ino).unwrap().nlink, 1);
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"shared");
    fs.sync().unwrap();
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn mount_rejects_wrong_device_size() {
    let mut fs = small_fs();
    fs.sync().unwrap();
    let image = fs.into_device().into_image();
    // Truncate the image by one segment.
    let shorter = image[..image.len() - 16 * BLOCK_SIZE].to_vec();
    let res = Lfs::mount(MemDisk::from_image(shorter), LfsConfig::small());
    assert!(matches!(res, Err(FsError::Corrupt(_))));
}

#[test]
fn mount_rejects_garbage_superblock() {
    let mut disk = MemDisk::new(2048);
    let junk = [0xa5u8; BLOCK_SIZE];
    disk.write_block(0, &junk, WriteKind::Sync).unwrap();
    assert!(matches!(
        Lfs::mount(disk, LfsConfig::small()),
        Err(FsError::Corrupt(_))
    ));
}

#[test]
fn format_rejects_tiny_device() {
    assert!(matches!(
        Lfs::format(MemDisk::new(80), LfsConfig::small()),
        Err(FsError::InvalidArgument(_))
    ));
}

#[test]
fn drop_caches_preserves_correctness() {
    let mut fs = small_fs();
    let ino = fs.write_file("/f", &[7u8; 20_000]).unwrap();
    fs.sync().unwrap();
    fs.drop_caches();
    assert_eq!(fs.read_to_vec(ino).unwrap(), vec![7u8; 20_000]);
    // Dirty data must survive a cache drop.
    fs.write(ino, 0, &[9u8; 100]).unwrap();
    fs.drop_caches();
    let mut head = [0u8; 100];
    fs.read(ino, 0, &mut head).unwrap();
    assert_eq!(head, [9u8; 100]);
}

#[test]
fn clean_pass_public_api() {
    let mut fs = Lfs::format(MemDisk::new(1024), LfsConfig::small()).unwrap();
    // Dirty some segments.
    for i in 0..10 {
        fs.write_file(&format!("/f{i}"), &[1u8; 16384]).unwrap();
    }
    for i in 0..10 {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    // Only segments a checkpoint covers are eligible victims.
    fs.checkpoint().unwrap();
    let cleaned = fs.clean_pass().unwrap();
    assert!(cleaned > 0, "nothing cleaned");
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn zero_byte_files_and_empty_dirs() {
    let mut fs = small_fs();
    let ino = fs.create("/empty").unwrap();
    fs.mkdir("/emptydir").unwrap();
    fs.sync().unwrap();
    let mut fs2 = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
    let ino2 = fs2.lookup("/empty").unwrap();
    assert_eq!(ino, ino2);
    assert_eq!(fs2.metadata(ino2).unwrap().size, 0);
    assert!(fs2.readdir("/emptydir").unwrap().is_empty());
    assert!(fs2.read_to_vec(ino2).unwrap().is_empty());
}

#[test]
fn write_at_exact_block_boundaries() {
    let mut fs = small_fs();
    let ino = fs.create("/b").unwrap();
    let bs = BLOCK_SIZE as u64;
    fs.write(ino, bs - 1, &[1, 2, 3]).unwrap(); // Straddles blocks 0/1.
    fs.write(ino, 2 * bs, &[4u8; BLOCK_SIZE]).unwrap(); // Exact block.
    let data = fs.read_to_vec(ino).unwrap();
    assert_eq!(data.len(), 3 * BLOCK_SIZE);
    assert_eq!(data[BLOCK_SIZE - 1], 1);
    assert_eq!(data[BLOCK_SIZE], 2);
    assert_eq!(data[BLOCK_SIZE + 1], 3);
    assert!(data[2 * BLOCK_SIZE..].iter().all(|&b| b == 4));
}

#[test]
fn file_too_large_is_rejected() {
    let mut fs = small_fs();
    let ino = fs.create("/f").unwrap();
    assert!(matches!(
        fs.write(ino, lfs_core::layout::MAX_FILE_SIZE, b"x"),
        Err(FsError::FileTooLarge)
    ));
    assert!(matches!(
        fs.truncate(ino, lfs_core::layout::MAX_FILE_SIZE + 1),
        Err(FsError::FileTooLarge)
    ));
}

#[test]
fn operations_on_missing_paths_fail_cleanly() {
    let mut fs = small_fs();
    assert!(matches!(fs.lookup("/nope"), Err(FsError::NotFound)));
    assert!(matches!(fs.unlink("/nope"), Err(FsError::NotFound)));
    assert!(matches!(fs.readdir("/nope"), Err(FsError::NotFound)));
    assert!(matches!(fs.rename("/nope", "/x"), Err(FsError::NotFound)));
    assert!(matches!(fs.create("/a/b/c"), Err(FsError::NotFound)));
    // File used as directory component.
    fs.write_file("/file", b"x").unwrap();
    assert!(matches!(
        fs.create("/file/under"),
        Err(FsError::NotADirectory)
    ));
}

#[test]
fn statfs_tracks_lifecycle() {
    let mut fs = small_fs();
    let s0 = fs.statfs().unwrap();
    assert_eq!(s0.num_files, 0);
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/f", &[1u8; 10_000]).unwrap();
    let s1 = fs.statfs().unwrap();
    assert_eq!(s1.num_files, 2);
    assert!(s1.live_bytes > s0.live_bytes + 8192);
    fs.unlink("/d/f").unwrap();
    fs.rmdir("/d").unwrap();
    fs.sync().unwrap();
    assert_eq!(fs.statfs().unwrap().num_files, 0);
}

#[test]
fn alternating_checkpoint_regions_survive_corruption_of_one() {
    let mut fs = small_fs();
    fs.write_file("/a", b"1").unwrap();
    fs.checkpoint().unwrap();
    fs.write_file("/b", b"2").unwrap();
    fs.checkpoint().unwrap();
    let mut image = fs.into_device();
    // Corrupt checkpoint region A entirely.
    let junk = vec![0xffu8; BLOCK_SIZE];
    for b in 0..32u64 {
        image.write_blocks(1 + b, &junk, WriteKind::Sync).unwrap();
    }
    let mut fs2 = Lfs::mount(image, LfsConfig::small()).unwrap();
    // Both files recovered from region B (or roll-forward).
    assert!(fs2.lookup("/a").is_ok());
    assert!(fs2.lookup("/b").is_ok());
}

#[test]
fn readdir_root_after_heavy_churn() {
    let mut fs = small_fs();
    for round in 0..5 {
        for i in 0..60 {
            fs.write_file(&format!("/r{round}-{i}"), &[round as u8; 512])
                .unwrap();
        }
        for i in (0..60).step_by(2) {
            fs.unlink(&format!("/r{round}-{i}")).unwrap();
        }
    }
    let listing = fs.readdir("/").unwrap();
    assert_eq!(listing.len(), 5 * 30);
    fs.sync().unwrap();
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn per_block_mtimes_keep_cold_segments_old() {
    // The §3.6 refinement the paper planned: Sprite kept one mtime per
    // file, so touching byte 0 of a big file made ALL its segments look
    // young. With per-block times, only the segment receiving the new
    // copy of block 0 gets younger.
    let mut fs = small_fs();
    let ino = fs.create("/big").unwrap();
    fs.write(ino, 0, &vec![1u8; 256 * 1024]).unwrap(); // 64 blocks.
    fs.sync().unwrap();
    let ages_before = fs.segment_ages();
    let cold_segs: Vec<usize> = ages_before
        .iter()
        .enumerate()
        .filter(|(_, &a)| a > 0)
        .map(|(i, _)| i)
        .collect();
    assert!(cold_segs.len() >= 4, "file should span several segments");

    // Advance time, then touch only the first block, many times.
    fs.advance_clock(1_000_000);
    for _ in 0..5 {
        fs.write(ino, 0, &[9u8; 4096]).unwrap();
        fs.sync().unwrap();
    }
    let ages_after = fs.segment_ages();
    // The segments still holding the untouched cold blocks must keep
    // their ORIGINAL last_write; only segments written after the clock
    // jump may be young.
    let unchanged = cold_segs
        .iter()
        .filter(|&&i| ages_after[i] == ages_before[i])
        .count();
    assert!(
        unchanged >= cold_segs.len() - 2,
        "cold segments aged artificially: {unchanged}/{} kept their age",
        cold_segs.len()
    );
    // And the file's mtime DID advance (per-file time would have tainted
    // every segment).
    assert!(fs.metadata(ino).unwrap().mtime > 1_000_000);
}
