//! End-to-end tests of the command-line tools on real image files.

use std::process::Command;

/// A directory of the calling test's own: tests run on parallel threads
/// of one process, and each removes its directory when it is done.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("lfs-tools-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn mklfs_dump_fsck_pipeline() {
    let dir = tmpdir("mklfs_dump_fsck_pipeline");
    let img = dir.join("disk.img");
    let img_s = img.to_str().unwrap();

    // mklfs
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img_s, "16"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "mklfs: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("formatted"), "{stdout}");

    // Populate the image through the library.
    {
        use vfs::FileSystem;
        let disk = blockdev::FileDisk::open(&img).unwrap();
        let mut fs = lfs_core::Lfs::mount(disk, lfs_core::LfsConfig::default()).unwrap();
        fs.mkdir("/docs").unwrap();
        fs.write_file("/docs/readme.txt", b"tool test").unwrap();
        fs.sync().unwrap();
    }

    // lfsdump
    let out = Command::new(env!("CARGO_BIN_EXE_lfsdump"))
        .args([img_s, "--segments", "--tree"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lfsdump: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("superblock:"), "{stdout}");
    assert!(stdout.contains("checkpoint 0:"), "{stdout}");
    assert!(stdout.contains("readme.txt"), "{stdout}");
    assert!(stdout.contains("ACTIVE"), "{stdout}");

    // lfsck
    let out = Command::new(env!("CARGO_BIN_EXE_lfsck"))
        .arg(img_s)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lfsck: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mklfs_512kb_segments() {
    let dir = tmpdir("mklfs_512kb_segments");
    let img = dir.join("disk512.img");
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img.to_str().unwrap(), "8", "--seg-kb", "512"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("512 KB"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lfsck_rejects_garbage() {
    let dir = tmpdir("lfsck_rejects_garbage");
    let img = dir.join("junk.img");
    std::fs::write(&img, vec![0xa5u8; 64 * 4096]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lfsck"))
        .arg(img.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_image_is_diagnosed_with_exit_code_2() {
    let dir = tmpdir("corrupt_image_is_diagnosed_with_exit_code_2");
    let img = dir.join("junk.img");
    std::fs::write(&img, vec![0x5au8; 80 * 4096]).unwrap();
    for bin in [env!("CARGO_BIN_EXE_lfsck"), env!("CARGO_BIN_EXE_lfsdump")] {
        let out = Command::new(bin)
            .arg(img.to_str().unwrap())
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} on garbage image: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stderr.is_empty(),
            "{bin} must print a diagnostic for a corrupt image"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_checkpoints_are_corrupt_not_crash() {
    // A valid superblock with both checkpoint regions trashed must yield a
    // clean diagnostic and exit 2, not a panic (exit 101).
    let dir = tmpdir("torn_checkpoints_are_corrupt_not_crash");
    let img = dir.join("torn.img");
    let img_s = img.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img_s, "16"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Checkpoint regions live at blocks 1 and 33; overwrite their headers.
    let mut bytes = std::fs::read(&img).unwrap();
    for cr_block in [1usize, 33] {
        bytes[cr_block * 4096..(cr_block + 1) * 4096].fill(0xee);
    }
    std::fs::write(&img, bytes).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lfsck"))
        .arg(img_s)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn format_v1_image_is_diagnosed_as_old() {
    // An image from before checksum v2, from before the v3 summaries, or
    // from before the v4 fragments, must be called old, not corrupt.
    let dir = tmpdir("format_v1_image_is_diagnosed_as_old");
    let img = dir.join("old.img");
    let img_s = img.to_str().unwrap();
    for version in [1u32, 2, 3] {
        let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
            .args([img_s, "16"])
            .output()
            .unwrap();
        assert!(out.status.success());

        // The superblock is block 0; its version is the u32 after the magic.
        let mut bytes = std::fs::read(&img).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&img, bytes).unwrap();

        let named = format!("on-disk format v{version}");
        for bin in [env!("CARGO_BIN_EXE_lfsck"), env!("CARGO_BIN_EXE_lfsdump")] {
            let out = Command::new(bin).arg(img_s).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
            assert!(stderr.contains(&named), "{bin}: {stderr}");
            assert!(stderr.contains("mklfs"), "{bin}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tools_usage_errors() {
    for bin in [env!("CARGO_BIN_EXE_mklfs"), env!("CARGO_BIN_EXE_lfsck")] {
        let out = Command::new(bin).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} without args");
    }
}

#[test]
fn lfsdump_prints_each_summarys_watermark_and_release_list() {
    let dir = tmpdir("lfsdump_prints_each_summarys_watermark_and_release_list");
    let img = dir.join("disk.img");
    let img_s = img.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mklfs"))
        .args([img_s, "16"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // A file overwritten whole leaves its first segment empty, and a
    // cleaner pass releases it.
    {
        use vfs::FileSystem;
        let disk = blockdev::FileDisk::open(&img).unwrap();
        let mut fs = lfs_core::Lfs::mount(disk, lfs_core::LfsConfig::default()).unwrap();
        let ino = fs.write_file("/big", &vec![1u8; 1536 << 10]).unwrap();
        fs.checkpoint().unwrap();
        fs.write(ino, 0, &vec![2u8; 1536 << 10]).unwrap();
        fs.checkpoint().unwrap();
        assert!(fs.clean_pass().unwrap() > 0, "nothing cleaned");
        fs.sync().unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_lfsdump"))
        .args([img_s, "--summaries"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("summaries:"), "{stdout}");
    assert!(stdout.contains("watermark"), "{stdout}");
    assert!(stdout.contains("releases segments ["), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
