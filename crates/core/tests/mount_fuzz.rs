//! Fuzz-style mount tests: `Lfs::mount` on an arbitrarily mutated image
//! must return `Ok` or `Err` — it must never panic. When it returns `Ok`,
//! the offline checker must also run to completion without panicking
//! (a dirty report is acceptable; a crash is not).
//!
//! The mutations start from a real formatted image so the corruption lands
//! on structures the mount path actually parses (superblock, checkpoint
//! regions, segment summaries, inodes, dirlog blocks), not just on zeroed
//! free space.

use std::sync::OnceLock;

use blockdev::{MemDisk, QueueDevice, VolumeSet, BLOCK_SIZE};
use lfs_core::checkpoint::Checkpoint;
use lfs_core::layout::{CR0_ADDR, CR1_ADDR, SEGMENTS_START};
use lfs_core::{Lfs, LfsConfig};
use proptest::prelude::*;
use vfs::{FileSystem, FsError};

fn cfg() -> LfsConfig {
    LfsConfig::small()
}

/// A populated image exercising files, directories, renames, and enough
/// data volume to span several segments.
fn base_image() -> &'static [u8] {
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| {
        let mut fs = Lfs::format(MemDisk::new(1024), cfg()).unwrap();
        fs.mkdir("/dir").unwrap();
        fs.write_file("/dir/f", &[7u8; 20_000]).unwrap();
        fs.write_file("/g", b"hello").unwrap();
        fs.rename("/g", "/dir/g").unwrap();
        fs.link("/dir/f", "/alias").unwrap();
        fs.sync().unwrap();
        fs.write_file("/late", &[9u8; 6_000]).unwrap();
        fs.flush().unwrap(); // past the checkpoint: exercises roll-forward
        fs.into_device().into_image()
    })
}

/// Mounts the image and, if it mounts, runs the checker; the only failure
/// mode this harness rejects is a panic (which `proptest!` catches and
/// reports with the deterministic case number).
fn mount_must_not_panic(img: Vec<u8>) {
    if let Ok(mut fs) = Lfs::mount(MemDisk::from_image(img), cfg()) {
        let _ = fs.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn mount_survives_scattered_byte_corruption(
        edits in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<u8>()),
            1..96,
        )
    ) {
        let mut img = base_image().to_vec();
        for (idx, val) in edits {
            let i = idx.index(img.len());
            img[i] = val;
        }
        mount_must_not_panic(img);
    }

    #[test]
    fn mount_survives_whole_block_trashing(
        blocks in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<u8>()),
            1..8,
        )
    ) {
        let mut img = base_image().to_vec();
        let nblocks = img.len() / BLOCK_SIZE;
        for (idx, fill) in blocks {
            let b = idx.index(nblocks);
            img[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE].fill(fill);
        }
        mount_must_not_panic(img);
    }

    #[test]
    fn mount_survives_truncated_tail(
        keep in any::<proptest::sample::Index>(),
        fill in any::<u8>(),
    ) {
        // Zero (or fill) everything past an arbitrary point, simulating a
        // device that lost its tail.
        let mut img = base_image().to_vec();
        let cut = keep.index(img.len());
        img[cut..].fill(fill);
        mount_must_not_panic(img);
    }
}

/// A two-volume image: the same file system striped over two `MemDisk`s,
/// one write point per volume.
fn two_volume_set() -> VolumeSet<MemDisk> {
    let seg_blocks = cfg().seg_blocks as u64;
    let disks = (0..2).map(|_| MemDisk::new(SEGMENTS_START + 16 * seg_blocks));
    let set = VolumeSet::new(disks.collect(), SEGMENTS_START, seg_blocks);
    let mut fs = Lfs::format(set, cfg()).unwrap();
    fs.write_file("/f", &[3u8; 20_000]).unwrap();
    fs.sync().unwrap();
    fs.into_device()
}

/// Rewrites both checkpoint regions of `dev` through `edit` and mounts
/// it. The mount must be refused as corrupt; returns the message.
fn refused_mount<D: QueueDevice>(mut dev: D, edit: fn(&mut Checkpoint)) -> String {
    let regions = [CR0_ADDR, CR1_ADDR];
    let (mut cp, _) = Checkpoint::read_latest(&mut dev, regions).unwrap();
    edit(&mut cp);
    for region in regions {
        cp.write_to(&mut dev, region).unwrap();
    }
    match Lfs::mount(dev, cfg()) {
        Err(FsError::Corrupt(msg)) => msg,
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(_) => panic!("a checkpoint with a bad write point mounted"),
    }
}

/// Every write point a checkpoint may not name is refused with an error
/// of its own, not mounted and not a panic: one log head per shard (a
/// single-volume checkpoint listing two write points, what a file system
/// with two temperature-keyed write streams wrote), a segment past the
/// disk, an offset past the segment, and a head on another shard's
/// volume.
#[test]
fn a_bad_write_point_in_a_checkpoint_is_refused() {
    type Row = (&'static str, bool, fn(&mut Checkpoint), &'static str);
    let rows: [Row; 4] = [
        (
            "a second write point on one volume",
            false,
            |cp| {
                assert!(cp.extra_write_points.is_empty());
                let free = (0..cp.live_bytes.len() as u32)
                    .rev()
                    .find(|&s| cp.live_bytes[s as usize] == 0 && s != cp.cur_seg)
                    .unwrap();
                cp.extra_write_points = vec![(free, 0)];
            },
            "write-point count",
        ),
        (
            "a segment past the disk",
            false,
            |cp| cp.cur_seg = cp.live_bytes.len() as u32,
            "log head segment out of range",
        ),
        (
            "an offset past the segment",
            false,
            |cp| cp.cur_off = cfg().seg_blocks + 1,
            "log head offset out of range",
        ),
        (
            "the heads of two volumes swapped",
            true,
            |cp| {
                let first = (cp.cur_seg, cp.cur_off);
                (cp.cur_seg, cp.cur_off) = cp.extra_write_points[0];
                cp.extra_write_points[0] = first;
            },
            "write point on wrong shard",
        ),
    ];
    for (what, two_volumes, edit, expect) in rows {
        let msg = if two_volumes {
            refused_mount(two_volume_set(), edit)
        } else {
            refused_mount(MemDisk::from_image(base_image().to_vec()), edit)
        };
        assert!(msg.contains(expect), "{what}: refused with {msg:?}");
    }
}
