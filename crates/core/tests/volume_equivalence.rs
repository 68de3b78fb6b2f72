//! Multi-volume equivalence and striping invariants.
//!
//! The `VolumeSet` contract has two halves the file system depends on:
//!
//! 1. **Single-shard transparency** — a volume set of one disk is
//!    indistinguishable from the bare disk: byte-identical images,
//!    identical simulated service-time statistics. This pins the N=1
//!    configuration to the exact behaviour of every previous release.
//! 2. **Segment-granular striping** — with N shards, every segment's
//!    blocks live on exactly one shard, and segment `g` lives on shard
//!    `g % N`. Layout, cleaning, and recovery all assume this mapping.
//!
//! The rest of the file exercises the multi-shard file system end to
//! end: write/read/remount, roll-forward across shards after an unclean
//! shutdown, and cleaning that regenerates free segments on *every*
//! shard (the starved-shard regression).

use blockdev::{
    BlockDevice, DiskModel, FaultDisk, FaultPlan, MemDisk, QueuedDev, SimDisk, VolumeSet,
};
use lfs_core::layout::SEGMENTS_START;
use lfs_core::{Lfs, LfsConfig};
use proptest::prelude::*;
use vfs::model::assert_same_tree;
use vfs::{FileSystem, FsError, Ino, Op};

mod common;

const SEG_BLOCKS: u64 = 16;

fn cfg() -> LfsConfig {
    LfsConfig::small()
}

/// A volume set of `n` fresh MemDisks sized for `stripes` segments each.
fn mem_set(n: usize, stripes: u64) -> VolumeSet<MemDisk> {
    let shards = (0..n)
        .map(|_| MemDisk::new(SEGMENTS_START + stripes * SEG_BLOCKS))
        .collect();
    VolumeSet::new(shards, SEGMENTS_START, SEG_BLOCKS)
}

fn op_strategy() -> impl Strategy<Value = Option<Op>> {
    prop_oneof![
        (0..4u8, 0u32..120_000, 1u16..12_288, any::<u8>()).prop_map(|(file, offset, len, fill)| {
            Some(Op::Write(
                file as Ino,
                offset as u64,
                vec![fill; len as usize],
            ))
        }),
        (0..4u8, 0u32..120_000)
            .prop_map(|(file, size)| Some(Op::Truncate(file as Ino, size as u64))),
        (0..4u8).prop_map(|file| Some(Op::Unlink(common::path(file as Ino)))),
        Just(Some(Op::Sync)),
        Just(None),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// N=1 bit-identity: the same workload on a bare SimDisk and on a
    /// VolumeSet wrapping one SimDisk produces byte-identical images and
    /// identical simulated service-time statistics.
    #[test]
    fn single_shard_volume_is_bit_identical(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let bare = SimDisk::new(4096, DiskModel::wren_iv());
        let wrapped = VolumeSet::new(
            vec![SimDisk::new(4096, DiskModel::wren_iv())],
            SEGMENTS_START,
            SEG_BLOCKS,
        );
        let mut fs_bare = Lfs::format(bare, cfg()).expect("format bare");
        let mut fs_wrap = Lfs::format(wrapped, cfg()).expect("format wrapped");
        let stream = common::stream(&ops);
        common::run(&mut fs_bare, &stream);
        common::run(&mut fs_wrap, &stream);
        fs_bare.sync().expect("sync");
        fs_wrap.sync().expect("sync");

        let sb = fs_bare.device().stats();
        let sw = fs_wrap.device().stats();
        prop_assert_eq!(sb.busy_ns, sw.busy_ns);
        prop_assert_eq!(sb.sync_busy_ns, sw.sync_busy_ns);
        prop_assert_eq!(sb.positioning_ns, sw.positioning_ns);
        prop_assert_eq!(sb.seeks, sw.seeks);
        prop_assert_eq!(sb.reads, sw.reads);
        prop_assert_eq!(sb.writes, sw.writes);
        prop_assert_eq!(sb.bytes_read, sw.bytes_read);
        prop_assert_eq!(sb.bytes_written, sw.bytes_written);

        let bare = fs_bare.into_device();
        let wrapped = fs_wrap.into_device().into_shards();
        prop_assert_eq!(bare.image(), wrapped[0].image());
    }

    /// The multi-shard file system agrees with the single-volume one on
    /// every read, across random workloads and a final remount.
    #[test]
    fn multi_shard_contents_match_single_volume(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let mut fs_one = Lfs::format(mem_set(1, 4 * 32), cfg()).expect("format 1");
        let mut fs_four = Lfs::format(mem_set(4, 32), cfg()).expect("format 4");
        let stream = common::stream(&ops);
        common::run(&mut fs_one, &stream);
        common::run(&mut fs_four, &stream);
        fs_one.sync().expect("sync");
        fs_four.sync().expect("sync");
        let mut fs_one = Lfs::mount(fs_one.into_device(), cfg()).expect("remount 1");
        let mut fs_four = Lfs::mount(fs_four.into_device(), cfg()).expect("remount 4");
        assert_same_tree(&mut fs_one, &mut fs_four);
    }
}

/// Striping invariant: every block of segment `g` maps to shard `g % N`,
/// for every segment of the formatted geometry.
#[test]
fn every_segment_lives_on_exactly_one_shard() {
    for n in [2usize, 4, 8] {
        let set = mem_set(n, 16);
        let fs = Lfs::format(set, cfg()).expect("format");
        let nsegs = fs.clean_segment_count() + fs.write_points().len() as u32;
        assert!(nsegs as usize >= n, "fewer segments than shards");
        let set = fs.into_device();
        let seg_start = |g: u64| SEGMENTS_START + g * SEG_BLOCKS;
        for g in 0..(16 * n as u64) {
            let owner = set.shard_of_block(seg_start(g));
            assert_eq!(owner, (g as usize) % n, "segment {g} on wrong shard");
            for b in 0..SEG_BLOCKS {
                assert_eq!(
                    set.shard_of_block(seg_start(g) + b),
                    owner,
                    "segment {g} straddles shards at block {b}"
                );
            }
        }
        // The meta region (superblock + checkpoint regions) is pinned to
        // shard 0.
        for b in 0..SEGMENTS_START {
            assert_eq!(set.shard_of_block(b), 0, "meta block {b} off shard 0");
        }
    }
}

/// Multi-shard roll-forward: flushed-but-not-checkpointed data written
/// across all four shards' write points survives an unclean shutdown.
#[test]
fn roll_forward_recovers_tail_across_shards() {
    let mut fs = Lfs::format(mem_set(4, 32), cfg()).expect("format");
    let mut inos: Vec<(String, Ino)> = Vec::new();
    for i in 0..6 {
        let path = format!("/pre{i}");
        let ino = fs
            .write_file(&path, &vec![i as u8; 3 * 4096])
            .expect("write");
        inos.push((path, ino));
    }
    fs.checkpoint().expect("checkpoint");
    // Tail: enough chunks to rotate over every shard's write point.
    for i in 0..12 {
        let path = format!("/tail{i}");
        fs.write_file(&path, &vec![0xA0 + i as u8; 2 * 4096])
            .expect("write tail");
        fs.flush().expect("flush");
    }
    // No checkpoint: drop the fs as if the host crashed.
    let set = fs.into_device();
    let mut fs = Lfs::mount(set, cfg()).expect("mount after crash");
    for i in 0..6 {
        let ino = fs.lookup(&format!("/pre{i}")).expect("pre file lost");
        assert_eq!(fs.read_to_vec(ino).expect("read"), vec![i as u8; 3 * 4096]);
    }
    for i in 0..12 {
        let ino = fs
            .lookup(&format!("/tail{i}"))
            .unwrap_or_else(|_| panic!("tail file {i} not rolled forward"));
        assert_eq!(
            fs.read_to_vec(ino).expect("read"),
            vec![0xA0 + i as u8; 2 * 4096]
        );
    }
}

/// Cleaning on a volume set must regenerate clean segments on every
/// shard — a shard with zero clean segments and no pick would wedge the
/// layout even when the aggregate clean count looks healthy (the
/// starved-shard augmentation in `select_candidates`).
#[test]
fn cleaner_regenerates_segments_on_every_shard() {
    let n = 4usize;
    let mut fs = Lfs::format(mem_set(n, 16), cfg()).expect("format");
    // Fill most of the disk with small files, then delete two of every
    // three so most segments are fragmented.
    let mut created = Vec::new();
    for i in 0..96 {
        let path = format!("/f{i}");
        match fs.write_file(&path, &vec![i as u8; 2 * 4096]) {
            Ok(_) => created.push(path),
            Err(FsError::NoSpace) => break,
            Err(e) => panic!("write: {e:?}"),
        }
    }
    fs.checkpoint().expect("checkpoint");
    for (i, path) in created.iter().enumerate() {
        if i % 3 != 0 {
            fs.unlink(path).expect("unlink");
        }
    }
    // Only segments a checkpoint covers are eligible victims.
    fs.checkpoint().expect("checkpoint");
    for _ in 0..8 {
        if fs.clean_pass().expect("clean") == 0 {
            break;
        }
    }
    // Count clean segments per shard from the usage table exposure:
    // remount and keep writing — every shard must accept new data.
    let mut fs = Lfs::mount(fs.into_device(), cfg()).expect("remount");
    for i in 0..24 {
        fs.write_file(&format!("/post{i}"), &vec![0x5A; 4096])
            .expect("post-clean write");
        fs.sync().expect("sync");
    }
    for (i, path) in created.iter().enumerate() {
        if i % 3 == 0 {
            let ino = fs.lookup(path).expect("survivor lost");
            assert_eq!(fs.read_to_vec(ino).expect("read"), vec![i as u8; 2 * 4096]);
        }
    }
}

/// The queued (submission-ring) write path fans chunks out across the
/// shards' independent rings; contents and recovery must be unaffected.
#[test]
fn queued_volume_set_round_trips() {
    let shards: Vec<QueuedDev<MemDisk>> = (0..4)
        .map(|_| QueuedDev::new(MemDisk::new(SEGMENTS_START + 32 * SEG_BLOCKS), 8))
        .collect();
    let set = VolumeSet::new(shards, SEGMENTS_START, SEG_BLOCKS);
    let mut fs = Lfs::format(set, cfg()).expect("format");
    for i in 0..16 {
        fs.write_file(&format!("/q{i}"), &vec![i as u8; 5 * 4096])
            .expect("write");
    }
    fs.sync().expect("sync");
    let mut fs = Lfs::mount(fs.into_device(), cfg()).expect("remount");
    for i in 0..16 {
        let ino = fs.lookup(&format!("/q{i}")).expect("file lost");
        assert_eq!(fs.read_to_vec(ino).expect("read"), vec![i as u8; 5 * 4096]);
    }
}

/// Format-time geometry validation (single-device-assumption bugfixes):
/// a stripe unit that differs from the segment size, or a set with fewer
/// segments than shards, is rejected up front instead of corrupting the
/// mapping later.
#[test]
fn format_rejects_bad_volume_geometry() {
    // Stripe != segment size.
    let set = VolumeSet::new(
        (0..2).map(|_| MemDisk::new(2048)).collect::<Vec<_>>(),
        SEGMENTS_START,
        SEG_BLOCKS * 2,
    );
    assert!(matches!(
        Lfs::format(set, cfg()),
        Err(FsError::InvalidArgument(_))
    ));
}

/// Regression (single-device assumption): a volume set of synchronous
/// shims used to report its summed queue capacity, which told the fs
/// submit errors were ring-retried internally — they are not, so every
/// transient fault leaked to the caller instead of being absorbed by the
/// in-place retry path.
#[test]
fn transient_faults_on_bare_shards_are_absorbed() {
    let shards: Vec<_> = (0..4u64)
        .map(|i| {
            FaultDisk::new(
                MemDisk::new(SEGMENTS_START + 12 * SEG_BLOCKS),
                FaultPlan::new(0xFA + i)
                    .with_write_faults(0.3)
                    .with_transient_failures(2),
            )
        })
        .collect();
    let set = VolumeSet::new(shards, SEGMENTS_START, SEG_BLOCKS);
    let mut fs = Lfs::format(set, cfg()).expect("format");
    for v in 0..24u8 {
        let path = format!("/f{}", v % 6);
        let ino = match fs.lookup(&path) {
            Ok(ino) => ino,
            Err(_) => fs.create(&path).expect("create"),
        };
        fs.write(ino, 0, &vec![v; 5000])
            .expect("write under faults");
        if v % 5 == 0 {
            fs.sync().expect("sync under faults");
        }
    }
    fs.sync().expect("final sync");
    assert!(fs.stats().io_retries > 0, "the plan must actually fire");
    assert_eq!(fs.stats().io_giveups, 0);
}

/// Regression (single-device assumption): the auto-flush trigger was one
/// segment's payload no matter how many shards the set had, so every
/// flush carried a single segment of work and the chunk rotation parked
/// the large chunks on the same parity shards — on a four-volume set two
/// arms did nearly all the writing while two idled. The trigger now
/// scales with the number of write points: below N segments of dirty
/// data nothing reaches the log, and a triggered flush spreads about one
/// segment per shard.
#[test]
fn auto_flush_trigger_scales_with_shard_count_and_balances() {
    let shards: Vec<_> = (0..4)
        .map(|_| SimDisk::new(SEGMENTS_START + 12 * SEG_BLOCKS, DiskModel::wren_iv()))
        .collect();
    let set = VolumeSet::new(shards, SEGMENTS_START, SEG_BLOCKS);
    let mut fs = Lfs::format(set, cfg()).expect("format");
    let written = |fs: &Lfs<VolumeSet<SimDisk>>| -> Vec<u64> {
        (0..4)
            .map(|i| {
                fs.device()
                    .shard_stats(i)
                    .expect("shard stats")
                    .bytes_written
            })
            .collect()
    };
    let base = written(&fs);
    let threshold = cfg().flush_threshold_bytes as usize;
    let ino = fs.create("/big").expect("create");
    // Two single-volume thresholds of dirty data: under the ×4 scaled
    // trigger this stays buffered instead of dribbling out one segment.
    fs.write(ino, 0, &vec![7u8; 2 * threshold]).expect("write");
    assert_eq!(
        written(&fs),
        base,
        "dirty data below the scaled trigger hit the log"
    );
    // Well past the scaled trigger: the flushes must use all four arms
    // with comparable volume, not alternate between two of them.
    fs.write(ino, 2 * threshold as u64, &vec![9u8; 12 * threshold])
        .expect("write");
    fs.sync().expect("sync");
    let per_shard: Vec<u64> = written(&fs)
        .iter()
        .zip(&base)
        .map(|(now, was)| now - was)
        .collect();
    let max = *per_shard.iter().max().expect("four shards");
    let min = *per_shard.iter().min().expect("four shards");
    assert!(min > 0, "a shard idled through the workload: {per_shard:?}");
    assert!(
        max < 2 * min,
        "log writes skewed across shards: {per_shard:?}"
    );
}
