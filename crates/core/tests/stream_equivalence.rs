//! Layout golden pins.
//!
//! A fixed deterministic workload on a `SimDisk` (and on a two-shard
//! `VolumeSet`) must produce the exact image hash and simulated
//! service-time statistics pinned below, and a cold read-back of its
//! files the exact device requests. Any code path that perturbs layout,
//! cleaning or timing trips them. They were first captured as the
//! single-stream half of the file system's temperature-keyed write
//! streams; with the streams gone, one log head per shard is the only
//! layout and the pins hold it.

use blockdev::{BlockDevice, DiskModel, SimDisk, VolumeSet};
use lfs_core::layout::SEGMENTS_START;
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;

const SEG_BLOCKS: u64 = 16;

/// FNV-1a over an image, to keep golden constants short.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed deterministic workload: enough overwrite churn on a small
/// disk to force multiple flushes and cleaner passes.
fn golden_workload<D: blockdev::QueueDevice>(fs: &mut Lfs<D>) {
    let mut st = 0x5eed_0123_4567_89abu64;
    let path = |f: u64| format!("/f{f}");
    for _ in 0..400 {
        let r = splitmix(&mut st);
        let file = r % 6;
        match (r >> 8) % 20 {
            0..=13 => {
                let offset = splitmix(&mut st) % 120_000;
                let len = 1 + (splitmix(&mut st) % 12_288) as usize;
                let fill = (splitmix(&mut st) & 0xff) as u8;
                let ino = match fs.lookup(&path(file)) {
                    Ok(ino) => ino,
                    Err(_) => fs.create(&path(file)).expect("create"),
                };
                fs.write(ino, offset, &vec![fill; len]).expect("write");
            }
            14..=15 => {
                if let Ok(ino) = fs.lookup(&path(file)) {
                    let size = splitmix(&mut st) % 120_000;
                    fs.truncate(ino, size).expect("truncate");
                }
            }
            16 => {
                let _ = fs.unlink(&path(file));
            }
            17..=18 => fs.sync().expect("sync"),
            _ => fs.drop_caches(),
        }
    }
    fs.sync().expect("final sync");
}

/// Golden values captured from the tree immediately before PR 10 (the
/// last commit with single write point per shard and no stream config).
/// `streams = 1` must reproduce them bit for bit.
///
/// Re-pinned by rule in PR 20 (on-disk format v2, parent a55596d): the
/// checksum function changed, and summaries, checkpoints and the
/// superblock embed checksums, so element 0 (the image hash) of both
/// tuples moved. The other five — device time, seeks, requests, bytes —
/// and all of `GOLDEN_READ` are as committed at the parent: no byte of
/// layout moved.
///
/// Re-pinned by rule in PR 25 (parent 4c83c2e): inode-map and
/// usage-table blocks now reach the log with checkpoints and a cleaner
/// pass's closing flush only, not with every partial write, so the log
/// layout changed on purpose. In `GOLDEN_SINGLE` every element moved
/// (bytes written 0x49_d000 → 0x46_c000, in one request more: 0xa9 →
/// 0xaa). In `GOLDEN_TWO_SHARD` all but the request count moved (bytes
/// 0x3e_f000 → 0x3e_5000). `GOLDEN_READ` reads the same 90 blocks in 57
/// requests instead of 55, so its request count and busy time moved: the
/// files' blocks sit at other addresses.
///
/// Re-pinned by rule again (parent 42b8683): `sync` is now a log
/// append (flush + fence) instead of a checkpoint, so the workload's
/// syncs no longer write inode-map and usage-table blocks and a
/// checkpoint region each, and the log layout changed on purpose. Every
/// element of both tuples moved: `GOLDEN_SINGLE` writes 0xaa → 0x81
/// requests and 0x46_c000 → 0x3f_e000 bytes, `GOLDEN_TWO_SHARD` 0x90 →
/// 0x67 requests and 0x3e_5000 → 0x37_7000 bytes. `GOLDEN_READ` still
/// reads the same 90 blocks in 57 requests; only its busy time moved,
/// because the blocks sit at other addresses.
///
/// Re-pinned by rule again (parent 4f0cf27): a `sync` no longer rewrites
/// the root directory, which the log already holds; the workload's
/// creates and unlinks in it reach the log as directory-log records
/// until a buffer-full flush or checkpoint writes its block. The log
/// layout changed on purpose. `GOLDEN_SINGLE`: image 0x6e71_f440_bff3_6bfb
/// → 0x3875_7995_28eb_9c8a, busy 0x2_0a2a_cb3c → 0x2_0a0b_a6cd,
/// positioning 0x1_1456_1a84 → 0x1_14f7_44da, seeks 0x14e unchanged,
/// 0x81 → 0x84 requests for 0x3f_e000 → 0x3f_c000 bytes.
/// `GOLDEN_TWO_SHARD`: image 0xd2df_5e8e_ab7a_cdf2 → 0xff6c_5f29_cf15_acb9,
/// busy 0x1_f4a0_c5d3 → 0x1_e1f0_5895, positioning 0x1_1b87_d9f6 →
/// 0x1_0de9_806a, seeks 0x139 → 0x12a, 0x67 requests unchanged for
/// 0x37_7000 → 0x36_a000 bytes. `GOLDEN_READ` still reads the same 90
/// blocks in 57 requests; only its busy time moved, 0x3c70_1684 →
/// 0x3c6b_6d85.
///
/// Re-pinned by rule again (parent a956a93): on-disk format v3. Every
/// summary carries a fence watermark in a 48-byte header, and a write
/// point's full segment stays `Active` until its cursor moves on, so the
/// summaries and usage-table blocks hold other bytes. The workload cleans
/// nothing, so only the image hashes moved: `GOLDEN_SINGLE`
/// 0x3875_7995_28eb_9c8a → 0xc025_d57a_657e_5826, `GOLDEN_TWO_SHARD`
/// 0xff6c_5f29_cf15_acb9 → 0xc5dc_78d7_7262_e84e. Device time, seeks,
/// requests and bytes, and all of `GOLDEN_READ`, are as at the parent.
///
/// Re-pinned by rule again (parent 6f5be22): a buffer-full flush stops
/// at the last segment boundary it reaches, and what it cuts off waits
/// for the next flush, so fewer partial writes (and summaries) reach the
/// log and the layout changed on purpose. `GOLDEN_SINGLE`: image
/// 0xc025_d57a_657e_5826 → 0x0004_2d73_b9e0_da5f, busy 0x2_0a0b_a6cd →
/// 0x1_ffad_baf8, positioning 0x1_14f7_44da → 0x1_0f7b_58fe, seeks 0x14e
/// → 0x149, 0x84 → 0x70 requests for 0x3f_c000 → 0x3e_6000 bytes.
/// `GOLDEN_TWO_SHARD`: image 0xc5dc_78d7_7262_e84e → 0x17e8_6b2c_21a4_c55b,
/// busy 0x1_e1f0_5895 → 0x1_e166_a34d, positioning 0x1_0de9_806a →
/// 0x1_0df0_0633, seeks 0x12a unchanged, 0x67 → 0x65 requests for
/// 0x36_a000 → 0x36_7000 bytes. `GOLDEN_READ` reads the same file blocks
/// in the same 57 requests, but two inode blocks fewer (90 → 88 blocks):
/// the inodes of `/f3` and `/f5` now share an inode block the read of
/// `/f0` fetches. Its busy time moved, 0x3c6b_6d85 → 0x3c0c_02b4.
///
/// Re-pinned by rule again (parent e06ae14): on-disk format v4. A
/// regular file's partial last block is written as a fragment that
/// shares a fragment block with other files' tails, right after the full
/// blocks of the file whose tail opens it, so the workload's odd-sized
/// writes reach the log in fewer blocks, and the superblock says v4.
/// `GOLDEN_SINGLE`: image 0x0004_2d73_b9e0_da5f → 0x8f61_46c0_0b10_9486,
/// busy 0x1_ffad_baf8 → 0x1_f201_49c0, positioning 0x1_0f7b_58fe →
/// 0x1_0921_e7bb, seeks 0x149 → 0x141, 0x70 → 0x69 requests for
/// 0x3e_6000 → 0x3c_7000 bytes. `GOLDEN_TWO_SHARD`: image
/// 0x17e8_6b2c_21a4_c55b → 0x9139_152f_9a5e_7ba5, busy 0x1_e166_a34d →
/// 0x1_dba5_7c1d, positioning 0x1_0df0_0633 → 0x1_0a3f_b79b, seeks 0x12a
/// → 0x126, 0x65 → 0x61 requests for 0x36_7000 → 0x35_c000 bytes.
/// `GOLDEN_READ` reads the same 88 blocks in 53 requests instead of 57:
/// a file's fragment block now follows its full blocks, so its run reads
/// its tail too. Its busy time moved, 0x3c0c_02b4 → 0x39d9_b77e.
const GOLDEN_SINGLE: (u64, u64, u64, u64, u64, u64) = (
    0x8f61_46c0_0b10_9486, // image fnv1a
    0x0000_0001_f201_49c0, // busy_ns
    0x0000_0001_0921_e7bb, // positioning_ns
    0x141,                 // seeks
    0x69,                  // writes
    0x003c_7000,           // bytes_written
);
const GOLDEN_TWO_SHARD: (u64, u64, u64, u64, u64, u64) = (
    0x9139_152f_9a5e_7ba5,
    0x0000_0001_dba5_7c1d,
    0x0000_0001_0a3f_b79b,
    0x126,
    0x61,
    0x0035_c000,
);

fn run_golden<D: blockdev::QueueDevice>(dev: D, cfg: LfsConfig) -> Lfs<D> {
    let mut fs = Lfs::format(dev, cfg).expect("format");
    golden_workload(&mut fs);
    fs
}

#[test]
fn single_stream_is_bit_identical_to_pre_stream_image() {
    let fs = run_golden(SimDisk::new(4096, DiskModel::wren_iv()), LfsConfig::small());
    let s = fs.device().stats();
    let got = (
        fnv1a(fs.into_device().image()),
        s.busy_ns,
        s.positioning_ns,
        s.seeks,
        s.writes,
        s.bytes_written,
    );
    println!("GOLDEN_SINGLE: {got:#018x?}");
    assert_eq!(got, GOLDEN_SINGLE);
}

#[test]
fn single_stream_two_shard_volume_is_bit_identical_to_pre_stream_image() {
    let shards: Vec<SimDisk> = (0..2)
        .map(|_| SimDisk::new(SEGMENTS_START + 64 * SEG_BLOCKS, DiskModel::wren_iv()))
        .collect();
    let set = VolumeSet::new(shards, SEGMENTS_START, SEG_BLOCKS);
    let fs = run_golden(set, LfsConfig::small());
    let stats: Vec<_> = (0..2)
        .map(|i| fs.device().shard_stats(i).unwrap())
        .collect();
    let busy: u64 = stats.iter().map(|s| s.busy_ns).sum();
    let pos: u64 = stats.iter().map(|s| s.positioning_ns).sum();
    let seeks: u64 = stats.iter().map(|s| s.seeks).sum();
    let writes: u64 = stats.iter().map(|s| s.writes).sum();
    let bw: u64 = stats.iter().map(|s| s.bytes_written).sum();
    let shards = fs.into_device().into_shards();
    let mut h = 0u64;
    for sh in &shards {
        h = h.wrapping_mul(0x100_0000_01b3) ^ fnv1a(sh.image());
    }
    let got = (h, busy, pos, seeks, writes, bw);
    println!("GOLDEN_TWO_SHARD: {got:#018x?}");
    assert_eq!(got, GOLDEN_TWO_SHARD);
}

/// Read-side golden, captured on the last tree that still had a
/// one-request-per-block read path to compare against (PR 13's parent):
/// after the golden workload, a cold front-to-back read of every file
/// must cost exactly these device requests, bytes and simulated service
/// time. Runs of contiguous addresses go out as single requests, so
/// `reads` (53 for 88 blocks) pins the batching and `busy_ns` pins that a
/// run is charged what its blocks cost back to back. Re-pinned with the
/// write goldens above whenever the log layout moved (see there).
const GOLDEN_READ: (u64, u64, u64) = (
    0x35,        // reads
    0x0005_8000, // bytes_read (88 blocks)
    0x39d9_b77e, // busy_ns
);

#[test]
fn cold_read_back_matches_pinned_requests_and_service_time() {
    let mut fs = run_golden(SimDisk::new(4096, DiskModel::wren_iv()), LfsConfig::small());
    fs.drop_caches();
    let before = fs.device().stats();
    contents(&mut fs);
    let after = fs.device().stats();
    let got = (
        after.reads - before.reads,
        after.bytes_read - before.bytes_read,
        after.busy_ns - before.busy_ns,
    );
    println!("GOLDEN_READ: {got:#x?}");
    assert_eq!(got, GOLDEN_READ);
}

/// Reads back every workload file (`None` when it does not exist).
fn contents<D: blockdev::QueueDevice>(fs: &mut Lfs<D>) -> Vec<Option<Vec<u8>>> {
    (0..6)
        .map(|f| match fs.lookup(&format!("/f{f}")) {
            Ok(ino) => Some(fs.read_to_vec(ino).expect("read")),
            Err(_) => None,
        })
        .collect()
}
