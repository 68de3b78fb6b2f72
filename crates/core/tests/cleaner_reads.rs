//! What the cleaner reads, counted at the device.
//!
//! The cleaner walks a victim's summary chain (one request per summary
//! block), decides liveness from memory, and then reads only the live
//! blocks it will relocate and does not already hold: runs of them, one
//! request each, bridging dead gaps of at most `CLEAN_BRIDGE_BLOCKS`
//! blocks. These tests pin that in exact `MemDisk` request and byte
//! counts, pin that what it *writes* is what whole-segment reads wrote
//! (`GOLDEN_CLEANED`), and pin that rot in a live block still fails the
//! pass while rot in a dead one still does not.

use blockdev::{BlockDevice, MemDisk, QueueDevice, VolumeSet, WriteKind, BLOCK_SIZE};
use lfs_core::layout::SEGMENTS_START;
use lfs_core::summary::{EntryKind, Summary};
use lfs_core::usage::SegState;
use lfs_core::{Lfs, LfsConfig};
use vfs::{FileSystem, FsError, Ino};

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

// ---- the log image is the parent's ---------------------------------------

/// A cleaning-heavy churn: cold files that pin a little live data into
/// many segments, a hot file overwritten in place around them, cold files
/// rewritten and replaced now and then (so inode blocks go partly dead),
/// and periodic cache drops (so the cleaner meets live blocks it does not
/// hold, and inodes it has to fetch).
fn churn<D: QueueDevice>(fs: &mut Lfs<D>) {
    for i in 0..40u32 {
        let len = BLOCK_SIZE * (1 + i as usize % 3);
        fs.write_file(&format!("/keep{i}"), &vec![i as u8; len])
            .unwrap();
    }
    let hot = fs.create("/hot").unwrap();
    for round in 0..600u32 {
        let off = (round % 6) as u64 * 32 * 1024;
        fs.write(hot, off, &vec![round as u8; 32 * 1024]).unwrap();
        if round % 7 == 0 {
            let i = (round / 7) % 40;
            let ino = fs.lookup(&format!("/keep{i}")).unwrap();
            fs.write(ino, 0, &[round as u8; 100]).unwrap();
        }
        if round % 31 == 0 {
            let i = (round / 31) % 40;
            fs.unlink(&format!("/keep{i}")).unwrap();
            fs.write_file(&format!("/keep{i}"), &vec![i as u8; 2 * BLOCK_SIZE])
                .unwrap();
        }
        if round % 50 == 49 {
            fs.checkpoint().unwrap();
            fs.drop_caches();
        }
    }
    fs.checkpoint().unwrap();
    assert!(
        fs.stats().cleaner.segments_cleaned > 100,
        "the churn must clean heavily, cleaned {}",
        fs.stats().cleaner.segments_cleaned
    );
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "{:#?}", report.errors);
}

/// `(image fnv1a, device writes, device bytes written)` of [`churn`] on a
/// `MemDisk` and on a two-shard `VolumeSet` — captured at parent `79925d5`, the last tree
/// whose cleaner read victims whole. Reading less must not move a byte of
/// the log.
///
/// Re-pinned by rule in PR 25 (parent `4c83c2e`): inode-map and
/// usage-table blocks now reach the log only with checkpoints and a
/// cleaner pass's closing flush, so every element of all three tuples
/// moved — the image, and the write traffic, which fell: requests
/// 0x348 / 0x506 / 0x271 → 0x307 / 0x4e9 / 0x251, bytes 0x1cf_2000 /
/// 0x1e9_f000 / 0x198_5000 → 0x1a0_e000 / 0x1bf_9000 / 0x17f_6000.
/// What the cleaner reads is not pinned here, and the exact read counts
/// below did not move.
///
/// Re-pinned by rule again (parent `7a3362b`): a cleaner pass no longer
/// writes a checkpoint; its victims wait as `PendingFree` for the one
/// checkpoint a cleaning run writes once clean and pending segments reach
/// the high-water mark, and its closing flush carries map blocks only
/// when a victim holds a live one. Images 0xb08a_d12c_8a95_fdaf /
/// 0xbfce_1ab3_8ff1_87e1 / 0x4530_f790_345d_e405 → the three below;
/// requests 0x307 / 0x4e9 / 0x251 → 0x309 / 0x4e7 / 0x253, bytes
/// 0x1a0_e000 / 0x1bf_9000 / 0x17f_6000 → 0x1a0_2000 / 0x1be_a000 /
/// 0x180_f000. With the per-pass checkpoint put back, the parent's three
/// tuples come back exactly. The read counts below again did not move.
///
/// The middle tuple, three temperature streams on a `MemDisk`, went with
/// the file system's write streams; the other two are unchanged.
///
/// Re-pinned by rule again (parent `a956a93`): on-disk format v3. A
/// pass's last chunk lists its victims and the fence after it makes them
/// clean, so no cleaning run writes a checkpoint to free them, and
/// summaries carry a fence watermark. Every element of both tuples
/// moved, and the write traffic fell: images 0xe9dc_f3e6_3f0f_d6c3 /
/// 0xf033_4b57_5b5a_078d → the two below, requests 0x309 / 0x253 →
/// 0x2e5 / 0x242, bytes 0x1a0_2000 / 0x180_f000 → 0x19c_b000 /
/// 0x17c_e000. The read counts below did not move.
///
/// Re-pinned by rule again (parent 6f5be22): a buffer-full flush, the
/// write path's and a pass's between victims, stops at the last segment
/// boundary it reaches, and what it cuts off waits for the next flush.
/// Every element of both tuples moved, and the write traffic fell:
/// images 0xfc5d_1211_794a_4d76 / 0xd527_3945_14d5_97e7 → the two below,
/// requests 0x2e5 / 0x242 → 0x1b9 / 0x1ba, bytes 0x19c_b000 / 0x17c_e000
/// → 0x165_1000 / 0x168_d000.
///
/// Re-pinned by rule again (parent e06ae14): on-disk format v4, whose
/// superblock says so. The churn writes whole blocks only, so no file
/// has a fragment and only the images moved: 0x9a8e_e63e_e2ed_9ff8 /
/// 0x63a6_fe4a_f270_04af → the two below. Requests and bytes are as at
/// the parent.
const GOLDEN_CLEANED: [(u64, u64, u64); 2] = [
    (0x957b_629e_36d1_ca98, 0x1b9, 0x0165_1000),
    (0xc26c_69e6_e9db_89ec, 0x1ba, 0x0168_d000),
];

#[test]
fn churn_image_and_write_traffic_match_whole_segment_cleaning() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    churn(&mut fs);
    let s = fs.device().stats();
    let mut got = vec![(fnv1a(fs.into_device().image()), s.writes, s.bytes_written)];
    let shards: Vec<MemDisk> = (0..2)
        .map(|_| MemDisk::new(SEGMENTS_START + 64 * SEG_BLOCKS))
        .collect();
    let set = VolumeSet::new(shards, SEGMENTS_START, SEG_BLOCKS);
    let mut fs = Lfs::format(set, LfsConfig::small()).unwrap();
    churn(&mut fs);
    let stats: Vec<_> = (0..2)
        .map(|i| fs.device().shard_stats(i).unwrap())
        .collect();
    let mut h = 0u64;
    for sh in &fs.into_device().into_shards() {
        h = h.wrapping_mul(0x100_0000_01b3) ^ fnv1a(sh.image());
    }
    got.push((
        h,
        stats.iter().map(|s| s.writes).sum(),
        stats.iter().map(|s| s.bytes_written).sum(),
    ));
    println!("GOLDEN_CLEANED: {got:#018x?}");
    assert_eq!(got, GOLDEN_CLEANED);
}

// ---- exact device counts --------------------------------------------------

/// The gap a run bridges: the test's own copy of the cleaner's private
/// `CLEAN_BRIDGE_BLOCKS`.
const BRIDGE: usize = 2;

const BS: u64 = BLOCK_SIZE as u64;

/// A cleaner that runs only when asked ([`Lfs::clean_pass`]) and then
/// takes the empty segments plus the one emptiest other.
fn on_demand() -> LfsConfig {
    let mut cfg = LfsConfig::small().greedy();
    cfg.clean_low_water = 0;
    cfg.segs_per_clean = 1;
    cfg
}

/// One character per block of `seg`, decoded from the raw image the way
/// the cleaner walks it: `S` summary, `d` data, `n` indirect, `i` inode
/// block, `m` inode map, `u` usage table, `l` directory log, `f` fragment
/// block, `.` past the end of the chain.
fn shape(fs: &Lfs<MemDisk>, seg: u32) -> String {
    let sb = fs.superblock();
    let (start, n) = (sb.seg_start(seg) as usize, sb.seg_blocks as usize);
    let image = fs.device().image();
    let mut out = String::new();
    let mut prev = 0u64;
    while out.len() + 1 < n {
        let at = (start + out.len()) * BLOCK_SIZE;
        let Ok(s) = Summary::decode(&image[at..at + BLOCK_SIZE]) else {
            break;
        };
        if s.seq <= prev || out.len() + 1 + s.block_count() > n {
            break;
        }
        prev = s.seq;
        out.push('S');
        out.extend(s.blocks().map(|(e, _)| match e.kind {
            EntryKind::Data => 'd',
            EntryKind::Indirect1 | EntryKind::Indirect2 => 'n',
            EntryKind::InodeBlock => 'i',
            EntryKind::ImapBlock => 'm',
            EntryKind::UsageBlock => 'u',
            EntryKind::DirLog => 'l',
            EntryKind::FragBlock | EntryKind::Fragment => 'f',
        }));
    }
    format!("{out:.<n$}")
}

/// What one [`Lfs::clean_pass`] cost.
#[derive(Debug, PartialEq)]
struct Pass {
    /// Segments that were dirty before the pass and are not after.
    victims: Vec<u32>,
    /// Of the segments cleaned, how many were empty.
    empty: u64,
    /// Read requests and blocks, as the device counted them.
    device: (u64, u64),
    /// Read requests and blocks, as the cleaner accounted them.
    cleaner: (u64, u64),
}

fn clean_pass(fs: &mut Lfs<MemDisk>) -> Pass {
    let dirty = |fs: &Lfs<MemDisk>| -> Vec<bool> {
        fs.segment_snapshot()
            .iter()
            .map(|&(state, _)| state == SegState::Dirty)
            .collect()
    };
    let (was_dirty, d0, c0) = (dirty(fs), fs.device().stats(), fs.stats().cleaner);
    fs.clean_pass().unwrap();
    let (is_dirty, d1, c1) = (dirty(fs), fs.device().stats(), fs.stats().cleaner);
    Pass {
        victims: (0..was_dirty.len())
            .filter(|&i| was_dirty[i] && !is_dirty[i])
            .map(|i| i as u32)
            .collect(),
        empty: c1.segments_empty - c0.segments_empty,
        device: (d1.reads - d0.reads, (d1.bytes_read - d0.bytes_read) / BS),
        cleaner: (
            c1.read_requests - c0.read_requests,
            (c1.bytes_read - c0.bytes_read) / BS,
        ),
    }
}

/// `/f`'s ten blocks — block `k` filled with `0xf0 + k` — in a sealed
/// segment 0 of shape `SimuSldimuSddddd` (blocks 0–4 at 11–15) and a
/// sealed segment 1 of shape `SdddddimuSdddddd` (blocks 5–9 at 1–5, then
/// `/f`'s inode block), the rest of the log a filler file. Block 6 of
/// segment 0 is the root directory. The filler's 31 blocks leave its
/// checkpoint's segment 3, `Sddddddddddnimu.`, no room for another
/// chunk, so the log goes on in a fresh segment.
fn f_in_two_segments() -> (Lfs<MemDisk>, Ino) {
    let mut fs = Lfs::format(MemDisk::new(1024), on_demand()).unwrap();
    let f = fs.create("/f").unwrap();
    let pad = fs.create("/pad").unwrap();
    fs.checkpoint().unwrap();
    for k in 0..10u64 {
        fs.write(f, k * BS, &[0xf0 + k as u8; BLOCK_SIZE]).unwrap();
    }
    fs.checkpoint().unwrap();
    fs.write(pad, 0, &vec![7u8; 31 * BLOCK_SIZE]).unwrap();
    fs.checkpoint().unwrap();
    assert_eq!(shape(&fs, 0), "SimuSldimuSddddd");
    assert_eq!(shape(&fs, 1), "SdddddimuSdddddd");
    (fs, f)
}

/// Overwrites blocks `ks` of `f`, leaving their old copies dead.
fn kill(fs: &mut Lfs<MemDisk>, f: Ino, ks: &[u64]) {
    for &k in ks {
        fs.write(f, k * BS, &[0xe0 + k as u8; BLOCK_SIZE]).unwrap();
    }
    fs.checkpoint().unwrap();
}

/// Empties the caches and brings back the inodes alone, so that every
/// device read of the next pass is the cleaner's own.
fn forget_blocks(fs: &mut Lfs<MemDisk>, inos: &[Ino]) {
    fs.drop_caches();
    fs.metadata(vfs::ROOT_INO).unwrap();
    for &ino in inos {
        fs.metadata(ino).unwrap();
    }
}

fn assert_f_intact(fs: &mut Lfs<MemDisk>, f: Ino, killed: &[u64]) {
    let data = fs.read_to_vec(f).unwrap();
    for k in 0..10u64 {
        let fill = if killed.contains(&k) { 0xe0 } else { 0xf0 } + k as u8;
        let at = k as usize * BLOCK_SIZE;
        assert!(
            data[at..at + BLOCK_SIZE].iter().all(|&b| b == fill),
            "block {k}"
        );
    }
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "{:#?}", report.errors);
}

#[test]
fn a_victim_costs_its_summaries_plus_its_live_runs() {
    let (mut fs, f) = f_in_two_segments();
    kill(&mut fs, f, &[2]);
    forget_blocks(&mut fs, &[f]);
    // Segment 0, `SimuSldimuSddddd`: three summaries; live are the root
    // directory (6) and /f's 0, 1 (11, 12) and 3, 4 (14, 15). The dead
    // block between them is bridged, the four dead ones after the
    // directory are not: runs 6‥7 and 11‥16.
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (3 + 2, 3 + 1 + 5));
    assert_eq!(pass.device, pass.cleaner);
    assert_f_intact(&mut fs, f, &[2]);
}

#[test]
fn a_gap_is_bridged_up_to_the_bridge_length_and_not_beyond() {
    // Segment 0 again, the root directory now resident: only /f's blocks
    // (11–15) need reading, and the gap between its first and last live
    // block is what the kills make it.
    let run = |killed: &[u64]| {
        let (mut fs, f) = f_in_two_segments();
        kill(&mut fs, f, killed);
        forget_blocks(&mut fs, &[f]);
        fs.lookup("/f").unwrap();
        let pass = clean_pass(&mut fs);
        assert_eq!(pass.victims, [0]);
        assert_eq!(pass.device, pass.cleaner);
        assert_f_intact(&mut fs, f, killed);
        pass.cleaner
    };
    // /f's block 0 (at 11) and its last blocks stay live around a gap of
    // `BRIDGE` dead ones: one run, 11‥16.
    let gap: Vec<u64> = (1..=BRIDGE as u64).collect();
    assert_eq!(run(&gap), (3 + 1, 3 + 5));
    // One more dead block and the gap splits it: block 11 alone, and the
    // `3 - BRIDGE` live blocks behind the gap.
    let gap: Vec<u64> = (1..=BRIDGE as u64 + 1).collect();
    assert_eq!(run(&gap), (3 + 2, 3 + 1 + (3 - BRIDGE as u64)));
}

#[test]
fn a_dead_inode_block_is_never_read() {
    let (mut fs, f) = f_in_two_segments();
    // /f's inode moves on and the filler goes: of segment 1,
    // `SdddddimuSdddddd`, only /f's blocks 5–9 (at 1–5) stay live. The
    // inode block right behind them (6) is dead, which the inode map
    // says without a read — so the one run is 1‥6.
    kill(&mut fs, f, &[0, 1, 2, 3, 4]);
    fs.unlink("/pad").unwrap();
    fs.checkpoint().unwrap();
    forget_blocks(&mut fs, &[f]);
    let pass = clean_pass(&mut fs);
    assert_eq!((&pass.victims[..], pass.empty), (&[0, 1, 2, 3][..], 3));
    assert_eq!(pass.cleaner, (2 + 1, 2 + 5));
    assert_eq!(pass.device, pass.cleaner);
    assert_f_intact(&mut fs, f, &[0, 1, 2, 3, 4]);
}

#[test]
fn a_resident_live_block_is_never_read() {
    let (mut fs, f) = f_in_two_segments();
    kill(&mut fs, f, &[2]);
    // Nothing forgotten: every live block of segment 0 is in the cache,
    // and the pass reads the three summaries and nothing else.
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (3, 3));
    assert_eq!(pass.device, pass.cleaner);
    assert_f_intact(&mut fs, f, &[2]);

    // Everything forgotten and the last block (15) read back: the run
    // shrinks to what is still missing, 11‥15.
    let (mut fs, f) = f_in_two_segments();
    kill(&mut fs, f, &[2]);
    forget_blocks(&mut fs, &[f]);
    fs.lookup("/f").unwrap();
    fs.read(f, 4 * BS, &mut [0u8; 1]).unwrap();
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (3 + 1, 3 + 4));
    assert_eq!(pass.device, pass.cleaner);
    assert_f_intact(&mut fs, f, &[2]);
}

#[test]
fn an_empty_victim_is_not_read_at_all() {
    let mut cfg = on_demand();
    cfg.segs_per_clean = 0; // Empty segments only.
    let mut fs = Lfs::format(MemDisk::new(1024), cfg).unwrap();
    for i in 0..10 {
        fs.write_file(&format!("/f{i}"), &[1u8; 4 * BLOCK_SIZE])
            .unwrap();
    }
    for i in 0..10 {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    fs.checkpoint().unwrap();
    let pass = clean_pass(&mut fs);
    assert!(pass.empty > 0 && pass.empty == pass.victims.len() as u64);
    assert_eq!(pass.cleaner, (0, 0));
    assert_eq!(pass.device, (0, 0));
}

/// Twenty ten-block files written by one flush into 256-block segment 0,
/// sealed behind filler that is deleted again. A summary describes at
/// most 144 blocks, so the 200 data blocks (12–155 and 157–212) are two
/// chunks with a summary between them at 156; /f14 straddles it (152–155,
/// 157–162). The segment's chain has five summaries.
fn twenty_files_in_one_segment() -> (Lfs<MemDisk>, Vec<Ino>) {
    let mut cfg = on_demand();
    cfg.seg_blocks = 256;
    cfg.flush_threshold_bytes = 255 * BS;
    let mut fs = Lfs::format(MemDisk::new(4096), cfg).unwrap();
    let files: Vec<Ino> = (0..20)
        .map(|i| fs.create(&format!("/f{i}")).unwrap())
        .collect();
    fs.checkpoint().unwrap();
    for (i, &ino) in files.iter().enumerate() {
        fs.write(ino, 0, &vec![i as u8; 10 * BLOCK_SIZE]).unwrap();
    }
    fs.checkpoint().unwrap();
    for i in 0..6 {
        fs.write_file(&format!("/pad{i}"), &vec![9u8; 10 * BLOCK_SIZE])
            .unwrap();
    }
    fs.checkpoint().unwrap();
    for i in 0..6 {
        fs.unlink(&format!("/pad{i}")).unwrap();
    }
    fs.checkpoint().unwrap();
    let shape = shape(&fs, 0);
    assert_eq!(shape.matches('S').count(), 5);
    assert_eq!(&shape[..13], "SimuSldiimuSd");
    assert_eq!(&shape[150..165], "ddddddSdddddddd");
    assert_eq!(&shape[210..218], "dddiimuS");
    (fs, files)
}

#[test]
fn runs_join_across_a_chunk_boundary() {
    let (mut fs, files) = twenty_files_in_one_segment();
    for name in (0..20).filter(|&i| i != 14).map(|i| format!("/f{i}")) {
        fs.unlink(&name).unwrap();
    }
    fs.checkpoint().unwrap();
    forget_blocks(&mut fs, &[files[14]]);
    // Only /f14 is live, and the summary between its two halves is
    // bridged like any other short gap: one run, 152‥163.
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (5 + 1, 5 + 11));
    assert_eq!(pass.device, pass.cleaner);
    assert_eq!(
        fs.read_to_vec(files[14]).unwrap(),
        vec![14u8; 10 * BLOCK_SIZE]
    );
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn a_nearly_full_victim_is_one_first_live_to_last_live_request() {
    let (mut fs, files) = twenty_files_in_one_segment();
    fs.write(files[3], 5 * BS, &[0xee; BLOCK_SIZE]).unwrap();
    fs.checkpoint().unwrap();
    forget_blocks(&mut fs, &files);
    // All 200 data blocks but one are live: the dead one and the summary
    // at 156 are bridged, so the two chunks cost one request, 12‥213 —
    // fewer requests than the victim has chunks, and still less than the
    // whole segment.
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (5 + 1, 5 + 201));
    assert_eq!(pass.device, pass.cleaner);
    for (i, &ino) in files.iter().enumerate() {
        let mut want = vec![i as u8; 10 * BLOCK_SIZE];
        if i == 3 {
            want[5 * BLOCK_SIZE..6 * BLOCK_SIZE].fill(0xee);
        }
        assert_eq!(fs.read_to_vec(ino).unwrap(), want, "/f{i}");
    }
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn an_inode_block_is_read_only_for_an_inode_the_cache_lacks() {
    // /e's inode is written next to the root's; the root's then moves on,
    // leaving the inode block at 7 of segment 0 live for /e alone. The
    // only other live blocks there are the first four of a filler file,
    // at 12–15.
    let build = || {
        let mut fs = Lfs::format(MemDisk::new(1024), on_demand()).unwrap();
        let e = fs.create("/e").unwrap();
        fs.checkpoint().unwrap();
        fs.write_file("/pad", &vec![7u8; 10 * BLOCK_SIZE]).unwrap();
        fs.checkpoint().unwrap();
        assert_eq!(shape(&fs, 0), "SimuSldimuSldddd");
        forget_blocks(&mut fs, &[]);
        (fs, e)
    };
    // Nothing has touched /e since the caches were emptied: its inode
    // block is a run of its own.
    let (mut fs, e) = build();
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (3 + 2, 3 + 1 + 4));
    assert_eq!(pass.device, pass.cleaner);
    assert_eq!(fs.metadata(e).unwrap().size, 0);
    assert!(fs.check().unwrap().is_clean());

    // With /e's inode in the cache the block relocates from memory.
    let (mut fs, e) = build();
    fs.metadata(e).unwrap();
    let pass = clean_pass(&mut fs);
    assert_eq!(pass.victims, [0]);
    assert_eq!(pass.cleaner, (3 + 1, 3 + 4));
    assert_eq!(pass.device, pass.cleaner);
    assert!(fs.check().unwrap().is_clean());

    // A live inode block is verified like a live data block, dead slots
    // and all.
    let (mut fs, _) = build();
    flip_bit(&mut fs, 0, 7);
    let err = fs.clean_pass().unwrap_err();
    assert!(matches!(err, FsError::Corrupt(_)), "{err:?}");
}

// ---- rot ------------------------------------------------------------------

/// Flips one bit of block `blk` of segment `seg` on the device.
fn flip_bit(fs: &mut Lfs<MemDisk>, seg: u32, blk: u64) {
    let addr = fs.superblock().seg_start(seg) + blk;
    let at = addr as usize * BLOCK_SIZE;
    let mut block = fs.device().image()[at..at + BLOCK_SIZE].to_vec();
    block[BLOCK_SIZE - 1] ^= 0x10;
    fs.device_mut()
        .write_blocks(addr, &block, WriteKind::Sync)
        .unwrap();
}

#[test]
fn rot_in_a_live_block_fails_the_pass_and_rot_in_a_dead_one_does_not() {
    // Segment 0 of `a_victim_costs_…`: live 6, 11, 12, 14, 15; dead and
    // bridged 13; dead and never read 7 (an old inode block) and 8.
    let rotted = |blks: &[u64]| {
        let (mut fs, f) = f_in_two_segments();
        kill(&mut fs, f, &[2]);
        forget_blocks(&mut fs, &[f]);
        for &blk in blks {
            flip_bit(&mut fs, 0, blk);
        }
        (fs, f)
    };
    for live in [6, 11, 15] {
        let (mut fs, _) = rotted(&[live]);
        let err = fs.clean_pass().unwrap_err();
        assert!(matches!(err, FsError::Corrupt(_)), "block {live}: {err:?}");
    }
    let (mut fs, f) = rotted(&[7, 8, 13]);
    assert_eq!(clean_pass(&mut fs).victims, [0]);
    assert_f_intact(&mut fs, f, &[2]);
}
