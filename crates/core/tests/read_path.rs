//! The read-miss path in device requests: one request per run of
//! contiguous addresses, a per-file read-ahead window that opens on a
//! scan and collapses on a seek, and what the shared front end's counters
//! and `op.read_ns` histogram record for it.
//!
//! Every count below is exact: `MemDisk` counts requests and bytes, and
//! the files are written in one piece so their blocks lie back to back in
//! the log.

use blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
use lfs_core::{Lfs, LfsConfig, SharedLfs};
use lfs_obs::Obs;
use vfs::{FileSystem, Ino};

/// A fresh 32 MB file system holding one contiguous file of `blocks`
/// blocks per entry of `files`, nothing cached but the inodes.
fn with_files(files: &[usize]) -> (Lfs<MemDisk>, Vec<Ino>) {
    let mut fs = Lfs::format(MemDisk::new(8192), LfsConfig::default()).unwrap();
    let mut inos = Vec::new();
    for (i, &blocks) in files.iter().enumerate() {
        let ino = fs.create(&format!("/f{i}")).unwrap();
        let data: Vec<u8> = (0..blocks * BLOCK_SIZE)
            .map(|b| (b / BLOCK_SIZE) as u8)
            .collect();
        fs.write(ino, 0, &data).unwrap();
        fs.sync().unwrap();
        inos.push(ino);
    }
    fs.drop_caches();
    for &ino in &inos {
        fs.metadata(ino).unwrap();
    }
    (fs, inos)
}

/// Reads `count` blocks at file block `first` and returns what that cost
/// the device: `(requests, blocks)`.
fn cost<F: FileSystem>(
    fs: &mut F,
    stats: impl Fn(&mut F) -> blockdev::IoStats,
    ino: Ino,
    first: usize,
    count: usize,
) -> (u64, u64) {
    let before = stats(fs);
    let mut buf = vec![0u8; count * BLOCK_SIZE];
    assert_eq!(
        fs.read(ino, (first * BLOCK_SIZE) as u64, &mut buf).unwrap(),
        buf.len()
    );
    for (b, block) in buf.chunks(BLOCK_SIZE).enumerate() {
        assert!(block.iter().all(|&x| x == (first + b) as u8), "wrong bytes");
    }
    let after = stats(fs);
    (
        after.reads - before.reads,
        (after.bytes_read - before.bytes_read) / BLOCK_SIZE as u64,
    )
}

fn plain_stats(fs: &mut Lfs<MemDisk>) -> blockdev::IoStats {
    fs.device().stats()
}

fn shared_stats(fs: &mut SharedLfs<MemDisk>) -> blockdev::IoStats {
    fs.with_fs(|fs| fs.device().stats())
}

#[test]
fn a_scan_opens_the_window_and_a_seek_collapses_it() {
    let (mut fs, inos) = with_files(&[128]);
    let mut read = |first, count| cost(&mut fs, plain_stats, inos[0], first, count);
    // A request at the start of the file begins a scan: window 2.
    assert_eq!(read(0, 2), (1, 4));
    assert_eq!(read(2, 2), (0, 0));
    // Window 8 by now, but block 10 hangs off the indirect block, which
    // read-ahead never loads.
    assert_eq!(read(4, 2), (1, 6));
    assert_eq!(read(6, 2), (0, 0));
    assert_eq!(read(8, 2), (0, 0));
    // The request itself loads it (one request), and the window, at its
    // cap of 32, rides on the request's own run.
    assert_eq!(read(10, 2), (2, 1 + 2 + 32));
    assert_eq!(read(12, 32), (0, 0));
    // A seek: exactly what was asked, and again at the next seek.
    assert_eq!(read(100, 2), (1, 2));
    assert_eq!(read(60, 3), (1, 3));
    // Carrying on from there is a scan again, from the smallest window.
    assert_eq!(read(63, 1), (1, 3));
    assert_eq!(read(64, 2), (0, 0));
    assert_eq!(read(66, 2), (1, 2 + 8));
    // Never past the end of the file.
    assert_eq!(read(126, 1), (1, 1));
    assert_eq!(read(127, 1), (1, 1));
}

#[test]
fn files_scanned_alternately_keep_their_own_windows() {
    let (mut fs, inos) = with_files(&[10, 10]);
    let mut read = |f: usize, first, count| cost(&mut fs, plain_stats, inos[f], first, count);
    for f in [0, 1] {
        assert_eq!(read(f, 0, 1), (1, 3));
    }
    for f in [0, 1] {
        assert_eq!(read(f, 1, 1), (0, 0));
        assert_eq!(read(f, 2, 1), (0, 0));
    }
    // Each file's third and fourth request continued its own scan.
    for f in [0, 1] {
        assert_eq!(read(f, 3, 1), (1, 7));
    }
}

#[test]
fn the_shared_miss_path_takes_the_lane_once_per_window() {
    let (fs, inos) = with_files(&[128]);
    let mut fs = SharedLfs::new(fs);
    let mut read = |first, count| cost(&mut fs, shared_stats, inos[0], first, count);
    assert_eq!(read(0, 2), (1, 4));
    // Served lock-free, so the detector never hears of this request …
    assert_eq!(read(2, 2), (0, 0));
    // … and recognises the scan by where its read-ahead ended.
    assert_eq!(read(4, 2), (1, 6));
    assert_eq!(read(6, 4), (0, 0));
    assert_eq!(read(10, 2), (2, 1 + 2 + 8));
    assert_eq!(read(12, 8), (0, 0));
    assert_eq!(read(20, 2), (1, 2 + 16));
    // A seek collapses the window here too.
    assert_eq!(read(90, 2), (1, 2));
    let s = fs.shared_stats();
    assert_eq!((s.reads, s.lockfree_reads), (8, 3));
}

/// A cold multi-block read is one lane trip, one device request and one
/// `op.read_ns` sample; the counters say which blocks came from where.
#[test]
fn a_cold_contiguous_read_is_one_request_and_one_sample() {
    let (fs, inos) = with_files(&[8, 8]);
    let mut fs = SharedLfs::new(fs);
    fs.set_obs(Obs::recording(16));
    let samples = |fs: &SharedLfs<MemDisk>| {
        let snap = fs.metrics_snapshot().expect("registry attached");
        snap.hist("op.read_ns").map_or(0, |h| h.count)
    };

    assert_eq!(cost(&mut fs, shared_stats, inos[0], 0, 8), (1, 8));
    assert_eq!(samples(&fs), 1);
    let s = fs.shared_stats();
    assert_eq!(
        (s.reads, s.lockfree_reads, s.block_hits, s.block_misses),
        (1, 0, 0, 8)
    );

    // Again, warm: no lane, no device, one more (zero) sample.
    assert_eq!(cost(&mut fs, shared_stats, inos[0], 0, 8), (0, 0));
    assert_eq!(samples(&fs), 2);
    let s = fs.shared_stats();
    assert_eq!(
        (s.reads, s.lockfree_reads, s.block_hits, s.block_misses),
        (2, 1, 8, 8)
    );

    // A request that hits, then misses: blocks 0..4 are fetched (with 4
    // and 5 read ahead), then 2..8 finds 2..6 published and takes the
    // lane once for 6 and 7 — hits before the first miss stay hits, every
    // requested block from the miss on counts as a miss, and the trip
    // leaves one sample.
    assert_eq!(cost(&mut fs, shared_stats, inos[1], 0, 4), (1, 6));
    assert_eq!(cost(&mut fs, shared_stats, inos[1], 2, 6), (1, 2));
    assert_eq!(samples(&fs), 4);
    let s = fs.shared_stats();
    assert_eq!(
        (s.reads, s.lockfree_reads, s.block_hits, s.block_misses),
        (4, 1, 8 + 4, 8 + 4 + 2)
    );
    assert_eq!(s.reads - s.lockfree_reads, 3, "lane trips");
}

/// A read of no bytes is a read of no blocks, at any offset, through
/// either front end (at offset 0 the exclusive path used to compute block
/// `-1` as the request's last).
#[test]
fn an_empty_read_touches_nothing() {
    let (mut fs, inos) = with_files(&[4]);
    for offset in [0, 5000, 4 * BLOCK_SIZE as u64] {
        assert_eq!(fs.read(inos[0], offset, &mut []).unwrap(), 0);
    }
    assert_eq!(cost(&mut fs, plain_stats, inos[0], 0, 1), (1, 3));
    let mut fs = SharedLfs::new(fs);
    let before = shared_stats(&mut fs).reads;
    for offset in [0, 5000, 4 * BLOCK_SIZE as u64] {
        assert_eq!(fs.read(inos[0], offset, &mut []).unwrap(), 0);
    }
    assert_eq!(shared_stats(&mut fs).reads, before);
    // The read at end of file returns before any block is looked up and
    // counts in `reads` only.
    let s = fs.shared_stats();
    assert_eq!(
        (s.reads, s.lockfree_reads, s.block_hits, s.block_misses),
        (3, 2, 0, 0)
    );
}
