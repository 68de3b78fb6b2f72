//! Tests of the block cache's internals: which blocks its `evict` picks,
//! and that a recycled buffer never shows its previous contents.

use std::collections::BTreeSet;
use std::sync::Arc;

use blockdev::{MemDisk, BLOCK_SIZE};
use proptest::prelude::*;
use vfs::{FileSystem, Ino};

use crate::{Lfs, LfsConfig, SharedLfs};

type Key = (Ino, u64);

/// Every resident block's key.
fn resident(fs: &Lfs<MemDisk>) -> Vec<Key> {
    fs.blocks.scan().into_iter().map(|(k, _, _)| k).collect()
}

/// What `evict(excess, protect)` must remove, computed the slow way: the
/// `excess` smallest stamps among clean, unpinned, unprotected blocks.
fn reference_victims(fs: &Lfs<MemDisk>, excess: usize, protect: Option<Key>) -> BTreeSet<Key> {
    let mut candidates: Vec<(u64, Key)> = Vec::new();
    for (k, lru, pinned) in fs.blocks.scan() {
        if !fs.blocks.dirty().contains(&k) && !pinned && Some(k) != protect {
            candidates.push((lru, k));
        }
    }
    candidates.sort_unstable();
    candidates.truncate(excess);
    candidates.into_iter().map(|(_, k)| k).collect()
}

proptest! {
    /// Random traffic builds every kind of index state — stale entries of
    /// overwritten, truncated and dropped blocks, dirty and pinned blocks
    /// at the cold end, compactions — and after every operation an
    /// explicit eviction round must remove exactly the reference victims.
    /// `MemDisk` completes every submission at once, so nothing here is
    /// in flight; the held `pins` stand in for the queued submissions that
    /// pin blocks on a deeper ring.
    #[test]
    fn evict_picks_the_reference_victims(
        ops in proptest::collection::vec((0u8..10, 0usize..3, 0u64..40, 1usize..6, 0usize..12), 1..80),
    ) {
        let mut cfg = LfsConfig::small();
        cfg.cache_limit_bytes = 24 * BLOCK_SIZE as u64;
        let mut fs = Lfs::format(MemDisk::new(4096), cfg).unwrap();
        let inos: Vec<Ino> = (0..3).map(|i| fs.create(&format!("/f{i}")).unwrap()).collect();
        // Stand-ins for in-flight submissions: each holds a block's
        // payload `Arc`, as a queued write does.
        let mut pins: Vec<Arc<Vec<u8>>> = Vec::new();
        for &(sel, file, bno, n, k) in &ops {
            let ino = inos[file];
            let at = bno * BLOCK_SIZE as u64;
            match sel {
                0..=2 => fs.write(ino, at, &vec![sel; n * BLOCK_SIZE]).unwrap(),
                3 => fs.write(ino, at + 7, &[9u8; 100]).unwrap(),
                4..=5 => {
                    fs.read(ino, at, &mut vec![0u8; n * BLOCK_SIZE]).unwrap();
                }
                6 => fs.flush().map(drop).unwrap(),
                7 => fs.truncate(ino, at).unwrap(),
                8 if k == 0 => fs.drop_caches(),
                8 => pins.truncate(pins.len() / 2),
                _ => pins.extend(fs.blocks.for_write((ino, bno)).map(|(_, data)| data)),
            }
            fs.assert_running_counts();

            let mut resident = resident(&fs);
            resident.sort_unstable();
            let protect = resident.get(k).copied();
            let expected = reference_victims(&fs, n, protect);
            fs.blocks.evict(n, protect);
            let gone: BTreeSet<Key> = resident
                .into_iter()
                .filter(|&k| !fs.blocks.contains(k))
                .collect();
            prop_assert_eq!(gone, expected);
            fs.assert_running_counts();
        }
    }
}

/// Either front end, with a way to reach the `Lfs` under it.
trait Under: FileSystem {
    fn lfs<R>(&mut self, f: impl FnOnce(&mut Lfs<MemDisk>) -> R) -> R;
}

impl Under for Lfs<MemDisk> {
    fn lfs<R>(&mut self, f: impl FnOnce(&mut Lfs<MemDisk>) -> R) -> R {
        f(self)
    }
}

impl Under for SharedLfs<MemDisk> {
    fn lfs<R>(&mut self, f: impl FnOnce(&mut Lfs<MemDisk>) -> R) -> R {
        self.with_fs(f)
    }
}

const POISON: u8 = 0xaa;
const POISON_BLOCKS: usize = 2048;

fn small_cache() -> LfsConfig {
    let mut cfg = LfsConfig::small();
    cfg.cache_limit_bytes = 1024 * BLOCK_SIZE as u64;
    cfg
}

/// Scans the poison file, twice the cache's size, so that the pool ends
/// up holding nothing but its bytes.
fn poison_pool<F: Under>(fs: &mut F, poison_ino: Ino) {
    let mut buf = vec![0u8; POISON_BLOCKS * BLOCK_SIZE];
    assert_eq!(fs.read(poison_ino, 0, &mut buf).unwrap(), buf.len());
    assert!(buf.iter().all(|&b| b == POISON));
    fs.lfs(|l| {
        l.assert_running_counts();
        assert!(!l.blocks.pooled().is_empty(), "eviction pooled nothing");
        assert!(l.blocks.pooled().iter().flatten().all(|&b| b == POISON));
    });
}

/// Holes, the zeros around a partial write into a hole, and the tail of a
/// short last block must read as zeros — from the cache and again from
/// disk — while every buffer the pool hands out is full of another file's
/// bytes.
fn recycled_buffers_show_no_old_bytes<F: Under>(mut fs: F) {
    let a = fs.create("/poison").unwrap();
    fs.write(a, 0, &vec![POISON; POISON_BLOCKS * BLOCK_SIZE])
        .unwrap();
    fs.sync().unwrap();
    poison_pool(&mut fs, a);

    // Blocks 0..5 are holes; block 5 is written in part, into a hole.
    let b = fs.create("/b").unwrap();
    let at = 5 * BLOCK_SIZE + 10;
    fs.write(b, at as u64, &[0xbb; 100]).unwrap();
    let mut want = vec![0u8; at + 100];
    want[at..].fill(0xbb);
    assert_eq!(fs.read_to_vec(b).unwrap(), want);

    // Growing the file exposes the rest of block 5 and two more holes.
    fs.truncate(b, 8 * BLOCK_SIZE as u64).unwrap();
    want.resize(8 * BLOCK_SIZE, 0);
    assert_eq!(fs.read_to_vec(b).unwrap(), want);

    // Once more from disk: the scan pushes `b` out of the cache and
    // refills the pool with poison.
    fs.sync().unwrap();
    poison_pool(&mut fs, a);
    fs.lfs(|l| assert!(!resident(l).iter().any(|&(ino, _)| ino == b)));
    assert_eq!(fs.read_to_vec(b).unwrap(), want);
    fs.lfs(|l| l.assert_running_counts());
}

#[test]
fn recycled_buffers_show_no_old_bytes_through_lfs() {
    recycled_buffers_show_no_old_bytes(Lfs::format(MemDisk::new(8192), small_cache()).unwrap());
}

#[test]
fn recycled_buffers_show_no_old_bytes_through_shared_lfs() {
    recycled_buffers_show_no_old_bytes(
        SharedLfs::format(MemDisk::new(8192), small_cache()).unwrap(),
    );
}

/// `drop_caches` gives the pooled memory back, too.
#[test]
fn drop_caches_empties_the_pool() {
    let mut fs = Lfs::format(MemDisk::new(8192), small_cache()).unwrap();
    let a = fs.create("/poison").unwrap();
    fs.write(a, 0, &vec![POISON; POISON_BLOCKS * BLOCK_SIZE])
        .unwrap();
    fs.sync().unwrap();
    poison_pool(&mut fs, a);
    fs.drop_caches();
    assert!(fs.blocks.holds_nothing());
    fs.assert_running_counts();
}
