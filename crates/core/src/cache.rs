//! The block cache: the one map from `(ino, file block)` to a cached
//! 4 KB payload, which absorbs writes and serves reads for both front
//! ends.
//!
//! [`crate::Lfs`] is its only writer and owns every decision about it:
//! what enters, what is dirty, what is evicted and in which order (the
//! LRU index, the buffer pool and the dirty set are `Lfs` fields, not
//! part of this type). The map is split into [`SHARDS`] shards behind
//! `RwLock`s so that [`crate::SharedLfs`] readers can copy resident
//! bytes out without the writer lane. The writer mutates an entry only
//! under its shard's write lock, and a reader copies bytes only under the
//! shard's read lock, so a reader sees every block whole — old or new,
//! never a mix — and never holds a reference to a payload once the copy
//! returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use vfs::Ino;

/// A cache key: `(inode, file block)`.
pub(crate) type Key = (Ino, u64);

/// Number of shards. Sixteen keeps cross-client contention on the shard
/// locks negligible at the client counts the server runs (a hit takes
/// one read lock per block) without bloating the structure.
const SHARDS: usize = 16;

/// A cached file (or directory) data block.
///
/// The payload is reference-counted so the write path can hand the device
/// a zero-copy window onto the cache ([`blockdev::IoBuf`]): a submission
/// clones the `Arc`, and a later in-place mutation of the still-in-flight
/// block copies-on-write via [`Arc::make_mut`] instead of corrupting the
/// queued snapshot. On a synchronous device the submission has completed
/// by then, the count is back to one, and `make_mut` degenerates to a
/// plain `&mut`.
pub(crate) struct CachedBlock {
    pub(crate) data: Arc<Vec<u8>>,
    pub(crate) dirty: bool,
    pub(crate) lru: u64,
    /// The block's modification time — per *block*, not per file, which
    /// is the refinement §3.6 of the paper says Sprite planned. The
    /// cleaner preserves it across relocations so segment ages and
    /// age-sorting reflect true block ages.
    pub(crate) mtime: u64,
}

impl CachedBlock {
    /// A clean block holding `data`.
    pub(crate) fn clean(data: Vec<u8>, lru: u64, mtime: u64) -> CachedBlock {
        CachedBlock {
            data: Arc::new(data),
            dirty: false,
            lru,
            mtime,
        }
    }

    /// Whether the block is pinned against eviction: an in-flight queued
    /// submission still shares its payload `Arc`. See [`crate::Lfs`]'s
    /// `evict`.
    pub(crate) fn pinned(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }
}

type Shard = HashMap<Key, CachedBlock>;

fn shard_index(key: Key) -> usize {
    let h = (key.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    (h >> 48) as usize % SHARDS
}

// Poisoning is ignored, as on the writer lane: no method here panics
// between two updates of a map, so a panic in a caller's closure leaves
// the map whole, with at most one block's bytes half-written.
fn read(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

fn write(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

/// The sharded block map. Every method takes one shard lock for the
/// duration of the call (the whole-cache ones take each shard's in turn)
/// and none calls out while holding it except into the closure it was
/// given, so a caller must not touch the cache from inside that closure.
#[derive(Default)]
pub(crate) struct BlockCache {
    shards: [RwLock<Shard>; SHARDS],
    /// Resident blocks. Only the writer changes it, under a shard lock.
    len: AtomicUsize,
}

impl BlockCache {
    fn shard(&self, key: Key) -> &RwLock<Shard> {
        &self.shards[shard_index(key)]
    }

    /// Number of resident blocks.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub(crate) fn contains(&self, key: Key) -> bool {
        read(self.shard(key)).contains_key(&key)
    }

    /// Runs `f` on the block at `key` under its shard's read lock.
    pub(crate) fn get<R>(&self, key: Key, f: impl FnOnce(&CachedBlock) -> R) -> Option<R> {
        read(self.shard(key)).get(&key).map(f)
    }

    /// Runs `f` on the block at `key` under its shard's write lock.
    pub(crate) fn get_mut<R>(&self, key: Key, f: impl FnOnce(&mut CachedBlock) -> R) -> Option<R> {
        write(self.shard(key)).get_mut(&key).map(f)
    }

    /// Runs `f` on the block at `key` under its shard's write lock,
    /// inserting `make()` first when the cache lacks it.
    pub(crate) fn upsert<R>(
        &self,
        key: Key,
        make: impl FnOnce() -> CachedBlock,
        f: impl FnOnce(&mut CachedBlock) -> R,
    ) -> R {
        let mut shard = write(self.shard(key));
        f(shard.entry(key).or_insert_with(|| {
            self.len.fetch_add(1, Ordering::Relaxed);
            make()
        }))
    }

    pub(crate) fn insert(&self, key: Key, block: CachedBlock) {
        if write(self.shard(key)).insert(key, block).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn remove(&self, key: Key) -> Option<CachedBlock> {
        let block = write(self.shard(key)).remove(&key)?;
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(block)
    }

    /// Keeps only the blocks `f` accepts.
    pub(crate) fn retain(&self, mut f: impl FnMut(Key, &CachedBlock) -> bool) {
        for shard in &self.shards {
            let mut shard = write(shard);
            let before = shard.len();
            shard.retain(|&k, b| f(k, b));
            self.len.fetch_sub(before - shard.len(), Ordering::Relaxed);
        }
    }

    /// Calls `f` on every resident block, in no particular order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(Key, &CachedBlock)) {
        for shard in &self.shards {
            read(shard).iter().for_each(|(&k, b)| f(k, b));
        }
    }

    /// Takes every shard's write lock, in shard order, for a walk over
    /// many blocks (an eviction round, a flush's dirty set): one lock
    /// round trip per shard instead of one per block. Readers of any shard
    /// wait until the walk ends.
    pub(crate) fn lock_all(&self) -> AllShards<'_> {
        AllShards {
            shards: self.shards.each_ref().map(write),
            len: &self.len,
        }
    }
}

/// The whole cache under its write locks; see [`BlockCache::lock_all`].
pub(crate) struct AllShards<'a> {
    shards: [RwLockWriteGuard<'a, Shard>; SHARDS],
    len: &'a AtomicUsize,
}

impl AllShards<'_> {
    pub(crate) fn get(&self, key: Key) -> Option<&CachedBlock> {
        self.shards[shard_index(key)].get(&key)
    }

    pub(crate) fn get_mut(&mut self, key: Key) -> Option<&mut CachedBlock> {
        self.shards[shard_index(key)].get_mut(&key)
    }

    pub(crate) fn remove(&mut self, key: Key) -> Option<CachedBlock> {
        let block = self.shards[shard_index(key)].remove(&key)?;
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(block)
    }
}
