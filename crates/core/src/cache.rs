//! The block cache: the one map from `(ino, file block)` to a cached
//! 4 KB payload, which absorbs writes and serves reads for both front
//! ends, together with everything that decides what it holds.
//!
//! [`BlockCache`] is the component [`crate::Lfs`] owns. It keeps the LRU
//! index, the buffer pool and the dirty-block set next to the map, and
//! every change to any of them goes through its methods: what enters,
//! what is dirty, what is evicted and in which order. `Lfs` keeps only
//! what needs block pointers or the device — finding a block's address
//! and reading it — and hands the bytes it read to the cache.
//!
//! The map itself, [`BlockMap`], is split into [`SHARDS`] shards behind
//! `RwLock`s and shared by `Arc` so that [`crate::SharedLfs`] readers can
//! copy resident bytes out without the writer lane. The writer mutates an
//! entry only under its shard's write lock, and a reader copies bytes
//! only under the shard's read lock, so a reader sees every block whole —
//! old or new, never a mix — and never holds a reference to a payload
//! once the copy returns.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use blockdev::BLOCK_SIZE;
use vfs::Ino;

/// A cache key: `(inode, file block)`.
pub(crate) type Key = (Ino, u64);

/// Number of shards. Sixteen keeps cross-client contention on the shard
/// locks negligible at the client counts the server runs (a hit takes
/// one read lock per block) without bloating the structure.
const SHARDS: usize = 16;

/// Stale entries the LRU index may carry beyond twice the resident block
/// count before [`BlockCache::stamp`] sweeps it.
const LRU_INDEX_SLACK: usize = 64;

/// A cached file (or directory) data block.
///
/// The payload is reference-counted so the write path can hand the device
/// a zero-copy window onto the cache ([`blockdev::IoBuf`]): a submission
/// clones the `Arc`, and a later in-place mutation of the still-in-flight
/// block copies-on-write via [`Arc::make_mut`] instead of corrupting the
/// queued snapshot. On a synchronous device the submission has completed
/// by then, the count is back to one, and `make_mut` degenerates to a
/// plain `&mut`.
struct CachedBlock {
    data: Arc<Vec<u8>>,
    lru: u64,
    /// The block's modification time — per *block*, not per file, which
    /// is the refinement §3.6 of the paper says Sprite planned. The
    /// cleaner preserves it across relocations so segment ages and
    /// age-sorting reflect true block ages.
    mtime: u64,
}

impl CachedBlock {
    fn new(data: Vec<u8>, lru: u64, mtime: u64) -> CachedBlock {
        CachedBlock {
            data: Arc::new(data),
            lru,
            mtime,
        }
    }

    /// Whether the block is pinned against eviction: an in-flight queued
    /// submission still shares its payload `Arc`. See
    /// [`BlockCache::evict`].
    fn pinned(&self) -> bool {
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
/// given, so a caller must not touch the map from inside that closure.
#[derive(Default)]
pub(crate) struct BlockMap {
    shards: [RwLock<Shard>; SHARDS],
    /// Resident blocks. Only the writer changes it, under a shard lock.
    len: AtomicUsize,
}

impl BlockMap {
    fn shard(&self, key: Key) -> &RwLock<Shard> {
        &self.shards[shard_index(key)]
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn contains(&self, key: Key) -> bool {
        read(self.shard(key)).contains_key(&key)
    }

    /// Copies bytes `off..off + dst.len()` of the block at `key` into
    /// `dst` under its shard's read lock. False when the block is not
    /// resident.
    pub(crate) fn copy_out(&self, key: Key, off: usize, dst: &mut [u8]) -> bool {
        let len = dst.len();
        self.get(key, |b| dst.copy_from_slice(&b.data[off..off + len]))
            .is_some()
    }

    /// Runs `f` on the block at `key` under its shard's read lock.
    fn get<R>(&self, key: Key, f: impl FnOnce(&CachedBlock) -> R) -> Option<R> {
        read(self.shard(key)).get(&key).map(f)
    }

    /// Runs `f` on the block at `key` under its shard's write lock.
    fn get_mut<R>(&self, key: Key, f: impl FnOnce(&mut CachedBlock) -> R) -> Option<R> {
        write(self.shard(key)).get_mut(&key).map(f)
    }

    /// Runs `f` on the block at `key` under its shard's write lock,
    /// inserting `make()` first when the map lacks it.
    fn upsert<R>(
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

    fn insert(&self, key: Key, block: CachedBlock) {
        if write(self.shard(key)).insert(key, block).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn remove(&self, key: Key) {
        if write(self.shard(key)).remove(&key).is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Keeps only the blocks `f` accepts.
    fn retain(&self, mut f: impl FnMut(Key) -> bool) {
        for shard in &self.shards {
            let mut shard = write(shard);
            let before = shard.len();
            shard.retain(|&k, _| f(k));
            self.len.fetch_sub(before - shard.len(), Ordering::Relaxed);
        }
    }

    /// Takes every shard's write lock, in shard order, for a walk over
    /// many blocks (an eviction round, an index sweep): one lock round
    /// trip per shard instead of one per block. Readers of any shard wait
    /// until the walk ends.
    fn lock_all(&self) -> AllShards<'_> {
        AllShards {
            shards: self.shards.each_ref().map(write),
            len: &self.len,
        }
    }
}

/// The whole map under its write locks; see [`BlockMap::lock_all`].
struct AllShards<'a> {
    shards: [RwLockWriteGuard<'a, Shard>; SHARDS],
    len: &'a AtomicUsize,
}

impl AllShards<'_> {
    fn get(&self, key: Key) -> Option<&CachedBlock> {
        self.shards[shard_index(key)].get(&key)
    }

    fn remove(&mut self, key: Key) -> Option<CachedBlock> {
        let block = self.shards[shard_index(key)].remove(&key)?;
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(block)
    }
}

/// A block-sized buffer from `pool`; see [`BlockCache::take_buf`].
fn take_buf(pool: &mut Vec<Vec<u8>>) -> Vec<u8> {
    pool.pop().unwrap_or_else(|| vec![0u8; BLOCK_SIZE])
}

/// The file system's block cache: the shared map and the writer's
/// bookkeeping of it. A block is dirty exactly when its key is in the
/// dirty set, and every dirty block is resident.
pub(crate) struct BlockCache {
    /// The map, shared with [`crate::SharedLfs`]'s lock-free readers.
    /// Declared before `pool`, so the last handle to the blocks is
    /// dropped before the pooled buffers are: dropped after them, the
    /// blocks doubled the page faults of the next mount in a
    /// format–fill–drop loop.
    map: Arc<BlockMap>,
    /// Every LRU stamp ever handed out, oldest first, with the block it
    /// went to. An entry is *live* while that block is resident and still
    /// carries the stamp; each resident block has exactly one live entry.
    /// Stale entries (block gone or restamped) are dropped when
    /// [`BlockCache::evict`] meets them and when the index outgrows the
    /// cache ([`BlockCache::stamp`]).
    lru_index: VecDeque<(u64, Key)>,
    lru_tick: u64,
    /// Buffers of evicted blocks, contents arbitrary, for the next blocks
    /// to enter the cache ([`BlockCache::take_buf`]).
    pool: Vec<Vec<u8>>,
    /// The dirty blocks, in file order.
    dirty: BTreeSet<Key>,
    /// The cache limit, in blocks.
    limit: usize,
    /// The last fragment block read, by log address, as it is in the log:
    /// small files read in the order they were written find the next
    /// one's fragment in it without a device read (Figure 8's read
    /// phase). Any log write forgets it ([`BlockCache::forget_frag_block`]),
    /// as does dropping the caches.
    frag_block: Option<(u64, Vec<u8>)>,
}

impl BlockCache {
    /// An empty cache of at most `limit_bytes` of clean blocks.
    pub(crate) fn new(limit_bytes: u64) -> BlockCache {
        BlockCache {
            map: Arc::default(),
            lru_index: VecDeque::new(),
            lru_tick: 0,
            pool: Vec::new(),
            dirty: BTreeSet::new(),
            limit: (limit_bytes / BLOCK_SIZE as u64) as usize,
            frag_block: None,
        }
    }

    /// The fragment block at log address `addr`, if it is the one kept.
    pub(crate) fn frag_block(&self, addr: u64) -> Option<&[u8]> {
        let (at, raw) = self.frag_block.as_ref()?;
        (*at == addr).then_some(&raw[..])
    }

    /// A buffer to read a fragment block into: the kept one's, which is
    /// forgotten, or a pooled one.
    pub(crate) fn frag_buf(&mut self) -> Vec<u8> {
        match self.frag_block.take() {
            Some((_, raw)) => raw,
            None => self.take_buf(),
        }
    }

    /// Keeps `raw`, the fragment block just read from log address `addr`.
    pub(crate) fn keep_frag_block(&mut self, addr: u64, raw: Vec<u8>) {
        self.frag_block = Some((addr, raw));
    }

    /// Forgets the kept fragment block: the log is being written, and a
    /// cleaned segment's blocks are written again.
    pub(crate) fn forget_frag_block(&mut self) {
        self.frag_block = None;
    }

    /// A handle to the map, for readers outside the writer lane.
    pub(crate) fn shared_map(&self) -> Arc<BlockMap> {
        Arc::clone(&self.map)
    }

    pub(crate) fn contains(&self, key: Key) -> bool {
        self.map.contains(key)
    }

    /// The dirty blocks, in file order.
    pub(crate) fn dirty(&self) -> &BTreeSet<Key> {
        &self.dirty
    }

    /// Bytes of dirty blocks awaiting a flush.
    pub(crate) fn dirty_bytes(&self) -> u64 {
        self.dirty.len() as u64 * BLOCK_SIZE as u64
    }

    /// The modification time of the block at `key`, if resident.
    pub(crate) fn mtime(&self, key: Key) -> Option<u64> {
        self.map.get(key, |b| b.mtime)
    }

    /// The modification time of the block at `key` and a zero-copy
    /// handle on its bytes, for a log write.
    pub(crate) fn for_write(&self, key: Key) -> Option<(u64, Arc<Vec<u8>>)> {
        self.map.get(key, |b| (b.mtime, Arc::clone(&b.data)))
    }

    /// See [`BlockMap::copy_out`].
    pub(crate) fn copy_out(&self, key: Key, off: usize, dst: &mut [u8]) -> bool {
        self.map.copy_out(key, off, dst)
    }

    /// Runs `f` on the bytes of the block at `key`, if resident.
    pub(crate) fn with_bytes<R>(&self, key: Key, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.map.get(key, |b| f(&b.data))
    }

    /// Hands out the next LRU stamp and records in the index that it goes
    /// to `key`. The caller stores it in the block (inserting the block if
    /// need be) before anything else touches the cache.
    fn stamp(&mut self, key: Key) -> u64 {
        // Every earlier stamp is in its block by now, so whatever fails
        // the liveness test is garbage; sweeping it only once it makes up
        // half the index keeps a stamp O(1) amortised.
        if self.lru_index.len() > 2 * self.map.len() + LRU_INDEX_SLACK {
            self.compact_lru_index();
        }
        self.lru_tick += 1;
        self.lru_index.push_back((self.lru_tick, key));
        self.lru_tick
    }

    /// Drops every stale entry of the LRU index.
    fn compact_lru_index(&mut self) {
        let blocks = self.map.lock_all();
        self.lru_index
            .retain(|&(stamp, key)| blocks.get(key).is_some_and(|b| b.lru == stamp));
    }

    /// The level to which clean blocks may overshoot the limit before an
    /// insertion evicts — which is also the most that resident blocks and
    /// pooled buffers may add up to.
    fn high_water(&self) -> usize {
        self.limit + self.limit / 8
    }

    /// A block-sized buffer for a block about to enter the cache. A pooled
    /// buffer still holds the bytes of the block evicted from it, so every
    /// caller overwrites all of it ([`BlockCache::zeroed_buf`] otherwise).
    pub(crate) fn take_buf(&mut self) -> Vec<u8> {
        take_buf(&mut self.pool)
    }

    /// [`BlockCache::take_buf`], zero-filled: a hole, or a block about to
    /// be written in part.
    pub(crate) fn zeroed_buf(&mut self) -> Vec<u8> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.fill(0);
                buf
            }
            None => vec![0u8; BLOCK_SIZE],
        }
    }

    /// Inserts one freshly fetched (clean) block, modified at `mtime`:
    /// LRU stamp, then an eviction round if the cache went past its
    /// high-water mark.
    ///
    /// The block is protected from the eviction its own insertion
    /// triggers: when every other entry is dirty or pinned it would be the
    /// only candidate, and callers that fetch-then-access would find the
    /// cache empty under them (panic in the write path, livelock in the
    /// read path).
    pub(crate) fn insert_fetched(&mut self, key: Key, data: Vec<u8>, mtime: u64) {
        let lru = self.stamp(key);
        self.map.insert(key, CachedBlock::new(data, lru, mtime));
        if self.map.len() > self.high_water() {
            self.evict(self.map.len() - self.limit, Some(key));
        }
    }

    /// Copies `src` into the block at `key` from byte `off` on and marks
    /// the block dirty as of `now`. A whole block replaces or inserts the
    /// block, under a fresh LRU stamp; a part of one needs it resident.
    pub(crate) fn write(&mut self, key: Key, off: usize, src: &[u8], now: u64) {
        let copy = |b: &mut CachedBlock| {
            Arc::make_mut(&mut b.data)[off..off + src.len()].copy_from_slice(src);
            b.mtime = now;
        };
        if src.len() == BLOCK_SIZE {
            let lru = self.stamp(key);
            let pool = &mut self.pool;
            let make = || CachedBlock::new(take_buf(pool), lru, now);
            self.map.upsert(key, make, |b| {
                b.lru = lru;
                copy(b)
            });
        } else {
            self.map
                .get_mut(key, copy)
                .expect("a partial write needs its block resident");
        }
        self.dirty.insert(key);
    }

    /// Marks a live block the cleaner relocates dirty. `content` is the
    /// block as read from the victim, when the cache did not hold it.
    /// The block keeps its modification time — relocation does not make
    /// data young — which is `mtime`, the summary's, unless the block was
    /// already dirty with a newer one.
    pub(crate) fn relocate(&mut self, key: Key, content: Option<&[u8]>, mtime: u64) {
        if let Some(content) = content {
            let lru = self.stamp(key);
            let mut buf = self.take_buf();
            buf.copy_from_slice(content);
            self.map.insert(key, CachedBlock::new(buf, lru, mtime));
        }
        let newly_dirty = self.dirty.insert(key);
        self.map
            .get_mut(key, |b| {
                if newly_dirty {
                    b.mtime = mtime;
                }
            })
            .expect("relocated blocks are resident");
    }

    /// Drops a block, dirty or not.
    pub(crate) fn remove(&mut self, key: Key) {
        self.map.remove(key);
        self.dirty.remove(&key);
    }

    /// Drops every block of `ino`, dirty or not.
    pub(crate) fn purge(&mut self, ino: Ino) {
        self.map.retain(|k| k.0 != ino);
        let gone: Vec<Key> = self
            .dirty
            .range((ino, 0)..=(ino, u64::MAX))
            .copied()
            .collect();
        for key in gone {
            self.dirty.remove(&key);
        }
    }

    /// Drops every clean block and gives the pooled memory back.
    pub(crate) fn drop_clean(&mut self) {
        let dirty = &self.dirty;
        self.map.retain(|k| dirty.contains(&k));
        self.compact_lru_index();
        self.pool = Vec::new();
        self.frag_block = None;
    }

    /// After a flush: every block is clean but those `kept` accepts, and
    /// the cache is trimmed back to its limit.
    pub(crate) fn clean_except(&mut self, kept: impl Fn(Key) -> bool) {
        self.dirty.retain(|&k| kept(k));
        self.evict(self.map.len().saturating_sub(self.limit), None);
    }

    /// Evicts the `excess` least recently stamped blocks among those that
    /// are clean, unpinned and not `protect` (all of them when there are
    /// fewer), walking the LRU index from its cold end: a round costs the
    /// blocks it evicts plus the entries it steps over, not a scan of the
    /// cache.
    ///
    /// Blocks whose payload `Arc` is shared are *pinned* and never
    /// evicted: a second strong count means a queued submission still
    /// references the block in flight. Evicting it would be data-safe
    /// (the ring keeps its own reference), but its buffer could not go
    /// back to the pool, and a re-read would install a second copy of a
    /// block the ring still holds. Lock-free readers never pin: they copy
    /// bytes out under the shard lock and keep no reference.
    ///
    /// A victim's buffer goes to the pool while resident blocks and pooled
    /// buffers together stay within the cache's high-water mark.
    pub(crate) fn evict(&mut self, excess: usize, protect: Option<Key>) {
        let high = self.high_water();
        let mut kept = Vec::new();
        let mut evicted = 0;
        let mut blocks = self.map.lock_all();
        while evicted < excess {
            let Some((stamp, key)) = self.lru_index.pop_front() else {
                break;
            };
            let Some(b) = blocks.get(key) else {
                continue;
            };
            if b.lru != stamp {
                continue;
            }
            if self.dirty.contains(&key) || b.pinned() || Some(key) == protect {
                kept.push((stamp, key));
                continue;
            }
            let victim = blocks.remove(key).expect("looked up above");
            evicted += 1;
            if self.map.len() + self.pool.len() < high {
                // Unpinned, so the count is one and the unwrap succeeds.
                if let Ok(buf) = Arc::try_unwrap(victim.data) {
                    self.pool.push(buf);
                }
            }
        }
        for e in kept.into_iter().rev() {
            self.lru_index.push_front(e);
        }
    }

    /// Asserts the cache's invariants against a scan: every dirty block
    /// is resident, the pool stays within the high-water mark, and each
    /// resident block has exactly one live LRU index entry, in stamp
    /// order. Debug builds only.
    pub(crate) fn assert_consistent(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(
            self.dirty.iter().all(|&k| self.map.contains(k)),
            "a dirty block is not resident"
        );
        // Dirty and pinned blocks can hold the cache above its limit;
        // the pool never adds to that.
        let (blocks, pooled, high) = (self.map.len(), self.pool.len(), self.high_water());
        assert!(
            pooled == 0 || blocks + pooled <= high,
            "{blocks} blocks + {pooled} pooled buffers exceed the high-water mark {high}"
        );
        assert!(self.pool.iter().all(|b| b.len() == BLOCK_SIZE));
        let live: Vec<_> = self
            .lru_index
            .iter()
            .filter(|&&(stamp, key)| self.map.get(key, |b| b.lru == stamp) == Some(true))
            .collect();
        assert!(
            live.windows(2).all(|w| w[0].0 < w[1].0),
            "live LRU index entries are not in stamp order"
        );
        assert_eq!(
            live.len(),
            blocks,
            "a resident block lacks its live LRU index entry"
        );
    }
}

/// Views of the cache's internals for its tests.
#[cfg(test)]
impl BlockCache {
    /// Every resident block: its key, LRU stamp, and whether it is
    /// pinned.
    pub(crate) fn scan(&self) -> Vec<(Key, u64, bool)> {
        let mut out = Vec::new();
        for shard in &self.map.shards {
            out.extend(read(shard).iter().map(|(&k, b)| (k, b.lru, b.pinned())));
        }
        out
    }

    /// The pooled buffers.
    pub(crate) fn pooled(&self) -> &[Vec<u8>] {
        &self.pool
    }

    /// True when the cache holds no block, pooled buffer or index entry.
    pub(crate) fn holds_nothing(&self) -> bool {
        self.map.len() == 0 && self.pool.is_empty() && self.lru_index.is_empty()
    }
}
