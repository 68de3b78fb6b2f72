//! The write path: building partial writes and checkpoints.
//!
//! A flush gathers everything dirty in the file cache — directory-log
//! records first (the §4.2 ordering guarantee), then file data blocks,
//! indirect blocks and inode blocks — lays the blocks out after a summary
//! block in the current segment, updates every pointer to the new
//! addresses, and issues one large sequential device write per chunk.
//! "For workloads that contain many small files, a log-structured file
//! system converts the many small synchronous random writes of traditional
//! file systems into large asynchronous sequential transfers" (§3).
//!
//! Inode-map and segment-usage blocks ride only the flushes that end in a
//! checkpoint — the checkpoint's own flush and settle loop. A segment
//! holding one the last checkpoint names is no victim, so a cleaner pass
//! never has to move one. A pass writes no checkpoint: the last
//! chunk of its closing flush lists the victims it releases, and the
//! fence after it makes them clean ([`Lfs::fence_release`]). Sprite LFS
//! does the same — at a checkpoint it "first writes out all modified
//! information to the log, including … blocks of the inode map and
//! segment usage table" (§4.1) — and roll-forward rebuilds the newer map
//! entries from the inodes, summaries and directory-operation log of the
//! tail (§4.2). Every other flush leaves the maps dirty in memory; that
//! includes a `sync`'s, which is a flush plus a fence (see `Lfs::sync`).
//!
//! A buffer-full flush — the write path's, and a cleaner pass's between
//! two victims ([`Scope::Threshold`]) — writes through the last chunk
//! that fills its segment and leaves the items after it dirty, so the log
//! is written a whole segment, behind one summary block, at a time where
//! the buffer allows (§3.1–3.3). Every other flush writes everything it
//! gathers: a `sync`, a checkpoint, an explicit [`Lfs::flush`], a pass's
//! closing flush (its victims are released only behind everything it
//! staged), and any flush that carries directory-log records, because
//! roll-forward cannot finish a `Create` or `Mkdir` whose inode it never
//! sees. Inode blocks come last, so a cut inode or indirect block usually
//! waits for the next flush that writes everything; until then
//! roll-forward ignores the data blocks the cut did write, as it ignores
//! those of any chunk whose inode a crash swallowed (§4.2).
//!
//! A `sync`'s flush also leaves alone the directories already on disk
//! ([`Scope::Sync`]): their blocks, indirect blocks and inode stay dirty,
//! and the directory-log records the flush does write are the log's only
//! record of their changes until the next flush that writes them: a
//! buffer-full flush that reaches them, a cleaner pass's closing flush or
//! a checkpoint. Roll-forward rebuilds the
//! entries from the records (§4.2), just as it rebuilds inode-map entries
//! from the inodes that map blocks lag behind. The flush threshold bounds
//! what waits: deferred directory blocks count towards it.
//!
//! A flush runs in six stages, one function each: **gather** turns the
//! dirty state into one item list; **place** lays it out as chunks with
//! [`Placement`]; **assign** gives the items their addresses and makes
//! final everything the encoded blocks carry; **encode** renders one chunk
//! into a [`Flush<SummarySealed>`]; **submit** consumes that and returns a
//! [`Flush<DataWritten>`]; and **commit**, which requires it, hands the
//! token and the placement's end to the log writer (`log.rs`), which
//! advances `write_seq` and the write points, and clears the dirty bits,
//! the map blocks' too. Encode and submit alternate chunk by chunk, so the
//! log's scratch pool stays at the ring depth + 1. A flush that fails
//! before commit leaves every dirty bit set and every write point where it
//! was, every segment as its plan found it (`Space::abandon`), and the
//! next flush places the same state again. A `sync` and a
//! checkpoint then take the token to [`Lfs::fence`], the one path that
//! makes the log durable.

use std::collections::BTreeSet;
use std::sync::Arc;

use blockdev::{IoBuf, QueueDevice, WriteKind, BLOCK_SIZE};
use vfs::{FileType, FsError, FsResult, Ino};

use crate::dirlog::{self, DirOp};
use crate::fs::{Lfs, IO_ATTEMPTS};
use crate::inode::INODE_DISK_SIZE;
use crate::inodemap::InodeMap;
use crate::layout::{Chunk, DiskAddr, Placement, INODES_PER_BLOCK};
use crate::meta::{ptr_block, tail_len, Frag, IndKey, FRAG_ALIGN};
use crate::ordering::{
    CheckpointReady, DataWritten, Fenced, Flush, Listed, Released, SummarySealed,
};
use crate::stats::{BlockKind, FlushScope};
use crate::summary::{EntryKind, Summary, SummaryEntry};
use crate::usage::space::Claim;
use crate::usage::UsageTable;

/// One block scheduled for the current partial write.
#[derive(Clone, Debug)]
enum Item {
    DirLog(Arc<Vec<u8>>),
    Data {
        ino: Ino,
        bno: u64,
    },
    /// A fragment block: the partial last blocks of files, each at its
    /// start ([`pack_tails`]).
    Frags(Vec<Tail>),
    Ind {
        ino: Ino,
        key: IndKey,
    },
    InodeBlk {
        inos: Vec<Ino>,
    },
    Imap(usize),
    Usage(usize),
}

/// A file's partial last block, written as a fragment of `len` bytes at
/// byte `start` of a fragment block.
#[derive(Clone, Copy, Debug)]
struct Tail {
    ino: Ino,
    bno: u64,
    start: usize,
    len: usize,
}

impl Item {
    fn stats_kind(&self) -> BlockKind {
        match self {
            Item::DirLog(_) => BlockKind::DirLog,
            Item::Data { .. } | Item::Frags(_) => BlockKind::Data,
            Item::Ind { .. } => BlockKind::Indirect,
            Item::InodeBlk { .. } => BlockKind::Inode,
            Item::Imap(_) => BlockKind::Imap,
            Item::Usage(_) => BlockKind::Usage,
        }
    }

    /// The summary entries the item's block takes: its own, and one per
    /// fragment of a fragment block.
    fn entries(&self) -> usize {
        match self {
            Item::Frags(tails) => 1 + tails.len(),
            _ => 1,
        }
    }
}

/// Where the bytes of one block of a partial write come from.
enum Block {
    /// Rendered into the block's slot of the scratch buffer.
    Rendered,
    /// A cached data block or a directory-log payload, whole.
    Shared(Arc<Vec<u8>>),
    /// A fragment block: the first `len` bytes of each cached block, in
    /// order, then zeros from byte `used` on, from its scratch slot.
    Frags(Vec<(Arc<Vec<u8>>, usize)>, usize),
}

/// What a flush writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scope {
    /// A `sync`'s: everything dirty but the directories already on disk
    /// (see the module docs and [`Lfs::logged_dir`]).
    Sync,
    /// A buffer-full flush's (the write path's, and a cleaner pass's
    /// between two victims): everything dirty, written only through the
    /// last chunk that fills its segment (see the module docs).
    Threshold,
    /// Everything dirty: an explicit [`Lfs::flush`], and a cleaner pass's
    /// closing flush.
    All,
    /// Everything dirty plus the inode-map and usage-table blocks: a flush
    /// that ends in a checkpoint.
    Checkpoint,
}

/// The layout of one flush: its chunks in sequence order, and the
/// placement they leave behind.
struct LayoutPlan {
    chunks: Vec<Chunk>,
    end: Placement,
    /// How many of the items, from the first, the chunks carry: all of
    /// them but after a cut.
    kept: usize,
}

/// The layout rule of fragment blocks (DESIGN.md §7.3), which keeps each
/// file's blocks one contiguous run. The tail of a file with full blocks
/// to write opens a fragment block at start 0, right after them: the
/// blocks `opened` names (indices into `items`). Each of those is filled
/// first-fit, in gather order, with the `lone` tails, of files with no
/// other block to write; the lone tails left over share fragment blocks of
/// their own, appended to `items`.
fn pack_tails(items: &mut Vec<Item>, opened: &[usize], lone: Vec<Tail>) {
    let mut lone: Vec<Option<Tail>> = lone.into_iter().map(Some).collect();
    let fill = |tails: &mut Vec<Tail>, lone: &mut [Option<Tail>]| {
        let mut used: usize = tails.iter().map(|t| t.len).sum();
        for slot in lone {
            if BLOCK_SIZE - used < FRAG_ALIGN {
                break;
            }
            if let Some(t) = slot.filter(|t| used + t.len <= BLOCK_SIZE) {
                tails.push(Tail { start: used, ..t });
                used += t.len;
                *slot = None;
            }
        }
    };
    for &i in opened {
        let Item::Frags(tails) = &mut items[i] else {
            unreachable!("a tail opens a fragment block");
        };
        fill(tails, &mut lone);
    }
    // Filling one block at a time, each from all that is left in order, is
    // first-fit over the new blocks.
    while lone.iter().any(Option::is_some) {
        let mut tails = Vec::new();
        fill(&mut tails, &mut lone);
        items.push(Item::Frags(tails));
    }
    // A tail alone in its block shares it with nothing: it is written as
    // a whole block, which costs the log the same and leaves no room in it
    // that only the cleaner could win back.
    for item in items.iter_mut() {
        if let Item::Frags(tails) = item {
            if let [Tail { ino, bno, .. }] = tails[..] {
                *item = Item::Data { ino, bno };
            }
        }
    }
}

impl<D: QueueDevice> Lfs<D> {
    /// True if a flush has work a `sync` must do: file state or
    /// directory-log records waiting to reach the log. Dirty inode-map and
    /// usage-table blocks do not count — only a checkpoint writes them —
    /// nor do the directories the last `sync` left dirty ([`Scope::Sync`]).
    /// O(1): the dirty populations are the lengths of the dirty sets, not
    /// cache scans (this predicate runs on every write while the caches
    /// hold the whole working set).
    ///
    /// The discount is a count, `sync_left`, not a set: after the flush
    /// that set it, dirty state only grows until the next flush, except
    /// where a deletion purges it, and a deletion leaves a directory-log
    /// record pending.
    pub fn needs_flush(&self) -> bool {
        let pending = !self.dirlog_pending.is_empty() || self.dirty_count() > self.sync_left;
        debug_assert!(
            pending || self.sync_left == 0 || self.dirt_is_logged(),
            "a sync would leave file state behind"
        );
        pending
    }

    /// Dirty blocks, indirect blocks and inodes, together.
    fn dirty_count(&self) -> usize {
        self.blocks.dirty().len() + self.meta.dirty_count()
    }

    /// True if everything dirty belongs to a [`Lfs::logged_dir`]. A scan;
    /// only debug builds ask.
    fn dirt_is_logged(&self) -> bool {
        let fresh = self.fresh_dirs();
        self.dirty_inos()
            .into_iter()
            .all(|i| self.logged_dir(i, &fresh))
    }

    /// True if `ino` is a directory the log already holds: its inode has
    /// reached the log, and it is not among the `fresh` ones
    /// ([`Lfs::fresh_dirs`]). A `sync` may leave such a directory's
    /// changes to the directory log alone ([`Scope::Sync`]); a directory
    /// fresh from `mkdir` it must write, because roll-forward cannot
    /// complete a `Mkdir` whose inode it never sees.
    pub(crate) fn logged_dir(&self, ino: Ino, fresh: &[Ino]) -> bool {
        self.meta
            .inode(ino)
            .is_some_and(|i| i.ftype == FileType::Directory)
            && self.imap.get(ino).is_ok_and(|e| e.is_live())
            && !fresh.contains(&ino)
    }

    /// The directories whose `Mkdir` record has not reached the log. A
    /// flush that failed after giving such a directory's inode an address
    /// leaves the record pending, so the address alone does not say the
    /// inode is in the log.
    fn fresh_dirs(&self) -> Vec<Ino> {
        let mkdirs = self.dirlog_pending.iter().filter(|r| r.op == DirOp::Mkdir);
        mkdirs.map(|r| r.ino).collect()
    }

    /// True if the inode map or usage table holds changes the log has not
    /// seen — what a checkpoint writes beyond a flush.
    fn maps_dirty(&self) -> bool {
        self.imap.blocks.has_dirty() || self.space.usage().blocks.has_dirty()
    }

    /// True when a `sync` would be a pure group commit: nothing its flush
    /// would write, and the last fence already covers every partial
    /// write. Dirty map blocks do not count — they wait for the next
    /// checkpoint — nor do the directories a `sync` leaves to the
    /// directory log. [`crate::SharedLfs`] mirrors this into an atomic so
    /// concurrent `sync` callers can hand off without taking the writer
    /// lane at all.
    pub(crate) fn sync_settled(&self) -> bool {
        !self.needs_flush() && self.log.is_durable()
    }

    /// Writes everything dirty to the log as one or more partial writes.
    ///
    /// This is the paper's fundamental operation: it converts the
    /// accumulated small modifications into large sequential transfers.
    /// It does *not* write a checkpoint, nor the inode-map and usage-table
    /// blocks only a checkpoint writes; see [`Lfs::checkpoint`].
    pub fn flush(&mut self) -> FsResult<()> {
        self.flush_tokened(Scope::All).map(drop)
    }

    /// A buffer-full flush ([`Scope::Threshold`]): the write path's, and
    /// a cleaner pass's between victims.
    pub(crate) fn flush_buffer(&mut self) -> FsResult<()> {
        self.flush_tokened(Scope::Threshold).map(drop)
    }

    /// The one flush path, returning the [`Flush<DataWritten>`] ordering
    /// token of the last chunk written; `scope` says what the partial
    /// writes carry. A flush with nothing to write is skipped, but one
    /// that carries map blocks runs whenever they are dirty.
    /// `sync` and checkpointing go through this form: the token is the
    /// compile-time proof that the log writes a fence will cover were
    /// staged → sealed → submitted in order, and [`Lfs::fence`] is the
    /// only way to turn it into the [`CheckpointReady`] the region write
    /// demands (a `sync` fences and stops there).
    pub(crate) fn flush_tokened(&mut self, scope: Scope) -> FsResult<Flush<DataWritten>> {
        self.flush_listing(scope, &[])
    }

    /// A cleaner pass's closing flush: [`Lfs::flush`], whose last chunk's
    /// summary lists the pass's `victims`, even when there is nothing
    /// else to write. Fails before writing anything if a victim still
    /// holds live bytes. Returns the list as that chunk carries it.
    pub(crate) fn flush_releasing(&mut self, victims: &[u32]) -> FsResult<Released<Listed>> {
        let written = self.flush_listing(Scope::All, victims)?;
        Ok(written.release(victims.to_vec()))
    }

    /// [`Lfs::flush_tokened`], with the list of `released` segments the
    /// last chunk carries.
    fn flush_listing(&mut self, scope: Scope, released: &[u32]) -> FsResult<Flush<DataWritten>> {
        let work = !released.is_empty()
            || match scope {
                Scope::Sync => self.needs_flush(),
                Scope::Threshold | Scope::All => self.needs_flush() || self.sync_left > 0,
                Scope::Checkpoint => self.needs_flush() || self.sync_left > 0 || self.maps_dirty(),
            };
        if !work {
            return Ok(Flush::idle());
        }
        let res = self.timed(|o| &o.flush, |fs| fs.flush_inner(scope, released));
        // On a queued device the ring engine owns retries of transient
        // apply failures; fold whatever it absorbed (or gave up on) into
        // the same ledger the synchronous retry paths use.
        self.absorb_queue_errors();
        res
    }

    /// The stages of a flush, in order (see the module docs).
    fn flush_inner(&mut self, scope: Scope, released: &[u32]) -> FsResult<Flush<DataWritten>> {
        // The directories a sync defers pass to commit as a value: the
        // cleaner can run inside `place`, and its nested flush must not
        // see (or overwrite) them.
        let (mut items, deferred) = self.gather(scope)?;
        // A flush that carries directory-log records writes everything:
        // roll-forward cannot finish a `Create` or `Mkdir` whose inode it
        // never sees.
        let stop = scope == Scope::Threshold && self.dirlog_pending.is_empty();
        let maps = scope == Scope::Checkpoint;
        let plan = self.place(&mut items, maps, released.len(), stop)?;
        let claim = self.assign(&items, &plan)?;
        let usage = self.space.usage();
        if let Some(&seg) = released.iter().find(|&&s| usage.get(s).live_bytes != 0) {
            self.space.abandon(claim);
            return Err(self.still_live(seg));
        }
        let written = self.write_chunks(&items, &plan, released);
        // Failed, the flush leaves the write points where they were, and
        // every segment as its plan found it.
        let written = written.inspect_err(|_| self.space.abandon(claim))?;
        let kind = match scope {
            _ if !released.is_empty() => FlushScope::Closing,
            Scope::Threshold => FlushScope::Threshold,
            Scope::Sync => FlushScope::Sync,
            Scope::All => FlushScope::All,
            Scope::Checkpoint => FlushScope::Checkpoint,
        };
        self.stats.count_flush(kind, plan.chunks.len() as u64);
        Ok(self.commit(written, plan, &items, &deferred))
    }

    /// Encodes and submits the plan's chunks in turn, the last one with
    /// the `released` list; returns the last one's token.
    fn write_chunks(
        &mut self,
        items: &[Item],
        plan: &LayoutPlan,
        released: &[u32],
    ) -> FsResult<Flush<DataWritten>> {
        let mut written = Flush::idle();
        let mut first = 0;
        let last = plan.chunks.len();
        for (i, (seq, c)) in (self.log.write_seq() + 1..).zip(&plan.chunks).enumerate() {
            let released = if i + 1 == last { released } else { &[] };
            let (sealed, bufs) = self.encode(&items[first..first + c.n], seq, released);
            first += c.n;
            written = self.submit(sealed, c, bufs)?;
        }
        Ok(written)
    }

    /// **Gather**: the dirty state becomes the flush's items, in write
    /// order: directory-log records, then each file's data and indirect
    /// blocks, the fragment blocks no file opened, then the inode blocks
    /// and, for a checkpoint, the inode-map blocks. A regular file's
    /// partial last block becomes a fragment ([`pack_tails`]). An inode
    /// must reach the log *after* every data and indirect block it
    /// references, or roll-forward could adopt an inode whose blocks a
    /// crash swallowed (§4.2); replay stops at the first missing sequence
    /// number, so the inodes come last.
    ///
    /// A [`Scope::Sync`] gather skips every [`Lfs::logged_dir`] and hands
    /// back the ones it skipped, sorted, which commit leaves dirty.
    fn gather(&mut self, scope: Scope) -> FsResult<(Vec<Item>, Vec<Ino>)> {
        let mut items: Vec<Item> = dirlog::encode_records(&self.dirlog_pending)
            .into_iter()
            .map(|b| Item::DirLog(Arc::new(b.into_vec())))
            .collect();
        self.dirty_parent_inds()?;
        let mut inode_writes: Vec<Ino> = Vec::new();
        let (mut deferred, fresh) = (Vec::new(), self.fresh_dirs());
        // The fragment blocks the tails of multi-block files open, and the
        // tails of files with nothing else to write.
        let (mut opened, mut lone) = (Vec::new(), Vec::new());
        for ino in self.file_order() {
            if scope == Scope::Sync && self.logged_dir(ino, &fresh) {
                deferred.push(ino);
                continue;
            }
            // Data blocks in file order, the tail last, then indirect
            // blocks: singles first (their addresses go into the double),
            // then the double.
            let tail = self.dirty_tail(ino);
            let whole = |&&(_, bno): &&(Ino, u64)| tail.is_none_or(|t| t.bno != bno);
            let blocks = self.blocks.dirty().range((ino, 0)..=(ino, u64::MAX));
            let before = items.len();
            items.extend(
                blocks
                    .filter(whole)
                    .map(|&(_, bno)| Item::Data { ino, bno }),
            );
            match tail {
                Some(tail) if items.len() > before => {
                    opened.push(items.len());
                    items.push(Item::Frags(vec![tail]));
                }
                Some(tail) => lone.push(tail),
                None => {}
            }
            let keys = self.meta.dirty_inds_of(ino);
            items.extend(keys.map(|key| Item::Ind { ino, key }));
            // Then the inode: its block pointers or its attributes changed.
            inode_writes.push(ino);
        }
        pack_tails(&mut items, &opened, lone);
        // Pack dirty inodes 16 to a block, preserving the file order.
        let inode_blocks = inode_writes.chunks(INODES_PER_BLOCK);
        items.extend(inode_blocks.map(|inos| Item::InodeBlk {
            inos: inos.to_vec(),
        }));
        // Map blocks ride only a flush that ends in a checkpoint (see the
        // module docs): the dirty inode-map blocks plus those about to
        // change because of the inode relocations above.
        if scope == Scope::Checkpoint {
            let mut imap_blocks: BTreeSet<usize> =
                self.imap.blocks.dirty_indices().into_iter().collect();
            imap_blocks.extend(inode_writes.iter().map(|&ino| InodeMap::block_of(ino)));
            items.extend(imap_blocks.into_iter().map(Item::Imap));
        }
        deferred.sort_unstable();
        Ok((items, deferred))
    }

    /// The dirty partial last block of regular file `ino`, as a tail at
    /// start 0: the block of its last byte, when that is not full.
    /// Directories keep whole blocks.
    fn dirty_tail(&self, ino: Ino) -> Option<Tail> {
        let inode = self.meta.inode(ino)?;
        let len = tail_len(inode.size).filter(|_| inode.ftype == FileType::Regular)?;
        let bno = inode.size / BLOCK_SIZE as u64;
        let dirty = self.blocks.dirty().contains(&(ino, bno));
        dirty.then_some(Tail {
            ino,
            bno,
            start: 0,
            len,
        })
    }

    /// Makes sure every indirect block that will receive a pointer update
    /// is in the cache and dirty, so it is part of the batch.
    fn dirty_parent_inds(&mut self) -> FsResult<()> {
        let dirty_data: Vec<(Ino, u64)> = self.blocks.dirty().iter().copied().collect();
        for (ino, bno) in dirty_data {
            self.ensure_inode(ino)?;
            while let Some(load) = self.meta.hold(ino, bno)? {
                self.load_ind(ino, load)?;
            }
        }
        Ok(())
    }

    /// The files with dirty state, in write order: by inode number or,
    /// in a cleaner pass under an age-sorting policy, by the age of their
    /// oldest dirty block. "Sort the blocks by the time they were last
    /// modified and group blocks of similar age together into new
    /// segments" (§3.4, policy 4); within a file, blocks are relocated
    /// together, which is the grouping the policy wants.
    fn file_order(&mut self) -> Vec<Ino> {
        let inos = self.dirty_inos();
        if !self.space.cleaning || self.cfg.policy == crate::CleaningPolicy::Greedy {
            return inos.into_iter().collect();
        }
        let mut keyed: Vec<(u64, Ino)> = inos
            .into_iter()
            .map(|ino| {
                let oldest_block = self
                    .blocks
                    .dirty()
                    .range((ino, 0)..=(ino, u64::MAX))
                    .filter_map(|&k| self.blocks.mtime(k))
                    .min();
                let age = match oldest_block {
                    Some(t) => t,
                    None => self.inode_ref(ino).map(|i| i.mtime).unwrap_or(0),
                };
                (age, ino)
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    /// **Place**: lays the items out as chunks, the last with room for a
    /// list of `released` segments; with `stop`, only through the last
    /// chunk that ends on a segment boundary ([`Lfs::layout`]).
    ///
    /// A flush that carries the maps also carries the usage block of every
    /// segment it touches, and which segments those are only the layout
    /// says: usage items are appended to the list and the layout redone
    /// until the set stops growing (normally one extra round at most).
    /// They are truncated off again between rounds — no per-round clone of
    /// the whole item list, which holds directory-log payloads and inode
    /// groups.
    fn place(
        &mut self,
        items: &mut Vec<Item>,
        maps: bool,
        released: usize,
        stop: bool,
    ) -> FsResult<LayoutPlan> {
        let mut usage_blocks: BTreeSet<usize> = BTreeSet::new();
        if maps {
            usage_blocks.extend(self.space.usage().blocks.dirty_indices());
            // Segments that will lose live bytes (old homes of rewritten
            // blocks) are known before layout.
            let dirty_data: Vec<(Ino, u64)> = self.blocks.dirty().iter().copied().collect();
            for (ino, bno) in dirty_data {
                let old = ptr_block(self.block_ptr(ino, bno)?);
                usage_blocks.extend(self.sb.seg_of(old).map(UsageTable::block_of));
            }
            let wps = self.log.write_points().iter();
            usage_blocks.extend(wps.map(|&(seg, _)| UsageTable::block_of(seg)));
        }
        let base = items.len();
        loop {
            items.extend(usage_blocks.iter().map(|&idx| Item::Usage(idx)));
            let entries: Vec<usize> = items.iter().map(Item::entries).collect();
            // Out of clean segments, the cleaner regenerates some (it has
            // a reserved allocation pool precisely so it can still run
            // now) and the layout is retried; several rounds may be
            // needed when space is very tight.
            let mut plan = self.layout(&entries, released, stop);
            for _ in 0..4 {
                if plan.is_some() || self.space.cleaning {
                    break;
                }
                self.as_cleaner(Self::clean_until_high_water)?;
                plan = self.layout(&entries, released, stop);
            }
            let plan = plan.ok_or(FsError::NoSpace)?;
            let mut grew = false;
            if maps {
                for c in &plan.chunks {
                    grew |= usage_blocks.insert(UsageTable::block_of(c.seg));
                }
            }
            if !grew {
                return Ok(plan);
            }
            items.truncate(base);
        }
    }

    /// Places chunks for the items, whose blocks take `entries[i]` summary
    /// entries each, chunk by chunk through [`Placement::next`], without
    /// mutating anything. `None` when they do not fit. When the last chunk
    /// has no room for a list of `released` segments, one more chunk, a
    /// summary alone, carries it.
    ///
    /// With `stop`, the plan ends with the last chunk that fills its
    /// segment, and the items after it are left for the next flush; a
    /// plan with no such chunk but its last keeps every item.
    fn layout(&self, entries: &[usize], released: usize, stop: bool) -> Option<LayoutPlan> {
        let mut end = self.placement(self.space.reserve());
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut cut = None;
        let count = entries.len();
        let (mut seq, mut left) = (self.log.write_seq(), count);
        while left > 0 {
            seq += 1;
            let c = end.next(seq, &entries[count - left..])?;
            left -= c.n;
            chunks.push(c);
            let fills = c.off as usize + 1 + c.n == self.sb.seg_blocks as usize;
            if stop && fills && left > 0 {
                cut = Some((chunks.len(), count - left, seq, end.clone()));
            }
        }
        let mut kept = count;
        if let Some((n, items, at_seq, at)) = cut {
            chunks.truncate(n);
            (kept, seq, end) = (items, at_seq, at);
        }
        let room = crate::summary::capacity(released);
        if released > 0 && chunks.last().is_none_or(|c| c.entries > room) {
            chunks.push(end.next(seq + 1, &[])?);
        }
        Some(LayoutPlan { chunks, end, kept })
    }

    /// **Assign**: gives every item its address and makes final the state
    /// the encoded blocks carry — block pointers, live bytes, the inode
    /// map, and the states of the segments the plan opens and seals (its
    /// [`Claim`]). It runs before any chunk is encoded, because the
    /// inode-map and usage blocks a checkpoint writes must already hold all
    /// of it.
    ///
    /// It marks nothing dirty: everything whose pointer moves was gathered,
    /// and what holds the pointers of a cut's kept items, left behind,
    /// commit marks dirty.
    fn assign(&mut self, items: &[Item], plan: &LayoutPlan) -> FsResult<Claim> {
        let gathered = |ino, key| {
            let ind = |i: &Item| matches!(*i, Item::Ind { ino: o, key: k } if (o, k) == (ino, key));
            items.iter().any(ind)
        };
        // Over the whole gathered list: a cut may leave the parent behind.
        debug_assert!(
            items.iter().all(|item| match *item {
                Item::Ind { ino, key } => key.parent().is_none_or(|p| gathered(ino, p)),
                _ => true,
            }),
            "an indirect block was gathered without its parent"
        );
        let mut items = items[..plan.kept].iter();
        for c in &plan.chunks {
            let first = self.sb.seg_start(c.seg) + c.off as u64 + 1;
            for (addr, item) in (first..).zip(items.by_ref().take(c.n)) {
                self.assign_item(item, addr)?;
            }
        }
        debug_assert_eq!(items.len(), 0, "the chunks cover the kept items");
        let (wps, seq) = (self.log.write_points(), self.log.write_seq());
        Ok(self.space.claim(wps, seq, &plan.chunks, &plan.end))
    }

    /// Points whatever references `item` at `addr`, and moves the item's
    /// live bytes there from its old home.
    fn assign_item(&mut self, item: &Item, addr: DiskAddr) -> FsResult<()> {
        let now = self.clock;
        let seg = self.sb.seg_of(addr).expect("log write outside segments");
        match *item {
            Item::DirLog(_) => {}
            Item::Data { ino, bno } => {
                // Per-block modification time (the §3.6 refinement):
                // segment ages reflect the blocks actually in them, not
                // the owning file's latest touch.
                let mtime = self.blocks.mtime((ino, bno)).unwrap_or(now);
                let old = self.meta.assign_ptr(ino, bno, addr)?;
                self.kill_ptr(old);
                self.space.move_live(None, seg, BLOCK_SIZE, mtime);
            }
            // A fragment counts its aligned length as live bytes.
            Item::Frags(ref tails) => {
                for &Tail {
                    ino,
                    bno,
                    start,
                    len,
                } in tails
                {
                    let mtime = self.blocks.mtime((ino, bno)).unwrap_or(now);
                    let frag = Frag {
                        block: addr,
                        start,
                        len,
                    };
                    let old = self.meta.assign_ptr(ino, bno, frag.ptr())?;
                    self.kill_ptr(old);
                    self.space.move_live(None, seg, len, mtime);
                }
            }
            Item::Ind { ino, key } => {
                let old = self.meta.relocate_ind(ino, key, addr);
                self.space
                    .move_live(self.sb.seg_of(old), seg, BLOCK_SIZE, now);
            }
            Item::InodeBlk { ref inos } => {
                for (slot, &ino) in inos.iter().enumerate() {
                    let old = *self.imap.get(ino)?;
                    let old = old.is_live().then(|| self.sb.seg_of(old.addr)).flatten();
                    self.imap.set_location(ino, addr, slot as u8);
                    self.space.move_live(old, seg, INODE_DISK_SIZE, now);
                }
            }
            // Like everything else here, the map blocks stay dirty until
            // commit: a flush that fails writes them again next time.
            Item::Imap(idx) => {
                let old = std::mem::replace(&mut self.imap.blocks.addrs[idx], addr);
                self.space.move_map_block(self.sb.seg_of(old), seg, now);
            }
            Item::Usage(idx) => {
                let old = std::mem::replace(&mut self.space.blocks_mut().addrs[idx], addr);
                self.space.move_map_block(self.sb.seg_of(old), seg, now);
            }
        }
        Ok(())
    }

    /// **Encode**: renders chunk `seq` of `items` — its summary block,
    /// stamped with the log's durable sequence number and listing the
    /// `released` segments, and the blocks it synthesizes — and returns
    /// the chunk's block list, sealed.
    ///
    /// Cached data blocks and directory-log payloads ride along as `Arc`
    /// clones ([`IoBuf::Shared`], zero-copy — a later in-place write to a
    /// block still in flight copies-on-write); only genuinely synthesized
    /// blocks (the summary, inode groups, indirect/imap/usage encodes) are
    /// rendered, into a pooled scratch buffer whose windows are shared
    /// the same way. Each summary entry's content checksum is computed over
    /// the exact bytes the device will receive. Roll-forward refuses to
    /// replay a chunk whose blocks do not all verify, so a torn segment
    /// write is indistinguishable from the end of the log instead of being
    /// replayed as garbage.
    fn encode(
        &mut self,
        items: &[Item],
        seq: u64,
        released: &[u32],
    ) -> (Flush<SummarySealed>, Vec<IoBuf>) {
        let staged = Flush::stage();
        let (time, by_cleaner) = (self.clock, self.space.cleaning);
        let n = items.len();
        let mut arc = self.log.take_scratch();
        let scratch = Arc::make_mut(&mut arc);
        scratch.resize(scratch.len().max((1 + n) * BLOCK_SIZE), 0);
        let mut entries = Vec::with_capacity(n);
        // How each block reaches the list, in item order.
        let mut blocks = Vec::with_capacity(n);
        for (j, item) in items.iter().enumerate() {
            let dst = &mut scratch[(1 + j) * BLOCK_SIZE..(2 + j) * BLOCK_SIZE];
            let at = entries.len();
            let block = self.render(item, dst, time, &mut entries);
            entries[at].csum = crate::codec::fold(match block {
                Block::Rendered => crate::codec::checksum(dst),
                Block::Shared(ref b) => crate::codec::checksum(b),
                Block::Frags(ref frags, used) => crate::codec::checksum_pieces(
                    frags
                        .iter()
                        .map(|(b, len)| &b[..*len])
                        .chain([&dst[used..]]),
                ),
            });
            if matches!(block, Block::Rendered) {
                self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
            }
            self.stats
                .add_log_bytes(item.stats_kind(), BLOCK_SIZE as u64, by_cleaner);
            self.count_padding(item);
            blocks.push(block);
        }
        let summary = Summary {
            epoch: self.log.epoch(),
            seq,
            write_time: time,
            watermark: self.log.durable_seq(),
            entries,
            released: released.to_vec(),
        };
        summary.encode_into(&mut scratch[..BLOCK_SIZE]);
        let sealed = staged.seal_summary();
        self.stats.flush_copy_bytes += BLOCK_SIZE as u64;
        self.stats
            .add_log_bytes(BlockKind::Summary, BLOCK_SIZE as u64, by_cleaner);
        let mut bufs: Vec<IoBuf> = Vec::with_capacity(1 + n);
        bufs.push(IoBuf::shared_range(arc.clone(), 0, BLOCK_SIZE));
        for (j, block) in blocks.into_iter().enumerate() {
            let slot = (1 + j) * BLOCK_SIZE;
            match block {
                Block::Rendered => bufs.push(IoBuf::shared_range(arc.clone(), slot, BLOCK_SIZE)),
                Block::Shared(b) => bufs.push(IoBuf::shared(b)),
                Block::Frags(frags, used) => {
                    let frags = frags.into_iter();
                    bufs.extend(frags.map(|(b, len)| IoBuf::shared_range(b, 0, len)));
                    if used < BLOCK_SIZE {
                        let pad = BLOCK_SIZE - used;
                        bufs.push(IoBuf::shared_range(arc.clone(), slot + used, pad));
                    }
                }
            }
        }
        self.log.put_scratch(arc);
        (sealed, bufs)
    }

    /// One item of [`Lfs::encode`]: pushes its block's summary entry,
    /// checksum still to fill in, and a fragment block's fragment entries
    /// after it, and says where the block's bytes are. An indirect,
    /// inode, inode-map or usage block is rendered into `dst`; a fragment
    /// block leaves its fragments in the cache and takes its zero padding
    /// from `dst`.
    fn render(
        &self,
        item: &Item,
        dst: &mut [u8],
        time: u64,
        entries: &mut Vec<SummaryEntry>,
    ) -> Block {
        let meta = |kind, offset| SummaryEntry::meta(kind, offset, time);
        let (entry, block) = match *item {
            Item::DirLog(ref data) => (meta(EntryKind::DirLog, 0), Block::Shared(data.clone())),
            Item::Data { ino, bno } => {
                let (mtime, data) = self
                    .blocks
                    .for_write((ino, bno))
                    .expect("dirty blocks are resident");
                let entry = SummaryEntry::data(ino, bno as u32, self.imap.version(ino), mtime);
                (entry, Block::Shared(data))
            }
            Item::Frags(ref tails) => {
                entries.push(meta(EntryKind::FragBlock, 0));
                let mut frags = Vec::with_capacity(tails.len());
                for t in tails {
                    let (mtime, data) = self
                        .blocks
                        .for_write((t.ino, t.bno))
                        .expect("dirty blocks are resident");
                    let file = (t.ino, t.bno as u32, self.imap.version(t.ino), mtime);
                    let csum = crate::codec::block_checksum(&data[..t.len]);
                    entries.push(SummaryEntry::fragment(file, t.start, t.len, csum));
                    frags.push((data, t.len));
                }
                // The pool is reused: the padding must be zero.
                let used = tails.iter().map(|t| t.len).sum();
                dst[used..].fill(0);
                return Block::Frags(frags, used);
            }
            Item::Ind { ino, key } => {
                self.meta.encode_ind(ino, key, dst);
                let (kind, offset) = key.summary();
                let version = self.imap.version(ino);
                let entry = SummaryEntry::data(ino, offset, version, time);
                (SummaryEntry { kind, ..entry }, Block::Rendered)
            }
            Item::InodeBlk { ref inos } => {
                // The pool is reused: zero the slot so a partial inode
                // group leaves the same zero padding a fresh buffer had.
                dst.fill(0);
                for (slot, ino) in dst.chunks_mut(INODE_DISK_SIZE).zip(inos) {
                    let inode = self.meta.inode(*ino).expect("gathered inodes are cached");
                    inode.encode_into(slot);
                }
                (meta(EntryKind::InodeBlock, 0), Block::Rendered)
            }
            Item::Imap(idx) => {
                self.imap.encode_block_into(idx, dst);
                (meta(EntryKind::ImapBlock, idx as u32), Block::Rendered)
            }
            Item::Usage(idx) => {
                self.space.usage().encode_block_into(idx, dst);
                (meta(EntryKind::UsageBlock, idx as u32), Block::Rendered)
            }
        };
        entries.push(entry);
        block
    }

    /// Books the data bytes `item` writes past its files' ends
    /// ([`crate::LfsStats::padding_bytes`]), and the fragments.
    fn count_padding(&mut self, item: &Item) {
        let file_bytes = |fs: &Self, ino: Ino, bno: u64| {
            let size = fs.meta.inode(ino).map_or(0, |i| i.size);
            size.saturating_sub(bno * BLOCK_SIZE as u64)
                .min(BLOCK_SIZE as u64)
        };
        let used = match *item {
            Item::Data { ino, bno } => file_bytes(self, ino, bno),
            Item::Frags(ref tails) => {
                self.stats.fragment_blocks += 1;
                self.stats.fragments += tails.len() as u64;
                tails.iter().map(|t| file_bytes(self, t.ino, t.bno)).sum()
            }
            _ => return,
        };
        self.stats.padding_bytes += BLOCK_SIZE as u64 - used;
    }

    /// **Submit**: issues a sealed chunk — summary first, then its blocks —
    /// as a single gather request at `c`'s place, and books it.
    ///
    /// [`QueueDevice::submit_gather`] either applies the chunk before
    /// returning (synchronous devices and capacity-1 rings) or parks it, in
    /// which case the foreground only blocks again at an ordering barrier:
    /// a read, a checkpoint fence, or the ring filling up. Who retries a
    /// transient device error follows [`QueueDevice::queue_capacity`]. At
    /// capacity 1 a submit error belongs to this chunk and is retried in
    /// place with the bounded policy of [`Lfs::retry_io`]. Above it the
    /// ring engine owns retries — re-issuing from here would reorder the
    /// log around later queued submissions — and its counts are folded
    /// back into [`crate::LfsStats`] by [`Lfs::absorb_queue_errors`].
    fn submit(
        &mut self,
        sealed: Flush<SummarySealed>,
        c: &Chunk,
        mut bufs: Vec<IoBuf>,
    ) -> FsResult<Flush<DataWritten>> {
        let start = self.sb.seg_start(c.seg) + c.off as u64;
        let in_place = self.dev.queue_capacity() <= 1;
        self.blocks.forget_frag_block();
        self.retry_io(true, if in_place { IO_ATTEMPTS } else { 1 }, |dev| {
            // An in-place retry needs the list again; cloning an `IoBuf`
            // is a reference-count bump.
            let bufs = if in_place {
                bufs.clone()
            } else {
                std::mem::take(&mut bufs)
            };
            dev.submit_gather(start, bufs, WriteKind::Async).map(drop)
        })?;
        let (bytes, by_cleaner) = (((1 + c.n) * BLOCK_SIZE) as u64, self.space.cleaning);
        if !by_cleaner {
            self.log.wrote(bytes);
        }
        self.stats.partial_writes += 1;
        self.emit(|| lfs_obs::TraceEvent::SegmentWrite {
            seg: c.seg,
            blocks: c.n as u32 + 1, // items + the summary block
            by_cleaner,
        });
        Ok(sealed.submitted())
    }

    /// **Commit**: with every chunk submitted, which the
    /// [`Flush<DataWritten>`] it requires and hands back proves, the flush
    /// becomes the file system's state. The log advances its sequence
    /// number and write points, which it does only with that token in
    /// hand; the map blocks are clean at their new homes, and so is
    /// everything else the flush wrote. The `deferred` directories
    /// stay dirty, and `sync_left` counts what they hold.
    ///
    /// After a cut, the data blocks left behind stay dirty, and every
    /// indirect block and inode left behind is marked dirty again: the
    /// kept items moved pointers they hold, and a cleaner pass run inside
    /// [`Lfs::place`] may have written and cleaned them since gather.
    /// `sync_left` is then 0, so the next `sync` writes them.
    fn commit(
        &mut self,
        written: Flush<DataWritten>,
        plan: LayoutPlan,
        items: &[Item],
        deferred: &[Ino],
    ) -> Flush<DataWritten> {
        self.log.commit(&written, plan.chunks.len(), plan.end);
        let (items, left) = items.split_at(plan.kept);
        for item in items {
            match *item {
                Item::Imap(idx) => self.imap.blocks.dirty[idx] = false,
                Item::Usage(idx) => self.space.blocks_mut().dirty[idx] = false,
                _ => {}
            }
        }
        // Every file but the deferred directories is clean now, but for
        // what a cut left behind, and the cache is trimmed back to its
        // limit.
        let deferred = |ino: Ino| deferred.binary_search(&ino).is_ok();
        let left_data: BTreeSet<(Ino, u64)> = left
            .iter()
            .flat_map(|item| match *item {
                Item::Data { ino, bno } => vec![(ino, bno)],
                Item::Frags(ref tails) => tails.iter().map(|t| (t.ino, t.bno)).collect(),
                _ => Vec::new(),
            })
            .collect();
        self.blocks
            .clean_except(|key| deferred(key.0) || left_data.contains(&key));
        self.meta.clean_except(deferred);
        for item in left {
            match *item {
                Item::Ind { ino, key } => self.meta.mark_ind_dirty(ino, key),
                Item::InodeBlk { ref inos } => {
                    for &ino in inos {
                        let cached = self.meta.mark_inode_dirty(ino);
                        debug_assert!(cached, "a gathered inode left the cache");
                    }
                }
                _ => {}
            }
        }
        self.dirlog_pending.clear();
        self.sync_left = if left.is_empty() {
            self.dirty_count()
        } else {
            0
        };
        written
    }

    /// Writes a checkpoint: flushes everything, lets the metadata settle,
    /// promotes cleaned segments, and writes the alternate checkpoint
    /// region (§4.1).
    pub fn checkpoint(&mut self) -> FsResult<()> {
        if self.nsop_depth > 0 {
            // A namespace operation is mid-flight: its directory-log
            // record is (or will be) in the log, but the matching
            // directory/inode mutations may be half-applied. A checkpoint
            // now would declare that intermediate state complete and bury
            // the repair record where roll-forward never replays it — so
            // only flush, and let the operation's own `after_mutation`
            // write the real checkpoint.
            return self.flush();
        }
        self.timed(|o| &o.checkpoint, |fs| fs.checkpoint_inner())
    }

    fn checkpoint_inner(&mut self) -> FsResult<()> {
        // Every flush hands back the ordering token of its last chunk;
        // the settle loop keeps only the newest one, which is all the
        // fence below needs — a barrier drains *everything* in flight.
        let written = self.flush_tokened(Scope::Checkpoint)?;
        // Let the inode map and usage table reach the log; their own
        // relocations are accounted quietly, so this settles quickly.
        // Settle writes may dip into the cleaner's reserve — finishing
        // this checkpoint is what turns pending segments clean again.
        self.space.settling = true;
        let mut settled = Ok(written);
        for _ in 0..4 {
            if settled.is_err() || !self.maps_dirty() {
                break;
            }
            settled = self.flush_tokened(Scope::Checkpoint);
        }
        self.space.settling = false;
        let written = settled?;
        let wps = self.log.write_points();
        let cp = crate::checkpoint::Checkpoint {
            epoch: self.log.epoch(),
            seq: self.log.write_seq(),
            timestamp: self.clock,
            cur_seg: wps[0].0,
            cur_off: wps[0].1,
            extra_write_points: wps[1..].to_vec(),
            imap_addrs: self.imap.blocks.addrs.clone(),
            usage_addrs: self.space.usage().blocks.addrs.clone(),
            live_bytes: self.space.usage().live_vec(),
        };
        // The summary → checkpoint ordering edge: every queued log write
        // completes before the region claims to cover it (CrashDisk
        // enumerates reorderings between fences, never across them), and
        // `write_region_ordered` will not run without the fence's token.
        let ready = self.fence(written)?;
        let region = self.sb.checkpoint_addrs()[self.log.next_region()];
        // Write the region payload-first, header-last (see
        // `Checkpoint::write_to`), retrying transient device errors so a
        // flaky disk does not abort the checkpoint. The image renders into
        // the flush path's scratch pool, every entry of which the fence
        // freed, so steady-state checkpoints allocate nothing.
        let mut enc = self.log.take_scratch();
        let res = cp.encode_into(Arc::make_mut(&mut enc));
        let res = res.and_then(|()| self.write_region_ordered(region, &enc, ready));
        self.log.put_scratch(enc);
        res?;
        let written_cr = self.log.checkpointed();
        self.stats.checkpoints += 1;
        self.emit(|| lfs_obs::TraceEvent::Checkpoint {
            seq: self.log.write_seq(),
            region: written_cr as u8,
        });
        // Only now do the victims that held the previous checkpoint's
        // map blocks become allocatable: the region just written no
        // longer names those blocks, and it covers the relocations. The
        // on-disk usage table still says PendingFree until the next
        // checkpoint; `mount` promotes such segments on load, which is
        // sound for the same reason. This checkpoint's own map blocks pin
        // their segments in turn.
        let map_segs = cp.map_addrs().filter_map(|a| self.sb.seg_of(a));
        self.space.checkpointed(self.log.checkpoint_seq(), map_segs);
        Ok(())
    }

    /// Fences the log: drains every partial write up to `written`'s,
    /// which makes them durable, and returns the [`CheckpointReady`] a
    /// region write demands. A `sync` ends here.
    pub(crate) fn fence(&mut self, written: Flush<DataWritten>) -> FsResult<CheckpointReady> {
        let res = written.fence(&mut self.dev).map_err(FsError::device);
        // Claim ring-side retry/giveup counts even when the fence itself
        // failed — a giveup *is* the fence failure, and the stats ledger
        // must reflect it on this call, not whenever the next flush runs.
        self.absorb_queue_errors();
        let ready = res?;
        self.log.fenced(&ready);
        Ok(ready)
    }

    /// Fences the log after the chunk that lists the `listed` victims of a
    /// cleaner pass, and hands back the proof [`crate::usage::space::Space::promote`]
    /// requires to make them clean.
    pub(crate) fn fence_release(&mut self, listed: Released<Listed>) -> FsResult<Released<Fenced>> {
        let res = listed.fence(&mut self.dev).map_err(FsError::device);
        self.absorb_queue_errors();
        let (fenced, ready) = res?;
        self.log.fenced(&ready);
        Ok(fenced)
    }

    /// The retrying flavour of [`Checkpoint::write_ordered`]: payload
    /// blocks first, header block last, each through the bounded
    /// transient-error retry, gated on the same consumed
    /// [`CheckpointReady`] proof. `enc` is the encoded region image.
    ///
    /// [`Checkpoint::write_ordered`]: crate::checkpoint::Checkpoint::write_ordered
    fn write_region_ordered(
        &mut self,
        region: DiskAddr,
        enc: &[u8],
        ready: CheckpointReady,
    ) -> FsResult<()> {
        let _proof_consumed = ready;
        if enc.len() > BLOCK_SIZE {
            self.write_retry(region + 1, &enc[BLOCK_SIZE..], WriteKind::Sync)?;
        }
        self.write_retry(region, &enc[..BLOCK_SIZE], WriteKind::Sync)
    }
}

#[cfg(test)]
mod tests {
    use blockdev::{BlockDevice, CrashDisk, MemDisk, BLOCK_SIZE};
    use vfs::FileSystem;

    use crate::{BlockKind, Lfs, LfsConfig};

    /// `blocks` blocks of test data: every byte of block `k` is `k ^ salt`.
    fn pattern(blocks: usize, salt: u8) -> Vec<u8> {
        (0..blocks * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE) as u8 ^ salt)
            .collect()
    }

    /// A buffer-full flush writes through the chunk that fills the
    /// current segment and leaves the rest dirty: data blocks, the
    /// indirect block and the inode. `needs_flush` says so, and the next
    /// `sync` writes them; a power cut right after it loses no byte.
    #[test]
    fn a_sync_after_a_cut_makes_the_leftovers_durable() {
        let mut cfg = LfsConfig::small();
        cfg.flush_threshold_bytes = u64::MAX; // only the flushes below
        let mut fs = Lfs::format(CrashDisk::new(2048), cfg).unwrap();
        let ino = fs.create("/f").unwrap();
        // Nothing dirty, and no directory-log record pending: a flush
        // carrying one writes everything.
        fs.checkpoint().unwrap();
        // The current segment has room for `room` blocks; the file's
        // data overflows it by six, and behind the data come its indirect
        // block and its inode block, short of filling the next segment.
        let (seg_blocks, (_, off)) = (fs.sb.seg_blocks, fs.log.write_points()[0]);
        let room = (seg_blocks - off - 1) as usize;
        assert!(room + 6 > crate::layout::NUM_DIRECT, "an indirect block");
        let data = pattern(room + 6, 0x5a);
        fs.write(ino, 0, &data).unwrap();

        let pw = fs.stats().partial_writes;
        fs.flush_buffer().unwrap();
        assert_eq!(fs.stats().partial_writes, pw + 1, "one chunk");
        assert_eq!(
            fs.log.write_points()[0].1,
            seg_blocks,
            "it fills the segment"
        );
        assert_eq!(fs.blocks.dirty().len(), 6);
        assert!(fs.meta.inode_is_dirty(ino) && fs.meta.dirty_count() == 2);
        assert_eq!(fs.sync_left, 0);
        assert!(fs.needs_flush() && !fs.sync_settled());

        fs.sync().unwrap();
        assert!(!fs.needs_flush() && fs.dirty_inos().is_empty());
        let cut = fs.device().num_writes();
        let image = fs.into_device().image_after(cut).unwrap();
        let mut fs = Lfs::mount(image, cfg).unwrap();
        assert_eq!(fs.read_to_vec(ino).unwrap(), data);
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:#?}", report.errors);
    }

    /// A buffer-full flush that finds no clean segment runs the cleaner
    /// inside `place`. The pass's closing flush writes, and cleans, the
    /// inodes and indirect blocks the outer flush gathered; the outer
    /// flush's kept chunks then move pointers they hold. Its commit marks
    /// every one it left behind dirty again, so the checkpoint writes
    /// them, and the disk agrees with memory once the caches are dropped.
    #[test]
    fn a_cut_after_a_nested_cleaner_pass_leaves_what_it_moved_dirty() {
        let mut cfg = LfsConfig::small();
        // The cleaner runs only when a flush finds no clean segment.
        cfg.clean_low_water = 0;
        let mut fs = Lfs::format(MemDisk::new(1024), cfg).unwrap();
        let files: Vec<_> = (0..8)
            .map(|i| fs.create(&format!("/f{i}")).unwrap())
            .collect();
        fs.checkpoint().unwrap();
        // Until a write's own buffer-full flush runs a pass: nothing
        // else flushes inside a write but a checkpoint, which it did not.
        let mut nested = false;
        for round in 0..200u8 {
            for (i, &ino) in files.iter().enumerate() {
                let before = *fs.stats();
                let at = (round as u64 % 3) * 6 * BLOCK_SIZE as u64;
                fs.write(ino, at, &pattern(12, round ^ i as u8)).unwrap();
                let after = fs.stats();
                nested |= after.cleaner.passes > before.cleaner.passes
                    && after.checkpoints == before.checkpoints;
            }
            if nested {
                break;
            }
        }
        assert!(nested, "no buffer-full flush ran the cleaner");
        fs.checkpoint().unwrap();
        fs.drop_caches();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{:#?}", report.errors);
    }

    /// A change only the maps record (here a usage-table block) gives a
    /// flush nothing to write, so a `sync` group-commits past it: map
    /// state becomes durable at the next checkpoint, as in Sprite
    /// (§4.1), and until then roll-forward rebuilds what the tail implies.
    #[test]
    fn sync_after_a_map_only_change_leaves_it_to_the_checkpoint() {
        let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
        fs.write_file("/f", b"x").unwrap();
        fs.sync().unwrap();
        assert!(fs.sync_settled());
        fs.space.blocks_mut().dirty[0] = true;
        assert!(!fs.needs_flush());
        assert!(fs.sync_settled(), "map blocks do not unsettle a sync");
        let (cp, gc) = (fs.stats().checkpoints, fs.stats().group_commits);
        let writes = fs.device().stats().writes;
        fs.sync().unwrap();
        assert_eq!(fs.stats().group_commits, gc + 1);
        assert_eq!(fs.stats().checkpoints, cp);
        assert_eq!(fs.device().stats().writes, writes);
        assert!(fs.space.usage().blocks.has_dirty());
        fs.checkpoint().unwrap();
        assert_eq!(
            fs.stats().checkpoints,
            cp + 1,
            "the map change was not written"
        );
        assert!(!fs.space.usage().blocks.has_dirty());
    }

    /// A `sync` after a create and a write in a directory already on disk
    /// writes the file — its data blocks, one inode block — and the
    /// directory log, but not the directory: its block and inode wait for
    /// the checkpoint, which writes the block once. The sync settles all
    /// the same, so the next one is a group commit.
    #[test]
    fn sync_leaves_a_logged_directory_to_the_directory_log() {
        let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
        let dir = fs.mkdir("/d").unwrap();
        fs.checkpoint().unwrap();
        let before = *fs.stats();
        let ino = fs.create("/d/f").unwrap();
        fs.write(ino, 0, &[1u8; 3 * BLOCK_SIZE]).unwrap();
        fs.sync().unwrap();
        let block = BLOCK_SIZE as u64;
        let grew =
            |fs: &Lfs<MemDisk>, kind| fs.stats().log_bytes_new(kind) - before.log_bytes_new(kind);
        assert_eq!(
            grew(&fs, BlockKind::Data),
            3 * block,
            "a directory block was written"
        );
        assert_eq!(grew(&fs, BlockKind::Inode), block);
        assert_eq!(grew(&fs, BlockKind::DirLog), block);
        assert_eq!(grew(&fs, BlockKind::Indirect), 0);
        assert!(fs.meta.inode_is_dirty(dir) && fs.blocks.dirty().contains(&(dir, 0)));
        assert_eq!(fs.sync_left, 2, "the directory's block and inode");

        assert!(!fs.needs_flush());
        assert!(fs.sync_settled());
        let (gc, writes) = (fs.stats().group_commits, fs.device().stats().writes);
        fs.sync().unwrap();
        assert_eq!(fs.stats().group_commits, gc + 1);
        assert_eq!(fs.device().stats().writes, writes);

        fs.checkpoint().unwrap();
        assert_eq!(
            grew(&fs, BlockKind::Data),
            4 * block,
            "the directory block, once"
        );
        assert_eq!((fs.sync_left, fs.dirty_inos().len()), (0, 0));
        fs.checkpoint().unwrap();
        assert_eq!(grew(&fs, BlockKind::Data), 4 * block);
    }
}
