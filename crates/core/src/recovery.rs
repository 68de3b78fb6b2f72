//! Mount and crash recovery: checkpoints plus roll-forward (§4).
//!
//! Mount reads both checkpoint regions and initialises the in-memory state
//! from the valid one with the newest sequence number. Roll-forward then
//! scans the log tail written after that checkpoint:
//! new inodes found in summaries are adopted into the inode map (which
//! automatically incorporates their data blocks), segment utilizations are
//! adjusted for the overwrites and deletions the tail implies, and the
//! directory-operation log is replayed to restore consistency between
//! directory entries and inodes — completing half-done operations, undoing
//! the unfinishable ones (a create whose inode never reached the log), and
//! freeing the inodes the tail unlinked. The replay rebuilds entries, not
//! just repairs them: a `sync` leaves the blocks of a directory already on
//! disk to a later flush, so a directory in the log may predate the
//! records of its newest entries. Inode-map and usage-table blocks
//! reach the log only in flushes that end in a checkpoint, so a tail holds
//! them only when a crash cut that checkpoint off; roll-forward ignores
//! them, as it ignores data blocks. It finds each chunk of the tail where
//! the layout put it, by following the same `Placement` rule back, so the
//! only segments it reads are the tail's own. That replay holds because a
//! flush commits only with a `Flush<DataWritten>` in hand: a flush that
//! fails before every chunk is submitted advances no write point, takes
//! no segment out of the clean set, and leaves everything it would have
//! written dirty for the next flush to place again.
//!
//! Roll-forward is what makes `sync` durable: a sync appends to the log
//! and fences it, and only periodic checkpoints rewrite the regions. The
//! checkpoint-only mount ([`Lfs::mount_checkpoint_only`], for tests and
//! tools) discards the tail, as the production Sprite systems ran, and so
//! drops every acknowledged sync since the last checkpoint.
//!
//! Nothing in this module trusts bytes read from the device: checkpoint
//! regions, segment summaries, inode blocks, and directory-log records are
//! all validated (checksums plus geometry) before use, and any hostile
//! byte sequence surfaces as [`FsError::Corrupt`] rather than a panic. A
//! newest checkpoint region that checksums but describes impossible state
//! is *skipped* — mount falls back to the older region, the behaviour the
//! alternating-region design of §4.1 exists to provide.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use blockdev::{QueueDevice, BLOCK_SIZE};
use vfs::{FileType, FsError, FsResult, Ino};

use crate::checkpoint::Checkpoint;
use crate::config::LfsConfig;
use crate::dirlog::{self, DirLogRecord, DirOp};
use crate::fs::Lfs;
use crate::inode::{Inode, INODE_DISK_SIZE};
use crate::layout::{DiskAddr, Placement, NIL_ADDR, SUPERBLOCK_ADDR};
use crate::summary::{EntryKind, Summary};
use crate::superblock::Superblock;

impl<D: QueueDevice> Lfs<D> {
    /// Mounts an existing file system, recovering from a crash if the log
    /// extends past the last checkpoint.
    ///
    /// Checkpoint regions are tried newest-first: if the newest valid
    /// region describes impossible state (torn or rotted but still
    /// checksummed), mount falls back to the older region instead of
    /// failing. Only when no region yields a mountable state does this
    /// return [`FsError::Corrupt`].
    pub fn mount(dev: D, cfg: LfsConfig) -> FsResult<Lfs<D>> {
        Self::mount_with_obs(dev, cfg, lfs_obs::Obs::off())
    }

    /// Like [`Lfs::mount`], but with observability attached *before*
    /// recovery runs, so roll-forward trace events (and the end-of-mount
    /// checkpoint) are captured.
    pub fn mount_with_obs(dev: D, cfg: LfsConfig, obs: lfs_obs::Obs) -> FsResult<Lfs<D>> {
        Self::mount_inner(dev, cfg, obs, true)
    }

    /// Mounts from the newest usable checkpoint and discards the log tail
    /// past it — the raw checkpoint view, as the production Sprite systems
    /// ran without roll-forward. Everything acknowledged by a `sync`
    /// since that checkpoint is dropped, so this is for tests, tools and
    /// recovery measurements, never for serving a file system.
    #[doc(hidden)]
    pub fn mount_checkpoint_only(dev: D, cfg: LfsConfig) -> FsResult<Lfs<D>> {
        Self::mount_inner(dev, cfg, lfs_obs::Obs::off(), false)
    }

    fn mount_inner(
        mut dev: D,
        cfg: LfsConfig,
        obs: lfs_obs::Obs,
        roll_forward: bool,
    ) -> FsResult<Lfs<D>> {
        let mut sb_buf = [0u8; BLOCK_SIZE];
        dev.read_block(SUPERBLOCK_ADDR, &mut sb_buf)
            .map_err(FsError::device)?;
        let sb = Superblock::decode(&sb_buf)?;
        if sb.device_blocks != dev.num_blocks() {
            return Err(FsError::Corrupt(format!(
                "superblock says {} blocks, device has {}",
                sb.device_blocks,
                dev.num_blocks()
            )));
        }
        if sb.seg_start(sb.nsegments) > sb.device_blocks {
            return Err(FsError::Corrupt(format!(
                "superblock geometry ({} segments of {} blocks) exceeds device",
                sb.nsegments, sb.seg_blocks
            )));
        }
        let candidates = Checkpoint::read_candidates(
            &mut dev,
            [sb.checkpoint_addrs()[0], sb.checkpoint_addrs()[1]],
        );
        if candidates.is_empty() {
            return Err(FsError::Corrupt(
                "no valid checkpoint region (both torn or corrupt)".into(),
            ));
        }
        let mut cfg = cfg;
        cfg.seg_blocks = sb.seg_blocks;
        cfg.max_inodes = sb.max_inodes;
        let mut last_err = FsError::Corrupt("no checkpoint candidate".into());
        for (cp, idx) in candidates {
            // Nothing writes to the device before the end-of-mount
            // checkpoint (roll-forward's mutations live in the cache), so
            // a candidate that fails hands it back unmodified for the
            // other region.
            let mut fs = Lfs::bare(dev, sb, cfg)?;
            fs.set_obs(obs.clone());
            if let Err(e) = fs.load_checkpoint_state(&cp, idx, roll_forward) {
                (dev, last_err) = (fs.into_device(), e);
                continue;
            }
            // Commit the new epoch (and anything recovery changed). This
            // happens *outside* the fallback: a device-write failure here
            // is not corruption and must not send mount chasing the older
            // region.
            fs.checkpoint()?;
            return Ok(fs);
        }
        Err(last_err)
    }

    /// Validates a checkpoint against the superblock geometry and loads
    /// the in-memory state from it. Every quantity the checkpoint supplies
    /// is range-checked before use — a checksummed region can still be a
    /// stale or hostile one.
    fn load_checkpoint_state(
        &mut self,
        cp: &Checkpoint,
        idx: usize,
        roll_forward: bool,
    ) -> FsResult<()> {
        let corrupt = |what: &str| FsError::Corrupt(format!("checkpoint: {what}"));
        self.log = self
            .log
            .resume(cp, idx, &self.sb, |seg| self.shard_of_seg(seg))?;
        if cp.imap_addrs.len() != self.imap.blocks.addrs.len() {
            return Err(corrupt("inode-map block count mismatch"));
        }
        if cp.usage_addrs.len() != self.space.usage().blocks.addrs.len() {
            return Err(corrupt("usage-table block count mismatch"));
        }
        if cp.live_bytes.len() != self.sb.nsegments as usize {
            return Err(corrupt("live-byte vector length mismatch"));
        }
        let mut addrs = cp.imap_addrs.iter().chain(&cp.usage_addrs);
        if !addrs.all(|&a| a == NIL_ADDR || a < self.sb.device_blocks) {
            return Err(corrupt("metadata block address out of range"));
        }

        // Load the inode map and segment usage table from the addresses
        // in the checkpoint.
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (i, &addr) in cp.imap_addrs.iter().enumerate() {
            if addr == NIL_ADDR {
                continue;
            }
            self.read_retry(addr, &mut buf)?;
            self.imap.load_block(i, &buf, addr);
        }
        for (i, &addr) in cp.usage_addrs.iter().enumerate() {
            if addr == NIL_ADDR {
                continue;
            }
            self.read_retry(addr, &mut buf)?;
            self.space.load_block(i, &buf, addr)?;
        }
        self.space
            .resume(&cp.live_bytes, cp.seq, self.log.write_points())?;
        self.clock = cp.timestamp;

        // Allocation safety across the mount: every segment that looks
        // Clean here was Clean (or PendingFree with its relocation
        // already covered) in the loaded checkpoint, so writing into it
        // cannot destroy anything the checkpoint references. Roll-forward
        // itself only reads; its mutations reach the log through the
        // end-of-mount checkpoint.
        if roll_forward {
            self.roll_forward(cp)?;
        }
        self.space.activate(self.log.write_points());
        // Only now is the map final: an inode the tail adopted must not
        // stay on the free list, or the next create reuses a live number.
        self.imap.rebuild_free_list();
        Ok(())
    }

    /// Scans the log tail written after checkpoint `cp` and recovers it.
    ///
    /// The tail is followed chunk by chunk, by sequence number, from the
    /// checkpoint's write points: [`Lfs::locate_chunk`] says where the
    /// layout put each one, so roll-forward reads the tail's summaries and
    /// chunks and nothing else — no other segment of the disk (§4.2 "scans
    /// through the log segments that were written after the last
    /// checkpoint").
    fn roll_forward(&mut self, cp: &Checkpoint) -> FsResult<()> {
        // The clean set is the checkpoint's: since then the layout has
        // only taken segments out of it, the ones the tail opened, and
        // `adopt` takes those out again as roll-forward meets them. No
        // reserve, which only ever holds back a shard's highest segments.
        let mut place = self.placement(0);
        let mut records: Vec<DirLogRecord> = Vec::new();
        let mut seq = cp.seq + 1;
        while let Some((shard, (seg, off), summary)) = self.locate_chunk(cp.epoch, seq, &place) {
            let nent = summary.entries.len() as u32;
            if off + 1 + nent > self.sb.seg_blocks {
                break;
            }
            // Verify the whole chunk against the summary's per-block
            // checksums *before* adopting anything from it. A torn
            // segment write can persist the summary but lose some of the
            // blocks it describes; any mismatch means this chunk never
            // fully reached the disk, so the log effectively ends at the
            // previous partial write. Only a read that still fails after
            // the bounded retries ends the log: a transient fault must not
            // drop a synced tail.
            let first = self.sb.seg_start(seg) + off as u64 + 1;
            let mut chunk = vec![0u8; nent as usize * BLOCK_SIZE];
            if self.read_retry(first, &mut chunk).is_err() {
                break;
            }
            let mut blocks = chunk.chunks(BLOCK_SIZE).zip(&summary.entries);
            if !blocks.all(|(b, e)| crate::codec::block_checksum(b) == e.csum) {
                break;
            }
            if let Some(filled) = place.adopt(shard, seg, off, nent as usize) {
                // The chunk opened a fresh segment: the one its cursor
                // filled was sealed by the chunk before.
                self.space.open(seg);
                self.space.seal(filled, seq - 1);
            }
            self.replay_partial_write(&summary, first, &chunk, &mut records)?;
            self.emit(|| lfs_obs::TraceEvent::RollForward { seq, seg });
            self.clock = self.clock.max(summary.write_time);
            seq += 1;
        }
        self.log.rolled_forward(seq - 1, place);

        // Replay the directory operation log (§4.2).
        for rec in records {
            self.replay_record(&rec)?;
        }
        Ok(())
    }

    /// Finds chunk `seq` of the tail, given the placement `place` the
    /// chunks before it left: the shard whose cursor carried it, where it
    /// starts, and its summary. `None` is the end of the log.
    ///
    /// The places come from [`Placement::candidates`], the layout's own
    /// rule; a summary that decodes to this epoch and `seq` identifies the
    /// chunk whichever candidate holds it, so a candidate that does not
    /// hold it costs one block read and nothing else.
    fn locate_chunk(
        &mut self,
        epoch: u32,
        seq: u64,
        place: &Placement,
    ) -> Option<(usize, (u32, u32), Summary)> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (shard, seg, off) in place.candidates(seq) {
            let addr = self.sb.seg_start(seg) + off as u64;
            if self.read_retry(addr, &mut buf).is_err() {
                continue;
            }
            match Summary::decode(&buf) {
                Ok(s) if s.epoch == epoch && s.seq == seq => return Some((shard, (seg, off), s)),
                _ => {}
            }
        }
        None
    }

    /// Processes the blocks of one recovered partial write. `chunk` holds
    /// the checksum-verified contents of the write's blocks (one per
    /// summary entry), so nothing here re-reads the tail from the device.
    fn replay_partial_write(
        &mut self,
        summary: &Summary,
        first_block: DiskAddr,
        chunk: &[u8],
        records: &mut Vec<DirLogRecord>,
    ) -> FsResult<()> {
        for (j, entry) in summary.entries.iter().enumerate() {
            let addr = first_block + j as u64;
            let buf = &chunk[j * BLOCK_SIZE..(j + 1) * BLOCK_SIZE];
            match entry.kind {
                EntryKind::InodeBlock => {
                    for slot in 0..crate::layout::INODES_PER_BLOCK {
                        let raw = &buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE];
                        let Some(inode) = Inode::decode(raw)? else {
                            continue;
                        };
                        self.adopt_inode(&inode, addr, slot as u8, (first_block, chunk))?;
                    }
                }
                EntryKind::DirLog => {
                    records.extend(dirlog::decode_block(buf)?);
                }
                // Data and indirect blocks are incorporated through their
                // inode: "when a summary block indicates the presence of a
                // new inode, Sprite LFS updates the inode map ..., [which]
                // automatically incorporates the file's new data blocks.
                // If data blocks are discovered for a file without a new
                // copy of the file's inode ... the roll-forward code ...
                // ignores the new data blocks" (§4.2).
                //
                // Map blocks are ignored too. They reach the log with a
                // checkpoint's own flushes, so a tail holds them when a
                // crash cut that checkpoint off, and with the closing
                // flush of a cleaner pass that moved map blocks out of its
                // victims, which no checkpoint follows. What they
                // record is what the inodes and directory log of the same
                // tail rebuild; the copies the loaded checkpoint points to
                // stay where they are, because the segments holding them
                // are not reusable before a checkpoint says so.
                EntryKind::Data
                | EntryKind::Indirect1
                | EntryKind::Indirect2
                | EntryKind::ImapBlock
                | EntryKind::UsageBlock => {}
            }
        }
        Ok(())
    }

    /// Adopts a newer inode found in the log tail, adjusting segment
    /// utilizations for everything the old version referenced and the new
    /// version references. `chunk` is the verified chunk being replayed
    /// and the address of its first block; indirect blocks it holds are
    /// taken from it rather than read again.
    fn adopt_inode(
        &mut self,
        inode: &Inode,
        addr: DiskAddr,
        slot: u8,
        chunk: (DiskAddr, &[u8]),
    ) -> FsResult<()> {
        let ino = inode.ino;
        if ino as usize >= self.imap.capacity() as usize {
            return Ok(());
        }
        let old = *self.imap.get(ino)?;
        if old.is_live() && old.version > inode.version {
            return Ok(()); // Stale: the file has since been reincarnated.
        }
        // Retire the old version's blocks from the usage accounting. A
        // version adopted earlier in the tail is still in the cache.
        let kill = |fs: &mut Self, a, bytes| fs.space.kill(fs.sb.seg_of(a), bytes);
        let mtime = inode.mtime;
        let born = |fs: &mut Self, a, bytes| {
            if let Some(seg) = fs.sb.seg_of(a) {
                fs.space.move_live(None, seg, bytes, mtime);
            }
        };
        if old.is_live() {
            kill(self, old.addr, INODE_DISK_SIZE);
            let old_inode = match self.meta.inode(ino) {
                Some(i) => Ok(i.clone()),
                None => self.read_inode_at(old.addr, old.slot, ino),
            };
            if let Ok(old_inode) = old_inode {
                for (_, a) in self.owned_blocks(&old_inode, Some(chunk))? {
                    kill(self, a, BLOCK_SIZE);
                }
            }
        }
        // Adopt the new version.
        self.imap.set_entry(ino, addr, slot, inode.version);
        born(self, addr, INODE_DISK_SIZE);
        for (_, a) in self.owned_blocks(inode, Some(chunk))? {
            born(self, a, BLOCK_SIZE);
        }
        // Cache the adopted version, which is in hand: the directory-log
        // replay looks most of the tail's inodes up again. Until that
        // replay, roll-forward reads around the caches, so they hold no
        // other copy of this file to invalidate.
        self.meta.insert_inode(inode.clone());
        Ok(())
    }

    /// Reads one inode directly from an inode block on disk.
    fn read_inode_at(&mut self, addr: DiskAddr, slot: u8, expect: Ino) -> FsResult<Inode> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.read_retry(addr, &mut buf)?;
        let raw = &buf[slot as usize * INODE_DISK_SIZE..(slot as usize + 1) * INODE_DISK_SIZE];
        let inode = Inode::decode(raw)?
            .ok_or_else(|| FsError::Corrupt(format!("inode {expect}: empty slot")))?;
        if inode.ino != expect {
            return Err(FsError::Corrupt(format!(
                "inode {expect}: slot holds {}",
                inode.ino
            )));
        }
        Ok(inode)
    }

    /// Replays one directory-operation-log record, restoring consistency
    /// between the directory entry and the inode's reference count.
    ///
    /// Records are replayed in log order against the state the tail's
    /// inodes produced, so each compares versions rather than testing
    /// for one: truncation to zero bumps a live inode's version, and an
    /// inode number freed in the tail may be live again by its end.
    ///
    /// The directory itself may be older than the record: a `sync` leaves
    /// the blocks of a directory already on disk to a later flush, so the
    /// records are the only trace of its newest entries, and replay
    /// rebuilds them — it does not just repair a half-done operation. A
    /// record whose inode is live at a newer version than the record's
    /// still puts its entry back: if the number was freed and reused
    /// since, a later `Unlink` or `Rename` record takes the entry out
    /// again.
    fn replay_record(&mut self, rec: &DirLogRecord) -> FsResult<()> {
        let live = self.live_version(rec.ino);
        match rec.op {
            DirOp::Create | DirOp::Mkdir | DirOp::Link => {
                if !self.live_dir(rec.dir)? {
                    return Ok(());
                }
                match live {
                    // Complete the operation: entry present and, at the
                    // record's version, nlink right.
                    Some(v) if v >= rec.version => {
                        self.restore_entry(rec.dir, &rec.name, rec.ino)?;
                        if v == rec.version {
                            self.set_nlink(rec.ino, rec.nlink)?;
                        }
                    }
                    // "The only operation that can't be completed is the
                    // creation of a new file for which the inode is never
                    // written; in this case the directory entry will be
                    // removed" (§4.2).
                    _ => self.remove_entry_of(rec.dir, &rec.name, rec.ino)?,
                }
            }
            DirOp::Unlink | DirOp::Rmdir => {
                self.remove_entry_of(rec.dir, &rec.name, rec.ino)?;
                match live {
                    // The last link went. Inode-map blocks reach the log
                    // only with checkpoints, so this record is what frees
                    // the inode — also when the tail never saw the version
                    // a truncation to zero gave it just before.
                    Some(v) if rec.nlink == 0 && v <= rec.version => {
                        self.delete_file(rec.ino)?;
                    }
                    Some(v) if rec.nlink > 0 && v == rec.version => {
                        self.set_nlink(rec.ino, rec.nlink)?;
                    }
                    _ => {}
                }
            }
            DirOp::Rename => {
                self.remove_entry_of(rec.dir, &rec.name, rec.ino)?;
                // Install the destination entry, at a newer version too
                // (as for a create).
                if live.is_some_and(|v| v >= rec.version) && self.live_dir(rec.dir2)? {
                    self.restore_entry(rec.dir2, &rec.name2, rec.ino)?;
                }
            }
        }
        Ok(())
    }

    /// Removes `name` from `dir` if `dir` is a live directory and the
    /// entry still refers to `ino`.
    fn remove_entry_of(&mut self, dir: Ino, name: &str, ino: Ino) -> FsResult<()> {
        if self.live_dir(dir)? && self.dir_lookup(dir, name)?.is_some_and(|s| s.ino == ino) {
            self.dir_remove(dir, name)?;
        }
        Ok(())
    }

    /// Sets `ino`'s link count to `nlink`, dirtying it only on a change.
    fn set_nlink(&mut self, ino: Ino, nlink: u32) -> FsResult<()> {
        let mut inode = self.inode_clone(ino)?;
        if inode.nlink != nlink {
            inode.nlink = nlink;
            self.meta.put_inode(inode);
        }
        Ok(())
    }

    /// Makes `name` in `dir` refer to `ino`, replacing whatever entry it
    /// held.
    fn restore_entry(&mut self, dir: Ino, name: &str, ino: Ino) -> FsResult<()> {
        let existing = self.dir_lookup(dir, name)?;
        if existing.is_some_and(|s| s.ino == ino) {
            return Ok(());
        }
        if existing.is_some() {
            self.dir_remove(dir, name)?;
        }
        let ftype = self.inode_attrs(ino)?.ftype;
        self.dir_insert(dir, name, ino, ftype)
    }

    /// The version of `ino` if the inode map holds it live.
    fn live_version(&self, ino: Ino) -> Option<u32> {
        self.imap
            .get(ino)
            .ok()
            .filter(|e| e.is_live())
            .map(|e| e.version)
    }

    /// Whether a record may edit directory `dir`: the number may have been
    /// freed and reused for a regular file later in the same tail.
    fn live_dir(&mut self, dir: Ino) -> FsResult<bool> {
        Ok(self.live_version(dir).is_some() && self.inode_attrs(dir)?.ftype == FileType::Directory)
    }
}
