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
//! freeing the inodes the tail unlinked. Inode-map and usage-table blocks
//! reach the log only with checkpoints, so those three sources are all a
//! tail normally holds; the one exception is a cleaner pass's closing
//! flush, whose map blocks are replayed too. Roll-forward is what makes
//! `sync` durable: a sync appends to the log and fences it, and only
//! periodic checkpoints rewrite the regions. The checkpoint-only mount
//! ([`Lfs::mount_checkpoint_only`], for tests and tools) discards the
//! tail, as the production Sprite systems ran, and so drops every
//! acknowledged sync since the last checkpoint.
//!
//! Nothing in this module trusts bytes read from the device: checkpoint
//! regions, segment summaries, inode blocks, and directory-log records are
//! all validated (checksums plus geometry) before use, and any hostile
//! byte sequence surfaces as [`FsError::Corrupt`] rather than a panic. A
//! newest checkpoint region that checksums but describes impossible state
//! is *skipped* — mount falls back to the older region, the behaviour the
//! alternating-region design of §4.1 exists to provide.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use blockdev::{QueueDevice, BLOCK_SIZE};
use vfs::{FileSystem, FileType, FsError, FsResult, Ino};

use crate::checkpoint::Checkpoint;
use crate::config::LfsConfig;
use crate::dirlog::{self, DirLogRecord, DirOp};
use crate::fs::Lfs;
use crate::inode::{IndirectBlock, Inode, INODE_DISK_SIZE};
use crate::layout::{DiskAddr, NIL_ADDR, SUPERBLOCK_ADDR};
use crate::summary::{EntryKind, Summary};
use crate::superblock::Superblock;
use crate::usage::SegState;

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
        let mut last_err = FsError::Corrupt("no checkpoint candidate".into());
        for (cp, idx) in candidates {
            match Self::mount_at_checkpoint(dev, sb, cfg, &cp, idx, obs.clone(), roll_forward) {
                Ok(mut fs) => {
                    fs.nfiles = fs.imap.live_count().saturating_sub(1);
                    // Commit the new epoch (and anything recovery
                    // changed). This happens *outside* the fallback loop:
                    // a device-write failure here is not corruption and
                    // must not send mount chasing the older region.
                    fs.checkpoint()?;
                    return Ok(fs);
                }
                Err((returned, e)) => {
                    dev = returned;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Attempts to bring up the file system from one specific checkpoint.
    /// On failure the (unmodified) device is handed back so the caller can
    /// try the other region. Nothing in here writes to the device:
    /// roll-forward's mutations live in the cache until the end-of-mount
    /// checkpoint.
    #[allow(clippy::type_complexity)]
    fn mount_at_checkpoint(
        dev: D,
        sb: Superblock,
        cfg: LfsConfig,
        cp: &Checkpoint,
        idx: usize,
        obs: lfs_obs::Obs,
        roll_forward: bool,
    ) -> Result<Lfs<D>, (D, FsError)> {
        let mut cfg = cfg;
        cfg.seg_blocks = sb.seg_blocks;
        cfg.max_inodes = sb.max_inodes;
        let mut fs = Lfs::bare(dev, sb, cfg);
        fs.set_obs(obs);
        match fs.load_checkpoint_state(cp, idx, roll_forward) {
            Ok(()) => Ok(fs),
            Err(e) => Err((fs.into_device(), e)),
        }
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
        // One write point per (stream, shard) pair, stored stream-major,
        // each on its own shard. A checkpoint from a volume set of a
        // different width describes a different disk geometry entirely;
        // a different *stream* count is fine (the count is a tuning
        // knob, not geometry) and is reconciled with the mount
        // configuration after roll-forward.
        let wps = cp.write_points();
        if wps.is_empty()
            || !wps.len().is_multiple_of(self.nshards)
            || wps.len() / self.nshards > crate::stats::MAX_STREAMS
        {
            return Err(corrupt("write-point count does not match shard count"));
        }
        for (i, &(seg, off)) in wps.iter().enumerate() {
            if seg >= self.sb.nsegments {
                return Err(corrupt("log head segment out of range"));
            }
            if off > self.sb.seg_blocks {
                return Err(corrupt("log head offset out of range"));
            }
            if self.shard_of_seg(seg) != i % self.nshards {
                return Err(corrupt("write point on wrong shard"));
            }
        }
        if cp.imap_addrs.len() != self.imap.num_blocks() {
            return Err(corrupt("inode-map block count mismatch"));
        }
        if cp.usage_addrs.len() != self.usage.num_blocks() {
            return Err(corrupt("usage-table block count mismatch"));
        }
        if cp.live_bytes.len() != self.sb.nsegments as usize {
            return Err(corrupt("live-byte vector length mismatch"));
        }
        let in_range = |addr: DiskAddr| addr == NIL_ADDR || addr < self.sb.device_blocks;
        if !cp
            .imap_addrs
            .iter()
            .chain(cp.usage_addrs.iter())
            .all(|&a| in_range(a))
        {
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
            self.usage.load_block(i, &buf, addr);
        }
        // The checkpoint carries the authoritative live counts (the table
        // blocks in the log can be quietly stale for the segments they
        // themselves landed in).
        self.usage.overlay_live(&cp.live_bytes);
        // Segments recorded as PendingFree are safe to reuse: any
        // checkpoint that stored that state was written after the
        // cleaner's relocations reached the log.
        self.usage.promote_pending(cp.seq);
        self.epoch = cp.epoch + 1;
        self.write_seq = cp.seq;
        self.checkpoint_seq = cp.seq;
        self.clock = cp.timestamp;
        // Seed the heat estimator from the checkpoint's snapshot so
        // temperature routing resumes where the last incarnation left
        // off instead of treating every file as cold.
        self.heat.restore(&cp.heat, cp.timestamp);
        self.next_cr = 1 - idx;
        self.write_points = wps;
        for i in 0..self.write_points.len() {
            self.usage
                .set_state(self.write_points[i].0, SegState::Active);
        }

        // Allocation safety across the mount: every segment that looks
        // Clean here was Clean (or PendingFree with its relocation
        // already covered) in the loaded checkpoint, so writing into it
        // cannot destroy anything the checkpoint references. Roll-forward
        // itself only reads; its mutations reach the log through the
        // end-of-mount checkpoint.
        if roll_forward {
            self.roll_forward(cp)?;
            // Usage blocks recovered from the log tail may reintroduce
            // PendingFree states; those covered by the loaded checkpoint
            // are promotable, the rest wait for the end-of-mount
            // checkpoint.
            self.usage.promote_pending(cp.seq);
        }
        // Only now is the map final: an inode the tail adopted must not
        // stay on the free list, or the next create reuses a live number.
        self.imap.rebuild_free_list();
        self.reconcile_streams(self.write_seq);
        Ok(())
    }

    /// Brings the cursor set to the configured stream count after the
    /// checkpoint (and any roll-forward) restored the on-disk cursors.
    ///
    /// This runs strictly *after* roll-forward: the tail may have been
    /// written into segments the checkpoint still records as Clean, so
    /// grabbing clean segments for new cursors any earlier could steal a
    /// segment the tail lives in. Growing adds whole rows (one cursor
    /// per shard) from the clean pool and stops early — without error —
    /// when some shard has no clean segment left; shrinking seals the
    /// coldest rows. Either way the end-of-mount checkpoint persists the
    /// reconciled set.
    fn reconcile_streams(&mut self, seal_seq: u64) {
        let want = self.cfg.streams.clamp(1, crate::stats::MAX_STREAMS as u32) as usize;
        while self.stream_count() < want {
            let clean: Vec<u32> = self
                .usage
                .clean_segs()
                .filter(|&g| !self.is_write_point_seg(g))
                .collect();
            let mut row: Vec<(u32, u32)> = Vec::with_capacity(self.nshards);
            for s in 0..self.nshards {
                let found = clean
                    .iter()
                    .copied()
                    .find(|&g| self.shard_of_seg(g) == s && !row.iter().any(|&(rg, _)| rg == g));
                match found {
                    Some(g) => row.push((g, 0)),
                    None => break,
                }
            }
            if row.len() < self.nshards {
                break;
            }
            for &(g, _) in &row {
                self.usage.set_state(g, SegState::Active);
            }
            self.write_points.extend(row);
        }
        while self.stream_count() > want.max(1) {
            let start = (self.stream_count() - 1) * self.nshards;
            let extra: Vec<(u32, u32)> = self.write_points.drain(start..).collect();
            for (g, _) in extra {
                self.usage.set_state(g, SegState::Dirty);
                self.usage.set_seal_seq(g, seal_seq);
            }
        }
    }

    /// Scans the log tail written after checkpoint `cp` and recovers it.
    ///
    /// On a volume set the log is still one sequence-numbered chain, but
    /// its chunks rotate across per-shard cursors: chunk `s` prefers the
    /// write point of shard `s % n` (see the layout in `flush`), spilling
    /// to the other cursors in wrap order only when its primary cursor
    /// had no room. The traversal replays that placement decision, so on
    /// a single volume it is exactly the historical single-cursor walk.
    fn roll_forward(&mut self, cp: &Checkpoint) -> FsResult<()> {
        let seg_blocks = self.sb.seg_blocks;
        let mut buf = vec![0u8; BLOCK_SIZE];
        let mut cursors = self.write_points.clone();
        let nsh = self.nshards;
        let nstr = cursors.len() / nsh;
        // Fast path: probe the positions the first post-checkpoint chunk
        // must occupy — the write points of shard `(seq + 1) % nshards`
        // (the layout never spills a chunk whose preferred cursor has
        // room; with several streams the chunk's stream is unknown, so
        // every stream cursor on the primary shard is a candidate). If
        // every cursor there had room and none holds a valid
        // continuation summary, the shutdown was clean and there is
        // nothing to roll forward — recovery cost stays independent of
        // disk size.
        {
            let p = ((cp.seq + 1) % nsh as u64) as usize;
            let mut all_room = true;
            let mut found = false;
            for t in 0..nstr {
                let (seg, off) = cursors[t * nsh + p];
                if off + 1 >= seg_blocks {
                    // That write point filled its segment exactly; a
                    // tail could start in some other segment.
                    all_room = false;
                    continue;
                }
                let probe = self.sb.seg_start(seg) + off as u64;
                self.read_retry(probe, &mut buf)?;
                if let Ok(s) = Summary::decode(&buf) {
                    if s.epoch == cp.epoch && s.seq == cp.seq + 1 {
                        found = true;
                        break;
                    }
                }
            }
            if !found && all_room {
                return Ok(());
            }
        }
        // Index the first summary of every segment so the traversal can
        // follow the log across segment boundaries by sequence number.
        let mut heads: HashMap<u64, u32> = HashMap::new();
        for seg in 0..self.sb.nsegments {
            let addr = self.sb.seg_start(seg);
            if self.read_retry(addr, &mut buf).is_err() {
                continue;
            }
            if let Ok(s) = Summary::decode(&buf) {
                if s.epoch == cp.epoch && s.seq > cp.seq {
                    heads.insert(s.seq, seg);
                }
            }
        }

        let mut expected = cp.seq + 1;
        let mut records: Vec<DirLogRecord> = Vec::new();
        loop {
            // Where chunk `expected` must be: with a single stream, its
            // primary cursor if that had room; otherwise one of the
            // other cursors in wrap order (a spilled chunk); otherwise
            // the head of a freshly allocated segment reached through
            // the `heads` index. With several streams the chunk's stream
            // (and so its preferred cursor) is unknown, so every cursor
            // with room is probed — summaries are sequence-numbered and
            // checksummed, so a valid match identifies the chunk
            // regardless of which cursor carried it.
            let p = (expected % nsh as u64) as usize;
            let single_fast = nstr == 1 && cursors[p].1 + 1 < seg_blocks;
            let cur = if single_fast {
                p
            } else {
                let mut found = None;
                'probe: for k in 0..nsh {
                    let sh = (p + k) % nsh;
                    for t in 0..nstr {
                        let q = t * nsh + sh;
                        if nstr == 1 && q == p {
                            continue; // just established it has no room
                        }
                        let (qseg, qoff) = cursors[q];
                        if qoff + 1 >= seg_blocks {
                            continue;
                        }
                        let addr = self.sb.seg_start(qseg) + qoff as u64;
                        if self.read_retry(addr, &mut buf).is_err() {
                            continue;
                        }
                        if let Ok(s) = Summary::decode(&buf) {
                            if s.epoch == cp.epoch && s.seq == expected {
                                found = Some(q);
                                break 'probe;
                            }
                        }
                    }
                }
                match found {
                    Some(q) => q,
                    // No cursor has room (or holds the chunk); follow the
                    // chain into a freshly allocated segment. The layout
                    // only allocates a fresh segment for a cursor that
                    // was full, so prefer a full cursor on the segment's
                    // shard (the lowest-indexed one: with one stream per
                    // shard this is *the* shard cursor, the historical
                    // attribution; with several, any same-shard cursor is
                    // sound — temperature is a hint, not geometry).
                    None => match heads.get(&expected) {
                        Some(&next) => {
                            let sh = self.shard_of_seg(next);
                            let mut c = sh;
                            for t in 0..nstr {
                                let cc = t * nsh + sh;
                                if cursors[cc].1 + 1 >= seg_blocks {
                                    c = cc;
                                    break;
                                }
                            }
                            if cursors[c] == (next, 0) {
                                break;
                            }
                            self.usage.set_state(cursors[c].0, SegState::Dirty);
                            self.usage.set_seal_seq(cursors[c].0, expected - 1);
                            cursors[c] = (next, 0);
                            continue;
                        }
                        None => break,
                    },
                }
            };
            let (seg, off) = cursors[cur];
            let addr = self.sb.seg_start(seg) + off as u64;
            self.read_retry(addr, &mut buf)?;
            let summary = match Summary::decode(&buf) {
                Ok(s) => s,
                Err(_) => break,
            };
            if summary.epoch != cp.epoch || summary.seq != expected {
                // Possibly the chain continues in another segment (this
                // position holds stale data from the segment's previous
                // life). A chunk never spills while its preferred cursor
                // has room, so the only legal continuation is a fresh
                // segment.
                match heads.get(&expected) {
                    Some(&next) => {
                        let sh = self.shard_of_seg(next);
                        let mut c = sh;
                        for t in 0..nstr {
                            let cc = t * nsh + sh;
                            if cursors[cc].1 + 1 >= seg_blocks {
                                c = cc;
                                break;
                            }
                        }
                        if cursors[c] == (next, 0) {
                            break;
                        }
                        self.usage.set_state(cursors[c].0, SegState::Dirty);
                        self.usage.set_seal_seq(cursors[c].0, expected - 1);
                        cursors[c] = (next, 0);
                        continue;
                    }
                    _ => break,
                }
            }
            let nent = summary.entries.len() as u32;
            if off + 1 + nent > seg_blocks {
                break;
            }
            // Verify the whole chunk against the summary's per-block
            // checksums *before* adopting anything from it. A torn
            // segment write can persist the summary but lose some of the
            // blocks it describes; any mismatch means this chunk never
            // fully reached the disk, so the log effectively ends at the
            // previous partial write.
            let mut chunk = vec![0u8; nent as usize * BLOCK_SIZE];
            // Only a read that still fails after the bounded retries ends
            // the log: a transient fault must not drop a synced tail.
            if self.read_retry(addr + 1, &mut chunk).is_err() {
                break;
            }
            let verified = summary.entries.iter().enumerate().all(|(j, e)| {
                let b = &chunk[j * BLOCK_SIZE..(j + 1) * BLOCK_SIZE];
                crate::codec::block_checksum(b) == e.csum
            });
            if !verified {
                break;
            }
            self.replay_partial_write(&summary, addr + 1, &chunk, &mut records)?;
            self.emit(|| lfs_obs::TraceEvent::RollForward {
                seq: summary.seq,
                seg,
            });
            self.usage.set_state(seg, SegState::Dirty);
            cursors[cur] = (seg, off + 1 + nent);
            self.write_seq = summary.seq;
            self.clock = self.clock.max(summary.write_time);
            expected += 1;
        }
        self.write_points = cursors;
        for i in 0..self.write_points.len() {
            self.usage
                .set_state(self.write_points[i].0, SegState::Active);
        }

        // Replay the directory operation log (§4.2).
        for rec in records {
            self.replay_record(&rec)?;
        }
        Ok(())
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
                        let chunk = &buf[slot * INODE_DISK_SIZE..(slot + 1) * INODE_DISK_SIZE];
                        let Some(inode) = Inode::decode(chunk)? else {
                            continue;
                        };
                        self.adopt_inode(&inode, addr, slot as u8)?;
                    }
                }
                EntryKind::ImapBlock => {
                    let idx = entry.offset as usize;
                    if idx < self.imap.num_blocks() {
                        // Account the relocation of the map block itself
                        // (done quietly at runtime, so it must be redone
                        // here for the counts to stay exact).
                        let old = self.imap.block_addr(idx);
                        if old != NIL_ADDR {
                            if let Some(seg) = self.sb.seg_of(old) {
                                self.usage.sub_live_quiet(seg, BLOCK_SIZE as u32);
                            }
                        }
                        if let Some(seg) = self.sb.seg_of(addr) {
                            self.usage
                                .add_live_quiet(seg, BLOCK_SIZE as u32, summary.write_time);
                        }
                        // A live -> free transition in the incoming block
                        // is a deletion becoming durable; its liveness
                        // accounting never reached the checkpoint, so
                        // retire the dead file's blocks here, from the
                        // about-to-be-replaced entry.
                        for (ino, incoming) in self.imap.peek_block(idx, buf) {
                            let cur = match self.imap.get(ino) {
                                Ok(e) => *e,
                                Err(_) => continue,
                            };
                            if cur.is_live() && !incoming.is_live() {
                                if let Some(seg) = self.sb.seg_of(cur.addr) {
                                    self.usage.sub_live(seg, INODE_DISK_SIZE as u32);
                                }
                                if let Ok(dead) = self.read_inode_at(cur.addr, cur.slot, ino) {
                                    self.visit_inode_blocks(&dead, |fs, a| {
                                        if let Some(seg) = fs.sb.seg_of(a) {
                                            fs.usage.sub_live(seg, BLOCK_SIZE as u32);
                                        }
                                    })?;
                                }
                            }
                        }
                        self.imap.load_block(idx, buf, addr);
                    }
                }
                EntryKind::UsageBlock => {
                    let idx = entry.offset as usize;
                    if idx < self.usage.num_blocks() {
                        let old = self.usage.block_addr(idx);
                        if old != NIL_ADDR {
                            if let Some(seg) = self.sb.seg_of(old) {
                                self.usage.sub_live_quiet(seg, BLOCK_SIZE as u32);
                            }
                        }
                        if let Some(seg) = self.sb.seg_of(addr) {
                            self.usage
                                .add_live_quiet(seg, BLOCK_SIZE as u32, summary.write_time);
                        }
                        // Live counts stay under incremental tracking.
                        self.usage.load_block_preserving_live(idx, buf, addr);
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
                EntryKind::Data | EntryKind::Indirect1 | EntryKind::Indirect2 => {}
            }
        }
        Ok(())
    }

    /// Adopts a newer inode found in the log tail, adjusting segment
    /// utilizations for everything the old version referenced and the new
    /// version references.
    fn adopt_inode(&mut self, inode: &Inode, addr: DiskAddr, slot: u8) -> FsResult<bool> {
        let ino = inode.ino;
        if ino as usize >= self.imap.capacity() as usize {
            return Ok(false);
        }
        let old = *self.imap.get(ino)?;
        if old.is_live() && old.version > inode.version {
            return Ok(false); // Stale: the file has since been reincarnated.
        }
        if old.is_live() && old.addr == addr && old.slot == slot {
            return Ok(false); // Already current (e.g. imap block covered it).
        }
        // Retire the old version's blocks from the usage accounting.
        if old.is_live() {
            if let Some(seg) = self.sb.seg_of(old.addr) {
                self.usage.sub_live(seg, INODE_DISK_SIZE as u32);
            }
            if let Ok(old_inode) = self.read_inode_at(old.addr, old.slot, ino) {
                self.visit_inode_blocks(&old_inode, |fs, a| {
                    if let Some(seg) = fs.sb.seg_of(a) {
                        fs.usage.sub_live(seg, BLOCK_SIZE as u32);
                    }
                })?;
            }
        }
        // Adopt the new version.
        self.imap.set_entry(ino, addr, slot, inode.version);
        if let Some(seg) = self.sb.seg_of(addr) {
            self.usage
                .add_live(seg, INODE_DISK_SIZE as u32, inode.mtime);
        }
        let mtime = inode.mtime;
        self.visit_inode_blocks(inode, |fs, a| {
            if let Some(seg) = fs.sb.seg_of(a) {
                fs.usage.add_live(seg, BLOCK_SIZE as u32, mtime);
            }
        })?;
        // Invalidate any cached copy.
        if self.inodes.remove(&ino).is_some_and(|c| c.dirty) {
            self.dirty_inode_count -= 1;
        }
        self.dcache.remove(&ino);
        self.blocks.retain(|(i, _), _| i != ino);
        let dic = &mut self.dirty_ind_count;
        self.inds.retain(|&(i, _), e| {
            if i == ino && e.dirty {
                *dic -= 1;
            }
            i != ino
        });
        Ok(true)
    }

    /// Reads one inode directly from an inode block on disk.
    fn read_inode_at(&mut self, addr: DiskAddr, slot: u8, expect: Ino) -> FsResult<Inode> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev
            .read_blocks(addr, &mut buf)
            .map_err(FsError::device)?;
        let chunk = &buf[slot as usize * INODE_DISK_SIZE..(slot as usize + 1) * INODE_DISK_SIZE];
        let inode = Inode::decode(chunk)?
            .ok_or_else(|| FsError::Corrupt(format!("inode {expect}: empty slot")))?;
        if inode.ino != expect {
            return Err(FsError::Corrupt(format!(
                "inode {expect}: slot holds {}",
                inode.ino
            )));
        }
        Ok(inode)
    }

    /// Calls `f` with the address of every block (data and indirect) that
    /// `inode` references, reading indirect blocks directly from disk.
    fn visit_inode_blocks<F: FnMut(&mut Self, DiskAddr)>(
        &mut self,
        inode: &Inode,
        mut f: F,
    ) -> FsResult<()> {
        for &a in &inode.direct {
            if a != NIL_ADDR {
                f(self, a);
            }
        }
        let mut singles: Vec<DiskAddr> = Vec::new();
        if inode.indirect != NIL_ADDR {
            singles.push(inode.indirect);
        }
        if inode.dindirect != NIL_ADDR {
            f(self, inode.dindirect);
            let mut buf = vec![0u8; BLOCK_SIZE];
            self.dev
                .read_blocks(inode.dindirect, &mut buf)
                .map_err(FsError::device)?;
            let dind = IndirectBlock::decode(&buf);
            singles.extend(dind.ptrs.iter().copied().filter(|&p| p != NIL_ADDR));
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        for s in singles {
            f(self, s);
            self.dev.read_blocks(s, &mut buf).map_err(FsError::device)?;
            let ind = IndirectBlock::decode(&buf);
            for &p in ind.ptrs.iter() {
                if p != NIL_ADDR {
                    f(self, p);
                }
            }
        }
        Ok(())
    }

    /// Replays one directory-operation-log record, restoring consistency
    /// between the directory entry and the inode's reference count.
    ///
    /// Records are replayed in log order against the state the tail's
    /// inodes produced, so each compares versions rather than testing
    /// for one: truncation to zero bumps a live inode's version, and an
    /// inode number freed in the tail may be live again by its end.
    fn replay_record(&mut self, rec: &DirLogRecord) -> FsResult<()> {
        let live = self.live_version(rec.ino);
        match rec.op {
            DirOp::Create | DirOp::Mkdir | DirOp::Link => {
                // An inode live at a newer version than the record was
                // written (and then truncated, or freed and reborn): not
                // a create to undo. The records after this one say what
                // became of it.
                if live.is_some_and(|v| v > rec.version) || !self.live_dir(rec.dir)? {
                    return Ok(());
                }
                let existing = self.dir_lookup(rec.dir, &rec.name)?;
                if live == Some(rec.version) {
                    // Complete the operation: entry present, nlink right.
                    if existing.map(|s| s.ino) != Some(rec.ino) {
                        if existing.is_some() {
                            self.dir_remove(rec.dir, &rec.name)?;
                        }
                        let ftype = self.inode_clone(rec.ino)?.ftype;
                        self.dir_insert(rec.dir, &rec.name, rec.ino, ftype)?;
                    }
                    let mut inode = self.inode_clone(rec.ino)?;
                    if inode.nlink != rec.nlink {
                        inode.nlink = rec.nlink;
                        self.put_inode(inode);
                    }
                } else if existing.map(|s| s.ino) == Some(rec.ino) {
                    // "The only operation that can't be completed is the
                    // creation of a new file for which the inode is never
                    // written; in this case the directory entry will be
                    // removed" (§4.2).
                    self.dir_remove(rec.dir, &rec.name)?;
                }
            }
            DirOp::Unlink | DirOp::Rmdir => {
                if self.live_dir(rec.dir)? {
                    if let Some(slot) = self.dir_lookup(rec.dir, &rec.name)? {
                        if slot.ino == rec.ino {
                            self.dir_remove(rec.dir, &rec.name)?;
                        }
                    }
                }
                match live {
                    // The last link went. Inode-map blocks reach the log
                    // only with checkpoints, so this record is what frees
                    // the inode — also when the tail never saw the version
                    // a truncation to zero gave it just before.
                    Some(v) if rec.nlink == 0 && v <= rec.version => {
                        self.delete_file(rec.ino)?;
                    }
                    Some(v) if rec.nlink > 0 && v == rec.version => {
                        let mut inode = self.inode_clone(rec.ino)?;
                        if inode.nlink != rec.nlink {
                            inode.nlink = rec.nlink;
                            self.put_inode(inode);
                        }
                    }
                    _ => {}
                }
            }
            DirOp::Rename => {
                // Remove the source entry.
                if self.live_dir(rec.dir)? {
                    if let Some(slot) = self.dir_lookup(rec.dir, &rec.name)? {
                        if slot.ino == rec.ino {
                            self.dir_remove(rec.dir, &rec.name)?;
                        }
                    }
                }
                // Install the destination entry.
                if live == Some(rec.version) && self.live_dir(rec.dir2)? {
                    let existing = self.dir_lookup(rec.dir2, &rec.name2)?;
                    if existing.map(|s| s.ino) != Some(rec.ino) {
                        if existing.is_some() {
                            self.dir_remove(rec.dir2, &rec.name2)?;
                        }
                        let ftype = self.inode_clone(rec.ino)?.ftype;
                        self.dir_insert(rec.dir2, &rec.name2, rec.ino, ftype)?;
                    }
                }
            }
        }
        Ok(())
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

/// A convenience for tests and tools: mounts, runs `f`, and unmounts
/// (checkpointing) — returning the device.
pub fn with_mounted<D, T, F>(dev: D, cfg: LfsConfig, f: F) -> FsResult<(D, T)>
where
    D: QueueDevice,
    F: FnOnce(&mut Lfs<D>) -> FsResult<T>,
{
    let mut fs = Lfs::mount(dev, cfg)?;
    let out = f(&mut fs)?;
    fs.checkpoint()?;
    Ok((fs.into_device(), out))
}

/// Returns true when a path exists on the mounted file system — a small
/// helper used by recovery tests.
pub fn exists<D: QueueDevice>(fs: &mut Lfs<D>, path: &str) -> bool {
    fs.lookup(path).is_ok()
}
