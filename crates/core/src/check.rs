//! Offline consistency checking ("lfsck").
//!
//! Verifies the cross-structure invariants that make a log-structured file
//! system correct:
//!
//! 1. every live inode-map entry resolves to a decodable inode with the
//!    right number in the right slot;
//! 2. no disk block is referenced by two owners;
//! 3. the directory tree is connected: every entry points at a live inode,
//!    every live inode is reachable, and reference counts match entry
//!    counts;
//! 4. the segment usage table's live-byte counts equal a from-scratch
//!    recount, clean segments hold no live data, and a segment is
//!    `Active` exactly when a write point has room in it.
//!
//! Note the contrast with `fsck` for Unix FFS: this check exists for
//! testing and diagnostics, not for crash recovery — recovery needs only
//! the checkpoint and the log tail (§4).

use std::collections::HashMap;

use blockdev::{QueueDevice, BLOCK_SIZE};
use vfs::{FileType, FsResult, Ino, ROOT_INO};

use crate::fs::Lfs;
use crate::inode::INODE_DISK_SIZE;
use crate::layout::{DiskAddr, NIL_ADDR};
use crate::meta::Owned;
use crate::stats::BlockKind;
use crate::superblock::Superblock;
use crate::usage::SegState;

/// The result of a consistency check.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Human-readable descriptions of every violated invariant.
    pub errors: Vec<String>,
    /// Live files (regular) found.
    pub files: u64,
    /// Live directories found (including the root).
    pub dirs: u64,
    /// Live data blocks counted.
    pub data_blocks: u64,
}

impl CheckReport {
    /// True if no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl<D: QueueDevice> Lfs<D> {
    /// Live bytes on disk per block kind — the "Live data" column of
    /// Table 4. Indexed like [`crate::BlockKind::ALL`]; summary and
    /// directory-log blocks are never live, so their entries are zero.
    pub fn live_bytes_by_kind(&mut self) -> FsResult<[u64; 7]> {
        let mut out = [0u64; 7];
        let live: Vec<Ino> = self.imap.live_inos().collect();
        for ino in live {
            out[BlockKind::Inode as usize] += INODE_DISK_SIZE as u64;
            let inode = self.inode_clone(ino)?;
            for (owned, _) in self.owned_blocks(&inode, None)? {
                let kind = match owned {
                    Owned::Data(_) => BlockKind::Data,
                    Owned::Ind(_) => BlockKind::Indirect,
                };
                out[kind as usize] += BLOCK_SIZE as u64;
            }
        }
        let usage = &self.space.usage().blocks;
        for (kind, blocks) in [
            (BlockKind::Imap, &self.imap.blocks),
            (BlockKind::Usage, usage),
        ] {
            let written = blocks.addrs.iter().filter(|&&a| a != NIL_ADDR);
            out[kind as usize] += written.count() as u64 * BLOCK_SIZE as u64;
        }
        Ok(out)
    }

    /// Runs the full consistency check.
    ///
    /// Intended to be called on a quiescent file system (after
    /// [`vfs::FileSystem::sync`]); dirty in-memory state that has not
    /// reached the log yet would legitimately disagree with the disk.
    pub fn check(&mut self) -> FsResult<CheckReport> {
        let live: Vec<Ino> = self.imap.live_inos().collect();
        let mut census = Census {
            report: CheckReport::default(),
            recount: vec![0; self.sb.nsegments as usize],
            owners: HashMap::new(),
        };
        self.check_inodes(&live, &mut census)?;
        self.check_inode_slots(&live, &mut census.report)?;
        self.check_map_blocks(&mut census);
        self.check_tree(&live, &mut census.report)?;
        self.check_usage(&mut census);
        Ok(census.report)
    }

    /// Pass 1: every live inode decodes, and it, its data blocks and its
    /// indirect blocks are claimed.
    fn check_inodes(&mut self, live: &[Ino], census: &mut Census) -> FsResult<()> {
        for &ino in live {
            let entry = *self.imap.get(ino)?;
            let inode = match self.inode_clone(ino) {
                Ok(i) => i,
                Err(e) => {
                    census.error(format!("inode {ino}: unreadable: {e}"));
                    continue;
                }
            };
            census.claim(
                &self.sb,
                entry.addr,
                INODE_DISK_SIZE as u64,
                format!("inode {ino} (slot {})", entry.slot),
                false, // Inode blocks are legitimately shared by 16 slots.
            );
            match inode.ftype {
                FileType::Regular => census.report.files += 1,
                FileType::Directory => census.report.dirs += 1,
            }
            for (owned, addr) in self.owned_blocks(&inode, None)? {
                let what = match owned {
                    Owned::Data(bno) => {
                        census.report.data_blocks += 1;
                        format!("data {ino}:{bno}")
                    }
                    Owned::Ind(key) => format!("{key:?} of {ino}"),
                };
                census.claim_block(&self.sb, addr, what);
            }
        }
        Ok(())
    }

    /// Inode blocks are shared by their slots, so block ownership cannot
    /// catch two inodes in one slot; two map entries naming the same
    /// `(addr, slot)` can.
    fn check_inode_slots(&self, live: &[Ino], report: &mut CheckReport) -> FsResult<()> {
        let mut slot_owners: HashMap<(DiskAddr, u8), Ino> = HashMap::new();
        for &ino in live {
            let e = *self.imap.get(ino)?;
            if let Some(prev) = slot_owners.insert((e.addr, e.slot), ino) {
                report.errors.push(format!(
                    "inode slot ({}, {}) shared by inodes {prev} and {ino}",
                    e.addr, e.slot
                ));
            }
        }
        Ok(())
    }

    /// The inode map and usage table blocks are live data too.
    fn check_map_blocks(&self, census: &mut Census) {
        let usage = &self.space.usage().blocks;
        for (what, blocks) in [("imap", &self.imap.blocks), ("usage", usage)] {
            for (i, &addr) in blocks.addrs.iter().enumerate() {
                if addr != NIL_ADDR {
                    census.claim_block(&self.sb, addr, format!("{what} block {i}"));
                }
            }
        }
    }

    /// Pass 2: directory tree connectivity and reference counts.
    fn check_tree(&mut self, live: &[Ino], report: &mut CheckReport) -> FsResult<()> {
        let mut refcount: HashMap<Ino, u32> = HashMap::new();
        let mut stack = vec![ROOT_INO];
        let mut visited: HashMap<Ino, bool> = HashMap::new();
        visited.insert(ROOT_INO, true);
        while let Some(dir) = stack.pop() {
            let entries = match self.dir_entries(dir) {
                Ok(e) => e,
                Err(e) => {
                    report
                        .errors
                        .push(format!("directory {dir}: unreadable: {e}"));
                    continue;
                }
            };
            for (name, slot) in entries {
                let live_entry = self
                    .imap
                    .get(slot.ino)
                    .map(|e| e.is_live())
                    .unwrap_or(false);
                if !live_entry {
                    report.errors.push(format!(
                        "entry {dir}:{name} points at dead inode {}",
                        slot.ino
                    ));
                    continue;
                }
                let inode = self.inode_clone(slot.ino)?;
                if inode.ftype != slot.ftype {
                    report.errors.push(format!(
                        "entry {dir}:{name}: cached type disagrees with inode {}",
                        slot.ino
                    ));
                }
                *refcount.entry(slot.ino).or_insert(0) += 1;
                if inode.ftype == FileType::Directory {
                    if visited.insert(slot.ino, true).is_some() {
                        report.errors.push(format!(
                            "directory {} reachable twice (entry {dir}:{name})",
                            slot.ino
                        ));
                    } else {
                        stack.push(slot.ino);
                    }
                }
            }
        }
        for &ino in live {
            if ino == ROOT_INO {
                continue;
            }
            let inode = self.inode_clone(ino)?;
            let refs = refcount.get(&ino).copied().unwrap_or(0);
            if inode.ftype == FileType::Directory && !visited.contains_key(&ino) {
                report
                    .errors
                    .push(format!("directory {ino} unreachable from the root"));
            }
            if inode.ftype == FileType::Regular && refs == 0 {
                report
                    .errors
                    .push(format!("file {ino} has no directory entry"));
            }
            if inode.nlink != refs {
                report.errors.push(format!(
                    "inode {ino}: nlink {} but {refs} directory entries",
                    inode.nlink
                ));
            }
        }
        Ok(())
    }

    /// Pass 3: the usage table's live-byte counts equal the recount, and
    /// clean segments hold nothing. A pending-free segment waits only for
    /// the first checkpoint after it was cleaned, which promotes it. The
    /// `Active` segments are exactly those a write point has room in: the
    /// flush that fills a write point's segment seals it.
    fn check_usage(&self, census: &mut Census) {
        let checkpoint_seq = self.log.checkpoint_seq();
        let wps = self.log.write_points().iter();
        let open: Vec<u32> = wps
            .filter(|wp| wp.1 + 1 < self.sb.seg_blocks)
            .map(|wp| wp.0)
            .collect();
        for (seg, usage) in self.space.usage().iter() {
            let open = open.contains(&seg);
            if (usage.state == SegState::Active) != open {
                let (state, room) = (usage.state, if open { "a" } else { "no" });
                census.error(format!(
                    "segment {seg} is {state:?}, but {room} write point has room in it"
                ));
            }
            if usage.state == SegState::PendingFree && usage.seal_seq < checkpoint_seq {
                census.error(format!(
                    "segment {seg}: pending since seq {} but checkpoint {checkpoint_seq} did not promote it",
                    usage.seal_seq
                ));
            }
            let counted = census.recount[seg as usize];
            if usage.live_bytes as u64 != counted {
                census.error(format!(
                    "segment {seg}: usage table says {} live bytes, recount says {counted}",
                    usage.live_bytes
                ));
            }
            if usage.state == SegState::Clean && counted != 0 {
                census.error(format!("clean segment {seg} holds {counted} live bytes"));
            }
        }
    }
}

/// What the passes of [`Lfs::check`] accumulate.
struct Census {
    report: CheckReport,
    /// Live bytes per segment, recounted from what the passes claimed.
    recount: Vec<u64>,
    /// The owner of every whole block claimed so far.
    owners: HashMap<DiskAddr, String>,
}

impl Census {
    fn error(&mut self, msg: String) {
        self.report.errors.push(msg);
    }

    /// Counts `bytes` at `addr` toward its segment's recount; with
    /// `whole_block`, also records `what` as the block's one owner.
    fn claim(
        &mut self,
        sb: &Superblock,
        addr: DiskAddr,
        bytes: u64,
        what: String,
        whole_block: bool,
    ) {
        match sb.seg_of(addr) {
            Some(seg) => self.recount[seg as usize] += bytes,
            None => self.error(format!("{what}: address {addr} outside the log")),
        }
        if whole_block {
            if let Some(prev) = self.owners.insert(addr, what.clone()) {
                self.error(format!("block {addr} owned by both {prev} and {what}"));
            }
        }
    }

    /// [`Census::claim`] for a block nothing else may share.
    fn claim_block(&mut self, sb: &Superblock, addr: DiskAddr, what: String) {
        self.claim(sb, addr, BLOCK_SIZE as u64, what, true);
    }
}
