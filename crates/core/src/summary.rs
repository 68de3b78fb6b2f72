//! Segment summary blocks.
//!
//! "Sprite LFS solves both of these problems by writing a segment summary
//! block as part of each segment. The summary block identifies each piece
//! of information that is written in the segment; for example, for each
//! file data block the summary block contains the file number and block
//! number for the block" (§3.3). Summaries also record the uid (inode
//! number + version) of each block so the cleaner can discard dead blocks
//! without reading the inode, and they carry a sequence number, epoch, and
//! checksum so roll-forward can find the valid end of the log (§4.2).
//!
//! One summary block precedes each *partial write* — segments receive
//! multiple summaries when the file cache flushes before a whole segment's
//! worth of dirty blocks has accumulated.

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult, Ino};

use crate::codec::{checksum, Reader, Writer};

const MAGIC: u32 = 0x5347_5355; // "SUGS"
const HEADER_SIZE: usize = 40;
const ENTRY_SIZE: usize = 28;
/// Where the header stores the summary's own checksum.
const SUM_FIELD: std::ops::Range<usize> = 32..HEADER_SIZE;

/// Maximum blocks one summary can describe.
pub const MAX_SUMMARY_ENTRIES: usize = (BLOCK_SIZE - HEADER_SIZE) / ENTRY_SIZE;

/// What a block in a partial write is. The discriminant is its byte on
/// disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// File data block: `ino` + `offset` (file block number) + `version`.
    Data = 1,
    /// Single-indirect block `offset` of file `ino`.
    Indirect1 = 2,
    /// The double-indirect block of file `ino`.
    Indirect2 = 3,
    /// A block of packed inodes (the block itself lists its inodes).
    InodeBlock = 4,
    /// Inode-map block `offset`.
    ImapBlock = 5,
    /// Segment-usage-table block `offset`.
    UsageBlock = 6,
    /// A block of directory-operation-log records.
    DirLog = 7,
}

/// Every kind, indexed by its byte on disk minus one.
const KINDS: [EntryKind; 7] = [
    EntryKind::Data,
    EntryKind::Indirect1,
    EntryKind::Indirect2,
    EntryKind::InodeBlock,
    EntryKind::ImapBlock,
    EntryKind::UsageBlock,
    EntryKind::DirLog,
];

impl EntryKind {
    fn decode(v: u8) -> FsResult<EntryKind> {
        let kind = (v as usize).checked_sub(1).and_then(|i| KINDS.get(i));
        kind.copied()
            .ok_or_else(|| FsError::Corrupt(format!("summary: bad entry kind {v}")))
    }
}

/// Description of one block in a partial write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryEntry {
    /// What the block is.
    pub kind: EntryKind,
    /// Owning inode (for `Data`/`Indirect*`), else 0.
    pub ino: Ino,
    /// File block number (`Data`), indirect index (`Indirect1`), or table
    /// block index (`ImapBlock`/`UsageBlock`); else 0.
    pub offset: u32,
    /// The inode's version at write time — the uid check of §3.3.
    pub version: u32,
    /// The block's own modification time. The paper's Sprite LFS only
    /// kept one modified time per *file* and noted "this estimate will be
    /// incorrect for files that are not modified in their entirety. We
    /// plan to modify the segment summary information to include modified
    /// times for each block" (§3.6) — this field is that plan, realised:
    /// the cleaner's age-sort and the usage table's segment ages work on
    /// true block ages, and relocation preserves them.
    pub mtime: u64,
    /// Checksum ([`crate::codec::block_checksum`]) of the described
    /// block's contents at write time. Roll-forward verifies every block
    /// of a chunk against this before replaying any of it, so a torn
    /// segment write (summary persisted, some data blocks lost) is
    /// detected as the end of the log instead of being replayed as
    /// garbage; the cleaner uses it to refuse to relocate rotted live
    /// blocks.
    pub csum: u32,
}

impl SummaryEntry {
    /// A file data block entry.
    pub fn data(ino: Ino, offset: u32, version: u32, mtime: u64) -> SummaryEntry {
        SummaryEntry {
            kind: EntryKind::Data,
            ino,
            offset,
            version,
            mtime,
            csum: 0,
        }
    }

    /// A metadata entry with no owning file.
    pub fn meta(kind: EntryKind, offset: u32, mtime: u64) -> SummaryEntry {
        SummaryEntry {
            kind,
            ino: 0,
            offset,
            version: 0,
            mtime,
            csum: 0,
        }
    }
}

/// A parsed segment summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Mount epoch the write belongs to (prevents roll-forward from
    /// following stale log tails left by a previous mount).
    pub epoch: u32,
    /// Global partial-write sequence number; strictly increasing along the
    /// log.
    pub seq: u64,
    /// Logical time of the write.
    pub write_time: u64,
    /// One entry per block following the summary, in disk order.
    pub entries: Vec<SummaryEntry>,
}

impl Summary {
    /// Serializes into a disk block.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SUMMARY_ENTRIES`] entries.
    pub fn encode(&self) -> Box<[u8]> {
        let mut buf = vec![0u8; BLOCK_SIZE].into_boxed_slice();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes into a caller-provided block-sized buffer (zero-filled
    /// first), so the flush path can render into a reusable scratch pool
    /// instead of allocating. Byte-for-byte identical to [`Summary::encode`].
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SUMMARY_ENTRIES`] entries.
    pub fn encode_into(&self, buf: &mut [u8]) {
        assert!(self.entries.len() <= MAX_SUMMARY_ENTRIES);
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        buf.fill(0);
        {
            let mut w = Writer::new(buf);
            w.put_u32(MAGIC);
            w.put_u32(self.epoch);
            w.put_u64(self.seq);
            w.put_u16(self.entries.len() as u16);
            w.pad(6);
            w.put_u64(self.write_time);
            w.pad(8); // Checksum written below.
            for e in &self.entries {
                w.put_u8(e.kind as u8);
                w.pad(3);
                w.put_u32(e.ino);
                w.put_u32(e.offset);
                w.put_u32(e.version);
                w.put_u64(e.mtime);
                w.put_u32(e.csum);
            }
        }
        let sum = Self::compute_checksum(buf, self.entries.len());
        buf[SUM_FIELD].copy_from_slice(&sum.to_le_bytes());
    }

    /// Parses and validates a summary block; any failure (bad magic, bad
    /// checksum, impossible count) is reported as corruption, which
    /// roll-forward interprets as the end of the log.
    pub fn decode(buf: &[u8]) -> FsResult<Summary> {
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        let mut r = Reader::new(buf);
        if r.get_u32() != MAGIC {
            return Err(FsError::Corrupt("summary: bad magic".into()));
        }
        let epoch = r.get_u32();
        let seq = r.get_u64();
        let n = r.get_u16() as usize;
        if n > MAX_SUMMARY_ENTRIES {
            return Err(FsError::Corrupt("summary: entry count too large".into()));
        }
        r.skip(6);
        let write_time = r.get_u64();
        let stored = r.get_u64();
        if Self::compute_checksum(buf, n) != stored {
            return Err(FsError::Corrupt("summary: bad checksum".into()));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = EntryKind::decode(r.get_u8())?;
            r.skip(3);
            let ino = r.get_u32();
            let offset = r.get_u32();
            let version = r.get_u32();
            let mtime = r.get_u64();
            let csum = r.get_u32();
            entries.push(SummaryEntry {
                kind,
                ino,
                offset,
                version,
                mtime,
                csum,
            });
        }
        Ok(Summary {
            epoch,
            seq,
            write_time,
            entries,
        })
    }

    /// Checksum of the header and the `n` entries, taken with the stored
    /// sum field (bytes 32..40) as zero. Padding after the last entry is
    /// not covered.
    fn compute_checksum(buf: &[u8], n: usize) -> u64 {
        let len = HEADER_SIZE + n * ENTRY_SIZE;
        let mut covered = [0u8; BLOCK_SIZE];
        covered[..len].copy_from_slice(&buf[..len]);
        covered[SUM_FIELD].fill(0);
        checksum(&covered[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_entry_kind_is_its_byte() {
        for (i, &kind) in KINDS.iter().enumerate() {
            assert_eq!(kind as usize, i + 1);
            assert_eq!(EntryKind::decode(kind as u8).unwrap(), kind);
        }
        for bad in [0u8, 8, 255] {
            let want = format!("summary: bad entry kind {bad}");
            assert!(matches!(EntryKind::decode(bad), Err(FsError::Corrupt(m)) if m == want));
        }
    }

    fn sample() -> Summary {
        Summary {
            epoch: 3,
            seq: 42,
            write_time: 999,
            entries: vec![
                SummaryEntry::data(7, 0, 2, 11),
                SummaryEntry::data(7, 1, 2, 12),
                SummaryEntry::meta(EntryKind::InodeBlock, 0, 13),
                SummaryEntry::meta(EntryKind::ImapBlock, 5, 14),
                SummaryEntry {
                    kind: EntryKind::Indirect1,
                    ino: 7,
                    offset: 0,
                    version: 2,
                    mtime: 15,
                    csum: 0xdead_beef,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn empty_summary_roundtrips() {
        let s = Summary {
            epoch: 0,
            seq: 1,
            write_time: 0,
            entries: vec![],
        };
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn max_entries_roundtrip() {
        let s = Summary {
            epoch: 1,
            seq: 2,
            write_time: 3,
            entries: (0..MAX_SUMMARY_ENTRIES as u32)
                .map(|i| SummaryEntry::data(i + 1, i, i % 5, i as u64 * 3))
                .collect(),
        };
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn zero_block_is_rejected() {
        let buf = vec![0u8; BLOCK_SIZE];
        assert!(Summary::decode(&buf).is_err());
    }

    #[test]
    fn flipped_entry_byte_fails_checksum() {
        let mut buf = sample().encode();
        buf[HEADER_SIZE + 4] ^= 1; // The ino field of entry 0.
        assert!(Summary::decode(&buf).is_err());
    }

    #[test]
    fn flipped_header_byte_fails_checksum() {
        let mut buf = sample().encode();
        buf[8] ^= 1; // Part of seq.
        assert!(Summary::decode(&buf).is_err());
    }

    #[test]
    fn capacity_is_144_blocks() {
        assert_eq!(MAX_SUMMARY_ENTRIES, 144);
    }

    #[test]
    fn flipped_csum_field_fails_checksum() {
        let mut buf = sample().encode();
        buf[HEADER_SIZE + ENTRY_SIZE - 1] ^= 0x80; // csum byte of entry 0
        assert!(Summary::decode(&buf).is_err());
    }

    #[test]
    fn any_flipped_bit_in_header_or_entries_fails_decode() {
        let s = sample();
        let buf = s.encode();
        for bit in 0..(HEADER_SIZE + s.entries.len() * ENTRY_SIZE) * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Summary::decode(&bad).is_err(), "bit {bit} undetected");
        }
    }

    #[test]
    #[should_panic]
    fn encode_rejects_oversized_entry_list() {
        let s = Summary {
            epoch: 0,
            seq: 0,
            write_time: 0,
            entries: vec![SummaryEntry::data(1, 0, 0, 0); MAX_SUMMARY_ENTRIES + 1],
        };
        let _ = s.encode();
    }
}
