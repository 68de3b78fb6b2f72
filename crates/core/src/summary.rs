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
//!
//! Format v3 adds two header fields. The *watermark* is the log's
//! durable sequence number when the summary was encoded: every chunk up
//! to it had been fenced. The *release list* names the segments a cleaner
//! pass frees with this chunk, the last one it writes; they become
//! reusable once a fence covers it. So a chunk in a segment released by
//! chunk `R` carries a watermark of at least `R`, which roll-forward and
//! `check` both verify. The layout, byte offsets in the block:
//!
//! ```text
//! 0  magic u32      4  epoch u32      8  seq u64
//! 16 entries u16    18 released u16   20 zero u32
//! 24 write_time u64 32 watermark u64  40 checksum u64
//! 48 entries, 28 bytes each; then the released segments, u32 each
//! ```
//!
//! Format v4 adds sub-block fragments. A *fragment block* holds the
//! partial last blocks of several regular files, each at a start aligned
//! to [`FRAG_ALIGN`]. It has one block entry of kind
//! [`EntryKind::FragBlock`], followed by one [`EntryKind::Fragment`] entry
//! per fragment, which takes no block of its own: byte 1 of such an entry
//! is the fragment's start and byte 2 its length, in units of
//! [`FRAG_ALIGN`], and its checksum covers the fragment's bytes alone. So
//! a summary's entries count against its capacity, and its block entries
//! alone say how many blocks follow it ([`Summary::block_count`]).

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult, Ino};

use crate::codec::{checksum, Reader, Writer};
use crate::meta::{Frag, FRAG_ALIGN};

const MAGIC: u32 = 0x5347_5355; // "SUGS"
const HEADER_SIZE: usize = 48;
const ENTRY_SIZE: usize = 28;
/// Bytes per released segment.
const RELEASED_SIZE: usize = 4;
/// Where the header stores the summary's own checksum.
const SUM_FIELD: std::ops::Range<usize> = 40..HEADER_SIZE;

/// Maximum blocks one summary can describe.
pub const MAX_SUMMARY_ENTRIES: usize = capacity(0);

/// Maximum segments one summary can release (with no entries).
pub const MAX_RELEASED: usize = (BLOCK_SIZE - HEADER_SIZE) / RELEASED_SIZE;

/// Blocks a summary that releases `released` segments can describe.
pub const fn capacity(released: usize) -> usize {
    (BLOCK_SIZE - HEADER_SIZE - released * RELEASED_SIZE) / ENTRY_SIZE
}

/// Bytes of the block the checksum covers: header, entries, release list.
const fn covered_len(entries: usize, released: usize) -> usize {
    HEADER_SIZE + entries * ENTRY_SIZE + released * RELEASED_SIZE
}

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
    /// A fragment block: the [`EntryKind::Fragment`] entries after it
    /// describe what it holds.
    FragBlock = 8,
    /// One fragment of the fragment block before it: the partial last
    /// block `offset` of file `ino`, at `start`, `len` bytes. Takes no
    /// block of its own.
    Fragment = 9,
}

/// Every kind, indexed by its byte on disk minus one.
const KINDS: [EntryKind; 9] = [
    EntryKind::Data,
    EntryKind::Indirect1,
    EntryKind::Indirect2,
    EntryKind::InodeBlock,
    EntryKind::ImapBlock,
    EntryKind::UsageBlock,
    EntryKind::DirLog,
    EntryKind::FragBlock,
    EntryKind::Fragment,
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
    /// blocks. A `Fragment` entry's covers the fragment's bytes alone.
    pub csum: u32,
    /// A `Fragment` entry's byte offset in its block, else 0.
    pub start: u16,
    /// A `Fragment` entry's length in bytes, else 0.
    pub len: u16,
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
            start: 0,
            len: 0,
        }
    }

    /// A metadata entry with no owning file.
    pub fn meta(kind: EntryKind, offset: u32, mtime: u64) -> SummaryEntry {
        SummaryEntry::data(0, offset, 0, mtime).with_kind(kind)
    }

    /// A fragment entry: file block `offset` of `ino` at `start`, `len`
    /// bytes, whose bytes sum to `csum`.
    pub fn fragment(
        (ino, offset, version, mtime): (Ino, u32, u32, u64),
        start: usize,
        len: usize,
        csum: u32,
    ) -> SummaryEntry {
        debug_assert!(Frag::fits(start, len), "fragment {start}+{len}");
        SummaryEntry {
            kind: EntryKind::Fragment,
            csum,
            start: start as u16,
            len: len as u16,
            ..SummaryEntry::data(ino, offset, version, mtime)
        }
    }

    fn with_kind(self, kind: EntryKind) -> SummaryEntry {
        SummaryEntry { kind, ..self }
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
    /// The log's durable sequence number at encode time: a fence had
    /// covered every chunk up to it.
    pub watermark: u64,
    /// One entry per block following the summary, in disk order, each
    /// fragment block's followed by one per fragment it holds.
    pub entries: Vec<SummaryEntry>,
    /// The segments a cleaner pass releases with this chunk.
    pub released: Vec<u32>,
}

impl Summary {
    /// Serializes into a disk block.
    ///
    /// # Panics
    ///
    /// Panics if the entries and the release list do not fit the block
    /// (see [`capacity`]).
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
    /// Panics if the entries and the release list do not fit the block
    /// (see [`capacity`]).
    pub fn encode_into(&self, buf: &mut [u8]) {
        let (n, nrel) = (self.entries.len(), self.released.len());
        assert!(nrel <= MAX_RELEASED && n <= capacity(nrel));
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        buf.fill(0);
        {
            let mut w = Writer::new(buf);
            w.put_u32(MAGIC);
            w.put_u32(self.epoch);
            w.put_u64(self.seq);
            w.put_u16(n as u16);
            w.put_u16(nrel as u16);
            w.pad(4);
            w.put_u64(self.write_time);
            w.put_u64(self.watermark);
            w.pad(8); // Checksum written below.
            for e in &self.entries {
                w.put_u8(e.kind as u8);
                w.put_u8((e.start as usize / FRAG_ALIGN) as u8);
                w.put_u8((e.len as usize / FRAG_ALIGN) as u8);
                w.pad(1);
                w.put_u32(e.ino);
                w.put_u32(e.offset);
                w.put_u32(e.version);
                w.put_u64(e.mtime);
                w.put_u32(e.csum);
            }
            for &seg in &self.released {
                w.put_u32(seg);
            }
        }
        let sum = Self::compute_checksum(buf, covered_len(n, nrel));
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
        let nrel = r.get_u16() as usize;
        if nrel > MAX_RELEASED || n > capacity(nrel) {
            return Err(FsError::Corrupt("summary: entry count too large".into()));
        }
        r.skip(4);
        let write_time = r.get_u64();
        let watermark = r.get_u64();
        let stored = r.get_u64();
        if Self::compute_checksum(buf, covered_len(n, nrel)) != stored {
            return Err(FsError::Corrupt("summary: bad checksum".into()));
        }
        let mut entries: Vec<SummaryEntry> = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = EntryKind::decode(r.get_u8())?;
            let start = r.get_u8() as usize * FRAG_ALIGN;
            let len = r.get_u8() as usize * FRAG_ALIGN;
            r.skip(1);
            let (ino, offset, version) = (r.get_u32(), r.get_u32(), r.get_u32());
            let (mtime, csum) = (r.get_u64(), r.get_u32());
            let entry = SummaryEntry {
                csum,
                ..SummaryEntry::data(ino, offset, version, mtime).with_kind(kind)
            };
            if kind != EntryKind::Fragment {
                entries.push(entry);
                continue;
            }
            // A fragment lies inside the fragment block it follows.
            let follows = entries
                .last()
                .is_some_and(|e| matches!(e.kind, EntryKind::FragBlock | EntryKind::Fragment));
            if !follows || !Frag::fits(start, len) {
                return Err(FsError::Corrupt("summary: stray fragment entry".into()));
            }
            entries.push(SummaryEntry {
                start: start as u16,
                len: len as u16,
                ..entry
            });
        }
        let released = (0..nrel).map(|_| r.get_u32()).collect();
        Ok(Summary {
            epoch,
            seq,
            write_time,
            watermark,
            entries,
            released,
        })
    }

    /// The blocks following the summary: how many there are, one per
    /// entry but fragment entries.
    pub fn block_count(&self) -> usize {
        let frags = self
            .entries
            .iter()
            .filter(|e| e.kind == EntryKind::Fragment);
        self.entries.len() - frags.count()
    }

    /// The blocks following the summary, in disk order: each block's own
    /// entry, and the fragment entries after it (empty but for a fragment
    /// block).
    pub fn blocks(&self) -> impl Iterator<Item = (&SummaryEntry, &[SummaryEntry])> + '_ {
        let mut rest = &self.entries[..];
        std::iter::from_fn(move || {
            let (head, tail) = rest.split_first()?;
            let n = tail.iter().take_while(|e| e.kind == EntryKind::Fragment);
            let (frags, after) = tail.split_at(n.count());
            rest = after;
            Some((head, frags))
        })
    }

    /// Checksum of the first `len` bytes (header, entries, release list),
    /// taken with the stored sum field (bytes 40..48) as zero. Padding
    /// after the release list is not covered.
    fn compute_checksum(buf: &[u8], len: usize) -> u64 {
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
        for bad in [0u8, 10, 255] {
            let want = format!("summary: bad entry kind {bad}");
            assert!(matches!(EntryKind::decode(bad), Err(FsError::Corrupt(m)) if m == want));
        }
    }

    fn sample() -> Summary {
        Summary {
            epoch: 3,
            seq: 42,
            write_time: 999,
            watermark: 40,
            entries: vec![
                SummaryEntry::data(7, 0, 2, 11),
                SummaryEntry::data(7, 1, 2, 12),
                SummaryEntry::meta(EntryKind::InodeBlock, 0, 13),
                SummaryEntry::meta(EntryKind::ImapBlock, 5, 14),
                SummaryEntry {
                    kind: EntryKind::Indirect1,
                    csum: 0xdead_beef,
                    ..SummaryEntry::data(7, 0, 2, 15)
                },
            ],
            released: vec![9, 2, 17],
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
            watermark: 0,
            entries: vec![],
            released: vec![],
        };
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn max_entries_roundtrip() {
        let s = Summary {
            epoch: 1,
            seq: 2,
            write_time: 3,
            watermark: 1,
            entries: (0..MAX_SUMMARY_ENTRIES as u32)
                .map(|i| SummaryEntry::data(i + 1, i, i % 5, i as u64 * 3))
                .collect(),
            released: vec![],
        };
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    }

    /// A release list takes room from the entries, four segments per
    /// entry or so; a summary-only chunk can release a thousand.
    #[test]
    fn a_release_list_shares_the_block_with_the_entries() {
        assert_eq!((capacity(4), capacity(5), capacity(32)), (144, 143, 140));
        assert_eq!(MAX_RELEASED, 1012);
        for nrel in [1, 5, 32, MAX_RELEASED] {
            let s = Summary {
                epoch: 2,
                seq: 70,
                write_time: 5,
                watermark: 69,
                entries: (0..capacity(nrel) as u32)
                    .map(|i| SummaryEntry::data(i + 1, i, 0, 1))
                    .collect(),
                released: (0..nrel as u32).rev().collect(),
            };
            assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
        }
    }

    /// A fragment block's entry and its fragments' entries round-trip;
    /// only the block entries count as blocks.
    #[test]
    fn fragment_entries_take_no_block() {
        let frag = |ino, start, len| SummaryEntry::fragment((ino, 1, 3, 9), start, len, 77);
        let s = Summary {
            entries: vec![
                SummaryEntry::data(4, 0, 1, 8),
                SummaryEntry::meta(EntryKind::FragBlock, 0, 9),
                frag(4, 0, 1024),
                frag(5, 1024, 3072),
                SummaryEntry::meta(EntryKind::InodeBlock, 0, 9),
            ],
            ..sample()
        };
        assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
        assert_eq!(s.block_count(), 3);
        let frags: Vec<usize> = s.blocks().map(|(_, f)| f.len()).collect();
        assert_eq!(frags, [0, 2, 0]);
    }

    /// A fragment entry that follows no fragment block, or reaches past
    /// its block, is corruption.
    #[test]
    fn a_stray_fragment_entry_is_refused() {
        let frag = SummaryEntry::fragment((4, 1, 3, 9), 0, 1024, 77);
        let stray = Summary {
            entries: vec![SummaryEntry::data(4, 0, 1, 8), frag],
            ..sample()
        };
        let err = Summary::decode(&stray.encode()).unwrap_err().to_string();
        assert!(err.contains("stray fragment"), "{err}");
        let long = Summary {
            entries: vec![SummaryEntry::meta(EntryKind::FragBlock, 0, 9), frag],
            ..sample()
        };
        let mut buf = long.encode();
        // Length 64 units from start 1 unit: one unit past the block.
        buf[HEADER_SIZE + ENTRY_SIZE + 1] = 1;
        buf[HEADER_SIZE + ENTRY_SIZE + 2] = 64;
        let n = covered_len(2, long.released.len());
        let sum = Summary::compute_checksum(&buf, n);
        buf[SUM_FIELD].copy_from_slice(&sum.to_le_bytes());
        assert!(Summary::decode(&buf).is_err());
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

    /// The release list is covered too.
    #[test]
    fn any_flipped_bit_in_header_or_entries_fails_decode() {
        let s = sample();
        let buf = s.encode();
        for bit in 0..covered_len(s.entries.len(), s.released.len()) * 8 {
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
            watermark: 0,
            entries: vec![SummaryEntry::data(1, 0, 0, 0); MAX_SUMMARY_ENTRIES + 1],
            released: Vec::new(),
        };
        let _ = s.encode();
    }

    /// A release list takes room from the entries: a full block of
    /// entries and a list do not fit together.
    #[test]
    #[should_panic]
    fn encode_rejects_entries_that_leave_no_room_for_the_release_list() {
        let s = Summary {
            epoch: 0,
            seq: 0,
            write_time: 0,
            watermark: 0,
            entries: vec![SummaryEntry::data(1, 0, 0, 0); MAX_SUMMARY_ENTRIES],
            released: vec![1; 5],
        };
        let _ = s.encode();
    }
}
