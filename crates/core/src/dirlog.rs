//! The directory operation log.
//!
//! "To restore consistency between directories and inodes, Sprite LFS
//! outputs a special record in the log for each directory change. The
//! record includes an operation code (create, link, rename, or unlink),
//! the location of the directory entry ..., the contents of the directory
//! entry (name and i-number), and the new reference count for the inode
//! named in the entry" (§4.2). Sprite LFS guarantees that each record
//! appears in the log *before* the corresponding directory block or inode;
//! our flush path writes dirlog blocks first in every partial write.
//!
//! Roll-forward replays these records to complete or undo half-finished
//! directory operations; they also make `rename` atomic.
//!
//! They are also the log's only copy of a directory's recent changes: a
//! `sync` writes the records but not the blocks and inode of a directory
//! already on disk, which wait for the next buffer-full flush, cleaner
//! flush or checkpoint. Roll-forward rebuilds such a directory's entries
//! from the records (see `Lfs::replay_record`).

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult, Ino};

use crate::codec::{Reader, Writer};

/// The directory operation performed. The discriminant is its byte on
/// disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirOp {
    /// A regular file was created.
    Create = 1,
    /// A hard link was added.
    Link = 2,
    /// A directory entry was removed.
    Unlink = 3,
    /// An entry moved from one (dir, name) to another, atomically.
    Rename = 4,
    /// A directory was created.
    Mkdir = 5,
    /// A directory was removed.
    Rmdir = 6,
}

/// Every operation, indexed by its byte on disk minus one.
const OPS: [DirOp; 6] = [
    DirOp::Create,
    DirOp::Link,
    DirOp::Unlink,
    DirOp::Rename,
    DirOp::Mkdir,
    DirOp::Rmdir,
];

impl DirOp {
    fn decode(v: u8) -> FsResult<DirOp> {
        let op = (v as usize).checked_sub(1).and_then(|i| OPS.get(i));
        op.copied()
            .ok_or_else(|| FsError::Corrupt(format!("dirlog: bad op {v}")))
    }
}

/// One directory-operation-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirLogRecord {
    /// The operation.
    pub op: DirOp,
    /// Directory containing the (source) entry.
    pub dir: Ino,
    /// Entry name (source name for renames).
    pub name: String,
    /// Inode the entry refers to.
    pub ino: Ino,
    /// The inode's reference count after the operation.
    pub nlink: u32,
    /// Inode version at the time of the operation (to recognise a later
    /// reincarnation of the number during replay).
    pub version: u32,
    /// Destination directory (renames only, else 0).
    pub dir2: Ino,
    /// Destination name (renames only, else empty).
    pub name2: String,
}

impl DirLogRecord {
    /// Serialized length of the record in bytes.
    pub fn encoded_len(&self) -> usize {
        24 + self.name.len() + self.name2.len()
    }

    fn encode_into(&self, w: &mut Writer<'_>) {
        w.put_u8(self.op as u8);
        w.put_u8(self.name.len() as u8);
        w.put_u8(self.name2.len() as u8);
        w.pad(1);
        w.put_u32(self.dir);
        w.put_u32(self.ino);
        w.put_u32(self.nlink);
        w.put_u32(self.version);
        w.put_u32(self.dir2);
        w.put_bytes(self.name.as_bytes());
        w.put_bytes(self.name2.as_bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> FsResult<Option<DirLogRecord>> {
        // The block contents may be arbitrary garbage (torn write, media
        // rot), so every read is bounds-checked: truncation is corruption,
        // not a panic.
        if r.remaining() < 1 {
            return Ok(None); // Block exhausted exactly at a record boundary.
        }
        let op_byte = r.get_u8();
        if op_byte == 0 {
            return Ok(None); // End-of-block marker.
        }
        let op = DirOp::decode(op_byte)?;
        if r.remaining() < 23 {
            return Err(FsError::Corrupt("dirlog: truncated record header".into()));
        }
        let name_len = r.get_u8() as usize;
        let name2_len = r.get_u8() as usize;
        r.skip(1);
        let dir = r.get_u32();
        let ino = r.get_u32();
        let nlink = r.get_u32();
        let version = r.get_u32();
        let dir2 = r.get_u32();
        if r.remaining() < name_len + name2_len {
            return Err(FsError::Corrupt("dirlog: truncated record names".into()));
        }
        let name = String::from_utf8(r.get_bytes(name_len).to_vec())
            .map_err(|_| FsError::Corrupt("dirlog: non-UTF-8 name".into()))?;
        let name2 = String::from_utf8(r.get_bytes(name2_len).to_vec())
            .map_err(|_| FsError::Corrupt("dirlog: non-UTF-8 name".into()))?;
        Ok(Some(DirLogRecord {
            op,
            dir,
            name,
            ino,
            nlink,
            version,
            dir2,
            name2,
        }))
    }
}

/// Packs records into as many blocks as needed; records never span blocks.
///
/// Returns `(blocks, records_per_block)` so the caller knows the packing.
pub fn encode_records(records: &[DirLogRecord]) -> Vec<Box<[u8]>> {
    let mut blocks = Vec::new();
    let mut cur = vec![0u8; BLOCK_SIZE].into_boxed_slice();
    let mut pos = 0usize;
    for rec in records {
        let len = rec.encoded_len();
        debug_assert!(len < BLOCK_SIZE, "single dirlog record exceeds a block");
        if pos + len + 1 > BLOCK_SIZE {
            blocks.push(cur);
            cur = vec![0u8; BLOCK_SIZE].into_boxed_slice();
            pos = 0;
        }
        let mut w = Writer::new(&mut cur[pos..]);
        rec.encode_into(&mut w);
        pos += len;
    }
    if pos > 0 {
        blocks.push(cur);
    }
    blocks
}

/// Parses all records from one dirlog block.
pub fn decode_block(buf: &[u8]) -> FsResult<Vec<DirLogRecord>> {
    let mut out = Vec::new();
    let mut r = Reader::new(buf);
    while r.pos() < BLOCK_SIZE {
        match DirLogRecord::decode_from(&mut r)? {
            Some(rec) => out.push(rec),
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_is_its_byte() {
        for (i, &op) in OPS.iter().enumerate() {
            assert_eq!(op as usize, i + 1);
            assert_eq!(DirOp::decode(op as u8).unwrap(), op);
        }
        for bad in [0u8, 7, 255] {
            let want = format!("dirlog: bad op {bad}");
            assert!(matches!(DirOp::decode(bad), Err(FsError::Corrupt(m)) if m == want));
        }
    }

    fn rec(op: DirOp, name: &str) -> DirLogRecord {
        DirLogRecord {
            op,
            dir: 1,
            name: name.to_string(),
            ino: 42,
            nlink: 1,
            version: 3,
            dir2: 0,
            name2: String::new(),
        }
    }

    #[test]
    fn single_record_roundtrip() {
        let records = vec![rec(DirOp::Create, "hello.txt")];
        let blocks = encode_records(&records);
        assert_eq!(blocks.len(), 1);
        assert_eq!(decode_block(&blocks[0]).unwrap(), records);
    }

    #[test]
    fn rename_record_roundtrips_both_names() {
        let r = DirLogRecord {
            op: DirOp::Rename,
            dir: 5,
            name: "old".into(),
            ino: 9,
            nlink: 1,
            version: 0,
            dir2: 6,
            name2: "new-name".into(),
        };
        let blocks = encode_records(std::slice::from_ref(&r));
        let back = decode_block(&blocks[0]).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn many_records_spill_to_multiple_blocks() {
        let records: Vec<DirLogRecord> = (0..300)
            .map(|i| rec(DirOp::Create, &format!("file-{i:04}-with-a-longish-name")))
            .collect();
        let blocks = encode_records(&records);
        assert!(blocks.len() > 1);
        let mut back = Vec::new();
        for b in &blocks {
            back.extend(decode_block(b).unwrap());
        }
        assert_eq!(back, records);
    }

    #[test]
    fn empty_record_list_produces_no_blocks() {
        assert!(encode_records(&[]).is_empty());
    }

    #[test]
    fn empty_block_decodes_to_no_records() {
        let buf = vec![0u8; BLOCK_SIZE];
        assert!(decode_block(&buf).unwrap().is_empty());
    }

    #[test]
    fn bad_op_is_corrupt() {
        let mut buf = vec![0u8; BLOCK_SIZE];
        buf[0] = 200;
        assert!(decode_block(&buf).is_err());
    }

    #[test]
    fn garbage_block_is_corrupt_not_panic() {
        // A block of 0x01 bytes parses as an endless run of tiny Create
        // records until the tail truncates one; that must surface as
        // `Corrupt`, never as a slice panic.
        assert!(decode_block(&[1u8; BLOCK_SIZE]).is_err());
    }

    #[test]
    fn truncated_names_are_corrupt() {
        // Valid 24-byte header claiming a long name with no bytes behind
        // it: the name read must not run off the end of the buffer.
        let mut buf = vec![0u8; 24];
        buf[0] = 1; // Create
        buf[1] = 200; // name_len far beyond the buffer tail
        assert!(decode_block(&buf).is_err());
    }

    #[test]
    fn all_ops_roundtrip() {
        let ops = [
            DirOp::Create,
            DirOp::Link,
            DirOp::Unlink,
            DirOp::Rename,
            DirOp::Mkdir,
            DirOp::Rmdir,
        ];
        let records: Vec<DirLogRecord> = ops.iter().map(|&op| rec(op, "n")).collect();
        let blocks = encode_records(&records);
        assert_eq!(decode_block(&blocks[0]).unwrap(), records);
    }
}
