//! Inodes and indirect blocks.
//!
//! "For each file there exists a data structure called an inode, which
//! contains the file's attributes plus the disk addresses of the first ten
//! blocks of the file; for files larger than ten blocks, the inode also
//! contains the disk addresses of one or more indirect blocks" (§3.1).
//!
//! Unlike Unix FFS, inodes have no fixed home: they are packed
//! [`crate::layout::INODES_PER_BLOCK`] to a block and appended to the log;
//! the inode map records where each one currently lives.

use blockdev::BLOCK_SIZE;
use vfs::{FileType, FsError, FsResult, Ino};

use crate::codec::{Reader, Writer};
use crate::layout::{DiskAddr, NIL_ADDR, NUM_DIRECT, PTRS_PER_BLOCK};

/// Bytes an inode occupies on disk.
pub const INODE_DISK_SIZE: usize = 256;

/// The on-disk inode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inode {
    /// Inode number (0 marks an unused slot in an inode block).
    pub ino: Ino,
    /// Version number; together with `ino` it forms the uid used for the
    /// fast liveness check during cleaning (§3.3).
    pub version: u32,
    /// Regular file or directory.
    pub ftype: FileType,
    /// Protection bits (stored for fidelity, not enforced).
    pub mode: u16,
    /// Number of directory entries referring to this inode.
    pub nlink: u32,
    /// Size in bytes.
    pub size: u64,
    /// Last data modification time (logical time).
    pub mtime: u64,
    /// Last access time (logical time).
    pub atime: u64,
    /// Last inode change time (logical time).
    pub ctime: u64,
    /// Addresses of the first ten file blocks.
    pub direct: [DiskAddr; NUM_DIRECT],
    /// Address of the single-indirect block.
    pub indirect: DiskAddr,
    /// Address of the double-indirect block.
    pub dindirect: DiskAddr,
}

impl Inode {
    /// A fresh inode with no blocks.
    pub fn new(ino: Ino, version: u32, ftype: FileType, now: u64) -> Inode {
        Inode {
            ino,
            version,
            ftype,
            mode: match ftype {
                FileType::Regular => 0o644,
                FileType::Directory => 0o755,
            },
            nlink: 1,
            size: 0,
            mtime: now,
            atime: now,
            ctime: now,
            direct: [NIL_ADDR; NUM_DIRECT],
            indirect: NIL_ADDR,
            dindirect: NIL_ADDR,
        }
    }

    /// Serializes the inode into `buf` (must be `INODE_DISK_SIZE` bytes).
    pub fn encode_into(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), INODE_DISK_SIZE);
        let mut w = Writer::new(buf);
        w.put_u32(self.ino);
        w.put_u32(self.version);
        w.put_u8(match self.ftype {
            FileType::Regular => 1,
            FileType::Directory => 2,
        });
        w.pad(1);
        w.put_u16(self.mode);
        w.put_u32(self.nlink);
        w.put_u64(self.size);
        w.put_u64(self.mtime);
        w.put_u64(self.atime);
        w.put_u64(self.ctime);
        for a in self.direct {
            w.put_u64(a);
        }
        w.put_u64(self.indirect);
        w.put_u64(self.dindirect);
    }

    /// Parses an inode; returns `None` for an unused slot (`ino == 0`).
    pub fn decode(buf: &[u8]) -> FsResult<Option<Inode>> {
        debug_assert_eq!(buf.len(), INODE_DISK_SIZE);
        let mut r = Reader::new(buf);
        let ino = r.get_u32();
        if ino == 0 {
            return Ok(None);
        }
        let version = r.get_u32();
        let ftype = match r.get_u8() {
            1 => FileType::Regular,
            2 => FileType::Directory,
            t => return Err(FsError::Corrupt(format!("inode {ino}: bad type {t}"))),
        };
        r.skip(1);
        let mode = r.get_u16();
        let nlink = r.get_u32();
        let size = r.get_u64();
        let mtime = r.get_u64();
        let atime = r.get_u64();
        let ctime = r.get_u64();
        let mut direct = [NIL_ADDR; NUM_DIRECT];
        for d in &mut direct {
            *d = r.get_u64();
        }
        let indirect = r.get_u64();
        let dindirect = r.get_u64();
        Ok(Some(Inode {
            ino,
            version,
            ftype,
            mode,
            nlink,
            size,
            mtime,
            atime,
            ctime,
            direct,
            indirect,
            dindirect,
        }))
    }

    /// Converts to the VFS metadata view.
    pub fn metadata(&self) -> vfs::Metadata {
        self.attrs().metadata()
    }

    /// Copies out just the scalar attributes, leaving the block-pointer
    /// arrays behind. The stat path and name resolution need only these.
    pub fn attrs(&self) -> InodeAttrs {
        InodeAttrs {
            ino: self.ino,
            version: self.version,
            ftype: self.ftype,
            mode: self.mode,
            nlink: self.nlink,
            size: self.size,
            mtime: self.mtime,
            atime: self.atime,
            ctime: self.ctime,
        }
    }
}

/// The scalar attributes of an inode — everything except the block
/// pointers. Cheap to copy where cloning a whole [`Inode`] (with its
/// ten-slot direct array and indirect addresses) would be waste.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InodeAttrs {
    /// Inode number.
    pub ino: Ino,
    /// Version number (see [`Inode::version`]).
    pub version: u32,
    /// Regular file or directory.
    pub ftype: FileType,
    /// Protection bits.
    pub mode: u16,
    /// Number of directory entries referring to this inode.
    pub nlink: u32,
    /// Size in bytes.
    pub size: u64,
    /// Last data modification time (logical time).
    pub mtime: u64,
    /// Last access time (logical time).
    pub atime: u64,
    /// Last inode change time (logical time).
    pub ctime: u64,
}

impl InodeAttrs {
    /// Converts to the VFS metadata view.
    pub fn metadata(&self) -> vfs::Metadata {
        vfs::Metadata {
            ino: self.ino,
            ftype: self.ftype,
            size: self.size,
            nlink: self.nlink,
            mode: self.mode,
            mtime: self.mtime,
            atime: self.atime,
            ctime: self.ctime,
        }
    }
}

/// An indirect block: a block-sized array of disk addresses.
///
/// Used both for single-indirect blocks (addresses of data blocks) and for
/// the double-indirect block (addresses of single-indirect blocks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndirectBlock {
    /// The pointer slots.
    pub ptrs: Box<[DiskAddr; PTRS_PER_BLOCK]>,
}

impl Default for IndirectBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl IndirectBlock {
    /// An indirect block with every slot empty.
    pub fn new() -> IndirectBlock {
        IndirectBlock {
            ptrs: Box::new([NIL_ADDR; PTRS_PER_BLOCK]),
        }
    }

    /// Serializes into a disk block.
    pub fn encode(&self) -> Box<[u8]> {
        let mut buf = vec![0u8; BLOCK_SIZE].into_boxed_slice();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes into a caller-provided block-sized buffer; see
    /// [`crate::summary::Summary::encode_into`].
    pub fn encode_into(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        for (i, p) in self.ptrs.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&p.to_le_bytes());
        }
    }

    /// Parses an indirect block from a raw disk block.
    pub fn decode(buf: &[u8]) -> IndirectBlock {
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        let mut b = IndirectBlock::new();
        for (i, p) in b.ptrs.iter_mut().enumerate() {
            *p = u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        }
        b
    }

    /// True if every slot is [`NIL_ADDR`].
    pub fn is_empty(&self) -> bool {
        self.ptrs.iter().all(|&p| p == NIL_ADDR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inode() -> Inode {
        let mut ino = Inode::new(42, 7, FileType::Regular, 1000);
        ino.size = 12345;
        ino.nlink = 2;
        ino.direct[0] = 100;
        ino.direct[9] = 900;
        ino.indirect = 1234;
        ino
    }

    #[test]
    fn inode_roundtrip() {
        let ino = sample_inode();
        let mut buf = [0u8; INODE_DISK_SIZE];
        ino.encode_into(&mut buf);
        assert_eq!(Inode::decode(&buf).unwrap().unwrap(), ino);
    }

    #[test]
    fn zero_slot_decodes_to_none() {
        let buf = [0u8; INODE_DISK_SIZE];
        assert!(Inode::decode(&buf).unwrap().is_none());
    }

    #[test]
    fn bad_file_type_is_corrupt() {
        let ino = sample_inode();
        let mut buf = [0u8; INODE_DISK_SIZE];
        ino.encode_into(&mut buf);
        buf[8] = 99; // The ftype byte.
        assert!(matches!(Inode::decode(&buf), Err(FsError::Corrupt(_))));
    }

    #[test]
    fn directory_roundtrip_preserves_type() {
        let ino = Inode::new(1, 0, FileType::Directory, 5);
        let mut buf = [0u8; INODE_DISK_SIZE];
        ino.encode_into(&mut buf);
        let back = Inode::decode(&buf).unwrap().unwrap();
        assert_eq!(back.ftype, FileType::Directory);
        assert_eq!(back.mode, 0o755);
    }

    #[test]
    fn inode_fits_in_disk_slot() {
        // Header 4+4+1+1+2+4 = 16, times 8+8+8+8 = 48, direct 80,
        // indirect 16 => 144 <= 256.
        let ino = sample_inode();
        let mut buf = [0u8; INODE_DISK_SIZE];
        ino.encode_into(&mut buf); // Would panic on overflow.
    }

    #[test]
    fn indirect_block_roundtrip() {
        let mut b = IndirectBlock::new();
        b.ptrs[0] = 1;
        b.ptrs[511] = u64::MAX - 1;
        let enc = b.encode();
        assert_eq!(IndirectBlock::decode(&enc), b);
    }

    #[test]
    fn fresh_indirect_block_is_empty() {
        assert!(IndirectBlock::new().is_empty());
        let mut b = IndirectBlock::new();
        b.ptrs[3] = 0;
        assert!(!b.is_empty());
    }

    #[test]
    fn attrs_match_metadata() {
        let ino = sample_inode();
        assert_eq!(ino.attrs().metadata(), ino.metadata());
        assert_eq!(ino.attrs().version, ino.version);
    }

    #[test]
    fn metadata_mirrors_inode_fields() {
        let ino = sample_inode();
        let m = ino.metadata();
        assert_eq!(m.ino, 42);
        assert_eq!(m.size, 12345);
        assert_eq!(m.nlink, 2);
        assert_eq!(m.ftype, FileType::Regular);
    }
}
