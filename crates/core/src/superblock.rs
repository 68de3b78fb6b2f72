//! The superblock: static configuration at a fixed disk location.
//!
//! As in the paper's Table 1, the superblock "holds static configuration
//! information such as number of segments and segment size" and never
//! changes after `format`. Note what it does *not* hold: no bitmap, no
//! free list — free space is managed entirely by the segment structure.

use blockdev::BLOCK_SIZE;
use vfs::{FsError, FsResult};

use crate::codec::{checksum, Reader, Writer};
use crate::layout::{DiskAddr, CR0_ADDR, CR1_ADDR, SEGMENTS_START};

const MAGIC: u64 = 0x4c46_5353_5052_3931; // "LFSSPR91"
/// On-disk format version. History: 1 = byte-wise FNV-1a checksums
/// (unreadable by this tree); 2 = checksum v2 ([`crate::codec::checksum`]),
/// byte layout unchanged; 3 = summaries carry a fence watermark and the
/// segments a cleaner pass releases (`summary.rs`), so a cleaned segment
/// is reused after a fence instead of a checkpoint; 4 = a regular file's
/// partial last block is a fragment that shares its log block with other
/// files' (`meta.rs`, `summary.rs`).
const VERSION: u32 = 4;

/// The on-disk superblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Segment size in blocks.
    pub seg_blocks: u32,
    /// Number of segments on the disk.
    pub nsegments: u32,
    /// Maximum number of inodes (sizes the inode map).
    pub max_inodes: u32,
    /// Total number of blocks on the device (sanity check at mount).
    pub device_blocks: u64,
}

impl Superblock {
    /// Computes the segment geometry for a device of `device_blocks`
    /// blocks, returning `None` if the device is too small to hold the
    /// fixed regions plus at least four segments.
    pub fn compute(device_blocks: u64, seg_blocks: u32, max_inodes: u32) -> Option<Superblock> {
        let usable = device_blocks.checked_sub(SEGMENTS_START)?;
        let nsegments = usable / seg_blocks as u64;
        if nsegments < 4 {
            return None;
        }
        Some(Superblock {
            seg_blocks,
            nsegments: u32::try_from(nsegments).ok()?,
            max_inodes,
            device_blocks,
        })
    }

    /// First disk block of segment `seg`.
    pub fn seg_start(&self, seg: u32) -> DiskAddr {
        SEGMENTS_START + seg as u64 * self.seg_blocks as u64
    }

    /// Maps a disk address to the segment containing it, or `None` for the
    /// fixed (non-log) region.
    pub fn seg_of(&self, addr: DiskAddr) -> Option<u32> {
        if addr < SEGMENTS_START {
            return None;
        }
        let seg = (addr - SEGMENTS_START) / self.seg_blocks as u64;
        (seg < self.nsegments as u64).then_some(seg as u32)
    }

    /// Disk addresses of the two checkpoint regions.
    pub fn checkpoint_addrs(&self) -> [DiskAddr; 2] {
        [CR0_ADDR, CR1_ADDR]
    }

    /// Serializes into a block-sized buffer.
    pub fn encode(&self) -> [u8; BLOCK_SIZE] {
        let mut buf = [0u8; BLOCK_SIZE];
        let mut w = Writer::new(&mut buf);
        w.put_u64(MAGIC);
        w.put_u32(VERSION);
        w.put_u32(self.seg_blocks);
        w.put_u32(self.nsegments);
        w.put_u32(self.max_inodes);
        w.put_u64(self.device_blocks);
        let end = w.pos();
        let sum = checksum(&buf[..end]);
        let mut w = Writer::new(&mut buf[end..]);
        w.put_u64(sum);
        buf
    }

    /// Parses and validates a superblock from a raw block.
    pub fn decode(buf: &[u8; BLOCK_SIZE]) -> FsResult<Superblock> {
        let mut r = Reader::new(buf);
        if r.get_u64() != MAGIC {
            return Err(FsError::Corrupt("superblock: bad magic".into()));
        }
        match r.get_u32() {
            VERSION => {}
            // Diagnosed before the checksum comparison: a v1 image sums
            // with the old function, and is old, not corrupt.
            1 => {
                return Err(FsError::Corrupt(
                    "superblock: on-disk format v1 (byte-wise checksums) is not \
                     supported; re-create the image with mklfs"
                        .into(),
                ))
            }
            2 => {
                return Err(FsError::Corrupt(
                    "superblock: on-disk format v2 (summaries without release lists) \
                     is not supported; re-create the image with mklfs"
                        .into(),
                ))
            }
            3 => {
                return Err(FsError::Corrupt(
                    "superblock: on-disk format v3 (no sub-block fragments) is not \
                     supported; re-create the image with mklfs"
                        .into(),
                ))
            }
            _ => return Err(FsError::Corrupt("superblock: bad version".into())),
        }
        let seg_blocks = r.get_u32();
        let nsegments = r.get_u32();
        let max_inodes = r.get_u32();
        let device_blocks = r.get_u64();
        let end = r.pos();
        let stored = r.get_u64();
        if checksum(&buf[..end]) != stored {
            return Err(FsError::Corrupt("superblock: bad checksum".into()));
        }
        if seg_blocks < 4 || nsegments == 0 || max_inodes < 2 {
            return Err(FsError::Corrupt("superblock: implausible geometry".into()));
        }
        Ok(Superblock {
            seg_blocks,
            nsegments,
            max_inodes,
            device_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Superblock {
        Superblock::compute(10_000, 16, 1024).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let sb = sample();
        let buf = sb.encode();
        assert_eq!(Superblock::decode(&buf).unwrap(), sb);
    }

    #[test]
    fn corrupting_any_byte_is_detected() {
        let sb = sample();
        let buf = sb.encode();
        for i in [0usize, 8, 12, 16, 20, 24] {
            let mut bad = buf;
            bad[i] ^= 0xff;
            assert!(Superblock::decode(&bad).is_err(), "byte {i} undetected");
        }
    }

    #[test]
    fn format_v1_is_diagnosed_as_old_not_corrupt() {
        let mut buf = sample().encode();
        buf[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = Superblock::decode(&buf).unwrap_err().to_string();
        assert!(err.contains("on-disk format v1"), "{err}");
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = Superblock::decode(&buf).unwrap_err().to_string();
        assert!(err.contains("on-disk format v2"), "{err}");
        buf[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = Superblock::decode(&buf).unwrap_err().to_string();
        assert!(err.contains("on-disk format v3"), "{err}");
        buf[8..12].copy_from_slice(&5u32.to_le_bytes());
        let err = Superblock::decode(&buf).unwrap_err().to_string();
        assert!(err.contains("bad version"), "{err}");
    }

    #[test]
    fn compute_rejects_tiny_devices() {
        assert!(Superblock::compute(SEGMENTS_START + 3 * 16, 16, 64).is_none());
        assert!(Superblock::compute(10, 16, 64).is_none());
    }

    #[test]
    fn segment_address_math_roundtrips() {
        let sb = sample();
        for seg in [0u32, 1, 5, sb.nsegments - 1] {
            let start = sb.seg_start(seg);
            assert_eq!(sb.seg_of(start), Some(seg));
            assert_eq!(sb.seg_of(start + sb.seg_blocks as u64 - 1), Some(seg));
        }
        assert_eq!(sb.seg_of(0), None);
        assert_eq!(sb.seg_of(SEGMENTS_START - 1), None);
    }

    #[test]
    fn seg_of_past_last_segment_is_none() {
        let sb = sample();
        let past = sb.seg_start(sb.nsegments - 1) + sb.seg_blocks as u64;
        assert_eq!(sb.seg_of(past), None);
    }
}
