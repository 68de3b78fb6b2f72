//! Checkpoint regions.
//!
//! "A checkpoint is a position in the log at which all of the file system
//! structures are consistent and complete. ... there are actually two
//! checkpoint regions, and checkpoint operations alternate between them"
//! (§4.1). The region contains the addresses of all the blocks in the
//! inode map and segment usage table, plus the current time and a pointer
//! to the last segment written.
//!
//! Validity is established with a checksum over the whole payload rather
//! than just a trailing timestamp; the effect is the same as the paper's
//! "time in the last block" trick — a torn checkpoint write fails
//! validation and reboot falls back to the other region — but it also
//! catches arbitrary partial writes. The header block is written *after*
//! the payload blocks so the checksum can never cover data that is not yet
//! on disk.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use blockdev::{BlockDevice, WriteKind, BLOCK_SIZE};
use vfs::{FsError, FsResult};

use crate::codec::{checksum, Reader, Writer};
use crate::layout::{DiskAddr, CR_BLOCKS};
use crate::ordering::CheckpointReady;

const MAGIC: u64 = 0x4c46_5343_4850_5431; // "LFSCHPT1"
const HEADER_SIZE: usize = 64;

/// The contents of a checkpoint region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Mount epoch; incremented at every mount so roll-forward never
    /// follows a log tail left by an earlier incarnation.
    pub epoch: u32,
    /// Log sequence number of the last partial write covered by this
    /// checkpoint.
    pub seq: u64,
    /// Logical clock at checkpoint time (the paper's "current time").
    pub timestamp: u64,
    /// Segment the log head was in (shard 0's write point on a
    /// multi-volume set).
    pub cur_seg: u32,
    /// Next free block offset within that segment.
    pub cur_off: u32,
    /// Write points of shards 1.. on a multi-volume set, as
    /// `(segment, next free offset)` pairs. Empty on a single volume,
    /// which keeps the encoding byte-identical to the single-volume
    /// format: the pair count lives in a header field that was
    /// previously written as a reserved zero.
    pub extra_write_points: Vec<(u32, u32)>,
    /// Addresses of every inode-map block.
    pub imap_addrs: Vec<DiskAddr>,
    /// Addresses of every segment-usage-table block.
    pub usage_addrs: Vec<DiskAddr>,
    /// Exact live-byte count of every segment at checkpoint time.
    ///
    /// The usage-table *blocks* in the log may be slightly stale for the
    /// segments they themselves landed in (their own relocation is
    /// accounted quietly to keep the checkpoint settle loop finite); the
    /// checkpoint carries the authoritative counts so a mount restores
    /// exactly the state the running system had.
    pub live_bytes: Vec<u32>,
}

impl Checkpoint {
    /// The addresses of the inode-map and usage-table blocks the region
    /// names.
    pub(crate) fn map_addrs(&self) -> impl Iterator<Item = DiskAddr> + '_ {
        self.imap_addrs.iter().chain(&self.usage_addrs).copied()
    }

    /// Serialized payload size in bytes.
    fn payload_len(&self) -> usize {
        HEADER_SIZE
            + 8 * (self.imap_addrs.len() + self.usage_addrs.len())
            + 4 * self.live_bytes.len()
            + 8 * self.extra_write_points.len()
            + 8
    }

    /// Serializes the checkpoint into whole blocks.
    ///
    /// Returns an error if the payload exceeds the fixed region size
    /// ([`CR_BLOCKS`] blocks) — which would mean the file system was
    /// formatted with an impossibly large inode map.
    pub fn encode(&self) -> FsResult<Vec<u8>> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serializes into a caller-provided buffer, reusing its allocation
    /// (the flush scratch pool); the buffer is cleared and refilled with
    /// exactly the bytes [`Checkpoint::encode`] would return.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> FsResult<()> {
        let len = self.payload_len();
        let padded = len.div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
        if padded > (CR_BLOCKS as usize) * BLOCK_SIZE {
            return Err(FsError::InvalidArgument(
                "checkpoint payload exceeds checkpoint region",
            ));
        }
        buf.clear();
        buf.resize(padded, 0);
        {
            let mut w = Writer::new(buf);
            w.put_u64(MAGIC);
            w.put_u32(self.epoch);
            // Extra write-point count: zero on a single volume, which is
            // exactly the reserved field older checkpoints wrote.
            w.put_u32(self.extra_write_points.len() as u32);
            w.put_u64(self.seq);
            w.put_u64(self.timestamp);
            w.put_u32(self.cur_seg);
            w.put_u32(self.cur_off);
            w.put_u32(self.imap_addrs.len() as u32);
            w.put_u32(self.usage_addrs.len() as u32);
            w.put_u32(self.live_bytes.len() as u32);
            w.put_u64(len as u64);
            // Bytes 60..64 stay reserved zero (see `decode`).
            w.pad(HEADER_SIZE - w.pos());
            for &a in &self.imap_addrs {
                w.put_u64(a);
            }
            for &a in &self.usage_addrs {
                w.put_u64(a);
            }
            for &l in &self.live_bytes {
                w.put_u32(l);
            }
            for &(seg, off) in &self.extra_write_points {
                w.put_u32(seg);
                w.put_u32(off);
            }
        }
        let sum = checksum(&buf[..len - 8]);
        buf[len - 8..len].copy_from_slice(&sum.to_le_bytes());
        Ok(())
    }

    /// All write points the checkpoint records, shard 0's first — the
    /// `(segment, next free offset)` log heads a mount must restore.
    pub fn write_points(&self) -> Vec<(u32, u32)> {
        let mut wps = Vec::with_capacity(1 + self.extra_write_points.len());
        wps.push((self.cur_seg, self.cur_off));
        wps.extend_from_slice(&self.extra_write_points);
        wps
    }

    /// Parses and validates a checkpoint region image.
    pub fn decode(buf: &[u8]) -> FsResult<Checkpoint> {
        if buf.len() < HEADER_SIZE {
            return Err(FsError::Corrupt("checkpoint: region too small".into()));
        }
        let mut r = Reader::new(buf);
        if r.get_u64() != MAGIC {
            return Err(FsError::Corrupt("checkpoint: bad magic".into()));
        }
        let epoch = r.get_u32();
        let n_extra_wp = r.get_u32() as usize;
        let seq = r.get_u64();
        let timestamp = r.get_u64();
        let cur_seg = r.get_u32();
        let cur_off = r.get_u32();
        let n_imap = r.get_u32() as usize;
        let n_usage = r.get_u32() as usize;
        let n_live = r.get_u32() as usize;
        let len = r.get_u64() as usize;
        let reserved = r.get_u32();
        if len > buf.len() || len < HEADER_SIZE + 8 {
            return Err(FsError::Corrupt("checkpoint: bad length".into()));
        }
        let mut stored_bytes = [0u8; 8];
        stored_bytes.copy_from_slice(&buf[len - 8..len]);
        let stored = u64::from_le_bytes(stored_bytes);
        if checksum(&buf[..len - 8]) != stored {
            return Err(FsError::Corrupt("checkpoint: bad checksum".into()));
        }
        // Bytes 60..64 once counted a per-inode heat snapshot, which only
        // a file system with several temperature-keyed write streams per
        // shard wrote. Streams are gone: refuse such an image by name.
        if reserved != 0 {
            return Err(FsError::Corrupt(
                "checkpoint: multi-stream heat snapshot; temperature-keyed write \
                 streams were removed, re-create the image with mklfs"
                    .into(),
            ));
        }
        if len != HEADER_SIZE + 8 * (n_imap + n_usage) + 4 * n_live + 8 * n_extra_wp + 8 {
            return Err(FsError::Corrupt("checkpoint: bad length".into()));
        }
        r.skip(HEADER_SIZE - r.pos());
        let mut imap_addrs = Vec::with_capacity(n_imap);
        for _ in 0..n_imap {
            imap_addrs.push(r.get_u64());
        }
        let mut usage_addrs = Vec::with_capacity(n_usage);
        for _ in 0..n_usage {
            usage_addrs.push(r.get_u64());
        }
        let mut live_bytes = Vec::with_capacity(n_live);
        for _ in 0..n_live {
            live_bytes.push(r.get_u32());
        }
        let mut extra_write_points = Vec::with_capacity(n_extra_wp);
        for _ in 0..n_extra_wp {
            let seg = r.get_u32();
            let off = r.get_u32();
            extra_write_points.push((seg, off));
        }
        Ok(Checkpoint {
            epoch,
            seq,
            timestamp,
            cur_seg,
            cur_off,
            extra_write_points,
            imap_addrs,
            usage_addrs,
            live_bytes,
        })
    }

    /// Writes this checkpoint to the region starting at `region_addr`,
    /// consuming the [`CheckpointReady`] proof that an ordering barrier
    /// has drained every log write the checkpoint claims to cover.
    ///
    /// This is the only entry point the running file system uses; the
    /// typestate chain in [`crate::ordering`] makes writing a region
    /// before its log is durable a compile error rather than a crash bug.
    /// Payload blocks go first, the header block last, so a crash anywhere
    /// in between leaves a region that fails validation.
    pub fn write_ordered<D: BlockDevice>(
        &self,
        dev: &mut D,
        region_addr: DiskAddr,
        ready: CheckpointReady,
    ) -> FsResult<()> {
        let _proof_consumed = ready;
        self.write_to(dev, region_addr)
    }

    /// Writes this checkpoint to the region starting at `region_addr`.
    ///
    /// Payload blocks go first, the header block last, so a crash anywhere
    /// in between leaves a region that fails validation.
    ///
    /// This is the *raw* escape hatch — it demands no ordering proof, and
    /// exists for formatting (no prior log to fence) and for
    /// fault-injection tests that deliberately construct ill-ordered
    /// images. Runtime checkpointing goes through
    /// [`Checkpoint::write_ordered`].
    pub fn write_to<D: BlockDevice>(&self, dev: &mut D, region_addr: DiskAddr) -> FsResult<()> {
        let buf = self.encode()?;
        let nblocks = buf.len() / BLOCK_SIZE;
        if nblocks > 1 {
            dev.write_blocks(region_addr + 1, &buf[BLOCK_SIZE..], WriteKind::Sync)
                .map_err(FsError::device)?;
        }
        dev.write_blocks(region_addr, &buf[..BLOCK_SIZE], WriteKind::Sync)
            .map_err(FsError::device)?;
        Ok(())
    }

    /// Reads and validates the checkpoint at `region_addr`.
    pub fn read_from<D: BlockDevice>(dev: &mut D, region_addr: DiskAddr) -> FsResult<Checkpoint> {
        let mut buf = vec![0u8; (CR_BLOCKS as usize) * BLOCK_SIZE];
        dev.read_blocks(region_addr, &mut buf)
            .map_err(FsError::device)?;
        Checkpoint::decode(&buf)
    }

    /// Reads both regions and returns the valid one with the highest
    /// sequence number, along with which region index (0 or 1) it came
    /// from. Errors only if *neither* region is valid.
    pub fn read_latest<D: BlockDevice>(
        dev: &mut D,
        regions: [DiskAddr; 2],
    ) -> FsResult<(Checkpoint, usize)> {
        let a = Checkpoint::read_from(dev, regions[0]);
        let b = Checkpoint::read_from(dev, regions[1]);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                if a.seq >= b.seq {
                    Ok((a, 0))
                } else {
                    Ok((b, 1))
                }
            }
            (Ok(a), Err(_)) => Ok((a, 0)),
            (Err(_), Ok(b)) => Ok((b, 1)),
            (Err(e), Err(_)) => Err(e),
        }
    }

    /// Reads both regions and returns every *valid* checkpoint, newest
    /// (highest `seq`, then highest epoch) first, each paired with its
    /// region index.
    ///
    /// Mount tries candidates in this order: if the newest checkpoint is
    /// internally consistent but describes impossible geometry (a torn or
    /// rotted region that still checksums, or cross-written garbage),
    /// mount falls back to the next candidate instead of failing — the
    /// alternating-region discipline of §4.1 extended to arbitrary
    /// corruption, not just torn header blocks.
    pub fn read_candidates<D: BlockDevice>(
        dev: &mut D,
        regions: [DiskAddr; 2],
    ) -> Vec<(Checkpoint, usize)> {
        let mut found: Vec<(Checkpoint, usize)> = Vec::new();
        for (i, &addr) in regions.iter().enumerate() {
            if let Ok(cp) = Checkpoint::read_from(dev, addr) {
                found.push((cp, i));
            }
        }
        // Newest first. A mount's checkpoint that wrote nothing to the
        // log shares its sequence number with the one it loaded; its
        // newer epoch decides, or the next mount would follow the old
        // epoch and miss every chunk written since.
        found.sort_by_key(|c| std::cmp::Reverse((c.0.seq, c.0.epoch)));
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{CR0_ADDR, CR1_ADDR};
    use blockdev::MemDisk;

    fn sample(seq: u64) -> Checkpoint {
        Checkpoint {
            epoch: 2,
            seq,
            timestamp: 1234,
            cur_seg: 3,
            cur_off: 17,
            extra_write_points: vec![],
            imap_addrs: vec![100, 101, 102],
            usage_addrs: vec![200],
            live_bytes: vec![7, 0, 4096],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cp = sample(9);
        let buf = cp.encode().unwrap();
        assert_eq!(Checkpoint::decode(&buf).unwrap(), cp);
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let cp = sample(9);
        let buf = cp.encode().unwrap();
        // Only bytes inside the payload are protected; the rest of the
        // region is padding.
        let payload_len = HEADER_SIZE + 8 * (3 + 1) + 8;
        for i in (0..payload_len).step_by(13) {
            let mut bad = buf.clone();
            bad[i] ^= 0x80;
            assert!(Checkpoint::decode(&bad).is_err(), "byte {i} undetected");
        }
    }

    #[test]
    fn write_read_via_device() {
        let mut dev = MemDisk::new(CR1_ADDR + CR_BLOCKS + 10);
        let cp = sample(5);
        cp.write_to(&mut dev, CR0_ADDR).unwrap();
        let back = Checkpoint::read_from(&mut dev, CR0_ADDR).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn read_latest_prefers_higher_seq() {
        let mut dev = MemDisk::new(CR1_ADDR + CR_BLOCKS + 10);
        sample(5).write_to(&mut dev, CR0_ADDR).unwrap();
        sample(8).write_to(&mut dev, CR1_ADDR).unwrap();
        let (cp, idx) = Checkpoint::read_latest(&mut dev, [CR0_ADDR, CR1_ADDR]).unwrap();
        assert_eq!(cp.seq, 8);
        assert_eq!(idx, 1);
    }

    #[test]
    fn read_latest_survives_one_torn_region() {
        let mut dev = MemDisk::new(CR1_ADDR + CR_BLOCKS + 10);
        sample(5).write_to(&mut dev, CR0_ADDR).unwrap();
        // Region B contains garbage.
        let junk = vec![0xffu8; BLOCK_SIZE];
        blockdev::BlockDevice::write_blocks(&mut dev, CR1_ADDR, &junk, WriteKind::Sync).unwrap();
        let (cp, idx) = Checkpoint::read_latest(&mut dev, [CR0_ADDR, CR1_ADDR]).unwrap();
        assert_eq!(cp.seq, 5);
        assert_eq!(idx, 0);
    }

    #[test]
    fn read_latest_fails_when_both_invalid() {
        let mut dev = MemDisk::new(CR1_ADDR + CR_BLOCKS + 10);
        assert!(Checkpoint::read_latest(&mut dev, [CR0_ADDR, CR1_ADDR]).is_err());
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let cp = Checkpoint {
            epoch: 0,
            seq: 0,
            timestamp: 0,
            cur_seg: 0,
            cur_off: 0,
            extra_write_points: vec![],
            imap_addrs: vec![0; (CR_BLOCKS as usize) * BLOCK_SIZE / 8],
            usage_addrs: vec![],
            live_bytes: vec![],
        };
        assert!(cp.encode().is_err());
    }

    #[test]
    fn empty_address_lists_roundtrip() {
        let cp = Checkpoint {
            epoch: 1,
            seq: 1,
            timestamp: 1,
            cur_seg: 0,
            cur_off: 0,
            extra_write_points: vec![],
            imap_addrs: vec![],
            usage_addrs: vec![],
            live_bytes: vec![],
        };
        let buf = cp.encode().unwrap();
        assert_eq!(Checkpoint::decode(&buf).unwrap(), cp);
    }

    /// Bytes 60..64 are reserved zero. A multi-stream image counted its
    /// heat snapshot there: such a region, checksum and all, is refused
    /// by name rather than mounted.
    #[test]
    fn multi_stream_heat_snapshot_is_refused() {
        let mut buf = sample(9).encode().unwrap();
        assert_eq!(&buf[60..64], &[0u8; 4]);
        // One (ino, heat) pair after the live bytes, counted and checksummed.
        let len = HEADER_SIZE + 8 * (3 + 1) + 4 * 3 + 8;
        let heat_len = len + 8;
        buf[52..60].copy_from_slice(&(heat_len as u64).to_le_bytes());
        buf[60..64].copy_from_slice(&1u32.to_le_bytes());
        buf[len - 8..len].copy_from_slice(&[7, 0, 0, 0, 0, 0, 3, 0]);
        let sum = checksum(&buf[..heat_len - 8]);
        buf[heat_len - 8..heat_len].copy_from_slice(&sum.to_le_bytes());
        match Checkpoint::decode(&buf) {
            Err(FsError::Corrupt(msg)) => assert!(msg.contains("multi-stream"), "{msg}"),
            other => panic!("a multi-stream checkpoint decoded: {other:?}"),
        }
    }

    #[test]
    fn extra_write_points_roundtrip() {
        let mut cp = sample(11);
        cp.extra_write_points = vec![(4, 9), (5, 0), (6, 15)];
        let buf = cp.encode().unwrap();
        let back = Checkpoint::decode(&buf).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.write_points(), vec![(3, 17), (4, 9), (5, 0), (6, 15)]);
    }

    #[test]
    fn single_volume_encoding_matches_reserved_zero_format() {
        // A checkpoint with no extra write points must serialize exactly
        // as the pre-multi-volume format did: the count occupies what was
        // a reserved zero at header offset 12, and no pairs follow the
        // live-byte vector.
        let cp = sample(9);
        let buf = cp.encode().unwrap();
        assert_eq!(&buf[12..16], &[0u8; 4]);
        let payload_len = HEADER_SIZE + 8 * (3 + 1) + 4 * 3 + 8;
        assert_eq!(
            u64::from_le_bytes(buf[52..60].try_into().unwrap()) as usize,
            payload_len,
            "header length field must not grow for a single volume"
        );
    }

    #[test]
    fn tampered_extra_write_point_is_detected() {
        let mut cp = sample(7);
        cp.extra_write_points = vec![(4, 2)];
        let buf = cp.encode().unwrap();
        let payload_len = HEADER_SIZE + 8 * (3 + 1) + 4 * 3 + 8 + 8;
        let mut bad = buf.clone();
        bad[payload_len - 16] ^= 0x01; // first byte of the (seg, off) pair
        assert!(Checkpoint::decode(&bad).is_err());
    }
}
