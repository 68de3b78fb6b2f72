//! Property tests for every on-disk structure: arbitrary values roundtrip
//! bit-exactly, and corrupted bytes never decode into silently-wrong
//! values for the checksummed structures.

use lfs_core::checkpoint::Checkpoint;
use lfs_core::dirlog::{decode_block, encode_records, DirLogRecord, DirOp};
use lfs_core::inode::{IndirectBlock, Inode, INODE_DISK_SIZE};
use lfs_core::summary::{capacity, EntryKind, Summary, SummaryEntry, MAX_SUMMARY_ENTRIES};
use lfs_core::{ptr_block, ptr_bytes, Frag, FRAG_ALIGN, NIL_ADDR};
use proptest::prelude::*;
use vfs::FileType;

fn arb_inode() -> impl Strategy<Value = Inode> {
    (
        1u32..1_000_000,
        0u32..100,
        prop_oneof![Just(FileType::Regular), Just(FileType::Directory)],
        1u32..1000,
        0u64..1 << 40,
        proptest::collection::vec(prop_oneof![Just(NIL_ADDR), (0u64..1 << 30)], 10),
        prop_oneof![Just(NIL_ADDR), (0u64..1 << 30)],
        prop_oneof![Just(NIL_ADDR), (0u64..1 << 30)],
    )
        .prop_map(
            |(ino, version, ftype, nlink, size, direct, indirect, dindirect)| {
                let mut i = Inode::new(ino, version, ftype, 12345);
                i.nlink = nlink;
                i.size = size;
                i.direct.copy_from_slice(&direct);
                i.indirect = indirect;
                i.dindirect = dindirect;
                i
            },
        )
}

fn arb_entry() -> impl Strategy<Value = SummaryEntry> {
    (
        prop_oneof![
            Just(EntryKind::Data),
            Just(EntryKind::Indirect1),
            Just(EntryKind::Indirect2),
            Just(EntryKind::InodeBlock),
            Just(EntryKind::ImapBlock),
            Just(EntryKind::UsageBlock),
            Just(EntryKind::DirLog),
        ],
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(kind, ino, offset, version, mtime, csum)| SummaryEntry {
            kind,
            csum,
            ..SummaryEntry::data(ino, offset, version, mtime)
        })
}

/// A fragment block's entry and the entries of the fragments it holds,
/// each at an aligned start with an aligned length inside the block.
fn arb_fragment_block() -> impl Strategy<Value = Vec<SummaryEntry>> {
    let frag = (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
        0usize..64,
        1usize..=64,
        any::<u32>(),
    );
    (any::<u64>(), proptest::collection::vec(frag, 1..8)).prop_map(|(mtime, frags)| {
        let mut out = vec![SummaryEntry::meta(EntryKind::FragBlock, 0, mtime)];
        for (file, start, len, csum) in frags {
            let len = len.min(64 - start).max(1);
            let (start, len) = (start.min(63) * FRAG_ALIGN, len * FRAG_ALIGN);
            out.push(SummaryEntry::fragment(file, start, len, csum));
        }
        out
    })
}

fn arb_dirlog_record() -> impl Strategy<Value = DirLogRecord> {
    (
        prop_oneof![
            Just(DirOp::Create),
            Just(DirOp::Link),
            Just(DirOp::Unlink),
            Just(DirOp::Rename),
            Just(DirOp::Mkdir),
            Just(DirOp::Rmdir),
        ],
        1u32..10_000,
        "[a-zA-Z0-9._-]{1,64}",
        1u32..10_000,
        0u32..100,
        0u32..50,
        1u32..10_000,
        "[a-zA-Z0-9._-]{0,64}",
    )
        .prop_map(
            |(op, dir, name, ino, nlink, version, dir2, name2)| DirLogRecord {
                op,
                dir,
                name,
                ino,
                nlink,
                version,
                dir2,
                name2,
            },
        )
}

proptest! {
    #[test]
    fn inode_roundtrips(inode in arb_inode()) {
        let mut buf = [0u8; INODE_DISK_SIZE];
        inode.encode_into(&mut buf);
        let back = Inode::decode(&buf).unwrap().unwrap();
        prop_assert_eq!(back, inode);
    }

    #[test]
    fn indirect_block_roundtrips(
        ptrs in proptest::collection::vec(any::<u64>(), 512)
    ) {
        let mut b = IndirectBlock::new();
        b.ptrs.copy_from_slice(&ptrs);
        let enc = b.encode();
        prop_assert_eq!(IndirectBlock::decode(&enc), b);
    }

    #[test]
    fn summary_roundtrips(
        epoch in any::<u32>(),
        seq in 1u64..u64::MAX,
        write_time in any::<u64>(),
        watermark in any::<u64>(),
        entries in proptest::collection::vec(arb_entry(), 0..=MAX_SUMMARY_ENTRIES),
        released in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        // Full chunks included: as many entries as fit beside the list.
        let mut entries = entries;
        entries.truncate(capacity(released.len()));
        let s = Summary { epoch, seq, write_time, watermark, entries, released };
        let enc = s.encode();
        prop_assert_eq!(Summary::decode(&enc).unwrap(), s);
    }

    /// Fragment entries round-trip among other entries, and only the
    /// block entries count as blocks.
    #[test]
    fn summary_with_fragment_blocks_roundtrips(
        groups in proptest::collection::vec(
            prop_oneof![arb_entry().prop_map(|e| vec![e]), arb_fragment_block()],
            0..40,
        ),
    ) {
        let mut entries: Vec<SummaryEntry> = groups.concat();
        entries.truncate(MAX_SUMMARY_ENTRIES);
        let s = Summary { epoch: 1, seq: 2, write_time: 3, watermark: 1, entries, released: vec![] };
        let back = Summary::decode(&s.encode()).unwrap();
        let frags = s.entries.iter().filter(|e| e.kind == EntryKind::Fragment).count();
        prop_assert_eq!(back.block_count(), s.entries.len() - frags);
        prop_assert_eq!(back.blocks().count(), back.block_count());
        prop_assert_eq!(back, s);
    }

    /// A fragment pointer names its block, start and length and nothing
    /// else decodes as one: not a whole-block address, not `NIL_ADDR`.
    #[test]
    fn fragment_pointer_roundtrips(
        block in 0u64..1 << 40,
        start in 0usize..64,
        len in 1usize..=64,
    ) {
        let len = len.min(64 - start.min(63)).max(1);
        let frag = Frag { block, start: start.min(63) * FRAG_ALIGN, len: len * FRAG_ALIGN };
        let ptr = frag.ptr();
        prop_assert_eq!(Frag::of(ptr), Some(frag));
        prop_assert_eq!((ptr_block(ptr), ptr_bytes(ptr)), (block, frag.len));
        prop_assert_eq!(Frag::of(block), None);
        prop_assert_eq!((ptr_block(block), ptr_bytes(block)), (block, 4096));
        prop_assert_eq!(Frag::of(NIL_ADDR), None);
    }

    #[test]
    fn summary_detects_any_single_byte_corruption_in_payload(
        entries in proptest::collection::vec(arb_entry(), 1..20),
        corrupt_at in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let released = vec![5, 3];
        let s = Summary { epoch: 3, seq: 9, write_time: 7, watermark: 8, entries, released };
        let mut enc = s.encode();
        let payload_len = 48 + s.entries.len() * 28 + s.released.len() * 4;
        let idx = corrupt_at.index(payload_len);
        enc[idx] ^= flip;
        // Either decoding fails, or (for a flip that only touches fields
        // outside the checksum — impossible here) the value differs.
        match Summary::decode(&enc) {
            Err(_) => {}
            Ok(back) => prop_assert_ne!(back, s),
        }
    }

    #[test]
    fn checksum_always_detects_a_change_confined_to_one_word(
        data in proptest::collection::vec(any::<u8>(), 1..300),
        at in any::<proptest::sample::Index>(),
        delta in 1u64..=u64::MAX,
    ) {
        // Any burst inside one aligned 8-byte word (the last may be
        // partial) changes the sum — a guarantee, not a probability.
        let word = at.index(data.len()) / 8 * 8;
        let mut bad = data.clone();
        let mut changed = false;
        for (b, d) in bad[word..].iter_mut().take(8).zip(delta.to_le_bytes()) {
            *b ^= d;
            changed |= d != 0;
        }
        if changed {
            prop_assert_ne!(lfs_core::checksum(&bad), lfs_core::checksum(&data));
        }
    }

    #[test]
    fn checksum_distinguishes_zero_extension(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        pad in 1usize..100,
    ) {
        let mut extended = data.clone();
        extended.resize(data.len() + pad, 0);
        prop_assert_ne!(lfs_core::checksum(&extended), lfs_core::checksum(&data));
    }

    #[test]
    fn checkpoint_roundtrips(
        epoch in any::<u32>(),
        seq in any::<u64>(),
        timestamp in any::<u64>(),
        cur_seg in any::<u32>(),
        cur_off in any::<u32>(),
        extra_write_points in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        imap_addrs in proptest::collection::vec(any::<u64>(), 0..50),
        usage_addrs in proptest::collection::vec(any::<u64>(), 0..20),
        live_bytes in proptest::collection::vec(any::<u32>(), 0..100),
    ) {
        let cp = Checkpoint {
            epoch, seq, timestamp, cur_seg, cur_off, extra_write_points,
            imap_addrs, usage_addrs, live_bytes,
        };
        let enc = cp.encode().unwrap();
        prop_assert_eq!(Checkpoint::decode(&enc).unwrap(), cp);
    }

    #[test]
    fn dirlog_records_roundtrip(
        records in proptest::collection::vec(arb_dirlog_record(), 0..120)
    ) {
        let blocks = encode_records(&records);
        let mut back = Vec::new();
        for b in &blocks {
            back.extend(decode_block(b).unwrap());
        }
        prop_assert_eq!(back, records);
    }
}
