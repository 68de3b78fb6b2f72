//! Sub-block fragments: a regular file's partial last block shares a log
//! block with other files' (DESIGN.md §7.3). What must hold: a file never
//! reads another file's bytes, past its end or after it grows; a power cut
//! while fragments move loses nothing a `sync` acknowledged; and `check`
//! refuses fragments that overlap or that no summary entry describes.

use blockdev::{BlockDevice, CrashDisk, MemDisk, BLOCK_SIZE};
use vfs::{FileSystem, Ino};

use crate::meta::Frag;
use crate::{Lfs, LfsConfig};

const KB: usize = 1024;

/// A 5 KB file and a 1 KB file written in one flush: the 5 KB file's
/// tail opens a fragment block right after its full block, and the 1 KB
/// file fills the rest of it. (A tail alone in its block is written as a
/// whole block.)
fn two_files<D: blockdev::QueueDevice>(fs: &mut Lfs<D>) -> (Ino, Ino) {
    let big = fs.create("/big").unwrap();
    let small = fs.create("/small").unwrap();
    fs.write(big, 0, &[0xb1; 5 * KB]).unwrap();
    fs.write(small, 0, &[0x5a; KB]).unwrap();
    fs.sync().unwrap();
    (big, small)
}

/// The fragment file block `bno` of `ino` is, if it is one.
fn frag_of<D: blockdev::QueueDevice>(fs: &mut Lfs<D>, ino: Ino, bno: u64) -> Option<Frag> {
    Frag::of(fs.block_ptr(ino, bno).unwrap())
}

/// Extends the 5 KB file by truncation and by a write at 7 KB, from a
/// cold cache: bytes 5 K..7 K read as zeros, never as the 1 KB file's.
fn extend_reads_zeros<D: blockdev::QueueDevice>(fs: &mut Lfs<D>, big: Ino, small: Ino) {
    fs.drop_caches();
    fs.truncate(big, 6 * KB as u64).unwrap();
    let back = fs.read_to_vec(big).unwrap();
    assert_eq!(back[..5 * KB], [0xb1; 5 * KB]);
    assert_eq!(back[5 * KB..], [0; KB], "truncate up shows foreign bytes");
    fs.sync().unwrap();
    fs.drop_caches();
    fs.write(big, 7 * KB as u64, &[0xc3; KB]).unwrap();
    fs.sync().unwrap();
    fs.drop_caches();
    let back = fs.read_to_vec(big).unwrap();
    assert_eq!(back.len(), 8 * KB);
    assert_eq!(back[..5 * KB], [0xb1; 5 * KB]);
    assert_eq!(
        back[5 * KB..7 * KB],
        [0; 2 * KB],
        "a write past EOF shows foreign bytes"
    );
    assert_eq!(back[7 * KB..], [0xc3; KB]);
    assert_eq!(fs.read_to_vec(small).unwrap(), [0x5a; KB]);
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "{:#?}", report.errors);
}

#[test]
fn the_tail_of_a_multi_block_file_opens_a_fragment_block_after_its_full_blocks() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    let (big, small) = two_files(&mut fs);
    let full = fs.block_ptr(big, 0).unwrap();
    let tail = frag_of(&mut fs, big, 1).expect("the 5 KB file's tail is a fragment");
    let other = frag_of(&mut fs, small, 0).expect("the 1 KB file is a fragment");
    assert_eq!((tail.block, tail.start, tail.len), (full + 1, 0, KB));
    assert_eq!((other.block, other.start, other.len), (full + 1, KB, KB));
    assert_eq!((fs.stats().fragments, fs.stats().fragment_blocks), (2, 1));
    // The big file is one read: its full block and the fragment block.
    fs.drop_caches();
    let reads = fs.device().stats().reads;
    fs.read_to_vec(big).unwrap();
    let inode_read = 1;
    assert_eq!(fs.device().stats().reads - reads, inode_read + 1);
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "{:#?}", report.errors);
}

/// A tail that shares its block with no other is written whole: it costs
/// the log the same, and its block has no room only the cleaner could win
/// back.
#[test]
fn a_tail_alone_in_its_block_is_a_whole_block() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    let ino = fs.write_file("/alone", &[3; 5 * KB]).unwrap();
    fs.sync().unwrap();
    assert_eq!(frag_of(&mut fs, ino, 1), None);
    assert_eq!((fs.stats().fragments, fs.stats().fragment_blocks), (0, 0));
    assert_eq!(fs.stats().padding_bytes, 3 * KB as u64);
}

#[test]
fn extending_a_file_past_its_fragment_reads_zeros() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    let (big, small) = two_files(&mut fs);
    extend_reads_zeros(&mut fs, big, small);
}

/// The same after a cleaner pass has moved the fragment block: the
/// staged fragments come back zero-padded, as their files' blocks.
#[test]
fn extending_a_file_past_a_cleaned_fragment_reads_zeros() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    let (big, small) = two_files(&mut fs);
    fs.checkpoint().unwrap();
    // Fill the segment so the log moves on and the victim is sealed.
    fs.write_file("/pad", &vec![7u8; 40 * BLOCK_SIZE]).unwrap();
    fs.checkpoint().unwrap();
    let before = frag_of(&mut fs, big, 1).unwrap();
    let victim = fs.sb.seg_of(before.block).unwrap();
    fs.drop_caches();
    fs.as_cleaner(|fs| fs.clean_segments(&[victim])).unwrap();
    let after = frag_of(&mut fs, big, 1).unwrap();
    assert_ne!(
        fs.sb.seg_of(after.block),
        Some(victim),
        "the fragment moved"
    );
    assert_eq!(frag_of(&mut fs, small, 0).unwrap().block, after.block);
    extend_reads_zeros(&mut fs, big, small);
}

/// A power cut at every write between a sync that wrote a fragment block
/// and the end of a later sync that moved the fragment again: each image
/// mounts clean and holds the last synced contents, or the newer ones
/// once their sync completed.
#[test]
fn a_power_cut_while_a_fragment_moves_loses_no_synced_byte() {
    let cfg = LfsConfig::small();
    let mut fs = Lfs::format(CrashDisk::new(2048), cfg).unwrap();
    let (big, small) = two_files(&mut fs);
    let first = fs.device().num_writes();
    let old_frag = frag_of(&mut fs, small, 0).unwrap();
    // The small file's tail grows: a new fragment, in a new block it
    // shares with another small file.
    fs.write(small, KB as u64, &[0x6b; KB]).unwrap();
    fs.write_file("/other", &[0x11; 1536]).unwrap();
    fs.sync().unwrap();
    let second = fs.device().num_writes();
    assert_ne!(frag_of(&mut fs, small, 0).unwrap(), old_frag);
    let mut newer = vec![0x5a; KB];
    newer.extend([0x6b; KB]);
    let disk = fs.into_device();
    for cut in first..=second {
        let mut fs = Lfs::mount(disk.image_after(cut).unwrap(), cfg).unwrap();
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "cut {cut}: {:#?}", report.errors);
        assert_eq!(fs.read_to_vec(big).unwrap(), [0xb1; 5 * KB], "cut {cut}");
        let got = fs.read_to_vec(small).unwrap();
        if cut == second {
            assert_eq!(got, newer, "cut {cut}");
        } else {
            assert!(
                got == [0x5a; KB] || got == newer,
                "cut {cut}: {} bytes",
                got.len()
            );
        }
    }
}

/// `check` refuses two fragments that overlap in one block.
#[test]
fn check_refuses_overlapping_fragments() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    let (big, small) = two_files(&mut fs);
    let tail = frag_of(&mut fs, big, 1).unwrap();
    // The big file's tail claims the small file's bytes too.
    let wide = Frag {
        len: 2 * KB,
        ..tail
    };
    fs.meta.set_ptr(big, 1, wide.ptr()).unwrap();
    let report = fs.check().unwrap();
    assert!(
        report.errors.iter().any(|e| e.contains("overlap")),
        "{:#?}",
        report.errors
    );
    let _ = small;
}

/// `check` refuses a fragment pointer no summary entry describes.
#[test]
fn check_refuses_a_fragment_without_its_entry() {
    let mut fs = Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap();
    let (_, small) = two_files(&mut fs);
    let frag = frag_of(&mut fs, small, 0).unwrap();
    // Bytes of the block no fragment entry names.
    let moved = Frag {
        start: 2 * KB,
        ..frag
    };
    fs.meta.set_ptr(small, 0, moved.ptr()).unwrap();
    let report = fs.check().unwrap();
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("no fragment entry")),
        "{:#?}",
        report.errors
    );
}
