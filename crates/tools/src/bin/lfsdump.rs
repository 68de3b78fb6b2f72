//! `lfsdump` — inspect an LFS disk image: superblock, checkpoint regions,
//! segment summaries, segment states, and the directory tree.
//!
//! Usage: `lfsdump <image-path> [--summaries] [--segments] [--tree] [--histogram]`
//!
//! `--summaries` walks each segment's chain of summary blocks before the
//! mount and prints every partial write: its sequence number and epoch,
//! the blocks it carries, its fence watermark, and the segments a cleaner
//! pass released with it.

use blockdev::{BlockDevice, FileDisk, BLOCK_SIZE};
use lfs_core::checkpoint::Checkpoint;
use lfs_core::summary::Summary;
use lfs_core::superblock::Superblock;
use lfs_core::usage::SegState;
use lfs_core::{Lfs, LfsConfig};
use vfs::{FileSystem, FsError};

/// Exit code for a structurally corrupt image (vs. 1 for I/O errors).
const EXIT_CORRUPT: i32 = 2;

fn exit_for(e: &FsError) -> i32 {
    match e {
        FsError::Corrupt(_) => EXIT_CORRUPT,
        _ => 1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 {
        eprintln!("usage: lfsdump <image-path> [--summaries] [--segments] [--tree] [--histogram]");
        std::process::exit(2);
    }
    let path = &args[1];
    let show_summaries = args.iter().any(|a| a == "--summaries");
    let show_segments = args.iter().any(|a| a == "--segments");
    let show_tree = args.iter().any(|a| a == "--tree");
    let show_histogram = args.iter().any(|a| a == "--histogram");

    let mut disk = FileDisk::open(path).unwrap_or_else(|e| {
        eprintln!("lfsdump: cannot open {path}: {e}");
        std::process::exit(1);
    });

    // Superblock.
    let mut buf = [0u8; BLOCK_SIZE];
    if let Err(e) = disk.read_block(0, &mut buf) {
        eprintln!("lfsdump: cannot read superblock: {e}");
        std::process::exit(1);
    }
    let sb = match Superblock::decode(&buf) {
        Ok(sb) => sb,
        Err(e) => {
            eprintln!("lfsdump: {e}");
            std::process::exit(exit_for(&e));
        }
    };
    println!("superblock:");
    println!(
        "  segments:      {} x {} KB",
        sb.nsegments,
        sb.seg_blocks * 4
    );
    println!("  max inodes:    {}", sb.max_inodes);
    println!("  device blocks: {}", sb.device_blocks);

    // Checkpoint regions.
    for (i, addr) in sb.checkpoint_addrs().iter().enumerate() {
        match Checkpoint::read_from(&mut disk, *addr) {
            Ok(cp) => println!(
                "checkpoint {i}: seq {} epoch {} time {} log head seg {} off {} ({} imap blocks, {} usage blocks)",
                cp.seq, cp.epoch, cp.timestamp, cp.cur_seg, cp.cur_off,
                cp.imap_addrs.len(), cp.usage_addrs.len()
            ),
            Err(e) => println!("checkpoint {i}: INVALID ({e})"),
        }
    }

    if show_summaries {
        println!("\nsummaries:");
        for seg in 0..sb.nsegments {
            print_summaries(&mut disk, &sb, seg);
        }
        println!();
    }

    // Mount (read-only interrogation).
    let mut fs = Lfs::mount(disk, LfsConfig::default()).unwrap_or_else(|e| {
        eprintln!("lfsdump: mount failed: {e}");
        std::process::exit(exit_for(&e));
    });
    let s = fs.statfs().unwrap_or_else(|e| {
        eprintln!("lfsdump: statfs failed: {e}");
        std::process::exit(exit_for(&e));
    });
    println!(
        "mounted: {} files, {:.1} MB live ({:.0}% of {:.0} MB)",
        s.num_files,
        s.live_bytes as f64 / (1 << 20) as f64,
        s.utilization() * 100.0,
        s.total_bytes as f64 / (1 << 20) as f64
    );

    if show_segments {
        println!("\nsegments:");
        for (i, (state, u)) in fs.segment_snapshot().into_iter().enumerate() {
            let tag = match state {
                SegState::Clean => "clean",
                SegState::Active => "ACTIVE",
                SegState::Dirty => "dirty",
                SegState::PendingFree => "pending-free",
            };
            println!("  seg {i:4}  {tag:12}  u={u:.3}");
        }
    }

    if show_histogram {
        // The Figure 10 view of this image: utilization distribution.
        let snap = fs.segment_snapshot();
        const BUCKETS: usize = 10;
        let mut counts = [0usize; BUCKETS];
        let mut clean = 0usize;
        for (state, u) in &snap {
            if matches!(state, SegState::Clean) {
                clean += 1;
            } else {
                counts[((u * (BUCKETS as f64 - 0.001)) as usize).min(BUCKETS - 1)] += 1;
            }
        }
        println!(
            "\nsegment utilization histogram ({} segments, {clean} clean):",
            snap.len()
        );
        let max = counts.iter().copied().max().unwrap_or(1).max(1);
        for (i, &c) in counts.iter().enumerate() {
            let bar = "#".repeat(c * 40 / max);
            println!(
                "  {:>4.0}-{:<3.0}% {c:5} {bar}",
                i as f64 * 100.0 / BUCKETS as f64,
                (i + 1) as f64 * 100.0 / BUCKETS as f64
            );
        }
    }

    if show_tree {
        println!("\ntree:");
        print_tree(&mut fs, "/", 1);
    }
}

/// Prints the chain of summaries at the start of `seg`: each partial
/// write, until a block that is no summary or one older than the last.
fn print_summaries(disk: &mut FileDisk, sb: &Superblock, seg: u32) {
    let mut buf = [0u8; BLOCK_SIZE];
    let (mut off, mut prev) = (0u32, 0u64);
    while off + 1 < sb.seg_blocks {
        if disk
            .read_block(sb.seg_start(seg) + off as u64, &mut buf)
            .is_err()
        {
            break;
        }
        let Ok(s) = Summary::decode(&buf) else {
            break;
        };
        if s.seq <= prev {
            break;
        }
        let released = if s.released.is_empty() {
            String::new()
        } else {
            format!(", releases segments {:?}", s.released)
        };
        let frags = s.entries.len() - s.block_count();
        let frags = if frags == 0 {
            String::new()
        } else {
            format!(" ({frags} fragments)")
        };
        println!(
            "  seg {seg:4} off {off:4}: seq {} epoch {}, {} blocks{frags}, watermark {}{released}",
            s.seq,
            s.epoch,
            s.block_count(),
            s.watermark
        );
        prev = s.seq;
        off += 1 + s.block_count() as u32;
    }
}

fn print_tree(fs: &mut Lfs<FileDisk>, path: &str, depth: usize) {
    let Ok(entries) = fs.readdir(path) else {
        return;
    };
    for e in entries {
        let child = if path == "/" {
            format!("/{}", e.name)
        } else {
            format!("{path}/{}", e.name)
        };
        let meta = fs.metadata(e.ino).ok();
        let size = meta.map(|m| m.size).unwrap_or(0);
        println!(
            "{:indent$}{} ({} bytes)",
            "",
            e.name,
            size,
            indent = depth * 2
        );
        if e.ftype == vfs::FileType::Directory {
            print_tree(fs, &child, depth + 1);
        }
    }
}
