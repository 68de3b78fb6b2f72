//! Deterministic I/O-path properties, at smoke sizes.
//!
//! Wall-clock throughput is the repository benchmark's job (`benchmark/`);
//! these are the properties behind it that need no reference run and
//! cannot flake, because each one reads a counter or simulated time:
//!
//! - cold sequential scans reach the device in runs of at least eight
//!   blocks per request (the per-file read-ahead window opens by itself);
//! - write-heavy workloads memcpy fewer host bytes into write buffers than
//!   the user bytes they wrote (cached data goes out by reference);
//! - behind a depth-8 submission ring, a sequential write keeps several
//!   submissions in flight;
//! - on the simulated Wren IV, queue depth 4 beats the synchronous depth-1
//!   discipline by the overlap it is supposed to buy.

use blockdev::{BlockDevice, MemDisk, QueueDevice, QueuedDev, SimDisk, BLOCK_SIZE};
use lfs_bench::{disk_mb, production_lfs_config, HostModel};
use lfs_core::Lfs;
use vfs::FileSystem;
use workload::{LargeFileBench, LargeFilePhase, SmallFileBench};

/// An 8 MB file in 8 KB transfers on a 64 MB disk.
const LARGE: LargeFileBench = LargeFileBench {
    file_bytes: 8 << 20,
    io_size: 8192,
    seed: 0xf19,
};
const DISK_MB: u64 = 64;

fn format_lfs<D: QueueDevice>(dev: D) -> Lfs<D> {
    Lfs::format(dev, production_lfs_config(DISK_MB)).unwrap()
}

/// Creates the large file and writes it sequentially; returns its inode.
fn seq_write<D: QueueDevice>(fs: &mut Lfs<D>) -> vfs::Ino {
    let ino = LARGE.setup(fs).unwrap();
    LARGE.run_phase(fs, ino, LargeFilePhase::SeqWrite).unwrap();
    ino
}

#[test]
fn cold_sequential_scans_read_eight_blocks_per_request() {
    let mut fs = format_lfs(MemDisk::new(DISK_MB * 256));
    let ino = seq_write(&mut fs);
    let before = fs.device().stats().reads;
    let passes = 2;
    for _ in 0..passes {
        fs.drop_caches();
        LARGE
            .run_phase(&mut fs, ino, LargeFilePhase::SeqRead)
            .unwrap();
    }
    let requests = fs.device().stats().reads - before;
    let blocks = passes * LARGE.file_bytes / BLOCK_SIZE as u64;
    assert!(
        requests * 8 <= blocks,
        "{requests} read requests for {blocks} blocks"
    );
}

#[test]
fn write_heavy_flushes_copy_fewer_bytes_than_they_write() {
    let small = SmallFileBench {
        nfiles: 2_000,
        file_size: 1024,
        files_per_dir: 100,
    };
    let mut fs = format_lfs(MemDisk::new(DISK_MB * 256));
    small.create_phase(&mut fs).unwrap();
    let user = small.nfiles as u64 * small.file_size as u64;
    let copied = fs.stats().flush_copy_bytes;
    assert!(copied < user, "small_create: copied {copied} for {user}");

    let mut fs = format_lfs(MemDisk::new(DISK_MB * 256));
    seq_write(&mut fs);
    let copied = fs.stats().flush_copy_bytes;
    let user = LARGE.file_bytes;
    assert!(copied < user, "seq_write: copied {copied} for {user}");
}

#[test]
fn queued_sequential_write_keeps_submissions_in_flight() {
    let mut fs = format_lfs(QueuedDev::new(MemDisk::new(DISK_MB * 256), 8));
    seq_write(&mut fs);
    let q = fs.device().queue_stats();
    let mean = q.mean_in_flight_depth().unwrap_or(0.0);
    assert!(
        mean > 1.5,
        "mean in-flight depth {mean:.2} (max {}, {} submitted, {} fences)",
        q.max_depth,
        q.submitted,
        q.fences
    );
}

/// Simulated elapsed time of an 8 MB sequential write in 64 KB chunks over
/// a Wren IV behind a ring of `depth`, charging the Sun-4's per-kilobyte
/// CPU cost between chunks. At depth 1 every flush blocks the host for its
/// whole service time; deeper rings let the arm run while the host
/// computes, so elapsed time approaches `max(cpu, disk busy)`.
fn chunked_write_elapsed_ns(depth: usize) -> u64 {
    const CHUNK: usize = 64 * 1024;
    let chunk_cpu = HostModel::sun4().cpu_ns(0, CHUNK as u64);
    let mut fs = Lfs::format(
        QueuedDev::new(disk_mb(DISK_MB), depth),
        production_lfs_config(DISK_MB),
    )
    .unwrap();
    let ino = fs.create("/big").unwrap();
    let host_ns =
        |fs: &mut Lfs<QueuedDev<SimDisk>>| fs.device_mut().queue_timed().unwrap().host_ns();
    let start = host_ns(&mut fs);
    let buf = vec![0xa5u8; CHUNK];
    for off in (0..LARGE.file_bytes).step_by(CHUNK) {
        fs.write(ino, off, &buf).unwrap();
        fs.device_mut()
            .queue_timed()
            .unwrap()
            .advance_host(chunk_cpu);
    }
    fs.sync().unwrap();
    host_ns(&mut fs) - start
}

#[test]
fn queue_depth_four_overlaps_the_arm_with_host_compute() {
    let (d1, d4) = (chunked_write_elapsed_ns(1), chunked_write_elapsed_ns(4));
    let ratio = d1 as f64 / d4 as f64;
    assert!(
        ratio >= 1.15,
        "depth 1 {d1} ns vs depth 4 {d4} ns = {ratio:.2}x"
    );
}
