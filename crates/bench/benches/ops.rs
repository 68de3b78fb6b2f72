//! Criterion micro-benchmarks of core file-system operations on both
//! systems (in-memory disk; measures CPU cost of the implementations).

use blockdev::MemDisk;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ffs_baseline::{Ffs, FfsConfig};
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;

fn lfs() -> Lfs<MemDisk> {
    Lfs::format(MemDisk::new(16_384), LfsConfig::default()).unwrap()
}

fn ffs() -> Ffs<MemDisk> {
    Ffs::format(MemDisk::new(16_384), FfsConfig::default()).unwrap()
}

fn bench_create(c: &mut Criterion) {
    let mut g = c.benchmark_group("create_1kb_file");
    g.bench_function("lfs", |b| {
        b.iter_batched_ref(
            lfs,
            |fs| {
                for i in 0..100 {
                    fs.write_file(&format!("/f{i}"), &[7u8; 1024]).unwrap();
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("ffs", |b| {
        b.iter_batched_ref(
            ffs,
            |fs| {
                for i in 0..100 {
                    fs.write_file(&format!("/f{i}"), &[7u8; 1024]).unwrap();
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_write_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("seq_write_read_1mb");
    let data = vec![0x42u8; 1 << 20];
    g.bench_function("lfs_write", |b| {
        b.iter_batched_ref(
            lfs,
            |fs| {
                let ino = fs.create("/big").unwrap();
                fs.write(ino, 0, &data).unwrap();
                fs.sync().unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("lfs_read", |b| {
        let mut fs = lfs();
        let ino = fs.create("/big").unwrap();
        fs.write(ino, 0, &data).unwrap();
        fs.sync().unwrap();
        let mut buf = vec![0u8; 1 << 20];
        b.iter(|| {
            fs.drop_caches();
            fs.read(ino, 0, &mut buf).unwrap()
        })
    });
    g.bench_function("ffs_write", |b| {
        b.iter_batched_ref(
            ffs,
            |fs| {
                let ino = fs.create("/big").unwrap();
                fs.write(ino, 0, &data).unwrap();
                fs.sync().unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_rename_unlink(c: &mut Criterion) {
    let mut g = c.benchmark_group("metadata_ops");
    g.bench_function("lfs_rename", |b| {
        b.iter_batched_ref(
            || {
                let mut fs = lfs();
                for i in 0..50 {
                    fs.write_file(&format!("/f{i}"), b"x").unwrap();
                }
                fs
            },
            |fs| {
                for i in 0..50 {
                    fs.rename(&format!("/f{i}"), &format!("/g{i}")).unwrap();
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("lfs_unlink", |b| {
        b.iter_batched_ref(
            || {
                let mut fs = lfs();
                for i in 0..50 {
                    fs.write_file(&format!("/f{i}"), &[1u8; 4096]).unwrap();
                }
                fs
            },
            |fs| {
                for i in 0..50 {
                    fs.unlink(&format!("/f{i}")).unwrap();
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Checksum kernel over 4 KB blocks: `cold_64mb` sweeps a buffer far
/// larger than any cache once per iteration (the flush path's case:
/// every logged block is summed once, from DRAM), `resident` re-sums one
/// block. Recorded, never gated.
fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum/4k");
    let cold: Vec<u8> = (0..64usize << 20)
        .map(|i| (i * 31 + (i >> 12)) as u8)
        .collect();
    g.bench_function("cold_64mb", |b| {
        b.iter(|| {
            cold.chunks_exact(4096)
                .fold(0u32, |acc, blk| acc ^ lfs_core::block_checksum(blk))
        })
    });
    g.bench_function("resident", |b| {
        b.iter(|| lfs_core::block_checksum(black_box(&cold[..4096])))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_create, bench_write_read, bench_rename_unlink, bench_checksum
}
criterion_main!(benches);
