//! Criterion benchmarks of end-to-end file-system throughput on a
//! `MemDisk` — the same mixes as the `fs_throughput` binary, at criterion
//! scale.

use blockdev::MemDisk;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lfs_core::Lfs;
use workload::{LargeFileBench, LargeFilePhase, SmallFileBench};

const DISK_MB: u64 = 64;

fn lfs() -> Lfs<MemDisk> {
    let cfg = lfs_bench::production_lfs_config(DISK_MB);
    Lfs::format(MemDisk::new(DISK_MB * 256), cfg).unwrap()
}

fn bench_small_files(c: &mut Criterion) {
    let small = SmallFileBench {
        nfiles: 500,
        file_size: 1024,
        files_per_dir: 100,
    };
    let mut g = c.benchmark_group("fs_small_files");
    g.bench_function("create", |b| {
        b.iter_batched_ref(
            lfs,
            |fs| small.create_phase(fs).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("read_cold", |b| {
        b.iter_batched_ref(
            || {
                let mut fs = lfs();
                small.create_phase(&mut fs).unwrap();
                fs.drop_caches();
                fs
            },
            |fs| small.read_phase(fs).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("delete", |b| {
        b.iter_batched_ref(
            || {
                let mut fs = lfs();
                small.create_phase(&mut fs).unwrap();
                fs
            },
            |fs| small.delete_phase(fs).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_seq_read(c: &mut Criterion) {
    let large = LargeFileBench {
        file_bytes: 8 << 20,
        io_size: 8192,
        seed: 0xf19,
    };
    let mut g = c.benchmark_group("fs_seq_read_8mb_cold");
    g.bench_function("lfs", |b| {
        let mut fs = lfs();
        let ino = large.setup(&mut fs).unwrap();
        large
            .run_phase(&mut fs, ino, LargeFilePhase::SeqWrite)
            .unwrap();
        b.iter(|| {
            fs.drop_caches();
            large
                .run_phase(&mut fs, ino, LargeFilePhase::SeqRead)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_seq_write(c: &mut Criterion) {
    let large = LargeFileBench {
        file_bytes: 8 << 20,
        io_size: 8192,
        seed: 0xf19,
    };
    let mut g = c.benchmark_group("fs_seq_write_8mb");
    g.bench_function("lfs", |b| {
        b.iter_batched_ref(
            lfs,
            |fs| {
                let ino = large.setup(fs).unwrap();
                large.run_phase(fs, ino, LargeFilePhase::SeqWrite).unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_small_files, bench_seq_read, bench_seq_write
}
criterion_main!(benches);
