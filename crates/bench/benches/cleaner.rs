//! Criterion benchmarks of the segment cleaner: policy selection cost and
//! end-to-end cleaning throughput under churn.

use blockdev::MemDisk;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lfs_core::{CleaningPolicy, Lfs, LfsConfig};
use vfs::FileSystem;

/// A file system under churn pressure: most segments dirty, cleanable.
fn churned(cfg: LfsConfig) -> Lfs<MemDisk> {
    let mut fs = Lfs::format(MemDisk::new(2048), cfg).unwrap();
    let ino = fs.create("/churn").unwrap();
    for round in 0..40u32 {
        let off = (round % 4) as u64 * 64 * 1024;
        fs.write(ino, off, &vec![(round % 251) as u8; 64 * 1024])
            .unwrap();
    }
    fs.sync().unwrap();
    fs
}

fn bench_clean_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("clean_pass");
    for policy in CleaningPolicy::ALL {
        let mut cfg = LfsConfig::small();
        cfg.policy = policy;
        g.bench_function(policy.name(), |b| {
            b.iter_batched_ref(
                || churned(cfg),
                |fs| fs.clean_pass().unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_churn_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("overwrite_under_cleaning");
    g.sample_size(10);
    g.bench_function("lfs_64kb_overwrites", |b| {
        b.iter_batched_ref(
            || churned(LfsConfig::small()),
            |fs| {
                let ino = fs.lookup("/churn").unwrap();
                for round in 0..20u32 {
                    let off = (round % 4) as u64 * 64 * 1024;
                    fs.write(ino, off, &vec![round as u8; 64 * 1024]).unwrap();
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_clean_pass, bench_churn_throughput
}
criterion_main!(benches);
