//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! segment size, cleaning policy (every policy but greedy age-sorts), and
//! checkpoint interval.

use blockdev::MemDisk;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lfs_core::{CleaningPolicy, Lfs, LfsConfig};
use vfs::FileSystem;

/// A hot/cold overwrite workload that forces cleaning.
fn churn(fs: &mut Lfs<MemDisk>) {
    // 20 cold files, then hot overwrites.
    for i in 0..20 {
        fs.write_file(&format!("/cold{i}"), &[i as u8; 8192])
            .unwrap();
    }
    let hot = fs.create("/hot").unwrap();
    for round in 0..120u32 {
        let off = (round % 6) as u64 * 32 * 1024;
        fs.write(hot, off, &vec![round as u8; 32 * 1024]).unwrap();
    }
    fs.sync().unwrap();
}

fn config(seg_blocks: u32, policy: CleaningPolicy) -> LfsConfig {
    let mut cfg = LfsConfig::small();
    cfg.seg_blocks = seg_blocks;
    cfg.flush_threshold_bytes = (seg_blocks as u64 - 1) * 4096;
    cfg.policy = policy;
    cfg
}

fn bench_segment_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_segment_size");
    for seg_blocks in [16u32, 32, 64] {
        g.bench_function(format!("{}kb", seg_blocks * 4), |b| {
            b.iter_batched_ref(
                || {
                    Lfs::format(
                        MemDisk::new(1536),
                        config(seg_blocks, CleaningPolicy::CostBenefit),
                    )
                    .unwrap()
                },
                churn,
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_policy");
    for policy in CleaningPolicy::ALL {
        g.bench_function(policy.name(), |b| {
            b.iter_batched_ref(
                || Lfs::format(MemDisk::new(1536), config(16, policy)).unwrap(),
                churn,
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_checkpoint_interval(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_checkpoint_interval");
    // The "manual" (no automatic checkpoints) extreme needs proportionate
    // geometry: without periodic checkpoints the pending-free pipeline is
    // longer, which 64 KB segments cannot absorb under churn.
    for (name, every) in [("64kb", 64u64 << 10), ("1mb", 1 << 20), ("manual", 0)] {
        g.bench_function(name, |b| {
            b.iter_batched_ref(
                || {
                    let mut cfg = config(32, CleaningPolicy::CostBenefit);
                    cfg.checkpoint_every_bytes = every;
                    Lfs::format(MemDisk::new(3072), cfg).unwrap()
                },
                churn,
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_segment_size, bench_policy, bench_checkpoint_interval
}
criterion_main!(benches);
