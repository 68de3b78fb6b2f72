//! Criterion benchmarks of checkpointing and roll-forward recovery.

use blockdev::MemDisk;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;

fn populated() -> Lfs<MemDisk> {
    let mut cfg = LfsConfig::small();
    cfg.checkpoint_every_bytes = 0;
    let mut fs = Lfs::format(MemDisk::new(4096), cfg).unwrap();
    for i in 0..100 {
        fs.write_file(&format!("/f{i}"), &[i as u8; 2048]).unwrap();
    }
    fs
}

fn bench_checkpoint(c: &mut Criterion) {
    c.bench_function("checkpoint_after_100_files", |b| {
        b.iter_batched_ref(
            populated,
            |fs| fs.checkpoint().unwrap(),
            BatchSize::LargeInput,
        )
    });
}

fn bench_roll_forward(c: &mut Criterion) {
    // Build an image with a log tail (flushed but not checkpointed).
    let image = {
        let mut fs = populated();
        fs.checkpoint().unwrap();
        for i in 0..100 {
            fs.write_file(&format!("/tail{i}"), &[9u8; 1024]).unwrap();
        }
        fs.flush().unwrap();
        fs.into_device().into_image()
    };
    let mut cfg = LfsConfig::small();
    cfg.checkpoint_every_bytes = 0;
    c.bench_function("roll_forward_100_files", |b| {
        b.iter_batched(
            || MemDisk::from_image(image.clone()),
            |disk| Lfs::mount(disk, cfg).unwrap(),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("mount_discard_tail", |b| {
        b.iter_batched(
            || MemDisk::from_image(image.clone()),
            |disk| Lfs::mount_checkpoint_only(disk, cfg).unwrap(),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_checkpoint, bench_roll_forward
}
criterion_main!(benches);
