//! The measuring adapters must be invisible to the program under test:
//! the same generated calls with and without `TimedFs`/`TimedDev` leave a
//! byte-identical image and identical public counters.

use std::path::{Path, PathBuf};

use lfs_benchmark::loads::{Kv, Load, Office, Sizes};
use lfs_benchmark::stack::{BenchDev, PlainDev, TracedDev};
use lfs_benchmark::timed::TimedFs;
use lfs_benchmark::workloads::spec;
use lfs_core::Lfs;
use vfs::FileSystem;

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// What must not depend on the adapters.
#[derive(Debug, PartialEq)]
struct Observed {
    image: Vec<u8>,
    io: blockdev::IoStats,
    queue: blockdev::QueueStats,
    lfs: String,
    segments_cleaned: u64,
}

fn script<L: Load, F: FileSystem>(fs: &mut F, sizes: Sizes, steps: u64) {
    let mut load = L::new(0, 42, sizes);
    load.setup(fs).unwrap();
    for _ in 0..steps {
        load.step(fs).unwrap();
    }
    fs.sync().unwrap();
    assert_eq!(load.verify(fs).unwrap(), 0);
}

fn observe<D: BenchDev>(fs: Lfs<D>, image: &Path) -> Observed {
    let seen = Observed {
        image: Vec::new(),
        io: fs.device().stats(),
        queue: fs.device().queue_stats(),
        lfs: format!("{:?}", fs.stats()),
        segments_cleaned: fs.stats().cleaner.segments_cleaned,
    };
    drop(fs);
    let image_bytes = std::fs::read(image).unwrap();
    std::fs::remove_file(image).unwrap();
    Observed {
        image: image_bytes,
        ..seen
    }
}

/// Runs the script on both stacks, compares, and returns how many
/// segments the cleaner cleaned along the way.
fn same_with_and_without_adapters<L: Load>(
    tag: &str,
    workload: &str,
    sizes: Sizes,
    steps: u64,
) -> u64 {
    let geo = spec(workload, true).unwrap().geo;
    let plain = {
        let path = scratch(&format!("{tag}-plain.img"));
        let dev = PlainDev::create(&path, geo.blocks()).unwrap();
        let mut fs = Lfs::format(dev, geo.cfg).unwrap();
        script::<L, _>(&mut fs, sizes, steps);
        observe(fs, &path)
    };
    let traced = {
        let path = scratch(&format!("{tag}-traced.img"));
        let dev = TracedDev::create(&path, geo.blocks()).unwrap();
        let mut fs = TimedFs::new(Lfs::format(dev, geo.cfg).unwrap());
        script::<L, _>(&mut fs, sizes, steps);
        let mut fs = fs.inner;
        let trace = fs.device_mut().take_trace();
        assert!(!trace.queue.is_empty() && !trace.dev.is_empty());
        observe(fs, &path)
    };
    assert!(plain.image == traced.image, "{tag}: images differ");
    assert_eq!(plain.io, traced.io, "{tag}: IoStats differ");
    assert_eq!(plain.queue, traced.queue, "{tag}: QueueStats differ");
    assert_eq!(plain.lfs, traced.lfs, "{tag}: LfsStats differ");
    plain.segments_cleaned
}

#[test]
fn adapters_are_transparent_under_cleaning() {
    // Enough overwrites of a 15 MB live set on the 32 MB image that the
    // log wraps and the cleaner runs under both stacks.
    let sizes = Sizes {
        population: 1500,
        prep_steps: 1500,
    };
    let cleaned = same_with_and_without_adapters::<Kv>("kv", "kv_clean", sizes, 1500);
    assert!(cleaned > 0, "the script was meant to make the cleaner run");
}

#[test]
fn adapters_are_transparent_under_namespace_churn() {
    let sizes = Sizes {
        population: 0,
        prep_steps: 500,
    };
    same_with_and_without_adapters::<Office>("office", "office_tcp", sizes, 2000);
}
