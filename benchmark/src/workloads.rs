//! The four workloads. Why each exists is recorded in `BENCHMARK.json`
//! and `benchmark/README.md`; the sizes here fit one run (three set-ups
//! and ten timed seconds) into about twenty seconds on a 2-core box.

use lfs_core::LfsConfig;

use crate::handle::Rung;
use crate::loads::{Sizes, KV_SWEEP_EVERY};
use crate::stack::Geometry;

/// One workload's fixed parameters.
#[derive(Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Image size and mount configuration.
    pub geo: Geometry,
    /// Data-set and preparation sizes of its generator.
    pub sizes: Sizes,
    /// Where its clients enter the stack.
    pub top: Rung,
    /// Concurrent clients (threads, and connections when served).
    pub clients: usize,
    /// `Some(steps/s)` makes it an open loop at that total rate.
    pub open_rate: Option<f64>,
    /// `Some(n)`: a window is `n` steps instead of a quarter second, so
    /// every window holds the same work (`bigfile`: one pass of four
    /// phases; `kv_clean`: one verification sweep and the overwrites
    /// between two). Single-client workloads only.
    pub window_steps: Option<u64>,
    /// Steps of one traced ladder rung.
    pub ladder_steps: u64,
    /// Finish with flush → drop → remount with roll-forward → re-verify
    /// → `check()`.
    pub remount_check: bool,
}

/// The arrival rate of `office_rate`, steps/s over both connections —
/// about 0.4 of what the closed loop sustains on the 2-core reference box.
pub const OFFICE_RATE: f64 = 10_000.0;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["office_tcp", "office_rate", "kv_clean", "bigfile"];

/// Parameters of workload `name`; `smoke` shrinks data sets, preparation
/// and ladder to a fraction of a second (the geometry stays).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let pick = |full: u64, small: u64| if smoke { small } else { full };
    // 2 connections × 32 simulated users × ≤ 24 files of mean 4 KB: a
    // live set of about 8 MB, far inside the 64 MB cache. The warm-up
    // appends about 130 MB of log, so the 128 MB image has wrapped and
    // the cleaner is already at work when timing starts; the closed loop
    // then wraps it about once a second.
    let office = Spec {
        name: "office_tcp",
        geo: Geometry {
            image_mb: 128,
            cfg: LfsConfig::default(),
        },
        sizes: Sizes {
            population: 0,
            prep_steps: pick(16_000, 128),
        },
        top: Rung::Server,
        clients: 2,
        open_rate: None,
        window_steps: None,
        ladder_steps: pick(20_000, 256),
        remount_check: false,
    };
    match name {
        "office_tcp" => Some(office),
        "office_rate" => Some(Spec {
            name: "office_rate",
            open_rate: Some(OFFICE_RATE),
            ..office
        }),
        // A disk scaled down until ageing it fits the set-up budget, with
        // the proportions kept: 256 segments (128 KB each), clean-segment
        // watermarks at the same share of them as the defaults are of a
        // production disk, and 1792 keys of 1..=16 KB (2.5 blocks on
        // average) ≈ 18 MB live on 32 MB — 56 % utilization, high enough
        // that the cleaner copies half of every segment it reads, low
        // enough that the write cost does not swing with the ±1 % by which
        // a seed's value sizes move the utilization. The live set is twice
        // the 8 MB cache. The ageing overwrites rewrite the disk 2.5 times
        // over, so cleaning has levelled before anything is timed.
        "kv_clean" => Some(Spec {
            name: "kv_clean",
            geo: Geometry {
                image_mb: 32,
                cfg: LfsConfig {
                    seg_blocks: 32,
                    flush_threshold_bytes: 31 * 4096,
                    max_inodes: 4096,
                    clean_low_water: 8,
                    clean_high_water: 20,
                    segs_per_clean: 8,
                    cache_limit_bytes: 8 << 20,
                    ..LfsConfig::default()
                },
            },
            sizes: Sizes {
                population: pick(1_792, 256),
                prep_steps: pick(10_000, 256),
            },
            top: Rung::Shared,
            clients: 1,
            open_rate: None,
            window_steps: Some(KV_SWEEP_EVERY),
            ladder_steps: pick(2 * KV_SWEEP_EVERY, 256),
            remount_check: true,
        }),
        // The file is 4× the 16 MB cache this mount is given, so every
        // read pass misses.
        "bigfile" => Some(Spec {
            name: "bigfile",
            geo: Geometry {
                image_mb: 160,
                cfg: LfsConfig {
                    cache_limit_bytes: 16 << 20,
                    ..LfsConfig::default()
                },
            },
            sizes: Sizes {
                population: pick(64 << 20, 1 << 20),
                prep_steps: 0,
            },
            top: Rung::Shared,
            clients: 1,
            open_rate: None,
            window_steps: Some(1),
            ladder_steps: 1,
            remount_check: false,
        }),
        _ => None,
    }
}
