#![warn(missing_docs)]

//! Workload generators for the Sprite LFS evaluation.
//!
//! Everything here drives any [`vfs::FileSystem`], so each benchmark runs
//! the identical operation stream against Sprite LFS and the FFS baseline:
//!
//! - [`SmallFileBench`] — the Figure 8 micro-benchmark: create / read /
//!   delete many small files;
//! - [`LargeFileBench`] — the Figure 9 micro-benchmark: a 100 MB file
//!   written sequentially, read sequentially, written randomly, read
//!   randomly, and re-read sequentially;
//! - [`PartitionModel`] / [`ProductionWorkload`] — synthetic stand-ins for
//!   the five production partitions of Table 2 (`/user6`, `/pcs`,
//!   `/src/kernel`, `/swap2`, `/tmp`), with per-partition mean file size,
//!   disk utilization, locality, and whole-file write/delete behaviour;
//! - [`CrashWorkload`] — the fixed-size-file generator used for the
//!   Table 3 recovery-time experiment;
//! - [`clients`] — closed-loop multi-client simulation: thousands of
//!   self-verifying client state machines multiplexed over OS threads,
//!   driving one shared mount (or a server connection per thread);
//! - [`kv`] — Zipfian key-value churn: a fixed key population overwritten
//!   with a continuous popularity gradient, the workload the Cleaner 2.0
//!   temperature streams segregate;
//! - [`wal`] — write-ahead-log appends with group commit and log
//!   rotation (§2.1's database pattern), the hottest stream of all;
//! - [`trace`] — recording and replay of `(vfs::Op, vfs::Outcome)`
//!   streams: reproducible workloads and the op-journal ("NVRAM write
//!   buffer", §2.1) demo.

pub mod clients;
pub mod kv;
mod largefile;
mod production;
mod smallfile;
pub mod trace;
pub mod wal;

pub use clients::{run_clients, ClientMix, ClientSim, ClientStats, MixReport};
pub use kv::{KvChurn, KvRun, Zipf};
pub use largefile::{LargeFileBench, LargeFilePhase};
pub use production::{PartitionModel, ProductionWorkload};
pub use smallfile::SmallFileBench;
pub use trace::{decode_stream, encode_stream, replay, Tracer};
pub use wal::{WalConfig, WalRun};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vfs::{FileSystem, FsResult};

/// Samples a log-normal-ish file size with the given mean, via
/// Box–Muller. File-size distributions in office/engineering workloads
/// are heavily right-skewed (§2.2); sigma = 1.0 gives a realistic spread
/// while keeping the configured mean exact in expectation.
pub fn sample_file_size<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    let sigma: f64 = 1.0;
    let mu = mean.ln() - sigma * sigma / 2.0;
    // Box–Muller transform.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    ((mu + sigma * z).exp().round() as u64).clamp(1, 16 << 20)
}

/// The Table 3 crash workload: creates `count` files of exactly
/// `file_size` bytes ("a program that created one, ten, or fifty megabytes
/// of fixed-size files before the system was crashed").
pub struct CrashWorkload {
    /// Size of every file.
    pub file_size: u64,
    /// Number of files (`total_bytes / file_size`).
    pub count: u64,
}

impl CrashWorkload {
    /// A workload writing `total_bytes` of `file_size`-byte files.
    pub fn new(file_size: u64, total_bytes: u64) -> CrashWorkload {
        CrashWorkload {
            file_size,
            count: (total_bytes / file_size).max(1),
        }
    }

    /// Runs the creation phase.
    pub fn run<F: FileSystem>(&self, fs: &mut F) -> FsResult<()> {
        let data = vec![0xc5u8; self.file_size as usize];
        for i in 0..self.count {
            fs.write_file(&format!("/crash-{i:06}"), &data)?;
        }
        Ok(())
    }
}

/// Deterministic RNG used across the workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_size_mean_is_close() {
        let mut r = rng(42);
        let n = 20_000;
        let mean = 24_000.0;
        let total: u64 = (0..n).map(|_| sample_file_size(&mut r, mean)).sum();
        let got = total as f64 / n as f64;
        assert!(
            (got - mean).abs() / mean < 0.15,
            "sampled mean {got} vs target {mean}"
        );
    }

    #[test]
    fn file_sizes_are_skewed() {
        let mut r = rng(1);
        let sizes: Vec<u64> = (0..10_000)
            .map(|_| sample_file_size(&mut r, 24_000.0))
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        // Median well below mean — right-skew.
        assert!(median < 20_000, "median {median}");
    }

    #[test]
    fn crash_workload_counts() {
        let w = CrashWorkload::new(1024, 1 << 20);
        assert_eq!(w.count, 1024);
        let w = CrashWorkload::new(100 * 1024, 1 << 20);
        assert_eq!(w.count, 10);
    }

    #[test]
    fn crash_workload_runs_on_model() {
        let mut fs = vfs::model::ModelFs::new();
        let w = CrashWorkload::new(10 * 1024, 100 * 1024);
        w.run(&mut fs).unwrap();
        assert_eq!(fs.statfs().unwrap().num_files, 10);
    }
}
