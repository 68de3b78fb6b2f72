//! Parallel sweeps over independent benchmark points.
//!
//! Regenerating the paper's figures and tables means evaluating many
//! independent points: the §3.5 simulator run to stabilisation at each
//! `(utilization, pattern, policy)` of Figures 4–7, or a real `Lfs`/`Ffs`
//! on its own fresh simulated disk for each configuration of Figures 8
//! and 9 and Tables 2 and 3. Each point owns its own state — including
//! its own PRNG seed — so the points share nothing and the sweep is
//! embarrassingly parallel.
//!
//! Determinism is unaffected by parallelism: a point's result depends only
//! on its index, never on thread scheduling, so [`run_parallel`] returns
//! bit-identical results to a serial loop in the same (input) order. The
//! determinism regression tests below pin this.
//!
//! Thread count defaults to the host's available parallelism and can be
//! overridden with the `LFS_SWEEP_THREADS` environment variable
//! (`LFS_SWEEP_THREADS=1` forces the serial path).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{SimConfig, SimResult, Simulator};

/// Worker-thread count for [`run`]: `LFS_SWEEP_THREADS` if set, else the
/// host's available parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("LFS_SWEEP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluates `f(0..n)` across `threads` workers and returns the results
/// indexed exactly like the inputs.
///
/// Workers pull the next unclaimed index from a shared counter and deposit
/// the result in that index's slot, so scheduling affects only wall-clock,
/// never content or order — provided `f` is a pure function of its index
/// (every point owns its simulator or file system, disk and RNG).
pub fn run_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("sweep worker skipped a point")
        })
        .collect()
}

/// Evaluates `f(0..n)` with [`default_threads`] workers.
pub fn run<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_parallel(n, default_threads(), f)
}

/// Runs every simulator point to stabilisation with [`run`].
pub fn stabilise(points: &[SimConfig]) -> Vec<SimResult> {
    run(points.len(), |i| {
        Simulator::new(points[i]).run_until_stable()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPattern, Policy};

    fn point(util: f64) -> SimConfig {
        SimConfig {
            nsegments: 60,
            blocks_per_segment: 32,
            clean_target: 3,
            segs_per_pass: 3,
            pattern: AccessPattern::hot_cold_default(),
            policy: Policy::CostBenefit,
            age_sort: true,
            ..SimConfig::default_at(util)
        }
    }

    fn stabilise_with(points: &[SimConfig], threads: usize) -> Vec<SimResult> {
        run_parallel(points.len(), threads, |i| {
            Simulator::new(points[i]).run_until_stable()
        })
    }

    /// A parallel sweep must be bit-identical to the serial loop at every
    /// point, regardless of how many workers raced over the work queue.
    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        let points: Vec<SimConfig> = [0.3, 0.5, 0.75].into_iter().map(point).collect();
        let serial = stabilise_with(&points, 1);
        let parallel = stabilise_with(&points, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            // Bit-identical, not approximately equal.
            assert_eq!(s.write_cost.to_bits(), p.write_cost.to_bits());
            assert_eq!(s.steps, p.steps);
            assert_eq!(
                s.avg_cleaned_utilization.to_bits(),
                p.avg_cleaned_utilization.to_bits()
            );
            assert_eq!(
                s.cleaning_histogram.fractions(),
                p.cleaning_histogram.fractions()
            );
            assert_eq!(
                s.cleaned_histogram.fractions(),
                p.cleaned_histogram.fractions()
            );
        }
    }

    #[test]
    fn thread_override_parses() {
        // Results must not depend on the worker count either.
        let points: Vec<SimConfig> = [0.4, 0.6].into_iter().map(point).collect();
        let two = stabilise_with(&points, 2);
        let eight = stabilise_with(&points, 8);
        for (a, b) in two.iter().zip(&eight) {
            assert_eq!(a.write_cost.to_bits(), b.write_cost.to_bits());
        }
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let serial: Vec<u64> = (0..17).map(|i| (i as u64) * 31 + 7).collect();
        let parallel = run_parallel(17, 8, |i| (i as u64) * 31 + 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn single_point_runs_inline() {
        assert_eq!(run_parallel(1, 8, |i| i), vec![0]);
    }
}
