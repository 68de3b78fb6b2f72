#![warn(missing_docs)]

//! Segment-cleaning policy maths (§3.4–3.6), defined once.
//!
//! The real file system (`lfs_core`) and the Section 3.5 simulator
//! (`cleaner_sim`) answer the same two policy questions — *which*
//! segments to clean and *how many* per pass. Both call this crate, so a
//! number measured in the simulator describes the code the file system
//! runs.
//!
//! Everything here is a pure function of its arguments: no clock, no
//! randomness, no I/O.

/// Which policy selects segments for cleaning (§3.4, policy question 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CleaningPolicy {
    /// Always clean the least-utilized segments.
    Greedy,
    /// Clean the segments with the highest benefit-to-cost ratio
    ///
    /// ```text
    /// benefit   (1 - u) * age
    /// ------- = -------------
    ///   cost        1 + u
    /// ```
    ///
    /// which "allows cold segments to be cleaned at a much higher
    /// utilization than hot segments" (§3.5).
    CostBenefit,
    /// Utilization-distribution-adaptive policy (Lomet & Luo).
    ///
    /// Cost-benefit's fixed `age` weighting has two failure modes: when
    /// the disk is mostly empty it passes over nearly-free segments in
    /// favour of old half-full ones (copying for no reason), and its age
    /// term has dimensions of raw clock ticks, so its strength varies
    /// with geometry and workload rate. `Adaptive` fixes both by reading
    /// the candidate [`Population`]: ages are normalized by the
    /// population mean (scale-free), and the age term is weighted by the
    /// population's mean utilization — on an emptyish disk it scores
    /// almost purely on free space like greedy, while on a full disk it
    /// leans on age like cost-benefit, where hot/cold segregation
    /// matters most. Pacing scales with the clean-segment deficit:
    /// bigger installments the closer the disk is to wedging.
    Adaptive,
}

/// What a policy may observe about the segments it is choosing among.
/// Only [`CleaningPolicy::Adaptive`] reads it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Population {
    /// Mean utilization of the candidate segments.
    pub mean_util: f64,
    /// Mean age of the candidate segments, in logical clock ticks.
    pub mean_age: f64,
    /// How far the clean pool is below its target, `1 - clean/target`
    /// clamped to `[0, 1]`.
    pub deficit: f64,
}

impl Population {
    /// The population the fixed policies are scored against (they ignore
    /// it), and the summary of an empty candidate set.
    pub const NEUTRAL: Population = Population {
        mean_util: 0.5,
        mean_age: 1.0,
        deficit: 0.0,
    };
}

impl CleaningPolicy {
    /// Every policy, for callers that enumerate them (metric names,
    /// sweeps).
    pub const ALL: [CleaningPolicy; 3] = [
        CleaningPolicy::Greedy,
        CleaningPolicy::CostBenefit,
        CleaningPolicy::Adaptive,
    ];

    /// Short name for traces, metrics and benches.
    pub fn name(self) -> &'static str {
        match self {
            CleaningPolicy::Greedy => "greedy",
            CleaningPolicy::CostBenefit => "cost-benefit",
            CleaningPolicy::Adaptive => "adaptive",
        }
    }

    /// Summarizes the candidates — `(utilization, age)` pairs — and the
    /// clean pool (`clean` segments against a `target`) for this policy.
    /// The fixed policies never read the population, so for them the
    /// iterator is not consumed and the scan costs nothing.
    pub fn population(
        self,
        candidates: impl Iterator<Item = (f64, f64)>,
        clean: u32,
        target: u32,
    ) -> Population {
        if self != CleaningPolicy::Adaptive {
            return Population::NEUTRAL;
        }
        let (mut n, mut utils, mut ages) = (0u64, 0.0f64, 0.0f64);
        for (u, age) in candidates {
            n += 1;
            utils += u;
            ages += age;
        }
        if n == 0 {
            return Population::NEUTRAL;
        }
        Population {
            mean_util: utils / n as f64,
            mean_age: ages / n as f64,
            deficit: (1.0 - clean as f64 / target as f64).clamp(0.0, 1.0),
        }
    }

    /// Ranks a segment for cleaning: higher is better. `u` is the
    /// segment's utilization and `age` the time since its youngest block
    /// was written.
    #[inline]
    pub fn rank(self, u: f64, age: f64, pop: &Population) -> f64 {
        match self {
            CleaningPolicy::Greedy => 1.0 - u,
            CleaningPolicy::CostBenefit => (1.0 - u) * age / (1.0 + u),
            CleaningPolicy::Adaptive => {
                let age_norm = age / pop.mean_age.max(1.0);
                (1.0 - u) / (1.0 + u) * (1.0 + age_norm * pop.mean_util)
            }
        }
    }

    /// How many segments to pick this pass, given the configured `base`.
    #[inline]
    pub fn pace(self, base: u32, pop: &Population) -> u32 {
        match self {
            CleaningPolicy::Greedy | CleaningPolicy::CostBenefit => base,
            CleaningPolicy::Adaptive => {
                ((base as f64 * (0.25 + 0.75 * pop.deficit)).round() as u32).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policies_ignore_the_population() {
        let a = Population::NEUTRAL;
        let b = Population {
            mean_util: 0.9,
            mean_age: 1e6,
            deficit: 1.0,
        };
        for p in [CleaningPolicy::Greedy, CleaningPolicy::CostBenefit] {
            assert_eq!(p.rank(0.3, 40.0, &a), p.rank(0.3, 40.0, &b));
            assert_eq!(p.pace(16, &a), p.pace(16, &b));
            // ...and never consume the candidate scan.
            let scan = std::iter::from_fn(|| -> Option<(f64, f64)> { panic!("scanned") });
            assert_eq!(p.population(scan, 1, 4), Population::NEUTRAL);
        }
    }

    #[test]
    fn adaptive_blends_with_population_utilization() {
        let p = CleaningPolicy::Adaptive;
        let empty = p.population([(0.05, 10.0), (0.15, 1000.0)].into_iter(), 3, 4);
        let full = p.population([(0.85, 10.0), (0.95, 1000.0)].into_iter(), 3, 4);
        assert!((empty.mean_util - 0.1).abs() < 1e-12);
        assert_eq!(empty.mean_age, 505.0);
        assert_eq!(empty.deficit, 0.25);
        // On a full disk age buys much more than on an emptyish one.
        let gain = |pop: &Population| p.rank(0.5, 1000.0, pop) / p.rank(0.5, 10.0, pop);
        assert!(gain(&full) > 2.0 * gain(&empty));
    }

    #[test]
    fn adaptive_pace_scales_with_deficit() {
        let p = CleaningPolicy::Adaptive;
        let at = |deficit| Population {
            deficit,
            ..Population::NEUTRAL
        };
        assert_eq!(p.pace(16, &at(0.0)), 4);
        assert_eq!(p.pace(16, &at(1.0)), 16);
        assert_eq!(p.pace(1, &at(0.0)), 1, "never paces to zero");
        // A clean pool above target is no deficit, not a negative one.
        assert_eq!(p.population([(0.5, 1.0)].into_iter(), 9, 4).deficit, 0.0);
    }
}
