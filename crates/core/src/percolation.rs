//! The §XI random-failure extension: independent node crashes and site
//! percolation.
//!
//! The paper's conclusion observes that under random crash-stop failures
//! (each node failing independently with probability `p_f`) the broadcast
//! reachability question "is similar to the problem of site
//! percolation". This module runs that experiment: flooding over a torus
//! with Bernoulli faults, sweeping `p_f`, reporting the fraction of
//! honest nodes reached — exhibiting the percolation-style sharp
//! transition.

use crate::{Experiment, FaultKind, Outcome, ProtocolKind};
use rbcast_adversary::Placement;
use rbcast_grid::Torus;

/// One sample of the percolation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PercolationSample {
    /// Per-node fault probability.
    pub p: f64,
    /// Fraction of honest nodes that received the broadcast.
    pub reached_fraction: f64,
    /// Whether every honest node was reached.
    pub full_coverage: bool,
    /// The underlying outcome.
    pub outcome: Outcome,
}

/// Runs flooding with Bernoulli(`p`) crash faults on `torus` and reports
/// the coverage.
#[must_use]
fn sample(r: u32, torus: &Torus, p: f64, seed: u64) -> PercolationSample {
    let outcome = Experiment::new(r, ProtocolKind::Flood)
        .with_torus(torus.clone())
        .with_t(0) // t is irrelevant to flooding; audit is skipped anyway
        .with_placement(Placement::Bernoulli { p, seed })
        .with_fault_kind(FaultKind::CrashStop)
        .run();
    let reached_fraction = if outcome.honest == 0 {
        0.0
    } else {
        outcome.committed_correct as f64 / outcome.honest as f64
    };
    PercolationSample {
        p,
        reached_fraction,
        full_coverage: outcome.all_honest_correct(),
        outcome,
    }
}

/// One row of the percolation sweep: mean coverage over `trials` seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Per-node fault probability.
    pub p: f64,
    /// Mean fraction of honest nodes reached.
    pub mean_reached: f64,
    /// Fraction of trials with full coverage.
    pub full_coverage_rate: f64,
}

/// Sweeps fault probabilities, averaging over `trials` independent
/// placements per probability.
///
/// Equivalent to [`sweep_threaded`] at the default thread count.
#[must_use]
pub fn sweep(r: u32, torus: &Torus, ps: &[f64], trials: u64) -> Vec<SweepRow> {
    sweep_threaded(r, torus, ps, trials, crate::engine::thread_count(None))
}

/// [`sweep`] on an explicit number of worker threads. Every
/// `(probability, seed)` sample is an independent task with its seed
/// fixed up front, fanned out through `crate::engine::run_indexed` and
/// aggregated in input order — rows are byte-identical for every thread
/// count.
#[must_use]
pub fn sweep_threaded(
    r: u32,
    torus: &Torus,
    ps: &[f64],
    trials: u64,
    threads: usize,
) -> Vec<SweepRow> {
    let tasks: Vec<(f64, u64)> = ps
        .iter()
        .flat_map(|&p| (0..trials).map(move |seed| (p, 0xACE0_0000 + seed)))
        .collect();
    let samples =
        crate::engine::run_indexed(&tasks, threads, |_, &(p, seed)| sample(r, torus, p, seed));
    samples
        .chunks(trials.max(1) as usize)
        .zip(ps)
        .map(|(chunk, &p)| {
            let reached: f64 = chunk.iter().map(|s| s.reached_fraction).sum();
            let full: u64 = chunk.iter().map(|s| u64::from(s.full_coverage)).sum();
            SweepRow {
                p,
                mean_reached: reached / trials as f64,
                full_coverage_rate: full as f64 / trials as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // reaching every node is exactly fraction 1.0
    fn zero_probability_reaches_everyone() {
        let torus = Torus::for_radius(2);
        let s = sample(2, &torus, 0.0, 1);
        assert!(s.full_coverage);
        assert_eq!(s.reached_fraction, 1.0);
    }

    #[test]
    fn extreme_probability_strands_most() {
        let torus = Torus::for_radius(2);
        let s = sample(2, &torus, 0.95, 1);
        assert!(!s.full_coverage);
        assert!(s.reached_fraction < 0.5, "{}", s.reached_fraction);
    }

    #[test]
    fn coverage_degrades_monotonically_in_expectation() {
        let torus = Torus::for_radius(1);
        let rows = sweep(1, &torus, &[0.0, 0.3, 0.9], 5);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].mean_reached >= rows[1].mean_reached);
        assert!(rows[1].mean_reached > rows[2].mean_reached);
    }

    #[test]
    fn low_probability_usually_covers_r2() {
        // r = 2 neighborhoods have 24 nodes; p = 0.05 faults rarely block
        let torus = Torus::for_radius(2);
        let rows = sweep(2, &torus, &[0.05], 5);
        assert!(rows[0].mean_reached > 0.9, "{}", rows[0].mean_reached);
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let torus = Torus::for_radius(1);
        let a = sample(1, &torus, 0.4, 77);
        let b = sample(1, &torus, 0.4, 77);
        assert_eq!(a, b);
    }
}
