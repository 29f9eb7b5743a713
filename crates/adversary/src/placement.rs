//! Fault placement strategies.

use crate::respects_bound;
use crate::search::BoundTracker;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rbcast_grid::{Coord, Metric, NodeId, Torus};

/// A fault-placement strategy for the locally bounded adversary.
///
/// All strategies place faults on a torus whose source sits at the
/// origin. Except for [`Placement::Bernoulli`] (the percolation
/// extension, which is *not* locally bounded by design), every strategy
/// respects the announced local bound; experiments re-audit with
/// [`crate::local_fault_bound`] regardless.
///
/// # Example
///
/// ```
/// use rbcast_adversary::{respects_bound, Placement};
/// use rbcast_grid::{Metric, Torus};
///
/// let torus = Torus::for_radius(2);
/// let faults = Placement::RandomLocal { t: 3, seed: 7, attempts: 40 }
///     .place(&torus, 2, Metric::Linf);
/// assert!(respects_bound(&torus, 2, Metric::Linf, &faults, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Theorem 4 construction (Fig. 8), adapted to the torus: two
    /// vertical width-`r` strips at `x = W/4` and `x = 3W/4`, fully
    /// faulty. Local bound `r(2r+1)` (L∞); partitions the torus.
    DoubleStrip,
    /// Koo's Byzantine-threshold construction: the checkerboard half
    /// (`(x+y)` even) of the two strips. Local bound `⌈½·r(2r+1)⌉` (L∞).
    CheckerStrips,
    /// Both strips thinned to every other *column* faulty; a milder
    /// barrier used in sweeps.
    ColumnStrips,
    /// `t` faults packed into the single neighborhood straddling the
    /// wavefront just right of the source — the greedy local blocker.
    FrontierCluster {
        /// Number of faults (all inside one ball, so the bound is `t`).
        t: usize,
    },
    /// Random placement: keeps adding random faults while the local bound
    /// stays ≤ `t`, until `attempts` consecutive rejections.
    RandomLocal {
        /// The local bound to respect.
        t: usize,
        /// RNG seed.
        seed: u64,
        /// Consecutive rejected samples before giving up.
        attempts: u32,
    },
    /// Independent Bernoulli faults with probability `p` — the random
    /// failure model of §XI (site percolation). *Not* locally bounded.
    Bernoulli {
        /// Per-node fault probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// An explicit fault set, typically the output of the adversary
    /// search (`rbcast attack`). Replaying a found placement through the
    /// normal experiment pipeline makes search results first-class
    /// strategies: sweeps, benches, and golden tests can all reference
    /// them. Node ids outside the torus are dropped at placement time;
    /// the usual experiment-side local-bound audit still applies.
    Explicit {
        /// The fault set, by node id on the target torus.
        faults: Vec<NodeId>,
    },
}

impl Placement {
    /// Materialises the placement on `torus`. The source (origin) is
    /// never made faulty — the broadcast problem assumes a correct
    /// source.
    #[must_use]
    pub fn place(&self, torus: &Torus, r: u32, metric: Metric) -> Vec<NodeId> {
        let source = torus.id(Coord::ORIGIN);
        let mut faults = match self {
            Placement::DoubleStrip => strip_faults(torus, r, |_c| true),
            Placement::CheckerStrips => strip_faults(torus, r, |c| (c.x + c.y).rem_euclid(2) == 0),
            Placement::ColumnStrips => strip_faults(torus, r, |c| c.x.rem_euclid(2) == 0),
            Placement::FrontierCluster { t } => frontier_cluster(torus, r, metric, *t),
            Placement::RandomLocal { t, seed, attempts } => {
                random_local(torus, r, metric, *t, *seed, *attempts)
            }
            Placement::Bernoulli { p, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                torus
                    .node_ids()
                    .filter(|_| rng.gen_bool(p.clamp(0.0, 1.0)))
                    .collect()
            }
            Placement::Explicit { faults } => faults
                .iter()
                .copied()
                .filter(|id| id.index() < torus.len())
                .collect(),
        };
        faults.retain(|&id| id != source);
        faults.sort_unstable();
        faults.dedup();
        faults
    }

    /// Short human-readable name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Placement::DoubleStrip => "double-strip",
            Placement::CheckerStrips => "checker-strips",
            Placement::ColumnStrips => "column-strips",
            Placement::FrontierCluster { .. } => "frontier-cluster",
            Placement::RandomLocal { .. } => "random-local",
            Placement::Bernoulli { .. } => "bernoulli",
            Placement::Explicit { .. } => "attack",
        }
    }
}

/// Nodes of the two width-`r` vertical strips, filtered by `keep`.
fn strip_faults(torus: &Torus, r: u32, keep: impl Fn(Coord) -> bool) -> Vec<NodeId> {
    let w = i64::from(torus.width());
    let starts = [w / 4, 3 * w / 4];
    let mut out = Vec::new();
    for c in torus.coords() {
        let in_strip = starts.iter().any(|&s| c.x >= s && c.x < s + i64::from(r));
        if in_strip && keep(c) {
            out.push(torus.id(c));
        }
    }
    out
}

/// `t` faults nearest the center of the ball at `(2r, 0)` — straddling
/// the broadcast wavefront emanating from the origin.
fn frontier_cluster(torus: &Torus, r: u32, metric: Metric, t: usize) -> Vec<NodeId> {
    let center = Coord::new(2 * i64::from(r), 0);
    let cid = torus.id(center);
    // Placement runs once per experiment before any arena exists;
    // building a table for one ball would cost more than the scan.
    let mut ball: Vec<NodeId> = std::iter::once(cid)
        .chain(torus.neighborhood(cid, r, metric)) // audit:allow(adhoc-neighborhood)
        .collect();
    // nearest-first (stable by id for determinism)
    ball.sort_by_key(|&id| {
        let d = torus.dist(center, torus.coord(id), metric);
        (d, id)
    });
    ball.truncate(t);
    ball
}

/// Greedy random locally-bounded placement.
///
/// A [`BoundTracker`] keeps, for every potential ball center, the number
/// of already placed faults its neighborhood contains; a candidate is
/// accepted iff every center covering it stays ≤ `t`. Each attempt costs
/// one neighborhood scan instead of a full audit.
fn random_local(
    torus: &Torus,
    r: u32,
    metric: Metric,
    t: usize,
    seed: u64,
    attempts: u32,
) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<NodeId> = torus.node_ids().collect();
    candidates.shuffle(&mut rng);
    let mut tracker = BoundTracker::new(torus, r, metric, t, &[]);
    let mut faults: Vec<NodeId> = Vec::new();
    let mut misses = 0;
    for id in candidates {
        if misses >= attempts {
            break;
        }
        if tracker.try_add(id) {
            faults.push(id);
            misses = 0;
        } else {
            misses += 1;
        }
    }
    debug_assert!(respects_bound(torus, r, metric, &faults, t));
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_fault_bound;

    #[test]
    fn double_strip_bound_is_r_2r_plus_1() {
        for r in 1..=3u32 {
            let torus = Torus::for_radius(r);
            let f = Placement::DoubleStrip.place(&torus, r, Metric::Linf);
            assert_eq!(
                local_fault_bound(&torus, r, Metric::Linf, &f),
                (r * (2 * r + 1)) as usize,
                "r={r}"
            );
        }
    }

    #[test]
    fn checker_strips_bound_is_koo_threshold() {
        for r in 1..=3u32 {
            let torus = Torus::for_radius(r);
            let f = Placement::CheckerStrips.place(&torus, r, Metric::Linf);
            let expect = ((r * (2 * r + 1)) as usize).div_ceil(2);
            assert_eq!(
                local_fault_bound(&torus, r, Metric::Linf, &f),
                expect,
                "r={r}"
            );
        }
    }

    #[test]
    fn double_strip_partitions_the_torus() {
        // no fault-free edge crosses either strip
        let r = 2;
        let torus = Torus::for_radius(r);
        let faults: std::collections::HashSet<NodeId> = Placement::DoubleStrip
            .place(&torus, r, Metric::Linf)
            .into_iter()
            .collect();
        let w = i64::from(torus.width());
        let left_of = |x: i64, s: i64| x < s;
        // pick one correct node left of strip 1 and one right of it:
        let a = torus.id(Coord::new(w / 4 - 1, 0));
        let b = torus.id(Coord::new(w / 4 + i64::from(r), 0));
        assert!(!faults.contains(&a) && !faults.contains(&b));
        // they are not neighbors, and every path between them in the
        // correct-node graph must cross a strip: BFS over correct nodes.
        let mut seen = std::collections::HashSet::from([a]);
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(v) = queue.pop_front() {
            for n in torus.neighborhood(v, r, Metric::Linf) {
                if !faults.contains(&n) && seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        assert!(!seen.contains(&b), "strips failed to partition");
        let _ = left_of;
    }

    #[test]
    fn frontier_cluster_is_single_neighborhood() {
        let torus = Torus::for_radius(2);
        let f = Placement::FrontierCluster { t: 7 }.place(&torus, 2, Metric::Linf);
        assert_eq!(f.len(), 7);
        assert_eq!(local_fault_bound(&torus, 2, Metric::Linf, &f), 7);
    }

    #[test]
    fn frontier_cluster_caps_at_ball_size() {
        let torus = Torus::for_radius(1);
        let f = Placement::FrontierCluster { t: 100 }.place(&torus, 1, Metric::Linf);
        assert!(f.len() <= 9);
    }

    #[test]
    fn random_local_respects_bound() {
        for seed in 0..5u64 {
            let torus = Torus::new(20, 20);
            let f = Placement::RandomLocal {
                t: 4,
                seed,
                attempts: 50,
            }
            .place(&torus, 2, Metric::Linf);
            assert!(
                respects_bound(&torus, 2, Metric::Linf, &f, 4),
                "seed={seed}"
            );
            assert!(!f.is_empty());
        }
    }

    #[test]
    fn random_local_is_deterministic_per_seed() {
        let torus = Torus::new(20, 20);
        let p = Placement::RandomLocal {
            t: 3,
            seed: 42,
            attempts: 30,
        };
        assert_eq!(
            p.place(&torus, 2, Metric::Linf),
            p.place(&torus, 2, Metric::Linf)
        );
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let torus = Torus::new(40, 40);
        let f = Placement::Bernoulli { p: 0.3, seed: 7 }.place(&torus, 2, Metric::Linf);
        let rate = f.len() as f64 / torus.len() as f64;
        assert!((rate - 0.3).abs() < 0.08, "rate={rate}");
    }

    #[test]
    fn source_is_never_faulty() {
        let torus = Torus::new(20, 20);
        let source = torus.id(Coord::ORIGIN);
        for p in [
            Placement::DoubleStrip,
            Placement::CheckerStrips,
            Placement::ColumnStrips,
            Placement::Bernoulli { p: 1.0, seed: 1 },
            Placement::RandomLocal {
                t: 25,
                seed: 1,
                attempts: 10,
            },
        ] {
            let f = p.place(&torus, 2, Metric::Linf);
            assert!(!f.contains(&source), "{}", p.name());
        }
    }

    #[test]
    fn strips_work_on_rectangular_tori() {
        // wide-but-short torus: strips still partition and stay bounded
        let r = 2;
        let torus = Torus::new(40, 12);
        let f = Placement::DoubleStrip.place(&torus, r, Metric::Linf);
        assert_eq!(
            local_fault_bound(&torus, r, Metric::Linf, &f),
            (r * (2 * r + 1)) as usize
        );
    }

    #[test]
    fn random_local_with_zero_budget_places_nothing() {
        let torus = Torus::new(15, 15);
        let f = Placement::RandomLocal {
            t: 0,
            seed: 1,
            attempts: 10,
        }
        .place(&torus, 2, Metric::Linf);
        assert!(f.is_empty());
    }

    #[test]
    fn bernoulli_extremes() {
        let torus = Torus::new(15, 15);
        let none = Placement::Bernoulli { p: 0.0, seed: 3 }.place(&torus, 2, Metric::Linf);
        assert!(none.is_empty());
        let all = Placement::Bernoulli { p: 1.0, seed: 3 }.place(&torus, 2, Metric::Linf);
        assert_eq!(all.len(), torus.len() - 1); // all but the source
    }

    #[test]
    fn placements_are_sorted_and_deduped() {
        let torus = Torus::new(20, 20);
        for p in [
            Placement::DoubleStrip,
            Placement::CheckerStrips,
            Placement::FrontierCluster { t: 5 },
        ] {
            let f = p.place(&torus, 2, Metric::Linf);
            let mut sorted = f.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(f, sorted, "{}", p.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Placement::DoubleStrip.name(), "double-strip");
        assert_eq!(
            Placement::FrontierCluster { t: 1 }.name(),
            "frontier-cluster"
        );
        assert_eq!(Placement::Explicit { faults: Vec::new() }.name(), "attack");
    }

    #[test]
    fn explicit_drops_source_out_of_range_and_duplicates() {
        let torus = Torus::new(10, 10);
        let source = torus.id(Coord::ORIGIN);
        let a = torus.id(Coord::new(3, 4));
        let b = torus.id(Coord::new(7, 1));
        let out_of_range = NodeId(torus.len() as u32 + 5);
        let f = Placement::Explicit {
            faults: vec![b, a, source, b, out_of_range],
        }
        .place(&torus, 2, Metric::Linf);
        assert_eq!(f, vec![a.min(b), a.max(b)]);
    }
}
