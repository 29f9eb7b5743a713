//! Exact auditing of the locally bounded fault constraint.

use rbcast_grid::{Metric, NeighborTable, NodeId, Torus};
use std::collections::HashSet;

/// The maximum number of faulty nodes contained in any single
/// neighborhood (closed ball of radius `r`, under `metric`, centered at
/// any node of the torus).
///
/// This is the quantity the paper's adversary must keep ≤ `t`.
///
/// # Example
///
/// ```
/// use rbcast_adversary::local_fault_bound;
/// use rbcast_grid::{Coord, Metric, Torus};
///
/// let torus = Torus::new(20, 20);
/// let faults = vec![torus.id(Coord::new(5, 5)), torus.id(Coord::new(6, 5))];
/// assert_eq!(local_fault_bound(&torus, 2, Metric::Linf, &faults), 2);
/// ```
#[must_use]
pub fn local_fault_bound(torus: &Torus, r: u32, metric: Metric, faulty: &[NodeId]) -> usize {
    let fault_set: HashSet<NodeId> = faulty.iter().copied().collect();
    let mut best = 0;
    for center in torus.node_ids() {
        let mut count = usize::from(fault_set.contains(&center));
        // This is the independent naive audit — deriving it from the
        // arena would make the audit and the simulator share the code
        // path they are meant to cross-check.
        // audit:allow(adhoc-neighborhood)
        for nbr in torus.neighborhood(center, r, metric) {
            if fault_set.contains(&nbr) {
                count += 1;
            }
        }
        best = best.max(count);
    }
    best
}

/// [`local_fault_bound`] computed from a prebuilt [`NeighborTable`]:
/// each neighborhood is computed from the arena's precompiled stencil
/// instead of re-deriving the metric offsets, so auditing a placement
/// costs one pass over the nodes and their rows.
///
/// # Example
///
/// ```
/// use rbcast_adversary::local_fault_bound_in;
/// use rbcast_grid::{Coord, Metric, NeighborTable, Torus};
///
/// let torus = Torus::new(20, 20);
/// let table = NeighborTable::build(&torus, 2, Metric::Linf);
/// let faults = vec![torus.id(Coord::new(5, 5)), torus.id(Coord::new(6, 5))];
/// assert_eq!(local_fault_bound_in(&table, &faults), 2);
/// ```
#[must_use]
pub fn local_fault_bound_in(table: &NeighborTable, faulty: &[NodeId]) -> usize {
    let mut is_fault = vec![false; table.len()];
    for &f in faulty {
        is_fault[f.index()] = true;
    }
    let mut best = 0;
    for center in table.torus().node_ids() {
        let mut count = usize::from(is_fault[center.index()]);
        count += table
            .neighbors(center)
            .filter(|n| is_fault[n.index()])
            .count();
        best = best.max(count);
    }
    best
}

/// Whether `faulty` satisfies the locally bounded constraint for `t`.
#[must_use]
pub fn respects_bound(torus: &Torus, r: u32, metric: Metric, faulty: &[NodeId], t: usize) -> bool {
    local_fault_bound(torus, r, metric, faulty) <= t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::Coord;

    #[test]
    fn empty_placement_has_zero_bound() {
        let torus = Torus::new(15, 15);
        assert_eq!(local_fault_bound(&torus, 2, Metric::Linf, &[]), 0);
    }

    #[test]
    fn single_fault_bound_is_one() {
        let torus = Torus::new(15, 15);
        let f = vec![torus.id(Coord::new(7, 7))];
        for m in [Metric::Linf, Metric::L2] {
            assert_eq!(local_fault_bound(&torus, 2, m, &f), 1);
        }
    }

    #[test]
    fn packed_ball_counts_fully() {
        // Fill a whole closed L∞ ball: bound = (2r+1)².
        let torus = Torus::new(20, 20);
        let mut faults = vec![torus.id(Coord::new(10, 10))];
        faults.extend(torus.neighborhood(torus.id(Coord::new(10, 10)), 2, Metric::Linf));
        assert_eq!(local_fault_bound(&torus, 2, Metric::Linf, &faults), 25);
    }

    #[test]
    fn far_apart_faults_do_not_accumulate() {
        let torus = Torus::new(30, 30);
        let faults = vec![torus.id(Coord::new(0, 0)), torus.id(Coord::new(15, 15))];
        assert_eq!(local_fault_bound(&torus, 3, Metric::Linf, &faults), 1);
    }

    #[test]
    fn wraparound_is_counted() {
        // Two faults straddling the seam are one neighborhood's worth.
        let torus = Torus::new(20, 20);
        let faults = vec![torus.id(Coord::new(0, 0)), torus.id(Coord::new(19, 19))];
        assert_eq!(local_fault_bound(&torus, 2, Metric::Linf, &faults), 2);
    }

    #[test]
    fn respects_bound_boundary() {
        let torus = Torus::new(20, 20);
        let faults: Vec<_> = (0..3).map(|i| torus.id(Coord::new(5 + i, 5))).collect();
        assert!(respects_bound(&torus, 2, Metric::Linf, &faults, 3));
        assert!(!respects_bound(&torus, 2, Metric::Linf, &faults, 2));
    }

    #[test]
    fn arena_audit_matches_naive_audit() {
        let torus = Torus::new(15, 15);
        for metric in [Metric::Linf, Metric::L2] {
            for r in [1, 2, 3] {
                let table = NeighborTable::build(&torus, r, metric);
                for faults in [
                    vec![],
                    vec![torus.id(Coord::new(7, 7))],
                    vec![torus.id(Coord::new(0, 0)), torus.id(Coord::new(14, 14))],
                    (0..5).map(|i| torus.id(Coord::new(5 + i, 5))).collect(),
                ] {
                    assert_eq!(
                        local_fault_bound_in(&table, &faults),
                        local_fault_bound(&torus, r, metric, &faults),
                        "r={r} metric={metric:?} faults={faults:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn l2_ball_is_tighter_than_linf() {
        // Faults on a square corner pattern: the L2 ball sees fewer.
        let torus = Torus::new(20, 20);
        let faults = vec![torus.id(Coord::new(8, 8)), torus.id(Coord::new(12, 12))];
        let linf = local_fault_bound(&torus, 2, Metric::Linf, &faults);
        let l2 = local_fault_bound(&torus, 2, Metric::L2, &faults);
        assert_eq!(linf, 2); // center (10,10) covers both corners
        assert_eq!(l2, 1); // no L2 disk of radius 2 covers both
    }
}
