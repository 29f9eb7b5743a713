//! Arbitrary position of `P` (§VI-A, Fig. 7).
//!
//! Theorem 3's explicit construction covers the worst-case corner
//! `P = (−r, r+1)`; §VI-A argues every other frontier node enjoys at
//! least the same connectivity. This module verifies that claim
//! computationally for *every* node of `pnbd(0,0) − nbd(0,0)`: counting
//! the committers of `nbd(0,0)` that `P` either hears directly or reaches
//! through `r(2r+1)` vertex-disjoint paths inside a single neighborhood
//! (checked by max-flow on the lattice ball graph).

use crate::r_2r_plus_1;
use rbcast_flow::vertex_disjoint_count;
use rbcast_grid::{Coord, Metric, Neighborhood};
use std::collections::HashMap;

/// The frontier `pnbd(0,0) − nbd(0,0)` under the L∞ metric — the
/// `4(2r+1)` nodes the inductive step must newly reach.
#[must_use]
pub(crate) fn frontier_nodes(r: u32) -> Vec<Coord> {
    Neighborhood::new(Coord::ORIGIN, r, Metric::Linf).frontier()
}

/// `|nbd(P) ∩ ball(0, r)|` — committers `P` hears directly. For the
/// translated frontier-top node `P = (−r+l, r+1)` this is the paper's
/// `r(r+l+1)` (region `R` of Fig. 7).
#[must_use]
pub fn direct_count(r: u32, p: Coord) -> usize {
    ball(r, Coord::ORIGIN)
        .into_iter()
        .filter(|&x| Metric::Linf.within(p, x, r))
        .count()
}

/// All lattice points of the closed L∞ ball of radius `r` around `c`.
fn ball(r: u32, c: Coord) -> Vec<Coord> {
    let ri = i64::from(r);
    let mut v = Vec::with_capacity((2 * r as usize + 1).pow(2));
    for dy in -ri..=ri {
        for dx in -ri..=ri {
            v.push(c + Coord::new(dx, dy));
        }
    }
    v
}

/// Whether `P` can reach committer `x` through at least `k`
/// vertex-disjoint paths all lying inside a single closed L∞ ball of
/// radius `r` (searching every candidate ball containing both `P` and
/// `x`).
#[must_use]
fn connected_via_single_neighborhood(r: u32, p: Coord, x: Coord, k: u32) -> bool {
    let ri = i64::from(r);
    // candidate centers must cover both x and p
    for dy in -ri..=ri {
        for dx in -ri..=ri {
            let c = x + Coord::new(dx, dy);
            if !Metric::Linf.within(c, p, r) {
                continue;
            }
            let nodes = ball(r, c);
            let index: HashMap<Coord, usize> =
                nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            let adj: Vec<Vec<usize>> = nodes
                .iter()
                .map(|&a| {
                    nodes
                        .iter()
                        .enumerate()
                        .filter(|&(_, &b)| b != a && Metric::Linf.within(a, b, r))
                        .map(|(j, _)| j)
                        .collect()
                })
                .collect();
            if vertex_disjoint_count(&adj, index[&x], index[&p], Some(k)) >= k {
                return true;
            }
        }
    }
    false
}

/// Number of committers in `ball(0, r)` that `P` either hears directly or
/// reaches via `r(2r+1)` disjoint single-neighborhood paths.
///
/// The §VI-A claim is that this is ≥ `r(2r+1)` for every frontier node.
#[must_use]
fn determinable_count(r: u32, p: Coord) -> usize {
    let k = r_2r_plus_1(r) as u32;
    ball(r, Coord::ORIGIN)
        .into_iter()
        .filter(|&x| {
            x != p
                && (Metric::Linf.within(p, x, r) || connected_via_single_neighborhood(r, p, x, k))
        })
        .count()
}

/// Summary row for one frontier node, used by the Fig. 7 experiment
/// binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierRow {
    /// The frontier node.
    pub p: Coord,
    /// Committers heard directly.
    pub direct: usize,
    /// Committers determinable in total (direct + disjoint-path).
    pub determinable: usize,
    /// The required bound `r(2r+1)`.
    pub required: usize,
}

/// Computes the Fig. 7 table: one row per frontier node.
#[must_use]
pub fn frontier_table(r: u32) -> Vec<FrontierRow> {
    let required = r_2r_plus_1(r);
    frontier_nodes(r)
        .into_iter()
        .map(|p| FrontierRow {
            p,
            direct: direct_count(r, p),
            determinable: determinable_count(r, p),
            required,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worst_case_p;

    #[test]
    fn frontier_size_is_4_2r_plus_1() {
        for r in 1..=6u32 {
            assert_eq!(frontier_nodes(r).len(), 4 * (2 * r as usize + 1));
        }
    }

    #[test]
    fn direct_count_matches_paper_formula() {
        // P = (−r+l, r+1): direct range covers r(r+l+1) nodes (§VI-A).
        for r in 1..=8u32 {
            for l in 0..=r {
                let p = Coord::new(-i64::from(r) + i64::from(l), i64::from(r) + 1);
                assert_eq!(
                    direct_count(r, p),
                    (r as usize) * (r + l + 1) as usize,
                    "r={r} l={l}"
                );
            }
        }
    }

    #[test]
    fn worst_case_corner_has_smallest_direct_range() {
        for r in 1..=6u32 {
            let worst = direct_count(r, worst_case_p(r));
            for p in frontier_nodes(r) {
                assert!(direct_count(r, p) >= worst, "r={r} p={p}");
            }
        }
    }

    #[test]
    fn connectivity_bound_holds_for_all_frontier_nodes_r2() {
        let r = 2;
        for row in frontier_table(r) {
            assert!(
                row.determinable >= row.required,
                "P={} determinable={} < {}",
                row.p,
                row.determinable,
                row.required
            );
        }
    }

    #[test]
    fn connectivity_bound_holds_r1() {
        for row in frontier_table(1) {
            assert!(row.determinable >= row.required, "P={}", row.p);
        }
    }

    #[test]
    fn single_neighborhood_connectivity_examples() {
        // The explicit construction promises (0, r+1)-centered connectivity
        // between U committers and the worst-case P.
        let r = 2;
        let p = worst_case_p(r);
        let n = Coord::new(1, 2); // region U for r = 2
        assert!(connected_via_single_neighborhood(
            r,
            p,
            n,
            r_2r_plus_1(r) as u32
        ));
    }

    #[test]
    fn disconnected_when_k_too_large() {
        // No ball graph can offer more disjoint paths than the degree of
        // the terminals.
        let r = 1;
        let p = worst_case_p(r);
        let x = Coord::new(1, -1);
        assert!(!connected_via_single_neighborhood(r, p, x, 100));
    }
}
