//! Neighborhood and perturbed-neighborhood helpers (§IV of the paper).

use crate::{Coord, Metric};

/// All non-zero offsets within L∞ distance `r` of the origin — i.e. the
/// relative positions of the `(2r+1)² − 1` nodes of an L∞ neighborhood.
///
/// ```
/// use rbcast_grid::linf_offsets;
/// assert_eq!(linf_offsets(1).len(), 8);
/// ```
#[must_use]
pub fn linf_offsets(r: u32) -> Vec<Coord> {
    let r = i64::from(r);
    let mut v = Vec::with_capacity(((2 * r as usize + 1).pow(2)) - 1);
    for dy in -r..=r {
        for dx in -r..=r {
            if dx != 0 || dy != 0 {
                v.push(Coord::new(dx, dy));
            }
        }
    }
    v
}

/// All non-zero offsets within distance `r` of the origin under `metric`.
///
/// For [`Metric::Linf`] this is [`linf_offsets`]; for [`Metric::L2`] it is
/// the lattice points of the punctured disk of radius `r`.
#[must_use]
pub(crate) fn metric_offsets(r: u32, metric: Metric) -> Vec<Coord> {
    match metric {
        Metric::Linf => linf_offsets(r),
        Metric::L2 => {
            let ri = i64::from(r);
            let r_sq = u64::from(r) * u64::from(r);
            let mut v = Vec::new();
            for dy in -ri..=ri {
                for dx in -ri..=ri {
                    if (dx != 0 || dy != 0)
                        && (dx.unsigned_abs() * dx.unsigned_abs()
                            + dy.unsigned_abs() * dy.unsigned_abs())
                            <= r_sq
                    {
                        v.push(Coord::new(dx, dy));
                    }
                }
            }
            v
        }
    }
}

/// The centers whose neighborhoods make up `pnbd(c)` (§IV): the four
/// axis-adjacent grid points of `c`.
///
/// `pnbd(x,y) = nbd(x−1,y) ∪ nbd(x+1,y) ∪ nbd(x,y−1) ∪ nbd(x,y+1)` — the
/// "perturbed neighborhood" obtained by nudging the center one step.
#[must_use]
fn pnbd_centers(c: Coord) -> [Coord; 4] {
    [
        c + Coord::new(1, 0),
        c + Coord::new(-1, 0),
        c + Coord::new(0, 1),
        c + Coord::new(0, -1),
    ]
}

/// Infinite-grid neighborhood queries around a center, under a metric.
///
/// This is the geometry the constructive proofs operate on (no torus
/// wrap-around). For simulation-side queries on finite networks use
/// [`crate::Torus::neighborhood`].
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, Neighborhood};
///
/// let nbd = Neighborhood::new(Coord::new(5, 5), 2, Metric::Linf);
/// assert_eq!(nbd.members().count(), 24);
/// assert!(nbd.contains(Coord::new(7, 7)));
/// assert!(!nbd.contains(Coord::new(8, 5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighborhood {
    center: Coord,
    radius: u32,
    metric: Metric,
}

impl Neighborhood {
    /// Neighborhood of `center` with transmission radius `radius` under
    /// `metric`.
    #[must_use]
    pub fn new(center: Coord, radius: u32, metric: Metric) -> Self {
        Neighborhood {
            center,
            radius,
            metric,
        }
    }

    /// Whether `p` belongs to the neighborhood (center excluded).
    #[must_use]
    pub fn contains(&self, p: Coord) -> bool {
        p != self.center && self.metric.within(self.center, p, self.radius)
    }

    /// Whether `p` is the center or a member — the paper's "nbd(c) ∪ {c}",
    /// useful when a region constraint says paths "lie within" a
    /// neighborhood (the center itself is allowed on such paths).
    #[cfg(test)]
    fn covers(&self, p: Coord) -> bool {
        self.metric.within(self.center, p, self.radius)
    }

    /// Iterates over the members (center excluded).
    pub fn members(&self) -> impl Iterator<Item = Coord> + '_ {
        metric_offsets(self.radius, self.metric)
            .into_iter()
            .map(move |off| self.center + off)
    }

    /// Number of members.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.metric.neighborhood_size(self.radius)
    }

    /// Iterates over the perturbed neighborhood `pnbd(center)` — the union
    /// of the four perturbed neighborhoods, *without* duplicates.
    fn perturbed_members(&self) -> Vec<Coord> {
        let mut set = std::collections::BTreeSet::new();
        for pc in pnbd_centers(self.center) {
            for m in Neighborhood::new(pc, self.radius, self.metric).members() {
                set.insert(m);
            }
        }
        set.into_iter().collect()
    }

    /// The frontier `pnbd(center) − nbd(center) − {center}`: the nodes the
    /// inductive step must newly reach.
    pub fn frontier(&self) -> Vec<Coord> {
        self.perturbed_members()
            .into_iter()
            .filter(|&p| p != self.center && !self.contains(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linf_offsets_count_and_uniqueness() {
        for r in 0..8u32 {
            let offs = linf_offsets(r);
            assert_eq!(offs.len(), (2 * r as usize + 1).pow(2) - 1);
            let set: std::collections::HashSet<_> = offs.iter().collect();
            assert_eq!(set.len(), offs.len());
            assert!(!offs.contains(&Coord::ORIGIN));
        }
    }

    #[test]
    fn l2_offsets_all_within_radius() {
        for r in 1..8u32 {
            for off in metric_offsets(r, Metric::L2) {
                assert!(Metric::L2.within(Coord::ORIGIN, off, r));
            }
        }
    }

    #[test]
    fn offsets_symmetric_under_negation() {
        for metric in [Metric::Linf, Metric::L2] {
            let offs: std::collections::HashSet<_> =
                metric_offsets(4, metric).into_iter().collect();
            for &o in &offs {
                assert!(offs.contains(&-o), "missing -{o}");
            }
        }
    }

    #[test]
    fn pnbd_centers_are_the_four_steps() {
        let cs = pnbd_centers(Coord::new(2, 3));
        assert!(cs.contains(&Coord::new(3, 3)));
        assert!(cs.contains(&Coord::new(1, 3)));
        assert!(cs.contains(&Coord::new(2, 4)));
        assert!(cs.contains(&Coord::new(2, 2)));
    }

    #[test]
    fn neighborhood_contains_vs_covers() {
        let n = Neighborhood::new(Coord::ORIGIN, 2, Metric::Linf);
        assert!(!n.contains(Coord::ORIGIN));
        assert!(n.covers(Coord::ORIGIN));
        assert!(n.contains(Coord::new(2, -2)));
        assert!(!n.contains(Coord::new(3, 0)));
    }

    #[test]
    fn pnbd_size_linf() {
        // pnbd is the (2r+1) square extended by 1 in each axis direction
        // (a plus-shaped union). |pnbd| = (2r+1)² + 4(2r+1) − 1... compute
        // directly and compare with a brute force union.
        for r in 1..5u32 {
            let n = Neighborhood::new(Coord::ORIGIN, r, Metric::Linf);
            let members = n.perturbed_members();
            let brute: std::collections::BTreeSet<_> = pnbd_centers(Coord::ORIGIN)
                .into_iter()
                .flat_map(|c| {
                    linf_offsets(r)
                        .into_iter()
                        .map(move |o| c + o)
                        .collect::<Vec<_>>()
                })
                .collect();
            assert_eq!(members, brute.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn frontier_is_outside_nbd() {
        for metric in [Metric::Linf, Metric::L2] {
            let n = Neighborhood::new(Coord::new(4, -2), 3, metric);
            let frontier = n.frontier();
            assert!(!frontier.is_empty());
            for f in &frontier {
                assert!(!n.contains(*f), "{f} should be outside nbd");
                assert!(
                    pnbd_centers(Coord::new(4, -2))
                        .iter()
                        .any(|&c| Neighborhood::new(c, 3, metric).contains(*f)),
                    "{f} should be inside pnbd"
                );
            }
        }
    }

    #[test]
    fn frontier_linf_is_the_ring_cross() {
        // For L∞, pnbd − nbd is exactly the four length-(2r+1) segments
        // hugging the square's sides: 4(2r+1) nodes... minus corners which
        // are NOT included (corner (r+1, r+1) is not within r of any
        // perturbed center). Check count = 4(2r+1).
        for r in 1..6u32 {
            let n = Neighborhood::new(Coord::ORIGIN, r, Metric::Linf);
            assert_eq!(n.frontier().len(), 4 * (2 * r as usize + 1));
        }
    }

    #[test]
    fn worst_case_corner_is_in_frontier() {
        // The paper's worst-case node P = (a−r, b+r+1) must be part of the
        // frontier of nbd(a,b).
        let (a, b, r) = (0, 0, 3i64);
        let n = Neighborhood::new(Coord::new(a, b), r as u32, Metric::Linf);
        assert!(n.frontier().contains(&Coord::new(a - r, b + r + 1)));
    }

    proptest! {
        #[test]
        fn members_match_contains(
            cx in -20i64..20, cy in -20i64..20, r in 1u32..5,
        ) {
            for metric in [Metric::Linf, Metric::L2] {
                let n = Neighborhood::new(Coord::new(cx, cy), r, metric);
                for m in n.members() {
                    prop_assert!(n.contains(m));
                }
                prop_assert_eq!(n.members().count(), n.len());
            }
        }
    }
}
