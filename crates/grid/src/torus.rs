//! Finite toroidal node arena.

use crate::{Coord, Metric};
use std::fmt;

/// Dense identifier of a node living on a [`Torus`].
///
/// Node ids index contiguous per-node state vectors in the simulator, so
/// they are a thin `u32` newtype rather than a coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A finite `width × height` toroidal grid of nodes.
///
/// The paper proves its results on the infinite grid and notes they hold
/// unchanged on a finite torus, which is what every executable experiment
/// here uses. Coordinates wrap: the canonical representative of `(x, y)`
/// is `(x mod width, y mod height)` with non-negative components.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Torus};
///
/// let t = Torus::new(10, 8);
/// assert_eq!(t.len(), 80);
/// // Wrap-around: (-1, -1) is the same node as (9, 7).
/// assert_eq!(t.id(Coord::new(-1, -1)), t.id(Coord::new(9, 7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Torus {
    width: u32,
    height: u32,
}

impl Torus {
    /// Creates a torus with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        Torus { width, height }
    }

    /// Creates the smallest torus that is safe for radius-`r` experiments:
    /// side `4(2r+1)`, which guarantees that distinct neighborhoods never
    /// self-overlap through the wrap-around and that the wavefront
    /// induction of the paper applies.
    #[must_use]
    pub fn for_radius(r: u32) -> Self {
        let side = 4 * (2 * r + 1);
        Torus::new(side, side)
    }

    /// Torus width.
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Torus height.
    #[inline]
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// Returns `true` if the torus contains no nodes (never, by
    /// construction — kept for `len`/`is_empty` API symmetry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Canonical (wrapped) representative of `c`. A component already in
    /// `[0, dim)` — every coordinate the arena hands out — is returned
    /// untouched; only out-of-range components pay the division.
    #[inline]
    #[must_use]
    pub fn canonical(&self, c: Coord) -> Coord {
        let wrap = |v: i64, dim: i64| -> i64 {
            if (0..dim).contains(&v) {
                v
            } else {
                v.rem_euclid(dim)
            }
        };
        Coord::new(
            wrap(c.x, i64::from(self.width)),
            wrap(c.y, i64::from(self.height)),
        )
    }

    /// Dense id of the node at (the canonical representative of) `c`.
    #[inline]
    #[must_use]
    pub fn id(&self, c: Coord) -> NodeId {
        let c = self.canonical(c);
        NodeId((c.y as u32) * self.width + (c.x as u32))
    }

    /// Coordinate of node `id` (canonical representative).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this torus.
    #[inline]
    #[must_use]
    pub fn coord(&self, id: NodeId) -> Coord {
        assert!(
            id.index() < self.len(),
            "node id {id} out of range for {self}"
        );
        Coord::new(i64::from(id.0 % self.width), i64::from(id.0 / self.width))
    }

    /// Minimal toroidal displacement from `a` to `b`: each component is
    /// reduced to the range `(-dim/2, dim/2]`.
    #[inline]
    #[must_use]
    pub fn displacement(&self, a: Coord, b: Coord) -> Coord {
        // Both operands are canonical, so `d` lies in `(-dim, dim)` and one
        // conditional add is its Euclidean remainder.
        let wrap = |d: i64, dim: i64| -> i64 {
            let d = if d < 0 { d + dim } else { d };
            if d > dim / 2 {
                d - dim
            } else {
                d
            }
        };
        let d = self.canonical(b) - self.canonical(a);
        Coord::new(
            wrap(d.x, i64::from(self.width)),
            wrap(d.y, i64::from(self.height)),
        )
    }

    /// Toroidal distance between two nodes under `metric`.
    #[must_use]
    pub fn dist(&self, a: Coord, b: Coord, metric: Metric) -> u64 {
        let d = self.displacement(a, b);
        match metric {
            Metric::Linf => Coord::ORIGIN.linf_dist(d),
            Metric::L2 => {
                // return the floor of the true distance; callers that need
                // exact radius checks use `within`.
                (Coord::ORIGIN.l2_dist_sq(d) as f64).sqrt() as u64
            }
        }
    }

    /// Whether nodes at `a` and `b` are within transmission radius `r`
    /// under `metric`, accounting for wrap-around.
    #[inline]
    #[must_use]
    pub fn within(&self, a: Coord, b: Coord, r: u32, metric: Metric) -> bool {
        let d = self.displacement(a, b);
        metric.within(Coord::ORIGIN, d, r)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Counted in `usize`: a torus of exactly 2³² nodes has ids up to
        // `u32::MAX`, and its length does not fit `u32`.
        (0..self.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over all node coordinates (canonical representatives).
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.node_ids().map(move |id| self.coord(id))
    }

    /// Iterates over the ids of the radius-`r` neighborhood of `center`
    /// (excluding `center` itself) under `metric`.
    pub fn neighborhood(
        &self,
        center: NodeId,
        r: u32,
        metric: Metric,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let c = self.coord(center);
        crate::nbd::metric_offsets(r, metric)
            .into_iter()
            .map(move |off| self.id(c + off))
    }

    /// Returns `true` when the torus is large enough that a radius-`r`
    /// neighborhood (L∞: a `(2r+1)`-square) cannot wrap onto itself —
    /// required for experiments to faithfully emulate the infinite grid.
    #[must_use]
    pub(crate) fn supports_radius(&self, r: u32) -> bool {
        self.width > 2 * (2 * r + 1) && self.height > 2 * (2 * r + 1)
    }
}

impl fmt::Display for Torus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "torus {}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Torus::new(0, 5);
    }

    #[test]
    fn id_coord_round_trip() {
        let t = Torus::new(7, 5);
        for id in t.node_ids() {
            assert_eq!(t.id(t.coord(id)), id);
        }
    }

    #[test]
    fn canonicalization_wraps_negative() {
        let t = Torus::new(10, 10);
        assert_eq!(t.canonical(Coord::new(-3, 12)), Coord::new(7, 2));
        assert_eq!(t.canonical(Coord::new(10, -10)), Coord::ORIGIN);
    }

    #[test]
    fn displacement_prefers_short_way_around() {
        let t = Torus::new(10, 10);
        // from (0,0) to (9,0): going left 1 is shorter than right 9
        assert_eq!(
            t.displacement(Coord::ORIGIN, Coord::new(9, 0)),
            Coord::new(-1, 0)
        );
        assert_eq!(
            t.displacement(Coord::ORIGIN, Coord::new(5, 5)),
            Coord::new(5, 5)
        );
    }

    #[test]
    fn wrap_fast_paths_equal_the_rem_euclid_reference_exhaustively() {
        // `canonical` skips the division for in-range components and
        // `displacement` wraps with a compare-and-add; both must equal the
        // all-`rem_euclid` definitions on every input, seams included.
        let wrap = |d: i64, dim: i64| {
            let d = d.rem_euclid(dim);
            if d > dim / 2 {
                d - dim
            } else {
                d
            }
        };
        for dim in [1u32, 2, 3, 7, 8, 12, 20] {
            // a square torus and a rectangular one, so x and y wrap apart
            for t in [Torus::new(dim, dim), Torus::new(dim, 2 * dim + 1)] {
                let (w, h) = (i64::from(t.width()), i64::from(t.height()));
                let span = -3 * i64::from(dim)..=3 * i64::from(dim);
                let b = Coord::new(w / 3, h - 1);
                for x in span.clone() {
                    for y in span.clone() {
                        let a = Coord::new(x, y);
                        let canon = Coord::new(x.rem_euclid(w), y.rem_euclid(h));
                        assert_eq!(t.canonical(a), canon, "{t} {a}");
                        for (from, to) in [(a, b), (b, a), (a, Coord::new(y, x))] {
                            let expect = Coord::new(
                                wrap(to.x.rem_euclid(w) - from.x.rem_euclid(w), w),
                                wrap(to.y.rem_euclid(h) - from.y.rem_euclid(h), h),
                            );
                            assert_eq!(t.displacement(from, to), expect, "{t} {from}->{to}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn within_respects_wraparound() {
        let t = Torus::new(20, 20);
        assert!(t.within(Coord::new(0, 0), Coord::new(19, 19), 1, Metric::Linf));
        assert!(t.within(Coord::new(0, 0), Coord::new(18, 0), 2, Metric::L2));
        assert!(!t.within(Coord::new(0, 0), Coord::new(10, 10), 3, Metric::Linf));
    }

    #[test]
    fn neighborhood_counts_on_big_torus() {
        let t = Torus::new(30, 30);
        let c = t.id(Coord::new(15, 15));
        for r in 1..5u32 {
            let n: Vec<_> = t.neighborhood(c, r, Metric::Linf).collect();
            assert_eq!(n.len(), (2 * r as usize + 1).pow(2) - 1);
            // all distinct
            let set: std::collections::HashSet<_> = n.iter().collect();
            assert_eq!(set.len(), n.len());
        }
    }

    #[test]
    fn neighborhood_near_the_seam_wraps() {
        let t = Torus::new(30, 30);
        let corner = t.id(Coord::ORIGIN);
        let n: Vec<_> = t.neighborhood(corner, 2, Metric::Linf).collect();
        assert_eq!(n.len(), 24);
        assert!(n.contains(&t.id(Coord::new(28, 28))));
    }

    #[test]
    fn for_radius_supports_radius() {
        for r in 1..8 {
            let t = Torus::for_radius(r);
            assert!(t.supports_radius(r));
        }
    }

    #[test]
    fn neighborhood_membership_matches_within() {
        let t = Torus::new(25, 25);
        let center = Coord::new(3, 21); // near the seam on purpose
        let cid = t.id(center);
        for metric in [Metric::Linf, Metric::L2] {
            let nbd: std::collections::HashSet<_> = t.neighborhood(cid, 3, metric).collect();
            for other in t.coords() {
                let expect = other != center && t.within(center, other, 3, metric);
                assert_eq!(
                    nbd.contains(&t.id(other)),
                    expect,
                    "metric={metric} other={other}"
                );
            }
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(Torus::new(4, 6).to_string(), "torus 4x6");
    }

    proptest! {
        #[test]
        fn toroidal_distance_is_symmetric(
            w in 2u32..40, h in 2u32..40,
            x1 in -50i64..50, y1 in -50i64..50,
            x2 in -50i64..50, y2 in -50i64..50,
        ) {
            let t = Torus::new(w, h);
            let a = Coord::new(x1, y1);
            let b = Coord::new(x2, y2);
            for m in [Metric::Linf, Metric::L2] {
                prop_assert_eq!(t.dist(a, b, m), t.dist(b, a, m));
            }
        }

        #[test]
        fn canonical_is_idempotent(
            w in 1u32..60, h in 1u32..60, x in -500i64..500, y in -500i64..500,
        ) {
            let t = Torus::new(w, h);
            let c = t.canonical(Coord::new(x, y));
            prop_assert_eq!(t.canonical(c), c);
            prop_assert!(c.x >= 0 && c.x < i64::from(w));
            prop_assert!(c.y >= 0 && c.y < i64::from(h));
        }

        #[test]
        fn displacement_lands_on_target(
            w in 1u32..60, h in 1u32..60,
            x1 in -50i64..50, y1 in -50i64..50,
            x2 in -50i64..50, y2 in -50i64..50,
        ) {
            let t = Torus::new(w, h);
            let a = Coord::new(x1, y1);
            let b = Coord::new(x2, y2);
            let d = t.displacement(a, b);
            prop_assert_eq!(t.canonical(t.canonical(a) + d), t.canonical(b));
        }
    }
}
