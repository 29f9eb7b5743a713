//! Signed grid coordinates.

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A point of the (conceptually infinite) unit square grid.
///
/// Nodes in the paper are uniquely identified by their grid location
/// `(x, y)`; the designated source sits at the origin. Coordinates are
/// signed so that the constructive proofs (which reason about regions on
/// the infinite grid relative to an arbitrary center `(a, b)`) can be
/// expressed directly.
///
/// # Example
///
/// ```
/// use rbcast_grid::Coord;
///
/// let p = Coord::new(3, -1);
/// let q = p + Coord::new(-3, 1);
/// assert_eq!(q, Coord::ORIGIN);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// Horizontal grid position.
    pub x: i64,
    /// Vertical grid position.
    pub y: i64,
}

impl Coord {
    /// The grid origin `(0, 0)` — the designated broadcast source.
    pub const ORIGIN: Coord = Coord { x: 0, y: 0 };

    /// Creates a coordinate from its two components.
    ///
    /// ```
    /// use rbcast_grid::Coord;
    /// assert_eq!(Coord::new(2, 5).x, 2);
    /// ```
    #[must_use]
    pub const fn new(x: i64, y: i64) -> Self {
        Coord { x, y }
    }

    /// Chebyshev (L∞) distance to `other`:
    /// `max(|x1 − x2|, |y1 − y2|)`.
    ///
    /// ```
    /// use rbcast_grid::Coord;
    /// assert_eq!(Coord::new(0, 0).linf_dist(Coord::new(3, -2)), 3);
    /// ```
    #[inline]
    #[must_use]
    pub fn linf_dist(self, other: Coord) -> u64 {
        let dx = self.x.abs_diff(other.x);
        let dy = self.y.abs_diff(other.y);
        dx.max(dy)
    }

    /// Squared Euclidean (L2) distance to `other`.
    ///
    /// Working with the square avoids floating point entirely; the radius
    /// comparison `dist ≤ r` becomes `dist² ≤ r²`.
    ///
    /// ```
    /// use rbcast_grid::Coord;
    /// assert_eq!(Coord::new(0, 0).l2_dist_sq(Coord::new(3, 4)), 25);
    /// ```
    #[inline]
    #[must_use]
    pub fn l2_dist_sq(self, other: Coord) -> u64 {
        let dx = self.x.abs_diff(other.x);
        let dy = self.y.abs_diff(other.y);
        dx * dx + dy * dy
    }
}

impl Add for Coord {
    type Output = Coord;

    #[inline]
    fn add(self, rhs: Coord) -> Coord {
        Coord::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Coord {
    type Output = Coord;

    #[inline]
    fn sub(self, rhs: Coord) -> Coord {
        Coord::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Coord {
    type Output = Coord;

    #[inline]
    fn neg(self) -> Coord {
        Coord::new(-self.x, -self.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Coord {
    fn from((x, y): (i64, i64)) -> Self {
        Coord::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn origin_is_zero() {
        assert_eq!(Coord::ORIGIN, Coord::new(0, 0));
        assert_eq!(Coord::default(), Coord::ORIGIN);
    }

    #[test]
    fn linf_dist_examples() {
        assert_eq!(Coord::new(0, 0).linf_dist(Coord::new(0, 0)), 0);
        assert_eq!(Coord::new(1, 1).linf_dist(Coord::new(4, 2)), 3);
        assert_eq!(Coord::new(-5, 0).linf_dist(Coord::new(5, 0)), 10);
        assert_eq!(Coord::new(0, -7).linf_dist(Coord::new(0, 7)), 14);
    }

    #[test]
    fn l2_dist_sq_examples() {
        assert_eq!(Coord::new(0, 0).l2_dist_sq(Coord::new(1, 1)), 2);
        assert_eq!(Coord::new(-3, 0).l2_dist_sq(Coord::new(0, 4)), 25);
    }

    #[test]
    fn arithmetic_round_trip() {
        let a = Coord::new(7, -3);
        let b = Coord::new(-2, 9);
        assert_eq!(a + b - b, a);
        assert_eq!(a + (-a), Coord::ORIGIN);
    }

    #[test]
    fn display_formats_as_tuple() {
        assert_eq!(Coord::new(-1, 2).to_string(), "(-1, 2)");
    }

    #[test]
    fn from_tuple() {
        let c: Coord = (4, 5).into();
        assert_eq!(c, Coord::new(4, 5));
    }

    fn arb_coord() -> impl Strategy<Value = Coord> {
        (-10_000i64..10_000, -10_000i64..10_000).prop_map(|(x, y)| Coord::new(x, y))
    }

    proptest! {
        #[test]
        fn linf_is_a_metric(a in arb_coord(), b in arb_coord(), c in arb_coord()) {
            // identity
            prop_assert_eq!(a.linf_dist(a), 0);
            // symmetry
            prop_assert_eq!(a.linf_dist(b), b.linf_dist(a));
            // triangle inequality
            prop_assert!(a.linf_dist(c) <= a.linf_dist(b) + b.linf_dist(c));
        }

        #[test]
        fn l2_sq_symmetry_and_identity(a in arb_coord(), b in arb_coord()) {
            prop_assert_eq!(a.l2_dist_sq(a), 0);
            prop_assert_eq!(a.l2_dist_sq(b), b.l2_dist_sq(a));
        }

        #[test]
        fn metric_sandwich(a in arb_coord(), b in arb_coord()) {
            // L∞ ≤ L2 ≤ L1, expressed without floats:
            let linf = a.linf_dist(b);
            let l1 = a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
            let l2sq = a.l2_dist_sq(b);
            prop_assert!(linf * linf <= l2sq);
            prop_assert!(l2sq <= l1 * l1);
        }

        #[test]
        fn translation_invariance(a in arb_coord(), b in arb_coord(), t in arb_coord()) {
            prop_assert_eq!((a + t).linf_dist(b + t), a.linf_dist(b));
            prop_assert_eq!((a + t).l2_dist_sq(b + t), a.l2_dist_sq(b));
        }
    }
}
