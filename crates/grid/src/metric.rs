//! The two distance metrics analysed by the paper.

use crate::Coord;
use std::fmt;

/// Distance metric on the grid (§II of the paper).
///
/// * [`Metric::Linf`] — Chebyshev distance; a radius-`r` neighborhood is a
///   `(2r+1) × (2r+1)` square minus its center, i.e. `(2r+1)² − 1` nodes.
///   This metric admits exact fault-tolerance thresholds.
/// * [`Metric::L2`] — Euclidean distance; a radius-`r` neighborhood is the
///   set of lattice points inside a circle of radius `r`, approximately
///   `πr²` of them. This is the practically relevant metric, for which the
///   paper gives approximate thresholds.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric};
///
/// let a = Coord::new(0, 0);
/// let b = Coord::new(3, 3);
/// assert!(Metric::Linf.within(a, b, 3));   // max(3,3) = 3 ≤ 3
/// assert!(!Metric::L2.within(a, b, 3));    // √18 ≈ 4.24 > 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// The L∞ (Chebyshev) metric: `max(|Δx|, |Δy|)`.
    #[default]
    Linf,
    /// The L2 (Euclidean) metric: `√(Δx² + Δy²)`.
    L2,
}

impl Metric {
    /// Both metrics, in `USAGE` order.
    pub const ALL: [Metric; 2] = [Metric::Linf, Metric::L2];

    /// The metric's CLI spelling (`Display` is the prose name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::Linf => "linf",
            Metric::L2 => "l2",
        }
    }

    /// The inverse of [`Metric::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Returns `true` when `a` and `b` are within distance `r` of each
    /// other, i.e. when a transmission by one is heard by the other.
    ///
    /// The comparison is exact (integer) in both metrics.
    #[inline]
    #[must_use]
    pub fn within(self, a: Coord, b: Coord, r: u32) -> bool {
        match self {
            Metric::Linf => a.linf_dist(b) <= u64::from(r),
            Metric::L2 => a.l2_dist_sq(b) <= u64::from(r) * u64::from(r),
        }
    }

    /// Number of nodes in a radius-`r` neighborhood, *excluding* the
    /// center node itself.
    ///
    /// For L∞ this is exactly `(2r+1)² − 1`; for L2 it is the Gauss circle
    /// lattice count minus one.
    ///
    /// ```
    /// use rbcast_grid::Metric;
    /// assert_eq!(Metric::Linf.neighborhood_size(2), 24);
    /// assert_eq!(Metric::L2.neighborhood_size(2), 12);
    /// ```
    ///
    /// Counted, not materialised, so a caller can vet a radius before
    /// anything of that size is allocated; saturates at `usize::MAX`
    /// (under L2 from `r = 2¹⁶`, where the disc already holds more than
    /// 2³³ points and nobody walks its rows).
    #[must_use]
    pub fn neighborhood_size(self, r: u32) -> usize {
        let r = u128::from(r);
        let ball = match self {
            Metric::Linf => (2 * r + 1).pow(2),
            Metric::L2 if r >= 1 << 16 => u128::MAX,
            // Row `±dy` of the closed disc holds 2⌊√(r² − dy²)⌋ + 1 points.
            Metric::L2 => {
                let rows = (1..=r).map(|dy| 2 * (2 * (r * r - dy * dy).isqrt() + 1));
                rows.sum::<u128>() + (2 * r + 1)
            }
        };
        usize::try_from(ball - 1).unwrap_or(usize::MAX)
    }

    /// The paper's Byzantine achievability threshold for this metric:
    /// reliable broadcast is possible whenever `t < threshold`.
    ///
    /// * L∞ (Theorem 1): `½·r(2r+1)` — exact (matches Koo's impossibility).
    /// * L2 (§VIII): `0.23·πr²` — approximate, valid for large `r`.
    #[must_use]
    pub fn byzantine_threshold(self, r: u32) -> f64 {
        let r = f64::from(r);
        match self {
            Metric::Linf => 0.5 * r * (2.0 * r + 1.0),
            Metric::L2 => 0.23 * std::f64::consts::PI * r * r,
        }
    }

    /// The paper's crash-stop achievability threshold for this metric:
    /// reliable broadcast is possible whenever `t < threshold`.
    ///
    /// * L∞ (Theorems 4–5): `r(2r+1)` — exact.
    /// * L2 (§VIII): `0.46·πr²` — approximate.
    #[must_use]
    pub fn crash_threshold(self, r: u32) -> f64 {
        let r = f64::from(r);
        match self {
            Metric::Linf => r * (2.0 * r + 1.0),
            Metric::L2 => 0.46 * std::f64::consts::PI * r * r,
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Linf => f.write_str("L-infinity"),
            Metric::L2 => f.write_str("L2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn within_linf_boundary() {
        let o = Coord::ORIGIN;
        assert!(Metric::Linf.within(o, Coord::new(2, 2), 2));
        assert!(!Metric::Linf.within(o, Coord::new(3, 0), 2));
        assert!(Metric::Linf.within(o, o, 0));
    }

    #[test]
    fn within_l2_boundary() {
        let o = Coord::ORIGIN;
        // (3,4) is at exactly distance 5
        assert!(Metric::L2.within(o, Coord::new(3, 4), 5));
        assert!(!Metric::L2.within(o, Coord::new(3, 4), 4));
        // corner of the square is NOT inside the L2 ball of the same radius
        assert!(!Metric::L2.within(o, Coord::new(2, 2), 2));
    }

    #[test]
    fn neighborhood_sizes_linf_formula() {
        for r in 1..10u32 {
            let expected = ((2 * r as usize + 1).pow(2)) - 1;
            assert_eq!(Metric::Linf.neighborhood_size(r), expected, "r={r}");
        }
    }

    #[test]
    fn neighborhood_size_counts_what_the_stencil_holds() {
        for metric in Metric::ALL {
            for r in 0..=24 {
                assert_eq!(
                    metric.neighborhood_size(r),
                    crate::metric_offsets(r, metric).len(),
                    "{metric} r={r}"
                );
            }
            // Far past anything a stencil could be built for: an answer,
            // not an overflow or a four-billion-row walk.
            assert!(metric.neighborhood_size(1_000_000) > 1 << 40);
            assert_eq!(metric.neighborhood_size(u32::MAX), usize::MAX);
        }
    }

    #[test]
    fn neighborhood_sizes_l2_small_radii() {
        // Gauss circle problem values N(r) (lattice points with x²+y² ≤ r²),
        // minus 1 for the center: r=1 → 4, r=2 → 12, r=3 → 28, r=4 → 48, r=5 → 80.
        let expected = [(1u32, 4usize), (2, 12), (3, 28), (4, 48), (5, 80)];
        for (r, n) in expected {
            assert_eq!(Metric::L2.neighborhood_size(r), n, "r={r}");
        }
    }

    #[test]
    fn l2_ball_is_subset_of_linf_ball() {
        for r in 1..8u32 {
            assert!(Metric::L2.neighborhood_size(r) <= Metric::Linf.neighborhood_size(r));
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // thresholds are exact halves of integers
    fn byzantine_threshold_linf_values() {
        // ½ r(2r+1): r=2 → 5, r=3 → 10.5, r=4 → 18
        assert_eq!(Metric::Linf.byzantine_threshold(2), 5.0);
        assert_eq!(Metric::Linf.byzantine_threshold(3), 10.5);
        assert_eq!(Metric::Linf.byzantine_threshold(4), 18.0);
    }

    #[test]
    fn crash_threshold_is_twice_byzantine_in_linf() {
        for r in 1..12u32 {
            let byz = Metric::Linf.byzantine_threshold(r);
            let crash = Metric::Linf.crash_threshold(r);
            assert!((crash - 2.0 * byz).abs() < 1e-9);
        }
    }

    #[test]
    fn byzantine_fraction_of_neighborhood_approaches_one_fourth_linf() {
        // The paper: "slightly less than one-fourth fraction of nodes in
        // any neighborhood". t/|nbd| = ½r(2r+1) / ((2r+1)²−1) → ¼.
        let r = 200u32;
        let frac = Metric::Linf.byzantine_threshold(r) / Metric::Linf.neighborhood_size(r) as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::Linf.to_string(), "L-infinity");
        assert_eq!(Metric::L2.to_string(), "L2");
    }

    proptest! {
        #[test]
        fn within_is_symmetric(
            x1 in -100i64..100, y1 in -100i64..100,
            x2 in -100i64..100, y2 in -100i64..100,
            r in 0u32..50,
        ) {
            let a = Coord::new(x1, y1);
            let b = Coord::new(x2, y2);
            for m in [Metric::Linf, Metric::L2] {
                prop_assert_eq!(m.within(a, b, r), m.within(b, a, r));
            }
        }

        #[test]
        fn within_monotone_in_radius(
            x in -100i64..100, y in -100i64..100, r in 0u32..50,
        ) {
            let a = Coord::ORIGIN;
            let b = Coord::new(x, y);
            for m in [Metric::Linf, Metric::L2] {
                if m.within(a, b, r) {
                    prop_assert!(m.within(a, b, r + 1));
                }
            }
        }

        #[test]
        fn l2_within_implies_linf_within(
            x in -100i64..100, y in -100i64..100, r in 0u32..50,
        ) {
            let a = Coord::ORIGIN;
            let b = Coord::new(x, y);
            if Metric::L2.within(a, b, r) {
                prop_assert!(Metric::Linf.within(a, b, r));
            }
        }
    }
}
