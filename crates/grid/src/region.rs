//! Inclusive rectangular lattice regions.
//!
//! The paper's constructive proofs (Table I and Figs. 1–7) are phrased in
//! terms of axis-aligned rectangles of lattice points such as
//! `A = {(x,y) | a+p−r ≤ x ≤ a, b+1 ≤ y ≤ b+q+r}`. [`Rect`] represents
//! exactly that shape.

use crate::Coord;
use std::fmt;

/// An inclusive axis-aligned rectangle of lattice points
/// `{(x, y) | x0 ≤ x ≤ x1, y0 ≤ y ≤ y1}`.
///
/// An *empty* rectangle (where `x0 > x1` or `y0 > y1`) is allowed and
/// contains no points — several Table I regions degenerate to empty for
/// boundary values of `(p, q)`.
///
/// # Example
///
/// ```
/// use rbcast_grid::Rect;
///
/// let r = Rect::new(0, 2, 0, 1);
/// assert_eq!(r.len(), 6);
/// assert!(r.contains((1, 1).into()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x0: i64,
    x1: i64,
    y0: i64,
    y1: i64,
}

impl Rect {
    /// Creates the rectangle `{x0 ≤ x ≤ x1, y0 ≤ y ≤ y1}`.
    ///
    /// Inverted bounds produce a valid empty rectangle.
    #[must_use]
    pub const fn new(x0: i64, x1: i64, y0: i64, y1: i64) -> Self {
        Rect { x0, x1, y0, y1 }
    }

    /// The canonical empty rectangle.
    #[cfg(test)]
    const fn empty() -> Self {
        Rect::new(1, 0, 1, 0)
    }

    /// Number of lattice points contained.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.x0 > self.x1 || self.y0 > self.y1 {
            0
        } else {
            ((self.x1 - self.x0 + 1) as usize) * ((self.y1 - self.y0 + 1) as usize)
        }
    }

    /// True iff the rectangle contains no lattice points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, p: Coord) -> bool {
        p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
    }

    /// Translates the rectangle by `d`.
    #[must_use]
    pub fn translate(&self, d: Coord) -> Rect {
        Rect::new(self.x0 + d.x, self.x1 + d.x, self.y0 + d.y, self.y1 + d.y)
    }

    /// Intersection of two rectangles (possibly empty).
    #[must_use]
    fn intersect(&self, other: &Rect) -> Rect {
        Rect::new(
            self.x0.max(other.x0),
            self.x1.min(other.x1),
            self.y0.max(other.y0),
            self.y1.min(other.y1),
        )
    }

    /// Whether two rectangles share at least one lattice point.
    #[must_use]
    pub fn overlaps(&self, other: &Rect) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Iterates over the contained lattice points in row-major order.
    pub fn points(&self) -> impl Iterator<Item = Coord> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| Coord::new(x, y)))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("[empty rect]")
        } else {
            write!(
                f,
                "[{}..={}] x [{}..={}]",
                self.x0, self.x1, self.y0, self.y1
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn len_and_points_agree() {
        let r = Rect::new(-2, 3, 1, 2);
        assert_eq!(r.len(), 12);
        assert_eq!(r.points().count(), 12);
    }

    #[test]
    fn empty_rects() {
        assert!(Rect::empty().is_empty());
        assert_eq!(Rect::new(5, 2, 0, 0).len(), 0);
        assert_eq!(Rect::new(5, 2, 0, 0).points().count(), 0);
        assert_eq!(Rect::empty().to_string(), "[empty rect]");
    }

    #[test]
    fn contains_boundary() {
        let r = Rect::new(0, 4, 0, 4);
        assert!(r.contains(Coord::new(0, 0)));
        assert!(r.contains(Coord::new(4, 4)));
        assert!(!r.contains(Coord::new(5, 4)));
        assert!(!r.contains(Coord::new(-1, 0)));
    }

    #[test]
    fn translate_moves_every_point() {
        let r = Rect::new(0, 2, 0, 2);
        let t = r.translate(Coord::new(10, -5));
        assert_eq!(t, Rect::new(10, 12, -5, -3));
        assert_eq!(t.len(), r.len());
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 5, 0, 5);
        let b = Rect::new(3, 8, 3, 8);
        let i = a.intersect(&b);
        assert_eq!(i, Rect::new(3, 5, 3, 5));
        assert!(a.overlaps(&b));

        let c = Rect::new(6, 9, 0, 5);
        assert!(!a.overlaps(&c));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn single_point_rect() {
        let r = Rect::new(3, 3, -1, -1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.points().next(), Some(Coord::new(3, -1)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Rect::new(0, 1, 2, 3).to_string(), "[0..=1] x [2..=3]");
    }

    proptest! {
        #[test]
        fn points_match_contains(
            x0 in -10i64..10, dx in 0i64..6, y0 in -10i64..10, dy in 0i64..6,
        ) {
            let r = Rect::new(x0, x0 + dx, y0, y0 + dy);
            let pts: Vec<_> = r.points().collect();
            prop_assert_eq!(pts.len(), r.len());
            for p in &pts {
                prop_assert!(r.contains(*p));
            }
            // a point just outside is not contained
            prop_assert!(!r.contains(Coord::new(x0 - 1, y0)));
            prop_assert!(!r.contains(Coord::new(x0, y0 + dy + 1)));
        }

        #[test]
        fn intersect_is_commutative_and_contained(
            ax0 in -10i64..10, adx in 0i64..8, ay0 in -10i64..10, ady in 0i64..8,
            bx0 in -10i64..10, bdx in 0i64..8, by0 in -10i64..10, bdy in 0i64..8,
        ) {
            let a = Rect::new(ax0, ax0 + adx, ay0, ay0 + ady);
            let b = Rect::new(bx0, bx0 + bdx, by0, by0 + bdy);
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
            for p in a.intersect(&b).points() {
                prop_assert!(a.contains(p) && b.contains(p));
            }
        }
    }
}
