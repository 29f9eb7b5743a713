//! Table I — spatial extents of regions `A`, `B1`, `B2`, `C1`, `C2`,
//! `D1`, `D2`, `D3`, `J`, `K1`, `K2`.
//!
//! The rectangles are parameterised exactly as in the paper, with the
//! neighborhood center normalised to `(a, b) = (0, 0)`:
//!
//! * regions `A`–`D3` serve a committer `N = (p, q)` in region `U`
//!   (`1 ≤ p < q ≤ r`), building paths to `P = (−r, r+1)`;
//! * regions `J`, `K1`, `K2` serve a committer `N = (−r, −p)` in region
//!   `S1` (`0 ≤ p ≤ r−1`).

use rbcast_grid::Rect;

/// Parameters of a region-`U` committer: `N = (p, q)` with
/// `1 ≤ p < q ≤ r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UParams {
    /// Transmission radius.
    pub r: i64,
    /// Committer x-offset, `1 ≤ p < q`.
    pub p: i64,
    /// Committer y-offset, `p < q ≤ r`.
    pub q: i64,
}

impl UParams {
    /// Validates and builds the parameter triple.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ p < q ≤ r`.
    #[must_use]
    pub fn new(r: u32, p: u32, q: u32) -> Self {
        assert!(
            1 <= p && p < q && q <= r,
            "region U requires 1 ≤ p < q ≤ r (got r={r}, p={p}, q={q})"
        );
        UParams {
            r: i64::from(r),
            p: i64::from(p),
            q: i64::from(q),
        }
    }

    /// Region `A`: common neighbors of `N` and `P`;
    /// `{(x,y) | p−r ≤ x ≤ 0, 1 ≤ y ≤ q+r}` — `(r−p+1)(r+q)` nodes.
    #[must_use]
    pub(crate) fn region_a(&self) -> Rect {
        Rect::new(self.p - self.r, 0, 1, self.q + self.r)
    }

    /// Region `B1 ⊂ nbd(N)`: `{(x,y) | 1 ≤ x ≤ p−1, 1 ≤ y ≤ q+r}` —
    /// `(p−1)(r+q)` nodes.
    #[must_use]
    pub(crate) fn region_b1(&self) -> Rect {
        Rect::new(1, self.p - 1, 1, self.q + self.r)
    }

    /// Region `B2 ⊂ nbd(P)`: `B1` translated left by `r`.
    #[must_use]
    fn region_b2(&self) -> Rect {
        Rect::new(1 - self.r, self.p - 1 - self.r, 1, self.q + self.r)
    }

    /// Region `C1 ⊂ nbd(N)`: `{(x,y) | p+1 ≤ x ≤ r, q+1 ≤ y ≤ r+1}` —
    /// `(r−p)(r−q+1)` nodes.
    #[must_use]
    pub(crate) fn region_c1(&self) -> Rect {
        Rect::new(self.p + 1, self.r, self.q + 1, self.r + 1)
    }

    /// Region `C2 ⊂ nbd(P)`: `C1` translated by `(−r, +r)`.
    #[must_use]
    fn region_c2(&self) -> Rect {
        Rect::new(self.p + 1 - self.r, 0, self.q + 1 + self.r, 1 + 2 * self.r)
    }

    /// Region `D1 ⊂ nbd(N)`:
    /// `{(x,y) | p ≤ x ≤ p+r−q, r+q−p+1 ≤ y ≤ r+q}` — `p(r−q+1)` nodes.
    #[must_use]
    pub(crate) fn region_d1(&self) -> Rect {
        Rect::new(
            self.p,
            self.p + self.r - self.q,
            self.r + self.q - self.p + 1,
            self.r + self.q,
        )
    }

    /// Region `D2`: `{(x,y) | 1 ≤ x ≤ p, 1+r+q ≤ y ≤ 1+2r}` —
    /// `p(r−q+1)` nodes; every node of `D2` neighbors every node of `D1`.
    #[must_use]
    pub(crate) fn region_d2(&self) -> Rect {
        Rect::new(1, self.p, 1 + self.r + self.q, 1 + 2 * self.r)
    }

    /// Region `D3 ⊂ nbd(P)`: `D2` translated left by `r`.
    #[must_use]
    fn region_d3(&self) -> Rect {
        Rect::new(
            1 - self.r,
            self.p - self.r,
            1 + self.r + self.q,
            1 + 2 * self.r,
        )
    }

    /// The path-count identity of Fig. 5:
    /// `|A| + |B1| + |C1| + |D1| = r(2r+1)`.
    #[must_use]
    pub fn total_paths(&self) -> usize {
        self.region_a().len()
            + self.region_b1().len()
            + self.region_c1().len()
            + self.region_d1().len()
    }
}

/// Parameters of a region-`S1` committer: `N = (−r, −p)` with
/// `0 ≤ p ≤ r−1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S1Params {
    /// Transmission radius.
    pub r: i64,
    /// Committer y-offset (downward), `0 ≤ p ≤ r−1`.
    pub p: i64,
}

impl S1Params {
    /// Validates and builds the parameter pair.
    ///
    /// # Panics
    ///
    /// Panics unless `p ≤ r−1`.
    #[must_use]
    pub fn new(r: u32, p: u32) -> Self {
        assert!(p < r, "region S1 requires 0 ≤ p ≤ r−1 (got r={r}, p={p})");
        S1Params {
            r: i64::from(r),
            p: i64::from(p),
        }
    }

    /// Region `J`: common neighbors of `N` and `P`;
    /// `{(x,y) | −2r ≤ x ≤ 0, 1 ≤ y ≤ r−p}` — `(r−p)(2r+1)` nodes.
    #[must_use]
    pub(crate) fn region_j(&self) -> Rect {
        Rect::new(-2 * self.r, 0, 1, self.r - self.p)
    }

    /// Region `K1 ⊂ nbd(N)`: `{(x,y) | −2r ≤ x ≤ 0, 1−p ≤ y ≤ 0}` —
    /// `p(2r+1)` nodes.
    #[must_use]
    pub(crate) fn region_k1(&self) -> Rect {
        Rect::new(-2 * self.r, 0, 1 - self.p, 0)
    }

    /// Region `K2 ⊂ nbd(P)`: `K1` translated up by `r`.
    #[must_use]
    fn region_k2(&self) -> Rect {
        Rect::new(-2 * self.r, 0, 1 - self.p + self.r, self.r)
    }

    /// `|J| + |K1| = r(2r+1)`.
    #[must_use]
    pub fn total_paths(&self) -> usize {
        self.region_j().len() + self.region_k1().len()
    }
}

/// One row of the reproduced Table I: region name and its inclusive
/// extents (relative to `(a, b) = (0, 0)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    /// Region name as printed in the paper ("A", "B1", …).
    pub region: &'static str,
    /// The region rectangle.
    pub rect: Rect,
    /// Node count.
    pub count: usize,
}

/// Reproduces Table I for given `(r, p, q)` (regions `A`–`D3`) and the
/// `S1` rows `J`, `K1`, `K2` for offset `p_s1`.
#[must_use]
pub fn table_one(r: u32, p: u32, q: u32, p_s1: u32) -> Vec<TableRow> {
    let u = UParams::new(r, p, q);
    let s = S1Params::new(r, p_s1);
    let mut rows = vec![
        TableRow {
            region: "A",
            rect: u.region_a(),
            count: u.region_a().len(),
        },
        TableRow {
            region: "B1",
            rect: u.region_b1(),
            count: u.region_b1().len(),
        },
        TableRow {
            region: "B2",
            rect: u.region_b2(),
            count: u.region_b2().len(),
        },
        TableRow {
            region: "C1",
            rect: u.region_c1(),
            count: u.region_c1().len(),
        },
        TableRow {
            region: "C2",
            rect: u.region_c2(),
            count: u.region_c2().len(),
        },
        TableRow {
            region: "D1",
            rect: u.region_d1(),
            count: u.region_d1().len(),
        },
        TableRow {
            region: "D2",
            rect: u.region_d2(),
            count: u.region_d2().len(),
        },
        TableRow {
            region: "D3",
            rect: u.region_d3(),
            count: u.region_d3().len(),
        },
    ];
    rows.push(TableRow {
        region: "J",
        rect: s.region_j(),
        count: s.region_j().len(),
    });
    rows.push(TableRow {
        region: "K1",
        rect: s.region_k1(),
        count: s.region_k1().len(),
    });
    rows.push(TableRow {
        region: "K2",
        rect: s.region_k2(),
        count: s.region_k2().len(),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cardinality_formulas_hold() {
        for r in 2..=10u32 {
            for p in 1..r {
                for q in (p + 1)..=r {
                    let u = UParams::new(r, p, q);
                    let (ri, pi, qi) = (r as usize, p as usize, q as usize);
                    assert_eq!(u.region_a().len(), (ri - pi + 1) * (ri + qi));
                    assert_eq!(u.region_b1().len(), (pi - 1) * (ri + qi));
                    assert_eq!(u.region_b1().len(), u.region_b2().len());
                    assert_eq!(u.region_c1().len(), (ri - pi) * (ri - qi + 1));
                    assert_eq!(u.region_c1().len(), u.region_c2().len());
                    assert_eq!(u.region_d1().len(), pi * (ri - qi + 1));
                    assert_eq!(u.region_d1().len(), u.region_d2().len());
                    assert_eq!(u.region_d1().len(), u.region_d3().len());
                }
            }
        }
    }

    #[test]
    fn path_count_identity_u() {
        // |A| + |B1| + |C1| + |D1| = r(2r+1) for all valid (p, q).
        for r in 2..=12u32 {
            for p in 1..r {
                for q in (p + 1)..=r {
                    let u = UParams::new(r, p, q);
                    assert_eq!(u.total_paths(), crate::r_2r_plus_1(r), "r={r} p={p} q={q}");
                }
            }
        }
    }

    #[test]
    fn path_count_identity_s1() {
        for r in 1..=12u32 {
            for p in 0..r {
                let s = S1Params::new(r, p);
                assert_eq!(s.total_paths(), crate::r_2r_plus_1(r), "r={r} p={p}");
            }
        }
    }

    #[test]
    fn translations_match_paper() {
        let u = UParams::new(5, 2, 4);
        use rbcast_grid::Coord;
        assert_eq!(u.region_b2(), u.region_b1().translate(Coord::new(-5, 0)));
        assert_eq!(u.region_c2(), u.region_c1().translate(Coord::new(-5, 5)));
        assert_eq!(u.region_d3(), u.region_d2().translate(Coord::new(-5, 0)));
    }

    #[test]
    fn k2_is_k1_translated_up_by_r() {
        use rbcast_grid::Coord;
        for p in 0..4u32 {
            let s = S1Params::new(4, p);
            assert_eq!(s.region_k2(), s.region_k1().translate(Coord::new(0, 4)));
        }
    }

    #[test]
    #[should_panic(expected = "region U requires")]
    fn invalid_u_params_panic() {
        let _ = UParams::new(3, 2, 2); // p must be < q
    }

    #[test]
    #[should_panic(expected = "region S1 requires")]
    fn invalid_s1_params_panic() {
        let _ = S1Params::new(3, 3);
    }

    #[test]
    fn table_one_shape() {
        let rows = table_one(4, 1, 2, 0);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].region, "A");
        assert!(rows.iter().all(|row| row.count == row.rect.len()));
    }

    #[test]
    fn d1_d2_mutual_visibility() {
        // "each node in D2 is a neighbor of each node in D1" — maximum
        // distance between any pair is ≤ r.
        use rbcast_grid::Metric;
        for r in 2..=8u32 {
            for p in 1..r {
                for q in (p + 1)..=r {
                    let u = UParams::new(r, p, q);
                    for d1 in u.region_d1().points() {
                        for d2 in u.region_d2().points() {
                            assert!(
                                Metric::Linf.within(d1, d2, r),
                                "r={r} p={p} q={q}: {d1} !~ {d2}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_degenerate_regions() {
        // p = 1 makes B1/B2 empty; q = r makes C1 width... C1 has
        // (r−p)(r−q+1): q = r gives one row, still non-empty unless p = r.
        let u = UParams::new(3, 1, 2);
        assert!(u.region_b1().is_empty());
        assert!(u.region_b2().is_empty());
        // p = 0 (S1) makes K1/K2 empty.
        let s = S1Params::new(3, 0);
        assert!(s.region_k1().is_empty());
        assert!(s.region_k2().is_empty());
    }

    proptest! {
        #[test]
        fn regions_pairwise_disjoint(r in 2u32..9) {
            // exhaustively inside proptest: choose p, q via indices
            for p in 1..r {
                for q in (p + 1)..=r {
                    let u = UParams::new(r, p, q);
                    let regions = [
                        u.region_a(), u.region_b1(), u.region_b2(),
                        u.region_c1(), u.region_c2(), u.region_d1(),
                        u.region_d2(), u.region_d3(),
                    ];
                    for (i, a) in regions.iter().enumerate() {
                        for b in &regions[i + 1..] {
                            prop_assert!(
                                !a.overlaps(b),
                                "r={} p={} q={}: {} overlaps {}", r, p, q, a, b
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn s1_regions_pairwise_disjoint(r in 1u32..10) {
            for p in 0..r {
                let s = S1Params::new(r, p);
                let regions = [s.region_j(), s.region_k1(), s.region_k2()];
                for (i, a) in regions.iter().enumerate() {
                    for b in &regions[i + 1..] {
                        prop_assert!(!a.overlaps(b));
                    }
                }
            }
        }
    }
}
