//! Axial symmetry argument for region `S2` (the axis `OO′` of Fig. 3/7).
//!
//! The paper handles region `S2` by symmetry: reflection across the
//! anti-diagonal through `P = (−r, r+1)` maps region `U` onto region `S2`
//! while fixing `P`, so the Fig. 5 construction transfers verbatim. The
//! reflection is `(x, y) ↦ (1 − y, 1 − x)`.

use crate::paths_u;
use rbcast_grid::Coord;

/// The reflection across the anti-diagonal axis through `P`:
/// `(x, y) ↦ (1 − y, 1 − x)`. It is an involution fixing `P`.
#[must_use]
fn reflect(c: Coord) -> Coord {
    Coord::new(1 - c.y, 1 - c.x)
}

/// The enclosing neighborhood center for the region-`S2` construction:
/// the reflection of the region-`U` center `(0, r+1)`, i.e. `(−r, 1)`.
#[must_use]
pub fn enclosing_center(r: u32) -> Coord {
    reflect(paths_u::enclosing_center(r))
}

/// Builds the `r(2r+1)` node-disjoint paths from the region-`S2`
/// committer `N = (−q′, −p′)` (with `0 ≤ p′ < q′ ≤ r−1`) to `P`, by
/// reflecting the region-`U` construction for `(p, q) = (p′+1, q′+1)`.
///
/// # Panics
///
/// Panics unless `0 ≤ p′ < q′ ≤ r−1`.
#[must_use]
pub fn build(r: u32, p_prime: u32, q_prime: u32) -> Vec<Vec<Coord>> {
    assert!(
        p_prime < q_prime && q_prime < r,
        "region S2 requires 0 ≤ p' < q' ≤ r−1 (got r={r}, p'={p_prime}, q'={q_prime})"
    );
    paths_u::build(r, p_prime + 1, q_prime + 1)
        .into_iter()
        .map(|path| path.into_iter().map(reflect).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::region_s2;
    use crate::verify::verify_family;
    use crate::{r_2r_plus_1, worst_case_p};
    use rbcast_grid::Metric;

    #[test]
    fn reflection_is_involution_fixing_p() {
        for r in 1..=6u32 {
            let p = worst_case_p(r);
            assert_eq!(reflect(p), p, "P not fixed for r={r}");
        }
        for x in -5..5 {
            for y in -5..5 {
                let c = Coord::new(x, y);
                assert_eq!(reflect(reflect(c)), c);
            }
        }
    }

    #[test]
    fn reflection_preserves_linf_distance() {
        let pairs = [
            (Coord::new(0, 0), Coord::new(3, -2)),
            (Coord::new(-1, 4), Coord::new(2, 2)),
        ];
        for (a, b) in pairs {
            assert_eq!(a.linf_dist(b), reflect(a).linf_dist(reflect(b)));
        }
    }

    #[test]
    fn u_maps_onto_s2() {
        for r in 2..=8u32 {
            let mapped: std::collections::BTreeSet<Coord> = crate::corner::region_u(r)
                .into_iter()
                .map(reflect)
                .collect();
            let s2: std::collections::BTreeSet<Coord> = region_s2(r).into_iter().collect();
            assert_eq!(mapped, s2, "r={r}");
        }
    }

    #[test]
    fn reflected_families_verify() {
        for r in 2..=7u32 {
            for pp in 0..(r - 1) {
                for qp in (pp + 1)..r {
                    let n = Coord::new(-i64::from(qp), -i64::from(pp));
                    let paths = build(r, pp, qp);
                    assert_eq!(paths.len(), r_2r_plus_1(r));
                    let result = verify_family(
                        &paths,
                        n,
                        worst_case_p(r),
                        r,
                        Metric::Linf,
                        enclosing_center(r),
                        3,
                    );
                    assert_eq!(result, Ok(()), "r={r} p'={pp} q'={qp}");
                }
            }
        }
    }

    #[test]
    fn enclosing_center_is_reflected_u_center() {
        assert_eq!(enclosing_center(3), Coord::new(-3, 1));
    }

    #[test]
    #[should_panic(expected = "region S2 requires")]
    fn rejects_out_of_range() {
        let _ = build(3, 1, 3);
    }
}
