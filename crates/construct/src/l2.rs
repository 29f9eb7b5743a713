//! Euclidean-metric constructions (§VIII, Figs. 11–13).
//!
//! The paper's L2 arguments are approximate: lattice counts of circular
//! regions are `area ± O(r)`. This module computes the exact lattice
//! quantities so the experiment binaries can report how fast the ratios
//! converge to the paper's constants:
//!
//! * half-neighborhood population `≈ 0.5·πr²` (Fig. 11),
//! * disjoint `P–Q` paths inside one neighborhood for
//!   `|PQ| ≈ r√2` `≈ 1.47r² ≈ 0.47·πr²` (Fig. 12),
//! * strip faults per neighborhood `≈ 0.6·πr²`, half of them faulty
//!   `≈ 0.3·πr²` (Fig. 13).

use rbcast_flow::vertex_disjoint_count;
use rbcast_grid::{Coord, Metric};
use std::collections::HashMap;

/// Number of lattice points in the closed L2 disk of radius `r`
/// (the Gauss circle count, center included).
#[must_use]
pub fn disk_count(r: u32) -> usize {
    let ri = i64::from(r);
    let r_sq = i64::from(r) * i64::from(r);
    let mut n = 0;
    for y in -ri..=ri {
        for x in -ri..=ri {
            if x * x + y * y <= r_sq {
                n += 1;
            }
        }
    }
    n
}

/// Number of lattice points of the closed disk strictly on the negative-x
/// side of the medial axis (`x < 0`) — the "half-neighborhood" of
/// Fig. 11, whose population must exceed `2t + 1`.
#[must_use]
pub fn half_disk_count(r: u32) -> usize {
    let ri = i64::from(r);
    let r_sq = i64::from(r) * i64::from(r);
    let mut n = 0;
    for y in -ri..=ri {
        for x in -ri..=-1 {
            if x * x + y * y <= r_sq {
                n += 1;
            }
        }
    }
    n
}

/// Number of lattice points of the closed disk strictly on the negative
/// side of the axis perpendicular to direction `(dx, dy)` — the
/// half-neighborhood of Fig. 11 for an arbitrary frontier direction
/// `NQ` (the medial axis itself is excluded, as in the paper).
///
/// # Panics
///
/// Panics if `(dx, dy)` is the zero vector.
#[cfg(test)]
fn half_disk_count_dir(r: u32, dx: i64, dy: i64) -> usize {
    assert!(dx != 0 || dy != 0, "direction must be non-zero");
    let ri = i64::from(r);
    let r_sq = ri * ri;
    let mut n = 0;
    for y in -ri..=ri {
        for x in -ri..=ri {
            if x * x + y * y <= r_sq && x * dx + y * dy < 0 {
                n += 1;
            }
        }
    }
    n
}

/// The integer separation used for the Fig. 12 worst case: `⌊r·√2⌋`.
#[must_use]
fn worst_case_separation(r: u32) -> i64 {
    (f64::from(r) * std::f64::consts::SQRT_2).floor() as i64
}

/// Result of the Fig. 12 disjoint-path computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig12Result {
    /// Transmission radius.
    pub r: u32,
    /// `P`–`Q` separation (`⌊r√2⌋`).
    pub separation: i64,
    /// Lattice points in the enclosing disk around the midpoint.
    pub disk_nodes: usize,
    /// Common neighbors of `P` and `Q` inside the disk (region `A`,
    /// two-hop paths).
    pub common_neighbors: usize,
    /// Maximum vertex-disjoint `P`–`Q` paths inside the disk.
    pub disjoint_paths: u32,
}

impl Fig12Result {
    /// `disjoint_paths / r²` — the paper predicts `≈ 1.47` for large `r`.
    #[must_use]
    pub fn paths_per_r_sq(&self) -> f64 {
        f64::from(self.disjoint_paths) / (f64::from(self.r) * f64::from(self.r))
    }
}

/// Computes the Fig. 12 construction for radius `r`: `P` and `Q` at
/// lattice distance `⌊r√2⌋`, paths constrained to the closed L2 ball
/// around the midpoint `M`, counted by max-flow.
///
/// # Panics
///
/// Panics if `r < 2` (the construction needs `P ≠ Q ≠ M`).
#[must_use]
pub fn fig12(r: u32) -> Fig12Result {
    assert!(r >= 2, "fig12 requires r >= 2");
    let d = worst_case_separation(r);
    let p = Coord::new(0, 0);
    let q = Coord::new(d, 0);
    let m = Coord::new(d / 2, 0);

    // Lattice points of the closed disk around M.
    let ri = i64::from(r);
    let mut nodes = Vec::new();
    for y in -ri..=ri {
        for x in (m.x - ri)..=(m.x + ri) {
            let c = Coord::new(x, y);
            if Metric::L2.within(m, c, r) {
                nodes.push(c);
            }
        }
    }
    let index: HashMap<Coord, usize> = nodes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    assert!(index.contains_key(&p) && index.contains_key(&q));

    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&a| {
            nodes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b != a && Metric::L2.within(a, b, r))
                .map(|(j, _)| j)
                .collect()
        })
        .collect();

    let common = nodes
        .iter()
        .filter(|&&c| c != p && c != q && Metric::L2.within(p, c, r) && Metric::L2.within(q, c, r))
        .count();

    let disjoint = vertex_disjoint_count(&adj, index[&p], index[&q], None);

    Fig12Result {
        r,
        separation: d,
        disk_nodes: nodes.len(),
        common_neighbors: common,
        disjoint_paths: disjoint,
    }
}

/// Counts of the explicit Fig. 12 path families, lattice-rounded.
///
/// The paper builds `P`–`Q` paths from region pairs: `A` (common
/// neighbors, 2-hop), `B1 → B2` with `B2 = B1 + (r, 0)`, `C1 → C2` with
/// `C2 = C1 + (⌊r/√2⌉, 0)`, and `E1 → E2` with `E2` the mirror of `E1`
/// across the perpendicular bisector `OO'`. On the lattice the regions
/// are materialised greedily (a node joins at most one family), so the
/// total is a valid disjoint-path count and a lower bound on the
/// max-flow optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig12Regions {
    /// Transmission radius.
    pub r: u32,
    /// Two-hop paths through common neighbors (region `A`).
    pub a: usize,
    /// Three-hop paths through the `(r, 0)` translation (regions `B`).
    pub b_pairs: usize,
    /// Three-hop paths through the `(⌊r/√2⌉, 0)` translation (regions `C`/`D`).
    pub c_pairs: usize,
    /// Three-hop paths through the `OO'` mirror pairing (regions `E`).
    pub e_pairs: usize,
}

impl Fig12Regions {
    /// Total disjoint paths the explicit families yield.
    #[must_use]
    pub fn total(&self) -> usize {
        self.a + self.b_pairs + self.c_pairs + self.e_pairs
    }

    /// `total / r²` — the paper estimates the family areas sum to
    /// `≈ 1.47r²`.
    #[must_use]
    pub fn per_r_sq(&self) -> f64 {
        self.total() as f64 / (f64::from(self.r) * f64::from(self.r))
    }
}

/// Builds the explicit Fig. 12 families for radius `r` and returns their
/// (greedily disjointified) sizes. Every counted node set corresponds to
/// a valid `P`–`Q` path inside the ball around the midpoint `M`.
///
/// # Panics
///
/// Panics if `r < 2`.
#[must_use]
pub fn fig12_regions(r: u32) -> Fig12Regions {
    assert!(r >= 2, "fig12_regions requires r >= 2");
    let d = worst_case_separation(r);
    let p = Coord::new(0, 0);
    let q = Coord::new(d, 0);
    let m = Coord::new(d / 2, 0);
    let in_ball = |c: Coord| Metric::L2.within(m, c, r) && c != p && c != q;
    let near = |a: Coord, b: Coord| Metric::L2.within(a, b, r);

    let ri = i64::from(r);
    let mut used: std::collections::HashSet<Coord> = std::collections::HashSet::new();

    // A: common neighbors — 2-hop paths.
    let mut a = 0;
    for y in -ri..=ri {
        for x in (m.x - ri)..=(m.x + ri) {
            let c = Coord::new(x, y);
            if in_ball(c) && near(p, c) && near(q, c) {
                used.insert(c);
                a += 1;
            }
        }
    }

    // Pair families: for each candidate first relay b1 near P, the second
    // relay is a fixed translation/mirror; take the pair when both nodes
    // are free, in the ball, mutually adjacent, and correctly attached.
    let mut take_pairs = |offset: Box<dyn Fn(Coord) -> Coord>| -> usize {
        let mut n = 0;
        for y in -ri..=ri {
            for x in (m.x - ri)..=(m.x + ri) {
                let b1 = Coord::new(x, y);
                let b2 = offset(b1);
                if b1 != b2
                    && in_ball(b1)
                    && in_ball(b2)
                    && !used.contains(&b1)
                    && !used.contains(&b2)
                    && near(p, b1)
                    && near(b1, b2)
                    && near(b2, q)
                {
                    used.insert(b1);
                    used.insert(b2);
                    n += 1;
                }
            }
        }
        n
    };

    let b_pairs = take_pairs(Box::new(move |c| c + Coord::new(i64::from(r), 0)));
    let c_off = (f64::from(r) / std::f64::consts::SQRT_2).round() as i64;
    let c_pairs = take_pairs(Box::new(move |c| c + Coord::new(c_off, 0)));
    // E: mirror across the perpendicular bisector x = d/2.
    let e_pairs = take_pairs(Box::new(move |c| Coord::new(d - c.x, c.y)));

    Fig12Regions {
        r,
        a,
        b_pairs,
        c_pairs,
        e_pairs,
    }
}

/// Fig. 13 lattice counts for the width-`r` strip under the L2 metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig13Result {
    /// Transmission radius.
    pub r: u32,
    /// Maximum strip nodes in any closed L2 disk of radius `r`
    /// (`≈ 0.6·πr²`).
    pub max_strip_per_disk: usize,
    /// Maximum checkerboard half-strip nodes per disk (`≈ 0.3·πr²`).
    pub max_half_strip_per_disk: usize,
}

/// Computes the Fig. 13 counts by brute force over disk centers.
#[must_use]
pub fn fig13(r: u32) -> Fig13Result {
    let ri = i64::from(r);
    let r_sq = ri * ri;
    let mut max_strip = 0;
    let mut max_half = 0;
    for cy in 0..=1i64 {
        for cx in -2 * ri..=3 * ri {
            let mut strip = 0;
            let mut half = 0;
            for dy in -ri..=ri {
                for dx in -ri..=ri {
                    if dx * dx + dy * dy > r_sq {
                        continue;
                    }
                    let c = Coord::new(cx + dx, cy + dy);
                    if crate::impossibility::in_crash_strip(r, c) {
                        strip += 1;
                        if (c.x + c.y).rem_euclid(2) == 0 {
                            half += 1;
                        }
                    }
                }
            }
            max_strip = max_strip.max(strip);
            max_half = max_half.max(half);
        }
    }
    Fig13Result {
        r,
        max_strip_per_disk: max_strip,
        max_half_strip_per_disk: max_half,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_counts_gauss_circle() {
        // Known Gauss circle values N(r): 1, 5, 13, 29, 49, 81, 113, 149.
        let expected = [(0u32, 1usize), (1, 5), (2, 13), (3, 29), (4, 49), (5, 81)];
        for (r, n) in expected {
            assert_eq!(disk_count(r), n, "r={r}");
        }
    }

    #[test]
    fn half_disk_approaches_half_pi_r_sq() {
        for r in [10u32, 20, 40] {
            let ratio = half_disk_count(r) as f64 / (f64::from(r) * f64::from(r));
            let target = 0.5 * std::f64::consts::PI;
            assert!(
                (ratio - target).abs() < 0.25,
                "r={r} ratio={ratio} target={target}"
            );
        }
    }

    #[test]
    fn directional_half_disks_match_axis_aligned() {
        for r in 1..=15u32 {
            assert_eq!(half_disk_count_dir(r, 1, 0), half_disk_count(r), "r={r}");
        }
    }

    #[test]
    fn directional_half_disks_are_near_half_pi_r_sq_in_all_directions() {
        // the §VIII argument holds for any frontier direction NQ
        let r = 20u32;
        let r_sq = f64::from(r) * f64::from(r);
        for (dx, dy) in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (-1, 3)] {
            let ratio = half_disk_count_dir(r, dx, dy) as f64 / r_sq;
            assert!(
                (ratio - 0.5 * std::f64::consts::PI).abs() < 0.15,
                "dir=({dx},{dy}) ratio={ratio}"
            );
        }
    }

    #[test]
    fn opposite_directions_tile_the_off_axis_disk() {
        // points strictly on each side + points on the axis = disk
        let r = 9u32;
        for (dx, dy) in [(1, 0), (1, 1), (2, 1)] {
            let pos = half_disk_count_dir(r, dx, dy);
            let neg = half_disk_count_dir(r, -dx, -dy);
            assert!(pos + neg < disk_count(r), "axis points must remain");
            assert_eq!(pos, neg, "symmetry");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_direction_panics() {
        let _ = half_disk_count_dir(3, 0, 0);
    }

    #[test]
    fn half_disk_is_less_than_half_of_disk() {
        for r in 1..=20u32 {
            // strictly less: the x = 0 column is excluded
            assert!(2 * half_disk_count(r) < disk_count(r));
        }
    }

    #[test]
    fn separation_is_floor_r_sqrt2() {
        assert_eq!(worst_case_separation(5), 7);
        assert_eq!(worst_case_separation(10), 14);
        assert_eq!(worst_case_separation(20), 28);
    }

    #[test]
    fn fig12_small_radius_sanity() {
        let res = fig12(5);
        assert_eq!(res.separation, 7);
        assert!(res.disk_nodes > 0);
        // disjoint paths should be positive and bounded by the disk size
        assert!(res.disjoint_paths > 0);
        assert!((res.disjoint_paths as usize) < res.disk_nodes);
        // common neighbors provide a lower bound on disjoint paths
        // (each common neighbor is a 2-hop path, plus P–Q may be out of
        // direct range at distance ⌊r√2⌋ > r)
        assert!(res.disjoint_paths as usize >= res.common_neighbors);
    }

    #[test]
    fn fig12_ratio_approaches_paper_constant() {
        // 1.47 r² is the paper's area estimate; at moderate r the lattice
        // count should be in the right ballpark.
        let res = fig12(10);
        let ratio = res.paths_per_r_sq();
        assert!(
            (1.0..=2.0).contains(&ratio),
            "ratio {ratio} wildly off the paper's 1.47"
        );
    }

    #[test]
    fn fig12_supports_byzantine_threshold() {
        // The induction needs disjoint_paths ≥ 2t+1 with t = ⌊0.23πr²⌋.
        for r in [6u32, 8, 10] {
            let res = fig12(r);
            let t = (0.23 * std::f64::consts::PI * f64::from(r) * f64::from(r)) as u32;
            assert!(
                res.disjoint_paths > 2 * t,
                "r={r}: {} < 2·{t}+1",
                res.disjoint_paths
            );
        }
    }

    #[test]
    fn fig12_regions_are_valid_disjoint_paths() {
        // the greedy family total is a genuine disjoint-path count:
        // bounded by the max-flow optimum
        for r in [5u32, 8, 10] {
            let regions = fig12_regions(r);
            let flow = fig12(r);
            assert!(
                regions.total() as u32 <= flow.disjoint_paths,
                "r={r}: {} > {}",
                regions.total(),
                flow.disjoint_paths
            );
            assert!(regions.a > 0 && regions.total() > regions.a);
        }
    }

    #[test]
    fn fig12_regions_approach_the_paper_area_sum() {
        // the explicit families should capture the bulk of 1.47r²
        let regions = fig12_regions(16);
        let ratio = regions.per_r_sq();
        assert!(ratio > 1.0, "ratio={ratio} too small");
        assert!(ratio <= 1.8, "ratio={ratio} exceeds plausibility");
    }

    #[test]
    fn fig12_regions_support_threshold_for_moderate_r() {
        for r in [8u32, 12, 16] {
            let t = (0.23 * std::f64::consts::PI * f64::from(r) * f64::from(r)) as usize;
            let regions = fig12_regions(r);
            assert!(
                regions.total() > 2 * t,
                "r={r}: {} < {}",
                regions.total(),
                2 * t + 1
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires r >= 2")]
    fn fig12_regions_rejects_tiny_radius() {
        let _ = fig12_regions(1);
    }

    #[test]
    fn fig13_ratios() {
        let res = fig13(12);
        let r_sq = 144.0;
        let strip_ratio = res.max_strip_per_disk as f64 / r_sq;
        // paper: ≈ 0.6π ≈ 1.913
        assert!(
            (strip_ratio - 1.913).abs() < 0.25,
            "strip ratio {strip_ratio}"
        );
        // half-strip ≈ half of the strip
        let half_ratio = res.max_half_strip_per_disk as f64 / res.max_strip_per_disk as f64;
        assert!((half_ratio - 0.5).abs() < 0.05, "half ratio {half_ratio}");
    }

    #[test]
    #[should_panic(expected = "requires r >= 2")]
    fn fig12_rejects_tiny_radius() {
        let _ = fig12(1);
    }
}
