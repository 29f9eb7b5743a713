//! Impossibility constructions: Fig. 8 (crash-stop, Theorem 4) and the
//! L∞ Byzantine threshold construction of Koo that Theorem 1 matches.
//!
//! * **Crash-stop** — all nodes in the vertical strip `a ≤ x < a+r` are
//!   faulty. Any closed L∞ ball of radius `r` contains at most
//!   `r(2r+1)` strip nodes, yet no edge crosses the strip, partitioning
//!   the half-plane `x ≥ a+r` from the source.
//! * **Byzantine** — the checkerboard half of the same strip
//!   (`(x+y)` even): at most `⌈½·r(2r+1)⌉` faults per ball, the
//!   placement realising Koo's impossibility bound that Theorem 1 shows
//!   to be tight.

use rbcast_grid::Coord;

/// Membership test for the width-`r` faulty strip `0 ≤ x < r`
/// (normalised to `a = 0`).
#[must_use]
pub(crate) fn in_crash_strip(r: u32, c: Coord) -> bool {
    c.x >= 0 && c.x < i64::from(r)
}

/// Membership test for the checkerboard half-strip used at the Byzantine
/// impossibility threshold: strip nodes with `x + y` even.
#[cfg(test)]
fn in_byzantine_half_strip(r: u32, c: Coord) -> bool {
    in_crash_strip(r, c) && (c.x + c.y).rem_euclid(2) == 0
}

/// Maximum number of crash-strip nodes in any closed L∞ ball of radius
/// `r`, computed by brute force over ball centers. Theorem 4 claims this
/// equals `r(2r+1)`.
#[must_use]
pub fn max_crash_faults_per_ball(r: u32) -> usize {
    max_faults_per_ball(r, |c| in_crash_strip(r, c))
}

/// Maximum number of checkerboard half-strip nodes in any closed L∞
/// ball of radius `r`. Equals Koo's impossibility bound `⌈½·r(2r+1)⌉`.
#[cfg(test)]
fn max_byzantine_faults_per_ball(r: u32) -> usize {
    max_faults_per_ball(r, |c| in_byzantine_half_strip(r, c))
}

fn max_faults_per_ball(r: u32, faulty: impl Fn(Coord) -> bool) -> usize {
    let ri = i64::from(r);
    let mut best = 0;
    // Scan centers far enough to cover all distinct strip/ball overlaps;
    // y matters only modulo 2 for the checkerboard.
    for cy in 0..=1 {
        for cx in -2 * ri..=3 * ri {
            let mut count = 0;
            for dy in -ri..=ri {
                for dx in -ri..=ri {
                    if faulty(Coord::new(cx + dx, cy + dy)) {
                        count += 1;
                    }
                }
            }
            best = best.max(count);
        }
    }
    best
}

/// Verifies the partition claim of Theorem 4: no node with `x < 0` is
/// within radius `r` of any node with `x ≥ r` (so correct nodes to the
/// right of the strip can never hear the broadcast).
#[must_use]
pub fn strip_partitions(r: u32) -> bool {
    let ri = i64::from(r);
    // The closest candidate pair is x = −1 vs x = r; L∞ distance r+1.
    for yl in -ri..=ri {
        let left = Coord::new(-1, 0);
        let right = Coord::new(ri, yl);
        if left.linf_dist(right) <= u64::from(r) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_strip_local_bound_is_r_2r_plus_1() {
        for r in 1..=8u32 {
            assert_eq!(max_crash_faults_per_ball(r), crate::r_2r_plus_1(r), "r={r}");
        }
    }

    #[test]
    fn byzantine_half_strip_matches_koo_bound() {
        for r in 1..=8u32 {
            let bound = crate::r_2r_plus_1(r).div_ceil(2); // ⌈½ r(2r+1)⌉
            assert_eq!(max_byzantine_faults_per_ball(r), bound, "r={r}");
        }
    }

    #[test]
    fn koo_bound_is_one_above_max_tolerable() {
        // Theorem 1 tolerates every t < ½ r(2r+1); the construction
        // realises exactly the first intolerable t.
        for r in 1..=8u32 {
            let t_max = (crate::r_2r_plus_1(r) - 1) / 2;
            assert_eq!(max_byzantine_faults_per_ball(r), t_max + 1, "r={r}");
        }
    }

    #[test]
    fn the_strip_partitions_the_grid() {
        for r in 1..=8 {
            assert!(strip_partitions(r));
        }
    }

    #[test]
    fn strip_membership() {
        assert!(in_crash_strip(3, Coord::new(0, 5)));
        assert!(in_crash_strip(3, Coord::new(2, -7)));
        assert!(!in_crash_strip(3, Coord::new(3, 0)));
        assert!(!in_crash_strip(3, Coord::new(-1, 0)));
    }

    #[test]
    fn checkerboard_is_half_the_strip() {
        let r = 4;
        let mut strip = 0;
        let mut half = 0;
        for x in 0..i64::from(r) {
            for y in 0..100 {
                if in_crash_strip(r, Coord::new(x, y)) {
                    strip += 1;
                }
                if in_byzantine_half_strip(r, Coord::new(x, y)) {
                    half += 1;
                }
            }
        }
        assert_eq!(strip, 400);
        assert_eq!(half, 200);
    }
}
