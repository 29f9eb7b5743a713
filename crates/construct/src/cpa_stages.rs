//! Staged wavefront geometry of Theorem 6 (Figs. 14–19).
//!
//! Theorem 6 proves the simple protocol (CPA) tolerates `t ≤ ⅔·r²` in
//! L∞ by growing committed "stacks" against each edge of a committed
//! central square:
//!
//! 1. **Stage 1 seeds** (Fig. 14): the `2⌈r/2⌉+1` nodes centered on each
//!    edge at distance `r+1` see `≥ r(2r+1−⌈r/2⌉) > ³⁄₂r² + r` committed
//!    neighbors, exceeding the commit threshold `2t+1 ≤ ⁴⁄₃r²+1`.
//! 2. **Row growth** (Figs. 15–16): row `i` of the stack commits while
//!    `(⌈³⁄₂r⌉+1)(r+1−i) + (i−1)(2⌈r/2⌉+1) + (i−1)(⌈r/2⌉−i+1) ≥ ⁴⁄₃r²+1`,
//!    which holds for all `i ≤ ⌊r/√6⌋`, letting the stack reach `⌊r/3⌋`
//!    rows.
//! 3. **Stage 2** (Figs. 17–19): eight corner nodes commit with
//!    `≥ (r+1+⌈r/2⌉)r + 2⌈r/2⌉⌊r/3⌋ ≥ ¹¹⁄₆r²` committed neighbors, after
//!    which every remaining node has `≥ (r+1)r + 2⌈r/2⌉⌊r/3⌋ + 4 > ⁴⁄₃r²`.
//!
//! All inequalities are verified here with exact integer arithmetic
//! (comparisons against `⁴⁄₃r² + 1` are done as `3·lhs ≥ 4r² + 3`).

/// `⌈r/2⌉`.
#[must_use]
pub fn half_up(r: u32) -> u32 {
    r.div_ceil(2)
}

/// The largest `t` Theorem 6 guarantees CPA tolerates: `⌊⅔·r²⌋`.
///
/// The canonical definition lives in `rbcast-core::thresholds`
/// (`cpa_guaranteed_t`); this crate sits below `rbcast-core`, so it
/// keeps a local copy for its exact-arithmetic stage proofs, and a
/// dev-dependency test pins the two to agree.
///
/// # Panics
///
/// Panics if `⌊⅔·r²⌋` exceeds `u32::MAX` (the stage arithmetic here is
/// 32-bit; the core definition covers the full `u32` radius range).
#[must_use]
pub fn cpa_max_t(r: u32) -> u32 {
    let t = 2u64 * u64::from(r) * u64::from(r) / 3;
    u32::try_from(t).expect("⅔·r² exceeds u32 for this radius")
}

/// The commit threshold CPA needs when `t = ⌊⅔r²⌋`: `2t + 1`.
#[must_use]
pub fn cpa_commit_threshold(r: u32) -> u32 {
    let t = 2u64 * u64::from(cpa_max_t(r)) + 1;
    u32::try_from(t).expect("2t+1 exceeds u32 for this radius")
}

/// Exact committed-neighbor count for a stage-1 seed node `(x, r+1)` with
/// `|x| ≤ ⌈r/2⌉`, assuming all of `ball(0, r)` has committed:
/// `r·(2r+1−|x|)`.
#[must_use]
pub fn seed_committed_neighbors(r: u32, x: i64) -> u64 {
    let ri = i64::from(r);
    assert!(
        x.unsigned_abs() <= u64::from(half_up(r)),
        "seed out of range"
    );
    // rows y ∈ [1, r] fully visible; columns [x−r, x+r] ∩ [−r, r].
    let cols = (x + ri).min(ri) - (x - ri).max(-ri) + 1;
    (ri as u64) * (cols as u64)
}

/// Whether every stage-1 seed on an edge can commit at `t = ⌊⅔r²⌋`
/// (Fig. 14): `seed_committed_neighbors ≥ 2t+1` for all `|x| ≤ ⌈r/2⌉`.
#[must_use]
fn stage1_seeds_commit(r: u32) -> bool {
    let need = u64::from(cpa_commit_threshold(r));
    (0..=i64::from(half_up(r))).all(|x| seed_committed_neighbors(r, x) >= need)
}

/// The paper's row-`i` growth inequality (Figs. 15–16), compared exactly:
/// `3·[(⌈³⁄₂r⌉+1)(r+1−i) + (i−1)(2⌈r/2⌉+1) + (i−1)(⌈r/2⌉−i+1)] ≥ 4r²+3`.
#[must_use]
fn row_condition(r: u32, i: u32) -> bool {
    let r64 = i64::from(r);
    let i64v = i64::from(i);
    let term1 = (i64::from((3 * r).div_ceil(2)) + 1) * (r64 + 1 - i64v);
    let term2 = (i64v - 1) * (2 * i64::from(half_up(r)) + 1);
    let term3 = (i64v - 1) * (i64::from(half_up(r)) - i64v + 1);
    3 * (term1 + term2 + term3) >= 4 * r64 * r64 + 3
}

/// Number of committed-stack rows guaranteed by `row_condition` — the
/// largest `i` such that rows `1..=i` all satisfy it.
#[must_use]
pub fn guaranteed_stack_rows(r: u32) -> u32 {
    let mut i = 0;
    while row_condition(r, i + 1) {
        i += 1;
    }
    i
}

/// The stack-depth target of Fig. 16: `⌊r/3⌋` rows.
#[must_use]
pub fn required_stack_rows(r: u32) -> u32 {
    r / 3
}

/// Stage-2 corner committed-neighbor lower bound (Fig. 17):
/// `(r+1+⌈r/2⌉)·r + 2⌈r/2⌉·⌊r/3⌋`.
#[must_use]
pub fn stage2_corner_count(r: u32) -> u64 {
    let (r64, h, s) = (u64::from(r), u64::from(half_up(r)), u64::from(r / 3));
    (r64 + 1 + h) * r64 + 2 * h * s
}

/// Stage-2 remaining-node committed-neighbor lower bound (Figs. 18–19):
/// `(r+1)·r + 2⌈r/2⌉·⌊r/3⌋ + 4`.
#[must_use]
pub fn stage2_rest_count(r: u32) -> u64 {
    let (r64, h, s) = (u64::from(r), u64::from(half_up(r)), u64::from(r / 3));
    (r64 + 1) * r64 + 2 * h * s + 4
}

/// Verifies the complete Theorem 6 chain of inequalities for radius `r`:
/// seeds commit, the stack reaches `⌊r/3⌋` rows, and both stage-2 counts
/// exceed the threshold. The paper claims this for all `r ≥ 2`.
#[must_use]
pub fn theorem6_holds(r: u32) -> bool {
    let need = u64::from(cpa_commit_threshold(r));
    stage1_seeds_commit(r)
        && guaranteed_stack_rows(r) >= required_stack_rows(r)
        && stage2_corner_count(r) >= need
        && stage2_rest_count(r) >= need
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpa_max_t_values() {
        assert_eq!(cpa_max_t(2), 2); // ⌊8/3⌋
        assert_eq!(cpa_max_t(3), 6);
        assert_eq!(cpa_max_t(6), 24);
    }

    #[test]
    fn cpa_max_t_matches_the_canonical_threshold() {
        // The workspace's single source of truth for Theorem 6.
        for r in 1..=2_000 {
            assert_eq!(
                u64::from(cpa_max_t(r)),
                rbcast_core::thresholds::cpa_guaranteed_t(r),
                "r={r}"
            );
        }
    }

    #[test]
    fn seed_counts_match_closed_form() {
        for r in 2..=12u32 {
            for x in 0..=i64::from(half_up(r)) {
                let count = seed_committed_neighbors(r, x);
                assert_eq!(count, u64::from(r) * (2 * u64::from(r) + 1 - x as u64));
            }
        }
    }

    #[test]
    fn seed_count_brute_force_cross_check() {
        // count ball(0,r) nodes within L∞ r of (x, r+1)
        use rbcast_grid::{Coord, Metric};
        for r in 2..=8u32 {
            for x in 0..=i64::from(half_up(r)) {
                let seed = Coord::new(x, i64::from(r) + 1);
                let ri = i64::from(r);
                let mut brute = 0u64;
                for yy in -ri..=ri {
                    for xx in -ri..=ri {
                        if Metric::Linf.within(seed, Coord::new(xx, yy), r) {
                            brute += 1;
                        }
                    }
                }
                assert_eq!(seed_committed_neighbors(r, x), brute, "r={r} x={x}");
            }
        }
    }

    #[test]
    fn stage1_commits_for_all_r_geq_2() {
        for r in 2..=100 {
            assert!(stage1_seeds_commit(r), "r={r}");
        }
    }

    #[test]
    fn stack_reaches_r_over_3() {
        for r in 2..=100 {
            assert!(
                guaranteed_stack_rows(r) >= required_stack_rows(r),
                "r={r}: {} < {}",
                guaranteed_stack_rows(r),
                required_stack_rows(r)
            );
        }
    }

    #[test]
    fn stack_rows_close_to_r_over_sqrt6() {
        // the paper: condition holds for all i ≤ r/√6
        for r in 6..=60u32 {
            let bound = (f64::from(r) / 6.0f64.sqrt()).floor() as u32;
            assert!(
                guaranteed_stack_rows(r) >= bound,
                "r={r}: {} < {bound}",
                guaranteed_stack_rows(r)
            );
        }
    }

    #[test]
    fn theorem6_full_chain() {
        for r in 2..=100 {
            assert!(theorem6_holds(r), "r={r}");
        }
    }

    #[test]
    fn stage2_counts_exceed_11_6_and_4_3() {
        for r in 2..=50u64 {
            let corner = stage2_corner_count(r as u32);
            // paper: corner count ≥ 11r²/6
            assert!(6 * corner >= 11 * r * r, "r={r} corner={corner}");
        }
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn seed_out_of_range_panics() {
        let _ = seed_committed_neighbors(4, 3);
    }
}
