//! The paper's fault-tolerance thresholds, as executable formulas.
//!
//! | Result | Threshold | Function |
//! |--------|-----------|----------|
//! | Theorem 1 (Byzantine, L∞, exact) | possible iff `t < ½·r(2r+1)` | [`byzantine_max_t`] |
//! | Theorems 4–5 (crash-stop, L∞, exact) | possible iff `t < r(2r+1)` | [`crash_max_t`] |
//! | Theorem 6 (CPA, L∞) | possible for `t ≤ ⌊⅔·r²⌋` | [`cpa_guaranteed_t`] |
//! | Koo's CPA bound (superseded) | `t < ½(r(r+√(r/2)+1))` | [`koo_cpa_bound`] |
//! | §VIII (Byzantine, L2, approximate) | `t ≲ 0.23·πr²` | [`l2_byzantine_estimate`] |
//! | §VIII (crash-stop, L2, approximate) | `t ≲ 0.46·πr²` | [`l2_crash_estimate`] |

/// `r(2r+1)` — the pivotal quantity of the L∞ analysis.
#[must_use]
fn r_2r_plus_1(r: u32) -> u64 {
    let r = u64::from(r);
    r * (2 * r + 1)
}

/// Largest `t` for which Byzantine reliable broadcast is achievable in
/// L∞ (Theorem 1): the greatest integer strictly below `½·r(2r+1)`.
///
/// ```
/// use rbcast_core::thresholds::byzantine_max_t;
/// assert_eq!(byzantine_max_t(1), 1);  // t < 1.5
/// assert_eq!(byzantine_max_t(2), 4);  // t < 5
/// assert_eq!(byzantine_max_t(3), 10); // t < 10.5
/// assert_eq!(byzantine_max_t(0), 0);  // nobody hears anybody
/// ```
#[must_use]
pub fn byzantine_max_t(r: u32) -> u64 {
    r_2r_plus_1(r).saturating_sub(1) / 2
}

/// Smallest `t` rendering Byzantine broadcast impossible (Koo's bound,
/// matched exactly by Theorem 1): `⌈½·r(2r+1)⌉`.
#[must_use]
pub fn byzantine_impossible_t(r: u32) -> u64 {
    r_2r_plus_1(r).div_ceil(2)
}

/// Largest tolerable `t` for crash-stop faults in L∞ (Theorem 5):
/// `r(2r+1) − 1`.
///
/// ```
/// use rbcast_core::thresholds::crash_max_t;
/// assert_eq!(crash_max_t(1), 2);
/// assert_eq!(crash_max_t(2), 9);
/// assert_eq!(crash_max_t(0), 0);
/// ```
#[must_use]
pub fn crash_max_t(r: u32) -> u64 {
    r_2r_plus_1(r).saturating_sub(1)
}

/// Smallest `t` rendering crash-stop broadcast impossible (Theorem 4):
/// `r(2r+1)`.
#[must_use]
pub fn crash_impossible_t(r: u32) -> u64 {
    r_2r_plus_1(r)
}

/// Largest `t` Theorem 6 guarantees the simple protocol (CPA) tolerates:
/// `⌊⅔·r²⌋`.
///
/// This is the *single* definition of the bound — call sites must not
/// inline the formula. The product is formed in `u128` so the division
/// by 3 happens before any narrowing: exact for every `u32` radius.
///
/// # Panics
///
/// Never panics: `2·r² / 3` for `r ≤ u32::MAX` always fits in `u64`.
#[must_use]
pub fn cpa_guaranteed_t(r: u32) -> u64 {
    let twice_r_squared = 2u128 * u128::from(r) * u128::from(r);
    u64::try_from(twice_r_squared / 3).expect("2r²/3 fits in u64 for all u32 radii")
}

/// Koo's earlier CPA achievability bound, `½(r(r+√(r/2)+1))`, which
/// Theorem 6 dominates for all sufficiently large `r`.
#[must_use]
pub fn koo_cpa_bound(r: u32) -> f64 {
    let r = f64::from(r);
    0.5 * (r * (r + (r / 2.0).sqrt() + 1.0))
}

/// §VIII estimate of the Byzantine threshold in the Euclidean metric:
/// `0.23·πr²` (achievability side; impossibility `≈ 0.3·πr²`).
#[must_use]
pub fn l2_byzantine_estimate(r: u32) -> f64 {
    0.23 * std::f64::consts::PI * f64::from(r) * f64::from(r)
}

/// §VIII estimate of the crash-stop threshold in the Euclidean metric:
/// `0.46·πr²` (impossibility `≈ 0.6·πr²`).
#[must_use]
pub fn l2_crash_estimate(r: u32) -> f64 {
    0.46 * std::f64::consts::PI * f64::from(r) * f64::from(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byzantine_thresholds_table() {
        // (r, t_max, first impossible)
        let rows = [(1, 1, 2), (2, 4, 5), (3, 10, 11), (4, 17, 18), (5, 27, 28)];
        for (r, t_max, imp) in rows {
            assert_eq!(byzantine_max_t(r), t_max, "r={r}");
            assert_eq!(byzantine_impossible_t(r), imp, "r={r}");
            assert_eq!(byzantine_max_t(r) + 1, byzantine_impossible_t(r));
        }
    }

    #[test]
    fn exactness_no_gap() {
        // Theorem 1 matches Koo's impossibility bound exactly: the
        // achievable and impossible regions tile the integers.
        for r in 1..=50 {
            assert_eq!(byzantine_max_t(r) + 1, byzantine_impossible_t(r), "r={r}");
            assert_eq!(crash_max_t(r) + 1, crash_impossible_t(r), "r={r}");
        }
    }

    #[test]
    fn crash_threshold_is_about_twice_byzantine() {
        for r in 1..=20 {
            let ratio = crash_max_t(r) as f64 / byzantine_max_t(r) as f64;
            assert!((1.8..=2.3).contains(&ratio), "r={r} ratio={ratio}");
        }
    }

    #[test]
    fn cpa_guarantee_below_exact_threshold() {
        // CPA's ⅔r² sits strictly below the indirect protocol's
        // ½r(2r+1) = r² + r/2 for every r ≥ 1.
        for r in 1..=100 {
            assert!(cpa_guaranteed_t(r) <= byzantine_max_t(r), "r={r}");
        }
    }

    #[test]
    fn cpa_guarantee_survives_extreme_radii() {
        // The naive u64 product 2·r² overflows for r ≥ 2³¹·√2; the u128
        // intermediate keeps the floor exact all the way to u32::MAX.
        assert_eq!(cpa_guaranteed_t(1), 0);
        assert_eq!(cpa_guaranteed_t(2), 2);
        assert_eq!(cpa_guaranteed_t(3), 6);
        assert_eq!(
            cpa_guaranteed_t(u32::MAX),
            ((2u128 * u128::from(u32::MAX) * u128::from(u32::MAX)) / 3) as u64
        );
        // Monotonic in r around the overflow frontier.
        let big = 3_037_000_499; // ⌊√(u64::MAX/2)⌋ — last r safe for u64 math
        assert!(cpa_guaranteed_t(big) < cpa_guaranteed_t(big + 1));
    }

    #[test]
    fn theorem6_dominates_koo_asymptotically() {
        let mut dominated_from = None;
        for r in 2..=200u32 {
            if cpa_guaranteed_t(r) as f64 > koo_cpa_bound(r) {
                dominated_from.get_or_insert(r);
            } else {
                dominated_from = None;
            }
        }
        let from = dominated_from.expect("Theorem 6 never dominates");
        assert!(from <= 20, "domination starts at r={from}");
    }

    #[test]
    fn fractions_approach_quarter_and_half() {
        // Of a closed L∞ neighborhood ((2r+1)² nodes) the Byzantine bound
        // is "slightly less than one-fourth", the crash bound "slightly
        // less than half".
        let ball = (2 * 1000 + 1_u64).pow(2) as f64;
        let byzantine = byzantine_max_t(1000) as f64 / ball;
        let crash = crash_max_t(1000) as f64 / ball;
        assert!(byzantine < 0.25 && 0.25 - byzantine < 0.001);
        assert!(crash < 0.5 && 0.5 - crash < 0.001);
    }

    #[test]
    fn l2_estimates_ordering() {
        for r in 2..=30 {
            assert!(l2_byzantine_estimate(r) < l2_crash_estimate(r));
            // L2 thresholds are below the L∞ ones (smaller neighborhoods)
            assert!(l2_byzantine_estimate(r) < byzantine_max_t(r) as f64 + 1.0);
        }
    }
}
