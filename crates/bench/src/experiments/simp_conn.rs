//! SIMP-CONN — the §VI-B connectivity condition: every frontier node has
//! `r(2r+1)` collectively node-disjoint ≤1-relay paths to committers of
//! `nbd(0,0)`, all inside one neighborhood. Verifies the explicit
//! translation witness at the worst-case corner and the max-flow bound
//! over the whole frontier.

use crate::{header, radii, rule, Size, Verdicts};
use rbcast_construct::{r_2r_plus_1, simplified, worst_case_p};
use rbcast_grid::Coord;
use std::ops::RangeInclusive;

/// Radii of the translation witness and its max-flow check.
const WITNESS_RS: RangeInclusive<u32> = 1..=6;

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("§VI-B — simplified-protocol connectivity (≤1-relay disjoint paths)");
    println!(
        "{:>4} {:>10} {:>14} {:>14}",
        "r", "target", "witness", "max-flow @P"
    );
    rule(46);

    let mut witness_ok = true;
    let mut flow_ok = true;
    for r in WITNESS_RS {
        let target = r_2r_plus_1(r);
        let witness = simplified::verify_witness(r);
        let flow =
            simplified::max_disjoint_paths(r, worst_case_p(r), Coord::new(0, i64::from(r) + 1));
        println!(
            "{:>4} {:>10} {:>14} {:>14}",
            r,
            target,
            witness.map_or("invalid".into(), |n| n.to_string()),
            flow
        );
        witness_ok &= witness == Some(target);
        flow_ok &= flow as usize >= target;
    }
    let rs = radii(&WITNESS_RS);
    v.check(
        &format!("translation witness yields exactly r(2r+1) disjoint ≤1-relay paths, {rs}"),
        witness_ok,
    );
    v.check(
        &format!("max-flow confirms the witness at the corner, {rs}"),
        flow_ok,
    );

    for r in 1..=3u32 {
        v.check(
            &format!("condition holds for EVERY frontier node (max-flow sweep, r={r})"),
            simplified::frontier_condition_holds(r),
        );
    }
}
