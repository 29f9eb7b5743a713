//! FIG7 — arbitrary position of P (§VI-A): for every frontier node of
//! `pnbd(0,0)`, the number of committers it hears directly and the
//! number it can reliably determine through `r(2r+1)` disjoint
//! single-neighborhood paths (max-flow verified).
//!
//! Also verifies the §VI-A count `|R_l| = r(r+l+1)` for the translated
//! top-edge positions.

use crate::{header, radii, rule, Size, Verdicts};
use rbcast_construct::arbitrary_p::{direct_count, frontier_table};
use rbcast_construct::r_2r_plus_1;
use rbcast_grid::Coord;
use std::ops::RangeInclusive;

/// Radii of the §VI-A direct-range count check.
const FORMULA_RS: RangeInclusive<u32> = 1..=8;

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    for r in 1..=3u32 {
        header(&format!("Fig. 7 — frontier connectivity, r = {r}"));
        println!(
            "{:>12} {:>8} {:>14} {:>10}",
            "P", "direct", "determinable", "required"
        );
        rule(48);
        let table = frontier_table(r);
        let mut ok = true;
        for row in &table {
            println!(
                "{:>12} {:>8} {:>14} {:>10}",
                row.p.to_string(),
                row.direct,
                row.determinable,
                row.required
            );
            ok &= row.determinable >= row.required;
        }
        v.check(
            &format!(
                "every frontier node determines ≥ r(2r+1) = {} committers (r={r})",
                r_2r_plus_1(r)
            ),
            ok,
        );
    }

    let mut formula_ok = true;
    for r in FORMULA_RS {
        for l in 0..=r {
            let p = Coord::new(-i64::from(r) + i64::from(l), i64::from(r) + 1);
            formula_ok &= direct_count(r, p) == (r as usize) * (r + l + 1) as usize;
        }
    }
    v.check(
        &format!(
            "§VI-A direct-range count |R_l| = r(r+l+1), {}",
            radii(&FORMULA_RS)
        ),
        formula_ok,
    );
}
