//! FIG1-3 — regions M, R, U, S1, S2 of Figs. 1–3: cardinalities and the
//! disjoint decomposition `M = R ∪ U ∪ S1 ∪ S2`.

use crate::{header, radii, rule, Size, Verdicts};
use rbcast_construct::corner;
use rbcast_construct::r_2r_plus_1;
use std::ops::RangeInclusive;

/// Radii whose corner regions are built and checked.
const RS: RangeInclusive<u32> = 1..=12;

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Figs. 1-3 — committer regions for the worst-case frontier node P");
    println!(
        "{:>3} {:>10} {:>10} {:>10} {:>6} {:>10} {:>12}",
        "r", "|M|", "|R|", "|U|", "|S1|", "|S2|", "r(2r+1)"
    );
    rule(68);
    let mut decomp = true;
    let mut contain = true;
    for r in RS {
        let (m, rr, u, s1, s2) = (
            corner::region_m(r).len(),
            corner::region_r(r).len(),
            corner::region_u(r).len(),
            corner::region_s1(r).len(),
            corner::region_s2(r).len(),
        );
        println!(
            "{:>3} {:>10} {:>10} {:>10} {:>6} {:>10} {:>12}",
            r,
            m,
            rr,
            u,
            s1,
            s2,
            r_2r_plus_1(r)
        );
        decomp &= corner::decomposition_holds(r);
        contain &= corner::containment_holds(r);
    }
    let rs = radii(&RS);
    v.check(
        &format!("M = R ⊎ U ⊎ S1 ⊎ S2 with |M| = r(2r+1), {rs}"),
        decomp,
    );
    v.check(&format!("M ⊆ nbd(0,0) and R ⊆ nbd(P), {rs}"), contain);
}
