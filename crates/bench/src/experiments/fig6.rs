//! FIG6 — the node-disjoint path construction for region-S1 committers
//! (regions J, K1, K2), plus the reflected S2 construction (the axial
//! symmetry of Fig. 3/7).

use crate::{header, rule, Size, Verdicts};
use rbcast_construct::verify::verify_family;
use rbcast_construct::{paths_s1, r_2r_plus_1, symmetry, worst_case_p};
use rbcast_grid::{Coord, Metric};

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Fig. 6 — disjoint paths N→P for region-S1 committers (J, K1, K2)");
    println!(
        "{:>3} {:>4} {:>10} {:>10} {:>8} {:>8}",
        "r", "p", "|J| paths", "|K| paths", "total", "target"
    );
    rule(50);

    let mut s1_ok = true;
    for r in 1..=8u32 {
        for p in 0..r {
            let paths = paths_s1::build(r, p);
            let n = Coord::new(-i64::from(r), -i64::from(p));
            let ok = verify_family(
                &paths,
                n,
                worst_case_p(r),
                r,
                Metric::Linf,
                paths_s1::enclosing_center(r),
                3,
            )
            .is_ok();
            s1_ok &= ok && paths.len() == r_2r_plus_1(r);
            if r <= 4 {
                let j = paths.iter().filter(|path| path.len() == 3).count();
                let k = paths.iter().filter(|path| path.len() == 4).count();
                println!(
                    "{:>3} {:>4} {:>10} {:>10} {:>8} {:>8}",
                    r,
                    p,
                    j,
                    k,
                    paths.len(),
                    r_2r_plus_1(r)
                );
            }
        }
    }
    v.check("S1 families verify for all (r, p), r = 1..8", s1_ok);

    let mut s2_ok = true;
    for r in 2..=7u32 {
        for pp in 0..(r - 1) {
            for qp in (pp + 1)..r {
                let n = Coord::new(-i64::from(qp), -i64::from(pp));
                let paths = symmetry::build(r, pp, qp);
                s2_ok &= verify_family(
                    &paths,
                    n,
                    worst_case_p(r),
                    r,
                    Metric::Linf,
                    symmetry::enclosing_center(r),
                    3,
                )
                .is_ok()
                    && paths.len() == r_2r_plus_1(r);
            }
        }
    }
    v.check(
        "S2 families (reflected U construction) verify for all (r, p', q'), r = 2..7",
        s2_ok,
    );
}
