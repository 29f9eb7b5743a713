//! FIG4-5 — the explicit node-disjoint path construction for region-U
//! committers (Figs. 4–5): builds the `r(2r+1)` paths for every valid
//! `(r, p, q)`, verifies hop validity / disjointness / single-
//! neighborhood containment, and cross-checks against a Menger max-flow
//! lower bound for small radii.

use crate::{header, radii, rule, Size, Verdicts};
use rbcast_construct::verify::verify_family;
use rbcast_construct::{paths_u, r_2r_plus_1, worst_case_p};
use rbcast_flow::vertex_disjoint_count;
use rbcast_grid::{Coord, Metric, Neighborhood};
use std::ops::RangeInclusive;

/// Radii whose path families are built and verified.
const FAMILY_RS: RangeInclusive<u32> = 2..=31;
/// Radii of the independent max-flow cross-check.
const FLOW_RS: RangeInclusive<u32> = 2..=4;

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Figs. 4-5 — disjoint paths N→P for region-U committers");
    println!(
        "{:>3} {:>4} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "r", "p", "q", "1-relay", "2-relay", "3-relay", "total", "target"
    );
    rule(60);

    let mut all_verify = true;
    for r in FAMILY_RS {
        for p in 1..r {
            for q in (p + 1)..=r {
                let paths = paths_u::build(r, p, q);
                let n = Coord::new(i64::from(p), i64::from(q));
                let ok = verify_family(
                    &paths,
                    n,
                    worst_case_p(r),
                    r,
                    Metric::Linf,
                    paths_u::enclosing_center(r),
                    3,
                )
                .is_ok();
                all_verify &= ok;
                if r <= 4 {
                    let count = |len: usize| paths.iter().filter(|p| p.len() == len).count();
                    println!(
                        "{:>3} {:>4} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8}",
                        r,
                        p,
                        q,
                        count(3),
                        count(4),
                        count(5),
                        paths.len(),
                        r_2r_plus_1(r)
                    );
                }
            }
        }
    }
    v.check(
        &format!(
            "all families verify (count, hops, disjointness, containment), {}",
            radii(&FAMILY_RS)
        ),
        all_verify,
    );

    // Independent Menger cross-check on the lattice ball graph.
    let mut flow_ok = true;
    for r in FLOW_RS {
        let center = paths_u::enclosing_center(r);
        let ball: Vec<Coord> = Neighborhood::new(center, r, Metric::Linf)
            .members()
            .chain(std::iter::once(center))
            .collect();
        let index: std::collections::HashMap<Coord, usize> =
            ball.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let adj: Vec<Vec<usize>> = ball
            .iter()
            .map(|&a| {
                ball.iter()
                    .enumerate()
                    .filter(|&(_, &b)| b != a && Metric::Linf.within(a, b, r))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        for p in 1..r {
            for q in (p + 1)..=r {
                let n = Coord::new(i64::from(p), i64::from(q));
                let want = r_2r_plus_1(r) as u32;
                let got =
                    vertex_disjoint_count(&adj, index[&n], index[&worst_case_p(r)], Some(want));
                flow_ok &= got >= want;
            }
        }
    }
    v.check(
        &format!(
            "max-flow on the ball graph confirms ≥ r(2r+1) paths, {}",
            radii(&FLOW_RS)
        ),
        flow_ok,
    );
}
