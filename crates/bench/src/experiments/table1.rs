//! TAB1 — reproduces Table I: spatial extents of regions A..K2.
//!
//! Prints the table for a sample parameterisation and verifies the
//! path-count identities (`|A|+|B1|+|C1|+|D1| = r(2r+1)` and
//! `|J|+|K1| = r(2r+1)`) over every valid `(r, p, q)` up to `r = 12`.

use crate::{header, rule, Size, Verdicts};
use rbcast_construct::r_2r_plus_1;
use rbcast_construct::regions::{table_one, S1Params, UParams};

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    let (r, p, q, p_s1) = (4u32, 2u32, 3u32, 1u32);
    header(&format!(
        "Table I — region extents (r={r}, p={p}, q={q}; S1 offset p={p_s1})"
    ));
    println!("{:<8} {:<24} {:>6}", "region", "extent", "nodes");
    rule(42);
    for row in table_one(r, p, q, p_s1) {
        println!(
            "{:<8} {:<24} {:>6}",
            row.region,
            row.rect.to_string(),
            row.count
        );
    }

    let mut all_u = true;
    let mut all_s1 = true;
    for r in 2..=12u32 {
        for p in 1..r {
            for q in (p + 1)..=r {
                all_u &= UParams::new(r, p, q).total_paths() == r_2r_plus_1(r);
            }
        }
        for p in 0..r {
            all_s1 &= S1Params::new(r, p).total_paths() == r_2r_plus_1(r);
        }
    }
    v.check(
        "U-region identity |A|+|B1|+|C1|+|D1| = r(2r+1), all (r,p,q) r<=12",
        all_u,
    );
    v.check(
        "S1-region identity |J|+|K1| = r(2r+1), all (r,p) r<=12",
        all_s1,
    );
}
