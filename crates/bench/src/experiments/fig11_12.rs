//! FIG11-12 — the Euclidean-metric construction (§VIII): half-disk
//! populations and the disjoint-path count between `P` and `Q` at
//! distance `≈ r√2` inside a single neighborhood, converging to the
//! paper's `≈ 1.47r² (≈ 0.47πr²)` estimate.

use crate::{header, rule, Size, Verdicts};
use rbcast_construct::l2;

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Fig. 11 — half-neighborhood populations (L2)");
    println!(
        "{:>4} {:>10} {:>12} {:>14} {:>12}",
        "r", "disk", "half-disk", "half/r²", "0.5π"
    );
    rule(56);
    let mut half_ok = true;
    for r in [4u32, 6, 8, 10, 14, 20, 28, 40] {
        let half = l2::half_disk_count(r);
        let ratio = half as f64 / (f64::from(r) * f64::from(r));
        println!(
            "{:>4} {:>10} {:>12} {:>14.4} {:>12.4}",
            r,
            l2::disk_count(r),
            half,
            ratio,
            0.5 * std::f64::consts::PI
        );
        if r >= 10 {
            half_ok &= (ratio - 0.5 * std::f64::consts::PI).abs() < 0.2;
        }
    }

    header("Fig. 12 — disjoint P-Q paths inside one neighborhood, |PQ| = ⌊r√2⌋");
    println!(
        "{:>4} {:>6} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "r", "|PQ|", "disk", "common", "paths", "paths/r²", "1.47", "2t+1"
    );
    rule(80);
    let mut paths_ok = true;
    let mut threshold_ok = true;
    for r in [4u32, 6, 8, 10, 12, 16, 20] {
        let res = l2::fig12(r);
        let t = (0.23 * std::f64::consts::PI * f64::from(r) * f64::from(r)) as u32;
        println!(
            "{:>4} {:>6} {:>10} {:>10} {:>10} {:>12.3} {:>10.2} {:>10}",
            r,
            res.separation,
            res.disk_nodes,
            res.common_neighbors,
            res.disjoint_paths,
            res.paths_per_r_sq(),
            1.47,
            2 * t + 1
        );
        if r >= 10 {
            // lattice effects shrink with r; accept a generous band
            paths_ok &= (1.1..=1.9).contains(&res.paths_per_r_sq());
        }
        threshold_ok &= res.disjoint_paths > 2 * t;
    }

    header("Fig. 12 — explicit path families (lattice-rounded regions)");
    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "r", "A", "B", "C", "E", "total", "total/r²"
    );
    rule(62);
    let mut families_ok = true;
    for r in [6u32, 8, 12, 16, 20] {
        let reg = l2::fig12_regions(r);
        println!(
            "{:>4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12.3}",
            r,
            reg.a,
            reg.b_pairs,
            reg.c_pairs,
            reg.e_pairs,
            reg.total(),
            reg.per_r_sq()
        );
        let t = (0.23 * std::f64::consts::PI * f64::from(r) * f64::from(r)) as usize;
        if r >= 8 {
            families_ok &= reg.total() > 2 * t;
        }
    }

    v.check(
        "explicit families alone provide ≥ 2t+1 disjoint paths (r ≥ 8)",
        families_ok,
    );
    v.check("half-disk population ≈ 0.5πr² for large r", half_ok);
    v.check(
        "P-Q disjoint paths ≈ 1.47r² (paper's area estimate)",
        paths_ok,
    );
    v.check(
        "paths ≥ 2t+1 for t = ⌊0.23πr²⌋ — the §VIII induction premise",
        threshold_ok,
    );
}
