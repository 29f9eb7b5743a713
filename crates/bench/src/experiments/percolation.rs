//! PERC — the §XI random-failure extension: crash-stop broadcast under
//! independent Bernoulli faults, exhibiting the site-percolation-style
//! coverage transition.

use crate::{header, rule, Size, Verdicts};
use rbcast_core::{engine, percolation};
use rbcast_grid::Torus;

#[allow(clippy::float_cmp)] // a rate of exactly 1.0 means every trial covered
pub fn run(v: &mut Verdicts, _: Size) {
    let ps = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
    let trials = 10;
    // Rows are byte-identical for every thread count (engine fan-out
    // with per-task seeds, aggregated in input order).
    let threads = engine::thread_count(None);

    for r in 1..=2u32 {
        let torus = Torus::for_radius(r);
        header(&format!(
            "§XI percolation sweep — flood, r = {r}, {torus}, {trials} trials/point"
        ));
        println!(
            "{:>6} {:>16} {:>20}",
            "p", "mean reached", "full-coverage rate"
        );
        rule(46);
        let rows = percolation::sweep_threaded(r, &torus, &ps, trials, threads);
        for row in &rows {
            println!(
                "{:>6.2} {:>16.4} {:>20.2}",
                row.p, row.mean_reached, row.full_coverage_rate
            );
        }
        v.check(
            &format!("p = 0 gives full coverage (r={r})"),
            rows[0].full_coverage_rate == 1.0,
        );
        v.check(
            &format!("coverage collapses by p = 0.95 (r={r})"),
            rows.last().unwrap().mean_reached < 0.5,
        );
        // Beyond p ≈ 0.9 so few honest nodes remain that the reached
        // fraction is dominated by small-sample noise; check the
        // monotone decay on the well-populated part of the curve only.
        v.check(
            &format!("coverage decays monotonically within noise for p ≤ 0.9 (r={r})"),
            rows.windows(2)
                .filter(|w| w[1].p <= 0.9)
                .all(|w| w[1].mean_reached <= w[0].mean_reached + 0.05),
        );
        // larger radius percolates longer: checked across the two radii
        // by the caller of this binary (values are printed).
    }
}
