//! FIG13 — the Euclidean-metric impossibility construction (§VIII): a
//! width-`r` strip puts `≈ 0.6πr²` nodes in the worst neighborhood, the
//! checkerboard half `≈ 0.3πr²`; the full strip partitions the network
//! under the L2 metric, stalling the crash-stop flood.

use crate::{header, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_construct::l2;
use rbcast_core::{Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Metric;

pub fn run(v: &mut Verdicts, _: Size) {
    header("Fig. 13 — strip counts under the L2 metric");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "r", "strip/disk", "per r²", "0.6π", "half/disk", "0.3π"
    );
    rule(68);
    let mut counts_ok = true;
    for r in [4u32, 6, 8, 12, 16, 24] {
        let res = l2::fig13(r);
        let r_sq = f64::from(r) * f64::from(r);
        let strip_ratio = res.max_strip_per_disk as f64 / r_sq;
        let half_ratio = res.max_half_strip_per_disk as f64 / r_sq;
        println!(
            "{:>4} {:>12} {:>12.3} {:>12.3} {:>12.3} {:>10.3}",
            r,
            res.max_strip_per_disk,
            strip_ratio,
            0.6 * std::f64::consts::PI,
            half_ratio,
            0.3 * std::f64::consts::PI
        );
        if r >= 12 {
            counts_ok &= (strip_ratio - 0.6 * std::f64::consts::PI).abs() < 0.15
                && (half_ratio - 0.3 * std::f64::consts::PI).abs() < 0.1;
        }
    }

    // Simulation: the L2 flood is stopped by the full strip.
    let r = 3u32;
    let o = Experiment::new(r, ProtocolKind::Flood)
        .with_metric(Metric::L2)
        .with_t(0)
        .with_placement(Placement::DoubleStrip)
        .with_fault_kind(FaultKind::CrashStop)
        .run();
    println!();
    println!("L2 flood against the strip (r={r}): {o}");

    v.check(
        "strip ≈ 0.6πr² and half-strip ≈ 0.3πr² per neighborhood",
        counts_ok,
    );
    v.check(
        "the width-r strip partitions the L2 network (flood strands nodes)",
        o.undecided > 0 && o.committed_correct > 0,
    );
}
