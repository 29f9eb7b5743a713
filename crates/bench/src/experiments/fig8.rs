//! FIG8 — Theorem 4's crash-stop impossibility construction: a faulty
//! strip of width `r` puts exactly `r(2r+1)` faults in the worst
//! neighborhood and partitions the network; flooding stalls.

use crate::{header, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_construct::impossibility;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Fig. 8 — crash-stop impossibility strip (Theorem 4)");
    println!(
        "{:>3} {:>18} {:>12} {:>14} {:>12} {:>12}",
        "r", "strip bound", "r(2r+1)", "partitions?", "reached", "stranded"
    );
    rule(78);

    let mut bound_ok = true;
    let mut stall_ok = true;
    for r in 1..=3u32 {
        let bound = impossibility::max_crash_faults_per_ball(r);
        let target = thresholds::crash_impossible_t(r) as usize;
        bound_ok &= bound == target && impossibility::strip_partitions(r);

        let o = Experiment::new(r, ProtocolKind::Flood)
            .with_t(target)
            .with_placement(Placement::DoubleStrip)
            .with_fault_kind(FaultKind::CrashStop)
            .run();
        stall_ok &= o.undecided > 0 && o.committed_correct > 0 && o.safe();
        println!(
            "{:>3} {:>18} {:>12} {:>14} {:>12} {:>12}",
            r,
            bound,
            target,
            impossibility::strip_partitions(r),
            o.committed_correct,
            o.undecided
        );
    }
    v.check(
        "strip places exactly r(2r+1) faults per neighborhood, r = 1..3",
        bound_ok,
    );
    v.check(
        "flooding reaches the source side but strands the far side, r = 1..3",
        stall_ok,
    );
}
