//! SCALE — how the exact-threshold protocol scales with the radius:
//! the simplified §VI-B protocol at `t_max = ⌈½·r(2r+1)⌉ − 1` for
//! growing `r`, with a liar cluster on the wavefront. Reports arena
//! size, faults tolerated, message volume by kind and rounds (the
//! sweep's wall time goes to stderr).

use crate::{header, perf, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};

/// `Size::Smoke` stops at r = 3 (r = 4 is most of the full run's time).
pub fn run(v: &mut Verdicts, size: Size) {
    header("Scaling the exact threshold (indirect-simplified, liar cluster)");
    println!(
        "{:>3} {:>8} {:>6} {:>9} {:>7} {:>12} {:>10} {:>8}",
        "r", "nodes", "t_max", "correct", "wrong", "broadcasts", "HEARD", "rounds"
    );
    rule(72);

    let rs: &[u32] = match size {
        Size::Full => &[1, 2, 3, 4],
        Size::Smoke => &[1, 2, 3],
    };
    let experiments: Vec<Experiment> = rs
        .iter()
        .map(|&r| {
            let t = thresholds::byzantine_max_t(r) as usize;
            Experiment::new(r, ProtocolKind::IndirectSimplified)
                .with_t(t)
                .with_placement(Placement::FrontierCluster { t })
                .with_fault_kind(FaultKind::Liar)
        })
        .collect();
    // A panicking or runaway radius is quarantined instead of killing
    // the smaller ones' rows.
    let outcomes = perf::run_sweep("scale_byz/radii", &experiments);

    for (&r, row) in rs.iter().zip(outcomes.chunks(1)) {
        let t = thresholds::byzantine_max_t(r) as usize;
        v.check_rows(
            &format!("r={r}: all honest correct at t_max = {t}"),
            row,
            |_| format!("{r:>3} "),
            |o| {
                let heard = o
                    .message_kinds
                    .iter()
                    .find(|&&(k, _)| k == "HEARD")
                    .map_or(0, |&(_, n)| n);
                format!(
                    "{:>8} {:>6} {:>9} {:>7} {:>12} {:>10} {:>8}",
                    o.honest + o.fault_count,
                    t,
                    o.committed_correct,
                    o.committed_wrong,
                    o.stats.messages_sent,
                    heard,
                    o.stats.rounds
                )
            },
            rbcast_core::Outcome::all_honest_correct,
        );
    }
}
