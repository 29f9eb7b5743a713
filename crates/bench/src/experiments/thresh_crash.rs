//! THRESH-CRASH — Theorems 4–5: flooding succeeds at
//! `t = r(2r+1) − 1` under adversarial placements and fails (partition)
//! at `t = r(2r+1)` under the strip construction: the exact crash-stop
//! threshold.

use crate::{header, perf, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, Outcome, ProtocolKind};

/// The achievable-side placements probed at `t_max`.
fn placements(t_max: usize) -> [Placement; 3] {
    [
        Placement::FrontierCluster { t: t_max },
        Placement::RandomLocal {
            t: t_max,
            seed: 3,
            attempts: 80,
        },
        Placement::ColumnStrips,
    ]
}

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Crash-stop threshold experiments (Theorems 4-5)");
    println!(
        "{:>3} {:>6} {:<18} {:>8} {:>9} {:>10} {:>8}",
        "r", "t", "placement", "faults", "correct", "undecided", "rounds"
    );
    rule(70);

    let rs = [1u32, 2, 3];

    // Full (r, placement, side) grid as one deterministic engine sweep:
    // per r, three achievable-side runs then the impossible-side strip.
    let experiments: Vec<Experiment> = rs
        .iter()
        .flat_map(|&r| {
            let t_max = thresholds::crash_max_t(r) as usize;
            let t_imp = thresholds::crash_impossible_t(r) as usize;
            placements(t_max)
                .into_iter()
                .map(move |placement| {
                    Experiment::new(r, ProtocolKind::Flood)
                        .with_t(t_max)
                        .with_placement(placement)
                        .with_fault_kind(FaultKind::CrashStop)
                })
                .chain(std::iter::once(
                    Experiment::new(r, ProtocolKind::Flood)
                        .with_t(t_imp)
                        .with_placement(Placement::DoubleStrip)
                        .with_fault_kind(FaultKind::CrashStop),
                ))
        })
        .collect();
    let outcomes = perf::run_sweep("thresh_crash/theorems_4_5", &experiments);

    let cells = |o: &Outcome| {
        format!(
            "{:>8} {:>9} {:>10} {:>8}",
            o.fault_count, o.committed_correct, o.undecided, o.stats.rounds
        )
    };
    for (&r, chunk) in rs.iter().zip(outcomes.chunks(4)) {
        let t_max = thresholds::crash_max_t(r) as usize;
        let t_imp = thresholds::crash_impossible_t(r) as usize;

        // Achievable side: t_max, several adversarial placements.
        let placements = placements(t_max);
        v.check_rows(
            &format!("flood covers everyone at t = r(2r+1)−1 = {t_max} (r={r})"),
            &chunk[..3],
            |i| format!("{:>3} {:>6} {:<18} ", r, t_max, placements[i].name()),
            cells,
            // column strips have a lower local bound; audit anyway
            |o| o.all_honest_correct() || o.audited_bound > t_max,
        );

        // Impossible side: the strip at t = r(2r+1).
        v.check_rows(
            &format!("strip at t = r(2r+1) = {t_imp} partitions the network (r={r})"),
            &chunk[3..],
            |_| format!("{:>3} {:>6} {:<18} ", r, t_imp, "double-strip"),
            cells,
            |o| o.undecided > 0 && o.audited_bound == t_imp,
        );
    }
}
