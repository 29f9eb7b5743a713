//! THRESH-L2 — the Euclidean-metric thresholds of §VIII, tested
//! empirically. The paper argues (informally, for large `r`) that
//! Byzantine broadcast is achievable for `t < 0.23πr²` and impossible
//! around `0.3πr²`; crash-stop doubles both. We run the simplified
//! indirect protocol under the L2 metric at `t = ⌊0.23πr²⌋` against
//! hostile placements, and flooding at the crash estimates.

use crate::{header, perf, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Metric;

/// The Byzantine (placement, behaviour) grid probed at `t`.
fn byz_attacks(t: usize) -> [(Placement, FaultKind); 3] {
    [
        (Placement::FrontierCluster { t }, FaultKind::Liar),
        (Placement::FrontierCluster { t }, FaultKind::Forger),
        (
            Placement::RandomLocal {
                t,
                seed: 5,
                attempts: 60,
            },
            FaultKind::Liar,
        ),
    ]
}

pub fn run(v: &mut Verdicts, _: Size) {
    header("Euclidean-metric thresholds (§VIII), simulated");
    println!(
        "{:>3} {:>8} {:>12} {:>12} {:>14}",
        "r", "|nbd|", "0.23πr²", "0.3πr²", "crash 0.46πr²"
    );
    rule(54);
    for r in 2..=4u32 {
        println!(
            "{:>3} {:>8} {:>12.1} {:>12.1} {:>14.1}",
            r,
            Metric::L2.neighborhood_size(r),
            thresholds::l2_byzantine_estimate(r),
            0.3 * std::f64::consts::PI * f64::from(r) * f64::from(r),
            thresholds::l2_crash_estimate(r)
        );
    }

    // Byzantine achievability at t = ⌊0.23πr²⌋ under the L2 metric:
    // the (r, attack) grid is one deterministic engine sweep.
    let byz_rs = [2u32, 3];
    let byz_experiments: Vec<Experiment> = byz_rs
        .iter()
        .flat_map(|&r| {
            let t = thresholds::l2_byzantine_estimate(r).floor() as usize;
            byz_attacks(t).into_iter().map(move |(placement, kind)| {
                Experiment::new(r, ProtocolKind::IndirectSimplified)
                    .with_metric(Metric::L2)
                    .with_t(t)
                    .with_placement(placement)
                    .with_fault_kind(kind)
            })
        })
        .collect();
    let byz_outcomes = perf::run_sweep("thresh_l2/byzantine", &byz_experiments);
    for (&r, chunk) in byz_rs.iter().zip(byz_outcomes.chunks(3)) {
        let t = thresholds::l2_byzantine_estimate(r).floor() as usize;
        let attacks = byz_attacks(t);
        v.check_rows(
            &format!("L2 Byzantine broadcast achieved at t = ⌊0.23πr²⌋ = {t} (r={r})"),
            chunk,
            |i| {
                let (placement, kind) = &attacks[i];
                format!("r={r} t={t} {}/{kind:?}: ", placement.name())
            },
            ToString::to_string,
            |o| o.all_honest_correct() && o.audited_bound <= t,
        );
    }

    // Crash-stop achievability at t = ⌊0.46πr²⌋ − small margin, and the
    // strip partition on the impossibility side, as one sweep (per r:
    // cluster run, then strip run).
    let crash_rs = [2u32, 3];
    let crash_experiments: Vec<Experiment> = crash_rs
        .iter()
        .flat_map(|&r| {
            let t = thresholds::l2_crash_estimate(r).floor() as usize;
            [Placement::FrontierCluster { t }, Placement::DoubleStrip].map(move |placement| {
                Experiment::new(r, ProtocolKind::Flood)
                    .with_metric(Metric::L2)
                    .with_t(t)
                    .with_placement(placement)
                    .with_fault_kind(FaultKind::CrashStop)
            })
        })
        .collect();
    let crash_outcomes = perf::run_sweep("thresh_l2/crash", &crash_experiments);
    for (&r, chunk) in crash_rs.iter().zip(crash_outcomes.chunks(2)) {
        let t = thresholds::l2_crash_estimate(r).floor() as usize;
        v.check_rows(
            &format!("L2 crash-stop flood survives a ⌊0.46πr²⌋ = {t} cluster (r={r})"),
            &chunk[..1],
            |_| format!("r={r} crash cluster t={t}: "),
            ToString::to_string,
            rbcast_core::Outcome::all_honest_correct,
        );
        v.check_rows(
            &format!("the ≈0.6πr² strip partitions the L2 network (r={r})"),
            &chunk[1..],
            |_| format!("r={r} crash strip (≈0.6πr² per nbd): "),
            ToString::to_string,
            |strip| strip.undecided > 0,
        );
    }
}
