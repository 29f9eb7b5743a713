//! THRESH-BYZ — the headline result (Theorem 1 + Koo's impossibility):
//! the indirect-report protocol achieves reliable broadcast at the exact
//! maximum `t = ⌈½·r(2r+1)⌉ − 1` under hostile placements and
//! behaviours, while the threshold placement (checkerboard strip at
//! `t+1`) defeats it; safety (no wrong commit) holds throughout.
//!
//! Full protocol at r = 1..2, simplified at r = 1..3 (the paper proves
//! both achieve the same threshold; the full protocol's report traffic
//! grows steeply with r — see DESIGN.md).

use crate::{header, perf, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};

/// The adversarial (placement, behaviour) grid each config faces at t_max.
fn attacks(t: usize) -> [(Placement, FaultKind); 4] {
    [
        (Placement::FrontierCluster { t }, FaultKind::Silent),
        (Placement::FrontierCluster { t }, FaultKind::Liar),
        (Placement::FrontierCluster { t }, FaultKind::Forger),
        (
            Placement::RandomLocal {
                t,
                seed: 7,
                attempts: 60,
            },
            FaultKind::Liar,
        ),
    ]
}

/// `Size::Smoke` keeps only the r = 1 configs: a seconds-scale CI
/// invocation exercising the full pipeline (engine fan-out included).
pub(crate) fn run(v: &mut Verdicts, size: Size) {
    let smoke = size == Size::Smoke;

    header("Byzantine threshold experiments (Theorem 1 / exact threshold)");
    println!(
        "{:>3} {:<20} {:>4} {:<18} {:<8} {:>9} {:>7} {:>9} {:>10}",
        "r", "protocol", "t", "placement", "faults", "correct", "wrong", "undecided", "msgs"
    );
    rule(100);

    let mut configs: Vec<(u32, ProtocolKind)> = vec![
        (1, ProtocolKind::IndirectFull),
        (2, ProtocolKind::IndirectFull),
        (1, ProtocolKind::IndirectSimplified),
        (2, ProtocolKind::IndirectSimplified),
        (3, ProtocolKind::IndirectSimplified),
    ];
    if smoke {
        configs.retain(|&(r, _)| r == 1);
    }

    // Achievability at t_max: the whole grid fans out through the
    // deterministic engine, then rows print in experiment order.
    let experiments: Vec<Experiment> = configs
        .iter()
        .flat_map(|&(r, kind)| {
            let t = thresholds::byzantine_max_t(r) as usize;
            attacks(t).into_iter().map(move |(placement, behave)| {
                Experiment::new(r, kind)
                    .with_t(t)
                    .with_placement(placement)
                    .with_fault_kind(behave)
            })
        })
        .collect();
    let outcomes = perf::run_sweep("thresh_byz/achievability", &experiments);

    for (&(r, kind), chunk) in configs.iter().zip(outcomes.chunks(4)) {
        let t = thresholds::byzantine_max_t(r) as usize;
        let attacks = attacks(t);
        v.check_rows(
            &format!("{} achieves broadcast at t_max = {t} (r={r})", kind.name()),
            chunk,
            |i| {
                let (placement, behave) = &attacks[i];
                let attack = format!("{}/{behave:?}", placement.name());
                format!("{:>3} {:<20} {:>4} {:<18} ", r, kind.name(), t, attack)
            },
            |o| {
                format!(
                    "{:<8} {:>9} {:>7} {:>9} {:>10}",
                    o.fault_count,
                    o.committed_correct,
                    o.committed_wrong,
                    o.undecided,
                    o.stats.messages_sent
                )
            },
            |o| o.all_honest_correct() && o.audited_bound <= t,
        );
    }

    // Threshold placement at t_max + 1: Koo's construction. With t+1
    // liars per neighborhood the adversary can assemble t+1 disjoint
    // fake report chains — a full forged quorum — so honest nodes are
    // deceived and/or starved: reliable broadcast fails, exactly as the
    // impossibility bound demands.
    header("At the impossibility bound t = ⌈½·r(2r+1)⌉ (checkerboard strips)");
    let mut imp_configs: Vec<(u32, ProtocolKind)> = vec![
        (1, ProtocolKind::IndirectSimplified),
        (2, ProtocolKind::IndirectSimplified),
    ];
    if smoke {
        imp_configs.retain(|&(r, _)| r == 1);
    }
    let imp_experiments: Vec<Experiment> = imp_configs
        .iter()
        .map(|&(r, kind)| {
            // protocol still configured for its own t_max; the adversary
            // has t_imp faults per neighborhood
            let t = thresholds::byzantine_max_t(r) as usize;
            Experiment::new(r, kind)
                .with_t(t)
                .with_placement(Placement::CheckerStrips)
                .with_fault_kind(FaultKind::Liar)
        })
        .collect();
    let imp_outcomes = perf::run_sweep("thresh_byz/impossibility", &imp_experiments);
    for (&(r, kind), row) in imp_configs.iter().zip(imp_outcomes.chunks(1)) {
        let t_imp = thresholds::byzantine_impossible_t(r) as usize;
        v.check_rows(
            &format!("reliable broadcast fails at t = {t_imp} (r={r}): deceived or starved nodes"),
            row,
            |_| format!("r={r} {} vs t={t_imp} strips: ", kind.name()),
            ToString::to_string,
            |o| o.committed_wrong > 0 || o.undecided > 0,
        );
    }
}
