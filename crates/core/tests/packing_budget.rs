//! No pinned §VI verdict rests on the packing search's budget.
//!
//! `ChainPacker` answers "do `t + 1` disjoint chains fit in this ball?"
//! with a greedy pass and then a branch and bound capped at a node
//! budget. A capped search can only answer "not yet" where a longer one
//! might answer "determined", so safety never rests on the budget, but
//! completeness would. `flow/budget-cuts` counts the searches the cap
//! stopped short of their target, and `flow/instance-cuts` the searches
//! whose admitted chains were cut to the packer's instance cap; over the
//! pinned indirect cells — `golden_indirect.rs`'s matrix and
//! `byz_full_r2`, the r = 2 liar storm — both must read 0. This file is its own test binary, so no other
//! test's searches reach the process-wide counter.

use rbcast_adversary::Placement;
use rbcast_core::{engine, obs, thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Torus;
use rbcast_protocols::{CommitRule, IndirectConfig};

/// `golden_indirect.rs`'s cells, constructors only.
fn golden_cells() -> Vec<Experiment> {
    let random = |t: usize, seed: u64| Placement::RandomLocal {
        t,
        seed,
        attempts: 30,
    };
    let cluster = || Placement::FrontierCluster { t: 1 };
    let two_relay = ProtocolKind::IndirectCustom(IndirectConfig {
        max_relays: 2,
        rule: CommitRule::TwoLevel,
    });
    let r1 = |kind: ProtocolKind, placement: Placement, fault: FaultKind| {
        Experiment::new(1, kind)
            .with_t(1)
            .with_placement(placement)
            .with_fault_kind(fault)
    };
    vec![
        r1(ProtocolKind::IndirectSimplified, cluster(), FaultKind::Liar),
        r1(
            ProtocolKind::IndirectSimplified,
            cluster(),
            FaultKind::Forger,
        ),
        r1(
            ProtocolKind::IndirectSimplified,
            random(1, 7),
            FaultKind::CrashStop,
        ),
        r1(ProtocolKind::IndirectFull, random(1, 99), FaultKind::Forger),
        r1(ProtocolKind::IndirectFull, cluster(), FaultKind::Liar),
        r1(
            ProtocolKind::IndirectFull,
            random(1, 3),
            FaultKind::CrashStop,
        ),
        r1(two_relay, cluster(), FaultKind::Forger),
        r1(ProtocolKind::IndirectSimplified, cluster(), FaultKind::Liar)
            .with_torus(Torus::new(24, 9)),
        r1(
            ProtocolKind::IndirectFull,
            Placement::Bernoulli { p: 0.05, seed: 2 },
            FaultKind::Forger,
        )
        .with_torus(Torus::new(18, 18)),
    ]
}

/// The `flow/budget-cuts` and `flow/instance-cuts` counters.
fn cuts() -> [u64; 2] {
    let snapshot = obs::metrics_snapshot();
    ["flow/budget-cuts", "flow/instance-cuts"].map(|key| {
        snapshot
            .iter()
            .find(|(name, _)| name == key)
            .map(|&(_, n)| n)
            .expect("the flow cut counters are bridged")
    })
}

#[test]
fn no_pinned_indirect_cell_spends_the_packing_budget() {
    let t = thresholds::byzantine_max_t(2) as usize;
    let byz_full_r2 = Experiment::new(2, ProtocolKind::IndirectFull)
        .with_t(t)
        .with_placement(Placement::FrontierCluster { t })
        .with_fault_kind(FaultKind::Liar);
    let mut cells = golden_cells();
    cells.push(byz_full_r2);
    assert_eq!(cuts(), [0, 0]);
    let outcomes = engine::run_experiments_traced(&cells, 1);
    assert_eq!(outcomes.len(), cells.len());
    assert_eq!(
        cuts(),
        [0, 0],
        "a pinned verdict rests on the budget or the cap"
    );
}
