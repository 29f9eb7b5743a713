//! The sweep engine builds each geometry once per sweep, at every
//! thread count.
//!
//! What a threaded sweep must not do is have workers rebuild the
//! neighbor tables — the cost that used to put 2 threads at ~75 % of
//! serial throughput. That is countable, so it is counted instead of
//! timed: the arena cache reports every lookup as `arena/hits` or
//! `arena/misses`, and a one-geometry sweep must miss exactly once. One
//! test in a file of its own, so the process-wide counters see no other
//! traffic.

use rbcast_adversary::Placement;
use rbcast_core::{engine, obs, Experiment, FaultKind, ProtocolKind};

/// A fixed 32-run grid on one geometry: 4 configs × 8 seeds at r = 1.
fn grid() -> Vec<Experiment> {
    let configs = [
        (ProtocolKind::Flood, FaultKind::CrashStop),
        (ProtocolKind::Cpa, FaultKind::Silent),
        (ProtocolKind::IndirectSimplified, FaultKind::Liar),
        (ProtocolKind::IndirectSimplified, FaultKind::Forger),
    ];
    configs
        .iter()
        .flat_map(|&(kind, fault)| {
            (0..8u64).map(move |seed| {
                Experiment::new(1, kind)
                    .with_t(1)
                    .with_placement(Placement::RandomLocal {
                        t: 1,
                        seed,
                        attempts: 40,
                    })
                    .with_fault_kind(fault)
            })
        })
        .collect()
}

#[test]
fn a_one_geometry_sweep_builds_its_arena_exactly_once() {
    let experiments = grid();
    let hits = obs::counter("arena/hits");
    let misses = obs::counter("arena/misses");
    // One lookup per experiment from the prewarm, one per simulation
    // (`debug-invariants` runs each experiment twice).
    let runs_per_experiment = if cfg!(feature = "debug-invariants") {
        2
    } else {
        1
    };
    let lookups = (experiments.len() * (1 + runs_per_experiment)) as u64;

    let serial = engine::run_experiments(&experiments, 1);
    for threads in [1, 2, 4] {
        let (h0, m0) = (hits.get(), misses.get());
        let outcomes = engine::run_experiments(&experiments, threads);
        assert_eq!(outcomes, serial, "threads={threads}");
        assert_eq!(
            misses.get() - m0,
            1,
            "threads={threads}: the sweep's one geometry must be built once"
        );
        assert_eq!(
            hits.get() - h0,
            lookups - 1,
            "threads={threads}: every other lookup must be a hit"
        );
    }
}
