//! Counts cannot move: the benchmark's three single-broadcast cells
//! (`wave_flood_1m`, `wave_indirect_100k`, `byz_full_r2`), with every
//! exact count a run reports pinned to the value it had while every
//! node was still boxed. A lost dedup, an extra re-evaluation, a changed
//! delivery order or a decision more or less fails here on any host,
//! however its clock swings. The two waves run on smaller tori than the
//! benchmark's (10⁴ nodes, the `BENCH_scale.json` small cells) so the
//! file stays about a second in a debug build; the Byzantine cell runs
//! at full size.
//!
//! Each experiment is described the way `benchmark/src/wl_sim.rs`
//! describes it, so a change that would move the benchmark's counts
//! fails a workspace test first.

use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Torus;

/// `[rounds, messages, deliveries, commits, last decision round]`, the
/// transmissions per message kind, and the delivery-trace hash.
type Counts = ([u64; 5], Vec<(&'static str, u64)>, u64);

fn counts(experiment: &Experiment) -> Counts {
    let (o, hash) = experiment.run_traced();
    assert!(o.all_honest_correct(), "{o}");
    (
        [
            u64::from(o.stats.rounds),
            o.stats.messages_sent,
            o.stats.deliveries,
            o.committed_correct as u64,
            u64::from(o.last_decision_round.unwrap_or(0)),
        ],
        o.message_kinds,
        hash,
    )
}

/// A fault-free wave at r = 1 on a `side × side` torus.
fn wave(protocol: ProtocolKind, t: u64, side: u32) -> Experiment {
    Experiment::new(1, protocol)
        .with_t(t as usize)
        .with_torus(Torus::new(side, side))
}

/// `wave_flood_1m` at 10⁴ nodes.
#[test]
fn flood_wave_counts_are_pinned() {
    let got = counts(&wave(ProtocolKind::Flood, thresholds::crash_max_t(1), 100));
    assert_eq!(
        got,
        (
            [50, 10_000, 78_408, 10_000, 50],
            vec![("COMMITTED", 9_999), ("SOURCE", 1)],
            0xf5ee_e07e_c976_4eda
        )
    );
}

/// `wave_indirect_100k` at 10⁴ nodes.
#[test]
fn indirect_simplified_wave_counts_are_pinned() {
    let got = counts(&wave(
        ProtocolKind::IndirectSimplified,
        thresholds::byzantine_max_t(1),
        100,
    ));
    assert_eq!(
        got,
        (
            [66, 89_960, 718_616, 10_000, 66],
            vec![("COMMITTED", 9_999), ("HEARD", 79_960), ("SOURCE", 1)],
            0xd279_784e_8067_e269
        )
    );
}

/// `byz_full_r2` as the benchmark runs it: indirect-full at r = 2,
/// `t = 4`, a frontier cluster of liars on the default 20×20 torus.
#[test]
fn byz_full_r2_counts_are_pinned() {
    let t = thresholds::byzantine_max_t(2) as usize;
    let experiment = Experiment::new(2, ProtocolKind::IndirectFull)
        .with_t(t)
        .with_placement(Placement::FrontierCluster { t })
        .with_fault_kind(FaultKind::Liar);
    assert_eq!(
        counts(&experiment),
        (
            [8, 446_311, 7_689_600, 396, 8],
            vec![("COMMITTED", 399), ("HEARD", 445_911), ("SOURCE", 1)],
            0xe62f_8876_381d_9443
        )
    );
}
