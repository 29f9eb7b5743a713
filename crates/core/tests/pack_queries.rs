//! How many packing queries one `attack_search`-shaped cell asks.
//!
//! Both indirect commit rules ask one question per candidate ball: "do
//! `t + 1` pairwise disjoint chains fit inside it?" An evaluation counts
//! first, per center, the stored chains whose keys all lie in the box
//! around it, and asks a packer only where that count reaches `t + 1`:
//! elsewhere the answer is "no" before any packing starts.
//! `flow/pack-queries` counts the questions a packer is asked; on the
//! cell `attack_search` anneals — §VI-B at r = 1 on `Torus::for_radius(1)`
//! under a frontier cluster of liars at t = 1 — it is pinned here, so a
//! filter that stops filtering, or a scan that asks twice, shows as a
//! moved count. This file is its own test binary, so no other test's
//! queries reach the process-wide counter.

use rbcast_adversary::Placement;
use rbcast_core::{engine, obs, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Torus;

/// Queries the cell asks with the filter in place.
const FILTERED: u64 = 170;

/// Queries the same cell asked when every center of every dirty
/// evaluation went to the packer.
const UNFILTERED: u64 = 1_206;

const _: () = assert!(
    FILTERED * 5 <= UNFILTERED,
    "the filter spares at least 80 % of the queries"
);

/// The `flow/pack-queries` counter.
fn pack_queries() -> u64 {
    obs::metrics_snapshot()
        .into_iter()
        .find(|(name, _)| name == "flow/pack-queries")
        .map(|(_, n)| n)
        .expect("the flow query counter is bridged")
}

#[test]
fn the_attack_cell_asks_a_packer_only_where_t_plus_1_chains_fit() {
    let cell = Experiment::new(1, ProtocolKind::IndirectSimplified)
        .with_torus(Torus::for_radius(1))
        .with_t(1)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Liar);
    assert_eq!(pack_queries(), 0);
    let outcomes = engine::run_experiments_traced(std::slice::from_ref(&cell), 1);
    assert_eq!(outcomes.len(), 1);
    // Under `debug-invariants` every run is replayed once, and every
    // filtered evaluation also runs the unfiltered scan it is checked
    // against.
    let expected = if cfg!(feature = "debug-invariants") {
        2 * (FILTERED + UNFILTERED)
    } else {
        FILTERED
    };
    assert_eq!(pack_queries(), expected);
}
