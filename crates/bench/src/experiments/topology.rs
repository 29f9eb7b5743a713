//! TOPOLOGY — the Pelc–Peleg general-graph perspective (§III): CPA run
//! by an independent generic-graph executor, cross-validated against the
//! radio simulator on the grid's connectivity graph, plus a bottleneck
//! topology where CPA stalls at `t = 1` — the dependence on fat
//! neighborhoods that makes the grid special.

use crate::{header, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::graphs::{bottleneck_graph, run_cpa, Graph};
use rbcast_core::{Experiment, FaultKind, ProtocolKind};
use rbcast_grid::{Coord, Metric, Torus};

pub fn run(v: &mut Verdicts, _: Size) {
    header("Cross-validation: generic-graph CPA vs the radio simulator");
    println!(
        "{:>3} {:>4} {:<18} {:>14} {:>14}",
        "r", "t", "placement", "radio commits", "graph commits"
    );
    rule(60);
    let mut agree = true;
    for r in 1..=2u32 {
        let torus = Torus::for_radius(r);
        let g = Graph::from_torus(&torus, r, Metric::Linf);
        for t in 0..=rbcast_core::thresholds::cpa_guaranteed_t(r) as usize {
            for placement in [
                Placement::FrontierCluster { t },
                Placement::RandomLocal {
                    t,
                    seed: 21,
                    attempts: 40,
                },
            ] {
                let faults = placement.place(&torus, r, Metric::Linf);
                let o = Experiment::new(r, ProtocolKind::Cpa)
                    .with_t(t)
                    .with_placement(placement.clone())
                    .with_fault_kind(FaultKind::Silent)
                    .run();
                let graph_faults: Vec<usize> = faults.iter().map(|f| f.index()).collect();
                let commits = run_cpa(&g, torus.id(Coord::ORIGIN).index(), t, &graph_faults);
                let graph_committed = commits
                    .iter()
                    .enumerate()
                    .filter(|&(n, c)| c.is_some() && !graph_faults.contains(&n))
                    .count();
                println!(
                    "{:>3} {:>4} {:<18} {:>14} {:>14}",
                    r,
                    t,
                    placement.name(),
                    o.committed_correct,
                    graph_committed
                );
                agree &= o.committed_correct == graph_committed;
            }
        }
    }
    v.check(
        "two independent CPA implementations agree on every configuration",
        agree,
    );

    header("Topology dependence: the bottleneck graph");
    let (g, source) = bottleneck_graph();
    let flood = run_cpa(&g, source, 0, &[]);
    let stalled = run_cpa(&g, source, 1, &[]);
    println!(
        "t = 0: {}/{} commit;  t = 1: {}/{} commit (fault-free!)",
        flood.iter().flatten().count(),
        g.len(),
        stalled.iter().flatten().count(),
        g.len()
    );
    v.check(
        "CPA stalls on the two-vertex bridge at t = 1 despite zero faults",
        flood.iter().all(Option::is_some) && stalled.iter().any(Option::is_none),
    );
    println!();
    println!("on the grid, neighborhoods are (2r+1)²-fat and Theorem 6 applies;");
    println!("on arbitrary graphs CPA's fate is a topology question (Pelc & Peleg).");
}
