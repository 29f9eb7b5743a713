//! FIG9-10 — crash-stop achievability (Theorem 5): the broadcast
//! wavefront advances through `pnbd` stage by stage even at the maximum
//! tolerable budget `t = r(2r+1) − 1`. Prints the per-round newly
//! committed counts (the propagation stages of Figs. 9–10) and verifies
//! full coverage under cluster and randomized worst-case placements.

use crate::{header, perf, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::{Coord, Metric, Torus};
use rbcast_protocols::{Flood, Msg, ProtocolParams};
use rbcast_sim::{Network, Process};

pub fn run(v: &mut Verdicts, _: Size) {
    // Stage visualisation: rounds at which each Chebyshev ring from the
    // source commits, r = 2, t_max cluster on the wavefront.
    let r = 2u32;
    let t = thresholds::crash_max_t(r) as usize;
    let torus = Torus::for_radius(r);
    let params = ProtocolParams {
        source: torus.id(Coord::ORIGIN),
        value: true,
        t,
    };
    let faults = Placement::FrontierCluster { t }.place(&torus, r, Metric::Linf);
    let mut net = Network::new(torus.clone(), r, Metric::Linf, |_| {
        Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
    });
    for &f in &faults {
        net.crash_at(f, 0);
    }
    net.run(1_000);

    header("Figs. 9-10 — wavefront stages (flood, r=2, t = r(2r+1)−1 cluster)");
    println!(
        "{:>6} {:>16} {:>18}",
        "round", "newly committed", "cumulative"
    );
    rule(44);
    let decisions = net.decisions();
    let max_round = decisions
        .iter()
        .flatten()
        .map(|&(_, round)| round)
        .max()
        .unwrap_or(0);
    let mut cumulative = 0usize;
    for round in 0..=max_round {
        let newly = decisions
            .iter()
            .flatten()
            .filter(|&&(_, rd)| rd == round)
            .count();
        cumulative += newly;
        println!("{round:>6} {newly:>16} {cumulative:>18}");
    }
    let honest = torus.len() - faults.len();
    v.check(
        &format!("cluster at t={t}: all {honest} honest nodes reached"),
        cumulative == honest,
    );

    // Randomized worst-case placements at t_max for r = 1..3: the
    // (r, seed) grid is one deterministic engine sweep.
    const SEEDS: u64 = 5;
    let rs = [1u32, 2, 3];
    let experiments: Vec<Experiment> = rs
        .iter()
        .flat_map(|&rr| {
            let t = thresholds::crash_max_t(rr) as usize;
            (0..SEEDS).map(move |seed| {
                Experiment::new(rr, ProtocolKind::Flood)
                    .with_t(t)
                    .with_placement(Placement::RandomLocal {
                        t,
                        seed,
                        attempts: 80,
                    })
                    .with_fault_kind(FaultKind::CrashStop)
            })
        })
        .collect();
    let outcomes = perf::run_sweep("fig9_10/random_local", &experiments);
    for (&rr, chunk) in rs.iter().zip(outcomes.chunks(SEEDS as usize)) {
        let t = thresholds::crash_max_t(rr) as usize;
        v.check_all(
            &format!(
                "random locally-bounded placements at t={t} all covered (r={rr}, {SEEDS} seeds)"
            ),
            chunk,
            |o| o.all_honest_correct() && o.audited_bound <= t,
        );
    }
}
