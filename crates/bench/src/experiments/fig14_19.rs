//! FIG14-19 — Theorem 6's staged CPA analysis: stage-1 seed counts, the
//! committed-stack growth to `⌊r/3⌋` rows, stage-2 corner/rest counts —
//! all verified with exact integer arithmetic — plus CPA simulations at
//! `t = ⌊⅔r²⌋`.

use crate::{header, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_construct::cpa_stages;
use rbcast_core::{Experiment, FaultKind, ProtocolKind};

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Figs. 14-19 — Theorem 6 stage geometry");
    println!(
        "{:>4} {:>8} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "r", "t=⌊⅔r²⌋", "2t+1", "seed min", "stack", "⌊r/3⌋", "corner", "rest"
    );
    rule(84);
    let mut geometry_ok = true;
    for r in [2u32, 3, 4, 6, 9, 12, 18, 30, 60] {
        let t = cpa_stages::cpa_max_t(r);
        let need = cpa_stages::cpa_commit_threshold(r);
        let seed_min = cpa_stages::seed_committed_neighbors(r, i64::from(cpa_stages::half_up(r)));
        let stack = cpa_stages::guaranteed_stack_rows(r);
        println!(
            "{:>4} {:>8} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
            r,
            t,
            need,
            seed_min,
            stack,
            cpa_stages::required_stack_rows(r),
            cpa_stages::stage2_corner_count(r),
            cpa_stages::stage2_rest_count(r)
        );
        geometry_ok &= cpa_stages::theorem6_holds(r);
    }

    v.check("Theorem 6 inequality chain holds for r = 2..100", {
        let mut ok = geometry_ok;
        for r in 2..=100 {
            ok &= cpa_stages::theorem6_holds(r);
        }
        ok
    });

    // Simulation: CPA at its guaranteed budget, hostile cluster on the
    // wavefront, both silent and lying behaviours.
    for r in 1..=3u32 {
        let t = cpa_stages::cpa_max_t(r) as usize;
        let mut ok = true;
        for kind in [FaultKind::Silent, FaultKind::Liar] {
            let o = Experiment::new(r, ProtocolKind::Cpa)
                .with_t(t)
                .with_placement(Placement::FrontierCluster { t })
                .with_fault_kind(kind)
                .run();
            ok &= o.all_honest_correct();
        }
        v.check(
            &format!("CPA completes at t = ⌊⅔r²⌋ = {t} under cluster faults (r={r})"),
            ok,
        );
    }
}
