//! THRESH-CPA — Theorem 6 vs the other bounds: CPA succeeds at
//! `t = ⌊⅔r²⌋`; an empirical sweep locates CPA's failure frontier under
//! cluster faults; the bound curves (Theorem 6, Koo's bound, the exact
//! `½r(2r+1)` threshold of the indirect protocol) are tabulated.

use crate::{header, perf, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    header("Bound curves");
    println!(
        "{:>4} {:>14} {:>14} {:>16} {:>14}",
        "r", "⌊⅔r²⌋ (Thm 6)", "Koo CPA bound", "½r(2r+1) exact", "r(2r+1) crash"
    );
    rule(68);
    for r in 1..=12u32 {
        println!(
            "{:>4} {:>14} {:>14.2} {:>16.1} {:>14}",
            r,
            thresholds::cpa_guaranteed_t(r),
            thresholds::koo_cpa_bound(r),
            thresholds::byzantine_max_t(r) as f64 + 0.5,
            thresholds::crash_impossible_t(r)
        );
    }

    // Theorem 6 budget: CPA succeeds. The (r, behaviour) grid fans out
    // through the deterministic engine.
    let budget_experiments: Vec<(u32, Experiment)> = (1..=3u32)
        .flat_map(|r| {
            let t = thresholds::cpa_guaranteed_t(r) as usize;
            [FaultKind::Silent, FaultKind::Liar].map(move |kind| {
                (
                    r,
                    Experiment::new(r, ProtocolKind::Cpa)
                        .with_t(t)
                        .with_placement(Placement::FrontierCluster { t })
                        .with_fault_kind(kind),
                )
            })
        })
        .collect();
    let budget_outcomes = perf::run_sweep(
        "thresh_cpa/theorem6",
        &budget_experiments
            .iter()
            .map(|(_, e)| e.clone())
            .collect::<Vec<_>>(),
    );
    for (pair, chunk) in budget_experiments.chunks(2).zip(budget_outcomes.chunks(2)) {
        let r = pair[0].0;
        let t = thresholds::cpa_guaranteed_t(r) as usize;
        v.check_all(
            &format!("CPA succeeds at Theorem 6 budget t = {t} (r={r})"),
            chunk,
            rbcast_core::Outcome::all_honest_correct,
        );
    }

    // Empirical frontier: sweep t upward under the cluster adversary and
    // find where CPA first fails to complete. The whole t-range per r is
    // one engine sweep; the frontier is read off the ordered outcomes.
    header("Empirical CPA failure frontier (frontier-cluster, silent faults)");
    println!(
        "{:>4} {:>10} {:>12} {:>14} {:>16}",
        "r", "⌊⅔r²⌋", "first fail", "exact thresh", "crash thresh"
    );
    rule(60);
    for r in 1..=3u32 {
        let exact = thresholds::byzantine_max_t(r) as usize;
        let frontier_experiments: Vec<Experiment> = (0..=(thresholds::crash_impossible_t(r)
            as usize))
            .map(|t| {
                Experiment::new(r, ProtocolKind::Cpa)
                    .with_t(t)
                    .with_placement(Placement::FrontierCluster { t })
                    .with_fault_kind(FaultKind::Silent)
            })
            .collect();
        let frontier_outcomes =
            perf::run_sweep(&format!("thresh_cpa/frontier_r{r}"), &frontier_experiments);
        let frontier_label = format!("CPA's empirical frontier ≥ Theorem 6 guarantee (r={r})");
        if !frontier_outcomes.fully_healthy() {
            // A quarantined cell makes "first failing t" ambiguous.
            println!(
                "{:>4} {:>10} {:>12} {:>14} {:>16}",
                r,
                thresholds::cpa_guaranteed_t(r),
                "n/a",
                exact,
                thresholds::crash_impossible_t(r)
            );
            v.skip(&frontier_label);
            continue;
        }
        let first_fail = frontier_outcomes
            .iter()
            .flatten()
            .position(|o| !o.all_honest_correct());
        let ff = first_fail.map_or("none".to_string(), |t| t.to_string());
        println!(
            "{:>4} {:>10} {:>12} {:>14} {:>16}",
            r,
            thresholds::cpa_guaranteed_t(r),
            ff,
            exact,
            thresholds::crash_impossible_t(r)
        );
        if let Some(t) = first_fail {
            v.check(
                &frontier_label,
                t > thresholds::cpa_guaranteed_t(r) as usize,
            );
        }
    }

    // Safety within the bound: with at most t liars per neighborhood no
    // honest node ever accepts the wrong value ("no non-faulty node will
    // ever accept the wrong value", §III/§IX). Necessity of the locally
    // bounded assumption rides in the same sweep: 2t+2 liars in one
    // neighborhood exceed the budget and CAN make honest nodes accept
    // the wrong value (t+1 same-neighborhood liars fabricate a quorum).
    let safety_rs = [2u32, 3];
    let beyond_rs = [1u32, 2];
    let bound_experiments: Vec<Experiment> = safety_rs
        .iter()
        .map(|&r| {
            let t = thresholds::cpa_guaranteed_t(r) as usize;
            Experiment::new(r, ProtocolKind::Cpa)
                .with_t(t)
                .with_placement(Placement::FrontierCluster { t })
                .with_fault_kind(FaultKind::Liar)
        })
        .chain(beyond_rs.iter().map(|&r| {
            let t = thresholds::cpa_guaranteed_t(r) as usize;
            Experiment::new(r, ProtocolKind::Cpa)
                .with_t(t)
                .with_placement(Placement::FrontierCluster { t: 2 * t + 2 })
                .with_fault_kind(FaultKind::Liar)
        }))
        .collect();
    let bound_outcomes = perf::run_sweep("thresh_cpa/local_bound", &bound_experiments);
    let (safety_outcomes, beyond_outcomes) = bound_outcomes.split_at(safety_rs.len());
    for (&r, row) in safety_rs.iter().zip(safety_outcomes.chunks(1)) {
        let t = thresholds::cpa_guaranteed_t(r) as usize;
        v.check_all(
            &format!("CPA is safe with t = {t} liars in one neighborhood (r={r})"),
            row,
            |o| o.safe() && o.audited_bound <= t,
        );
    }
    for (&r, row) in beyond_rs.iter().zip(beyond_outcomes.chunks(1)) {
        let t = thresholds::cpa_guaranteed_t(r) as usize;
        v.check_all(
            &format!(
                "beyond the bound ({} liars vs t = {t}) honest nodes are deceived (r={r})",
                2 * t + 2
            ),
            row,
            |o| o.committed_wrong > 0,
        );
    }
}
