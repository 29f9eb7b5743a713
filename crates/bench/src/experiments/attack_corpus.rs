//! ATTACK — the adversary-search corpus: runs `rbcast attack` at a
//! pinned seed, replays every worst-found placement through a fresh
//! experiment, and verifies the search properties CI relies on:
//!
//! 1. every found placement respects the local bound it was searched
//!    under (the adversary never cheats the model);
//! 2. replaying a found placement as `Placement::Explicit` reproduces
//!    the search's recorded score exactly (placements are portable
//!    artifacts, not search-internal state);
//! 3. the search beats the best hand-built strategy on at least one
//!    `(r, t)` cell (the optimizer earns its keep);
//! 4. above the proven threshold the search finds a violation, and at
//!    or below it safety holds (no wrong commit) — Theorem 1 seen from
//!    the adversary's side.
//!
//! `Size::Smoke` keeps radius 1 with a reduced annealing budget: the
//! seconds-scale CI gate.

use crate::{header, rule, Size, Verdicts};
use rbcast_adversary::{local_fault_bound, AttackScore, Placement};
use rbcast_core::attack::{run_attack, AttackConfig};
use rbcast_core::{Experiment, FaultKind, ProtocolKind};

pub(crate) fn run(v: &mut Verdicts, size: Size) {
    let mut cfg = AttackConfig::new(0xA77AC4);
    cfg.protocol = ProtocolKind::IndirectSimplified;
    cfg.fault_kind = FaultKind::Liar;
    if size == Size::Smoke {
        cfg.rs = vec![1];
        cfg.steps = 60;
    } else {
        cfg.rs = vec![1, 2];
        cfg.steps = 120;
    }
    cfg.threads = std::thread::available_parallelism().map_or(1, usize::from);

    header("Adversary search corpus (worst-found fault placements)");
    println!(
        "{:>3} {:>4} {:>5} {:>7} {:<28} {:<24} {:>7}",
        "r", "t", "thr", "faults", "found score", "best hand-built", "verdict"
    );
    rule(88);

    let report = match run_attack(&cfg) {
        Ok(report) => report,
        Err(e) => {
            v.check(&format!("attack search ran: {e}"), false);
            return;
        }
    };

    for cell in &report.cells {
        let verdict = if cell.beats_baseline() {
            "BEATS"
        } else if cell.found_score == cell.baseline_score {
            "ties"
        } else {
            "behind"
        };
        println!(
            "{:>3} {:>4} {:>5} {:>7} {:<28} {:<24} {:>7}",
            cell.cell.r,
            cell.cell.t,
            cell.cell.threshold,
            cell.found.len(),
            cell.found_score.to_string(),
            format!("{} {}", cell.baseline_name, cell.baseline_score),
            verdict
        );

        let torus = rbcast_core::attack::attack_torus(cell.cell.r);
        let bound = local_fault_bound(&torus, cell.cell.r, cfg.metric, &cell.found);
        v.check(
            &format!(
                "r={} t={}: found placement respects the local bound ({bound} ≤ {})",
                cell.cell.r, cell.cell.t, cell.cell.t
            ),
            bound <= cell.cell.t,
        );

        // Replay the placement as a portable artifact: an experiment
        // built only from the id list must reproduce the search's score.
        let outcome = Experiment::new(cell.cell.r, cfg.protocol)
            .with_metric(cfg.metric)
            .with_torus(torus)
            .with_t(cell.cell.t)
            .with_fault_kind(cfg.fault_kind)
            .with_placement(Placement::Explicit {
                faults: cell.found.clone(),
            })
            .run();
        let replayed = AttackScore {
            wrong: outcome.committed_wrong as u64,
            undecided: outcome.undecided as u64,
            last_round: outcome.last_decision_round.unwrap_or(0),
        };
        v.check(
            &format!(
                "r={} t={}: replaying the placement reproduces its score",
                cell.cell.r, cell.cell.t
            ),
            replayed == cell.found_score,
        );

        // Margin-to-threshold: the paper's bound, seen from the
        // adversary's side. At or below the proven threshold the search
        // must not find a *wrong* commit (safety); past it, it must
        // break the broadcast.
        if cell.cell.t <= cell.cell.threshold {
            v.check(
                &format!(
                    "r={} t={} ≤ thr: no placement forges a wrong commit",
                    cell.cell.r, cell.cell.t
                ),
                cell.found_score.wrong == 0,
            );
        } else {
            v.check(
                &format!(
                    "r={} t={} > thr: search breaks reliable broadcast",
                    cell.cell.r, cell.cell.t
                ),
                cell.found_score.is_break(),
            );
        }
    }

    v.check(
        "search beats the best hand-built strategy on ≥ 1 cell",
        report.gate_passed(),
    );
}
