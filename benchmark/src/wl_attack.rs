//! `attack_search`: one `rbcast attack` — hundreds of tiny full
//! simulations steered by annealing, seeded from a min-cut. The only
//! workload with `adversary::search` and `flow::dinic` on the blocking
//! path.

use crate::trace::Trace;
use crate::workload::{derive, fold, obs_span_seconds, RepOutput, Spec, Workload, DEFAULT_SEED};
use rbcast_adversary::greedy_cut_seed;
use rbcast_core::attack::{self, AttackConfig, AttackReport};
use std::time::Instant;

pub const ATTACK_SEARCH: Spec = Spec {
    name: "attack_search",
    unit: "evaluations",
    why: "rbcast attack at r=1, 600 annealing steps per cell: hundreds of tiny full simulations \
          plus min-cut seeding; the only workload with adversary and flow::dinic on the \
          blocking path",
    // The chain's seed is part of the workload, not of `--seed`: which
    // placements the annealing wanders through decides what an
    // evaluation costs (a broken broadcast runs differently from a
    // healthy one), and that moves evaluations/s by ±15 % between
    // seeds.
    seeded: false,
    build: |_seed, toy| {
        let mut cfg = AttackConfig::new(derive(DEFAULT_SEED, 0xA77AC, 0));
        cfg.steps = if toy { 12 } else { 600 };
        cfg.threads = 1;
        Box::new(AttackWorkload { cfg })
    },
};

struct AttackWorkload {
    cfg: AttackConfig,
}

impl AttackWorkload {
    fn output(&self, report: &AttackReport) -> RepOutput {
        // A break at or below the proven threshold would be a protocol
        // bug; one past it is the search doing its job.
        let failed = report
            .cells
            .iter()
            .filter(|c| c.cell.t <= c.cell.threshold && c.found_score.is_break())
            .count() as u64;
        let evaluations: u64 = report.cells.iter().map(|c| c.evaluations).sum();
        RepOutput {
            hash: fold(report.cells.iter().flat_map(|c| {
                [
                    c.found_score.wrong,
                    c.found_score.undecided,
                    u64::from(c.found_score.last_round),
                    c.evaluations,
                    c.accepted,
                    fold(c.found.iter().map(|id| u64::from(id.0))),
                ]
            })),
            work: evaluations,
            rounds_to_commit: report
                .cells
                .iter()
                .map(|c| u64::from(c.found_score.last_round))
                .max()
                .unwrap_or(0),
            ops: report.cells.len() as u64,
            failed,
            counts: vec![
                ("evaluations", evaluations),
                ("accepted", report.cells.iter().map(|c| c.accepted).sum()),
            ],
        }
    }

    fn search(&self) -> AttackReport {
        attack::run_attack(&self.cfg).expect("an unjournaled attack has no I/O to fail on")
    }
}

impl Workload for AttackWorkload {
    fn run(&self) -> RepOutput {
        self.output(&self.search())
    }

    /// `run_attack` is one call with its own `obs` spans inside; the
    /// traced pass reads those and adds the seeding kernel.
    fn run_traced(&self, trace: &mut Trace) -> RepOutput {
        let (anneal, seed) = (
            obs_span_seconds("attack/anneal"),
            obs_span_seconds("attack/seed"),
        );
        let (report, run_s) = trace.span("core.attack.run", |_| self.search());
        trace.comparable(run_s);
        let output = self.output(&report);
        trace.count("core.attack.evaluations", output.work);
        trace.count(
            "core.attack.accepted",
            report.cells.iter().map(|c| c.accepted).sum(),
        );
        trace.value(
            "core.attack.anneal_s",
            obs_span_seconds("attack/anneal") - anneal,
        );
        trace.value("core.attack.seed_s", obs_span_seconds("attack/seed") - seed);
        trace.value(
            "core.attack.ms_per_evaluation",
            run_s * 1e3 / output.work.max(1) as f64,
        );
        output
    }

    fn kernels(&self, trace: &mut Trace) {
        let cells = attack::attack_cells(&self.cfg);
        let start = Instant::now();
        let mut placed = 0;
        for cell in &cells {
            placed += greedy_cut_seed(
                &attack::attack_torus(cell.r),
                cell.r,
                self.cfg.metric,
                cell.t,
            )
            .len();
        }
        std::hint::black_box(placed);
        trace.value("adversary.greedy_cut_seed_s", start.elapsed().as_secs_f64());
    }
}
