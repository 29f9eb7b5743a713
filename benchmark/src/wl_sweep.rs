//! `sweep_small`: one supervised, journaled sweep of ~500 millisecond
//! runs (`rbcast sweep --journal`). Per-run fixed cost — supervision,
//! journal flush per line, arena cache, process boxing, placement
//! audit — dominates per-delivery cost.

use crate::trace::Trace;
use crate::wl_sim::{broadcast_failed, SimSpec};
use crate::workload::{derive, fold, obs_counter, RepOutput, Spec, Workload};
use rbcast_adversary::{local_fault_bound_in, Placement};
use rbcast_core::supervisor::{
    self, Journal, JournalEntry, JournalHeader, OutcomeSummary, SupervisorConfig, SweepReport,
    TaskMetrics, TaskReport,
};
use rbcast_core::{engine, thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::{Metric, NeighborTable};
use std::path::PathBuf;
use std::time::Instant;

pub const SWEEP_SMALL: Spec = Spec {
    name: "sweep_small",
    unit: "runs",
    why: "~500 supervised, journaled runs of a few ms each at r=1: per-run fixed cost (engine, \
          supervisor, journal flush, arena cache, placement audit) dominates per-delivery cost",
    seeded: true,
    build: |seed, toy| Box::new(SweepWorkload::new(seed, if toy { 3 } else { 61 })),
};

struct SweepWorkload {
    specs: Vec<SimSpec>,
    experiments: Vec<Experiment>,
    header: JournalHeader,
    journal_path: PathBuf,
}

impl SweepWorkload {
    /// {Flood/CrashStop, Cpa/Liar, IndirectSimplified/Liar,
    /// IndirectSimplified/Forger} × t ∈ 0..=t_max × {FrontierCluster,
    /// `random_per_cell` RandomLocal placements}, r = 1 on the default
    /// 12×12 torus. Eight (protocol, t) cells, so 61 random placements
    /// per cell make 496 runs.
    fn new(seed: u64, random_per_cell: u64) -> SweepWorkload {
        let r = 1;
        let protocols = [
            (
                ProtocolKind::Flood,
                FaultKind::CrashStop,
                thresholds::crash_max_t(r),
            ),
            (
                ProtocolKind::Cpa,
                FaultKind::Liar,
                thresholds::cpa_guaranteed_t(r),
            ),
            (
                ProtocolKind::IndirectSimplified,
                FaultKind::Liar,
                thresholds::byzantine_max_t(r),
            ),
            (
                ProtocolKind::IndirectSimplified,
                FaultKind::Forger,
                thresholds::byzantine_max_t(r),
            ),
        ];
        let mut specs = Vec::new();
        for (cell, (protocol, fault, t_max)) in protocols.into_iter().enumerate() {
            for t in 0..=t_max as usize {
                let mut placements = vec![Placement::FrontierCluster { t }];
                placements.extend((0..random_per_cell).map(|i| Placement::RandomLocal {
                    t,
                    seed: derive(seed, 0x5EE9 + (cell * 8 + t) as u64, i),
                    attempts: 60,
                }));
                specs.extend(placements.into_iter().map(|p| SimSpec {
                    r,
                    torus: None,
                    protocol,
                    t,
                    placement: Some(p),
                    fault,
                }));
            }
        }
        let experiments: Vec<Experiment> = specs.iter().map(SimSpec::experiment).collect();
        let header = JournalHeader {
            fingerprint: supervisor::sweep_fingerprint(&experiments),
            tasks: experiments.len(),
        };
        SweepWorkload {
            specs,
            experiments,
            header,
            journal_path: crate::scratch_dir().join("sweep_small.journal.jsonl"),
        }
    }

    fn supervised(&self, journal: bool) -> SweepReport {
        let mut config = SupervisorConfig::new();
        if journal {
            config = config.with_journal(
                Journal::create_with_header(&self.journal_path, &self.header)
                    .expect("sweep journal is creatable under the benchmark's out dir"),
            );
        }
        supervisor::run_experiments_supervised(&self.experiments, 1, &config)
    }

    fn output(&self, report: &SweepReport) -> RepOutput {
        let mut failed = 0;
        let mut latest = 0;
        let mut deliveries = 0;
        let mut messages = 0;
        let mut commits = 0;
        for task in &report.tasks {
            match task.outcome() {
                Some(o) => {
                    failed += u64::from(broadcast_failed(o));
                    latest = latest.max(u64::from(o.last_decision_round.unwrap_or(0)));
                    deliveries += o.stats.deliveries;
                    messages += o.stats.messages_sent;
                    commits += o.committed_correct as u64;
                }
                None => failed += 1,
            }
        }
        RepOutput {
            hash: fold(report.tasks.iter().map(|t| t.digest().unwrap_or(u64::MAX))),
            work: report.tasks.len() as u64,
            rounds_to_commit: latest,
            ops: report.tasks.len() as u64,
            failed,
            counts: vec![
                ("runs", report.tasks.len() as u64),
                ("messages", messages),
                ("deliveries", deliveries),
                ("commits", commits),
            ],
        }
    }
}

impl Workload for SweepWorkload {
    fn run(&self) -> RepOutput {
        self.output(&self.supervised(true))
    }

    /// The supervised sweep is one call, so its layers are separated by
    /// running the same experiments through successively thinner
    /// paths: supervisor+journal, supervisor alone, the bare engine,
    /// and one experiment at a time.
    fn run_traced(&self, trace: &mut Trace) -> RepOutput {
        const COUNTERS: [(&str, &str); 5] = [
            ("core.supervisor.tasks", "supervisor/tasks"),
            ("core.supervisor.retries", "supervisor/retries"),
            ("core.supervisor.quarantined", "supervisor/quarantined"),
            ("core.arena_cache.hits", "arena/hits"),
            ("core.arena_cache.misses", "arena/misses"),
        ];
        let before = COUNTERS.map(|(_, key)| obs_counter(key));
        let (report, run_s) = trace.timed("core.supervisor.run", "core.supervisor.run_s", |_| {
            self.supervised(true)
        });
        trace.comparable(run_s);
        for ((name, key), was) in COUNTERS.into_iter().zip(before) {
            trace.count(name, obs_counter(key) - was);
        }
        let output = self.output(&report);

        let (plain, plain_s) =
            trace.span("core.supervisor.run.no_journal", |_| self.supervised(false));
        let (bare, bare_s) = trace.timed("core.engine.bare", "core.engine.bare_s", |_| {
            engine::run_experiments_traced(&self.experiments, 1)
        });
        assert!(
            plain == report
                && bare
                    .iter()
                    .map(|(_, h)| Some(*h))
                    .eq(report.tasks.iter().map(TaskReport::digest)),
            "journaled, unjournaled and bare sweeps must agree run for run"
        );
        trace.value("core.supervisor.overhead_frac", (plain_s - bare_s) / bare_s);
        trace.value(
            "core.supervisor.journal_overhead_frac",
            (run_s - plain_s) / plain_s,
        );

        // One experiment at a time. No arena guard is held between the
        // calls (the cache keeps only weak references and the guard is
        // not public), so each run also pays the 12x12 arena build a
        // sweep pays once.
        let mut run_ms = Vec::with_capacity(self.experiments.len());
        trace.span("core.sweep.runs", |_| {
            for e in &self.experiments {
                let start = Instant::now();
                std::hint::black_box(e.run());
                run_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        });
        run_ms.sort_by(f64::total_cmp);
        trace.value(
            "core.sweep.run_p50_ms",
            crate::stats::quantile(&run_ms, 0.5),
        );
        trace.value(
            "core.sweep.run_max_ms",
            run_ms.last().copied().unwrap_or(0.0),
        );

        // adversary: place and audit every placement of the sweep.
        let torus = self.specs[0].torus();
        let arena = NeighborTable::build(&torus, 1, Metric::Linf);
        let (placed, _) = trace.timed("adversary.place", "adversary.place_s", |_| {
            self.specs
                .iter()
                .map(|s| {
                    s.placement
                        .as_ref()
                        .map(|p| p.place(&torus, s.r, Metric::Linf))
                        .unwrap_or_default()
                })
                .collect::<Vec<_>>()
        });
        let (worst, _) = trace.timed("adversary.audit_bound", "adversary.audit_bound_s", |_| {
            placed.iter().map(|f| local_fault_bound_in(&arena, f)).max()
        });
        std::hint::black_box(worst);
        output
    }

    fn kernels(&self, trace: &mut Trace) {
        // `core.journal.record_us`: the flush-per-line append a sweep
        // pays once per task.
        let path = crate::scratch_dir().join("sweep_small.kernel.jsonl");
        let journal = Journal::create(&path).expect("kernel journal is creatable");
        let outcome = self.experiments[0].run();
        let entry = JournalEntry {
            task: 0,
            ok: true,
            attempts: 1,
            digest: Some(0x1234_5678_9abc_def0),
            summary: Some(OutcomeSummary::of(&outcome)),
            metrics: Some(TaskMetrics::of(&outcome)),
            error: None,
        };
        let n = 2_000;
        let start = Instant::now();
        for task in 0..n {
            journal
                .record(&JournalEntry {
                    task,
                    ..entry.clone()
                })
                .expect("kernel journal is writable");
        }
        trace.value(
            "core.journal.record_us",
            start.elapsed().as_secs_f64() * 1e6 / n as f64,
        );
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }
}
