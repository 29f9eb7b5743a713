//! Cross-thread-count determinism of the parallel sweep engine.
//!
//! The engine's contract is that a sweep's output is **byte-identical**
//! for every worker-thread count, including 1 (the serial baseline).
//! These tests pin that contract on a mixed experiment grid: ordered
//! outcomes AND per-run delivery-trace hashes must agree at 1, 2, and 8
//! threads. Under `--features debug-invariants` each run additionally
//! replays itself on a second thread and asserts the same trace hash, so
//! this test doubles as the engine-level replay gate in CI.

use rbcast_adversary::Placement;
use rbcast_core::supervisor::{
    self, ChaosConfig, Checkpoint, JournalEntry, JournalHeader, SupervisorConfig, SweepReport,
    TaskReport,
};
use rbcast_core::{engine, percolation, EngineKind, Experiment, FaultKind, ProtocolKind};
use rbcast_grid::Torus;

/// A representative sweep: three protocol families, adversarial and
/// randomized placements, seeds fixed at construction time.
fn sweep_grid() -> Vec<Experiment> {
    let mut grid = Vec::new();
    for seed in 0..4u64 {
        grid.push(
            Experiment::new(1, ProtocolKind::Flood)
                .with_t(2)
                .with_placement(Placement::RandomLocal {
                    t: 2,
                    seed,
                    attempts: 40,
                })
                .with_fault_kind(FaultKind::CrashStop),
        );
    }
    for seed in 0..2u64 {
        grid.push(
            Experiment::new(1, ProtocolKind::Cpa)
                .with_t(0)
                .with_placement(Placement::Bernoulli { p: 0.1, seed })
                .with_fault_kind(FaultKind::Silent),
        );
    }
    grid.push(
        Experiment::new(1, ProtocolKind::IndirectSimplified)
            .with_t(1)
            .with_placement(Placement::FrontierCluster { t: 1 })
            .with_fault_kind(FaultKind::Liar),
    );
    grid.push(
        Experiment::new(1, ProtocolKind::IndirectSimplified)
            .with_t(1)
            .with_placement(Placement::FrontierCluster { t: 1 })
            .with_fault_kind(FaultKind::Forger),
    );
    // The full protocol exercises the multi-relay chain and two-level
    // evidence paths, which the simplified rows above never touch.
    grid.push(
        Experiment::new(1, ProtocolKind::IndirectFull)
            .with_t(1)
            .with_placement(Placement::FrontierCluster { t: 1 })
            .with_fault_kind(FaultKind::Forger),
    );
    grid.push(
        Experiment::new(1, ProtocolKind::IndirectFull)
            .with_t(1)
            .with_placement(Placement::RandomLocal {
                t: 1,
                seed: 11,
                attempts: 30,
            })
            .with_fault_kind(FaultKind::Liar),
    );
    grid
}

#[test]
fn sweep_outcomes_and_trace_hashes_identical_at_1_2_8_threads() {
    let experiments = sweep_grid();
    let baseline = engine::run_experiments_traced(&experiments, 1);
    assert_eq!(baseline.len(), experiments.len());
    for threads in [2usize, 8] {
        let other = engine::run_experiments_traced(&experiments, threads);
        assert_eq!(
            baseline, other,
            "sweep output diverged between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn early_termination_freezes_the_same_hash() {
    // The trace hash freezes the round every honest node has decided in
    // BOTH modes, so stopping there must not change any hash or any
    // decision — only the statistics of the post-decision tail.
    let stopping = sweep_grid();
    let idling: Vec<Experiment> = sweep_grid()
        .into_iter()
        .map(|e| e.with_early_termination(false))
        .collect();
    for threads in [1usize, 2, 8] {
        let a = engine::run_experiments_traced(&stopping, threads);
        let b = engine::run_experiments_traced(&idling, threads);
        for (i, ((oa, ha), (ob, hb))) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                ha, hb,
                "early termination changed run {i}'s trace hash at {threads} threads"
            );
            assert_eq!(
                (oa.committed_correct, oa.committed_wrong, oa.undecided),
                (ob.committed_correct, ob.committed_wrong, ob.undecided),
                "early termination changed run {i}'s decisions at {threads} threads"
            );
            assert!(
                oa.stats.rounds <= ob.stats.rounds,
                "early termination must never lengthen run {i}"
            );
        }
    }
}

#[test]
fn supervised_sweep_is_byte_identical_to_the_plain_engine_at_1_2_8_threads() {
    // With chaos disabled, supervision is a pure envelope: every task
    // completes on the first attempt and both the outcomes and the
    // journal digests must equal the unsupervised engine's traced run —
    // at every thread count.
    let experiments = sweep_grid();
    let baseline = engine::run_experiments_traced(&experiments, 1);
    let config = SupervisorConfig::new();
    for threads in [1usize, 2, 8] {
        let report = supervisor::run_experiments_supervised(&experiments, threads, &config);
        assert!(report.fully_healthy());
        for (i, (task, (outcome, hash))) in report.tasks.iter().zip(&baseline).enumerate() {
            let TaskReport::Done {
                value: (got, digest),
                attempts,
            } = task
            else {
                panic!("task {i} did not complete at {threads} threads");
            };
            assert_eq!(got, outcome, "outcome {i} diverged at {threads} threads");
            assert_eq!(digest, hash, "digest {i} diverged at {threads} threads");
            assert_eq!(*attempts, 1, "task {i} needed retries without chaos");
        }
    }
}

/// Runs `experiments` under `base()` with a fresh journal at `path`,
/// "kills" it — keeps the header and only the even-index tasks' lines —
/// and resumes the cut journal under `base()` at `threads` threads.
fn kill_and_resume(
    experiments: &[Experiment],
    base: impl Fn() -> SupervisorConfig,
    threads: usize,
    path: &std::path::Path,
) -> SweepReport {
    let header = JournalHeader {
        fingerprint: supervisor::sweep_fingerprint(experiments),
        tasks: experiments.len(),
    };
    let open = |checkpoint: Checkpoint| {
        base()
            .with_checkpoint(&checkpoint, header)
            .expect("journal opens")
    };
    let _ = supervisor::run_experiments_supervised(
        experiments,
        threads,
        &open(Checkpoint::Fresh(path.to_path_buf())),
    );
    let written = std::fs::read_to_string(path).expect("journal is readable");
    let killed: String = written
        .lines()
        .filter(|line| JournalEntry::from_line(line).map_or(true, |e| e.task % 2 == 0))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(path, killed).expect("journal is writable");
    supervisor::run_experiments_supervised(
        experiments,
        threads,
        &open(Checkpoint::Resume(path.to_path_buf())),
    )
}

#[test]
fn killed_and_resumed_sweep_converges_on_the_straight_through_rows() {
    // Simulate a sweep killed partway: a journal holding only some of
    // the completed tasks. Resuming it through `Journal::open`, as
    // `rbcast sweep --resume` does, must re-run exactly the missing
    // tasks and end with every row's summary and digest equal to the
    // uninterrupted run's — at every thread count.
    let experiments = sweep_grid();
    let header = JournalHeader {
        fingerprint: supervisor::sweep_fingerprint(&experiments),
        tasks: experiments.len(),
    };
    let dir = std::env::temp_dir().join("rbcast_determinism_resume");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");

    let full = supervisor::run_experiments_supervised(&experiments, 1, &SupervisorConfig::new());
    assert!(full.fully_healthy());
    let want: Vec<_> = full
        .tasks
        .iter()
        .map(|t| (t.summary(), t.digest()))
        .collect();

    for threads in [1usize, 2, 8] {
        let path = dir.join(format!("killed_t{threads}.jsonl"));
        let resumed = kill_and_resume(&experiments, SupervisorConfig::new, threads, &path);
        assert!(resumed.fully_healthy());
        let mut recomputed = 0;
        for (i, task) in resumed.tasks.iter().enumerate() {
            assert_eq!(
                (task.summary(), task.digest()),
                want[i],
                "row {i} diverged after resume at {threads} threads"
            );
            match task {
                TaskReport::Resumed { .. } => assert_eq!(i % 2, 0, "odd row {i} was resumed"),
                TaskReport::Done { .. } => recomputed += 1,
                TaskReport::Failed { .. } => panic!("row {i} failed"),
            }
        }
        assert_eq!(
            recomputed,
            experiments.len() / 2,
            "resume must re-run exactly the missing tasks at {threads} threads"
        );
        // The recomputed rows were appended: a second resume has them all.
        let reopened = SupervisorConfig::new()
            .with_checkpoint(&Checkpoint::Resume(path.clone()), header)
            .expect("journal opens");
        assert_eq!(reopened.resume.len(), experiments.len());
        std::fs::remove_file(&path).expect("journal is removable");
    }

    // The same kill and resume with chaos armed and no retry. A draw is
    // pure in (seed, input index, attempt), so a recomputed task meets
    // the fate it met straight through, and a resumed task meets no draw.
    let chaos = || {
        SupervisorConfig::new()
            .with_max_attempts(1)
            .with_chaos(Some(
                ChaosConfig::new(0.25, 0.15, 3).expect("valid probabilities"),
            ))
    };
    let quarantined_in = |report: &SweepReport| -> Vec<usize> {
        report.quarantined().iter().map(|(i, _)| *i).collect()
    };
    let straight = quarantined_in(&supervisor::run_experiments_supervised(
        &experiments,
        1,
        &chaos(),
    ));
    assert!(
        !straight.is_empty(),
        "chaos at 25%/15% must quarantine a task"
    );
    for threads in [1usize, 2, 8] {
        let path = dir.join(format!("killed_chaos_t{threads}.jsonl"));
        let resumed = kill_and_resume(&experiments, chaos, threads, &path);
        let recomputed: Vec<usize> = (0..experiments.len())
            .filter(|&i| !matches!(resumed.tasks[i], TaskReport::Resumed { .. }))
            .collect();
        assert!(
            recomputed.len() < experiments.len(),
            "some task must resume at {threads} threads"
        );
        assert_eq!(
            quarantined_in(&resumed),
            straight
                .iter()
                .copied()
                .filter(|i| recomputed.contains(i))
                .collect::<Vec<_>>(),
            "resume changed a recomputed task's chaos fate at {threads} threads"
        );
        for (i, task) in resumed.tasks.iter().enumerate() {
            if i % 2 == 0 && !straight.contains(&i) {
                assert!(
                    matches!(task, TaskReport::Resumed { .. }),
                    "row {i}, completed in the journal, did not resume at {threads} threads"
                );
            }
        }
        std::fs::remove_file(&path).expect("journal is removable");
    }
}

#[test]
fn trace_jsonl_byte_identical_across_thread_counts_and_supervision() {
    // The observability contract: the serialized event stream is a pure
    // function of the simulation, so per-task JSONL traces must be
    // byte-identical at every worker-thread count AND under the
    // supervisor envelope — and each stream must re-derive the engine's
    // FNV delivery-trace hash.
    let dir = std::env::temp_dir().join("rbcast_determinism_traces");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let traced = |tag: &str| -> Vec<Experiment> {
        sweep_grid()
            .into_iter()
            .enumerate()
            .map(|(i, e)| e.with_trace_path(dir.join(format!("{tag}-task{i}.jsonl"))))
            .collect()
    };
    let read = |tag: &str, i: usize| -> String {
        std::fs::read_to_string(dir.join(format!("{tag}-task{i}.jsonl"))).expect("trace written")
    };

    let experiments = traced("t1");
    let hashed = engine::run_experiments_traced(&experiments, 1);
    let baseline: Vec<String> = (0..experiments.len()).map(|i| read("t1", i)).collect();
    for (i, ((_, hash), text)) in hashed.iter().zip(&baseline).enumerate() {
        assert_eq!(
            rbcast_core::obs::replay_hash(text),
            Ok(*hash),
            "task {i}: trace replay diverged from the engine's own hash"
        );
    }

    for threads in [2usize, 8] {
        let tag = format!("t{threads}");
        let _ = engine::run_experiments_traced(&traced(&tag), threads);
        for (i, want) in baseline.iter().enumerate() {
            assert_eq!(
                *want,
                read(&tag, i),
                "task {i} trace diverged at {threads} threads"
            );
        }
    }

    let report =
        supervisor::run_experiments_supervised(&traced("sup"), 2, &SupervisorConfig::new());
    assert!(report.fully_healthy());
    for (i, want) in baseline.iter().enumerate() {
        assert_eq!(
            *want,
            read("sup", i),
            "task {i} trace diverged under supervision"
        );
    }
    std::fs::remove_dir_all(&dir).expect("trace dir is removable");
}

/// The sweep grid with every experiment forced onto the dense oracle.
fn dense_grid() -> Vec<Experiment> {
    sweep_grid()
        .into_iter()
        .map(|e| e.with_engine(EngineKind::Dense))
        .collect()
}

#[test]
fn sparse_and_dense_engines_byte_identical_at_1_2_8_threads() {
    // The sparse wavefront engine vs the dense oracle, full matrix:
    // ordered outcomes (RunStats, decisions, message kinds) AND per-run
    // delivery-trace hashes must agree at every worker-thread count.
    let sparse = sweep_grid();
    let dense = dense_grid();
    for threads in [1usize, 2, 8] {
        assert_eq!(
            engine::run_experiments_traced(&sparse, threads),
            engine::run_experiments_traced(&dense, threads),
            "sparse vs dense engines diverged at {threads} worker threads"
        );
    }
}

#[test]
fn sparse_and_dense_engines_agree_with_early_termination_off() {
    // Both engines, both termination modes: all four combinations must
    // freeze the same per-run hash, and within a termination mode the
    // engines must agree on everything.
    let idle = |grid: Vec<Experiment>| -> Vec<Experiment> {
        grid.into_iter()
            .map(|e| e.with_early_termination(false))
            .collect()
    };
    let sparse_stop = engine::run_experiments_traced(&sweep_grid(), 2);
    let dense_idle = engine::run_experiments_traced(&idle(dense_grid()), 2);
    let sparse_idle = engine::run_experiments_traced(&idle(sweep_grid()), 2);
    assert_eq!(
        sparse_idle, dense_idle,
        "engines diverged with early termination off"
    );
    for (i, ((os, hs), (oi, hi))) in sparse_stop.iter().zip(&dense_idle).enumerate() {
        assert_eq!(
            hs, hi,
            "run {i}: sparse+early-stop hash differs from dense+idle hash"
        );
        assert_eq!(
            (os.committed_correct, os.committed_wrong, os.undecided),
            (oi.committed_correct, oi.committed_wrong, oi.undecided),
            "run {i}: decisions diverged across the engine × termination matrix"
        );
    }
}

#[test]
fn sparse_and_dense_traces_byte_identical_and_supervision_chaos_agree() {
    // Event-stream parity: per-task JSONL traces from the two engines
    // must be byte-for-byte equal. Then the supervisor envelope with
    // chaos armed (panics/stalls injected and retried) must reproduce
    // the same digests for whichever engine runs underneath.
    let dir = std::env::temp_dir().join("rbcast_determinism_engines");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let traced = |tag: &str, grid: Vec<Experiment>| -> Vec<Experiment> {
        grid.into_iter()
            .enumerate()
            .map(|(i, e)| e.with_trace_path(dir.join(format!("{tag}-task{i}.jsonl"))))
            .collect()
    };
    let read = |tag: &str, i: usize| -> String {
        std::fs::read_to_string(dir.join(format!("{tag}-task{i}.jsonl"))).expect("trace written")
    };

    let n = sweep_grid().len();
    let sparse = engine::run_experiments_traced(&traced("sparse", sweep_grid()), 2);
    let dense = engine::run_experiments_traced(&traced("dense", dense_grid()), 2);
    assert_eq!(sparse, dense);
    for i in 0..n {
        assert_eq!(
            read("sparse", i),
            read("dense", i),
            "task {i}: sparse and dense event streams are not byte-identical"
        );
    }

    // Chaos supervision: injected failures are retried, and the retry
    // reproduces the same digest the plain engine computed — for both
    // engines, which must also agree with each other.
    let chaos = ChaosConfig::new(0.3, 0.0, 11).expect("valid chaos spec");
    let config = SupervisorConfig::new()
        .with_max_attempts(10)
        .with_chaos(Some(chaos));
    let sparse_report = supervisor::run_experiments_supervised(&sweep_grid(), 2, &config);
    let dense_report = supervisor::run_experiments_supervised(&dense_grid(), 2, &config);
    assert!(sparse_report.fully_healthy(), "chaos defeated the retries");
    for (i, (st, dt)) in sparse_report
        .tasks
        .iter()
        .zip(&dense_report.tasks)
        .enumerate()
    {
        assert_eq!(
            st.digest(),
            dt.digest(),
            "task {i}: engines diverged under chaos supervision"
        );
        assert_eq!(
            st.digest(),
            Some(sparse[i].1),
            "task {i}: chaos retry changed the digest"
        );
    }
    std::fs::remove_dir_all(&dir).expect("trace dir is removable");
}

#[test]
fn percolation_rows_identical_across_thread_counts() {
    let torus = Torus::for_radius(1);
    let ps = [0.0, 0.2, 0.4];
    let baseline = percolation::sweep_threaded(1, &torus, &ps, 4, 1);
    for threads in [2usize, 8] {
        let other = percolation::sweep_threaded(1, &torus, &ps, 4, threads);
        assert_eq!(
            baseline, other,
            "percolation rows diverged between 1 and {threads} worker threads"
        );
    }
}
