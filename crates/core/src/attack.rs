//! `rbcast attack` — the adversary-search driver.
//!
//! Runs the pure search machinery of `rbcast-adversary`
//! ([`rbcast_adversary::greedy_cut_seed`] + [`rbcast_adversary::anneal`])
//! against full simulations: each candidate placement is scored by one
//! complete [`Experiment`] run, and the annealing chain walks toward
//! the placement doing the most damage (see
//! [`AttackScore`]).
//!
//! The search sweeps a grid of `(r, t)` *cells* — one independent
//! search per cell, supervised like any other sweep task (panic
//! isolation, deterministic retry, thread-count-invariant ordering).
//! Cell searches checkpoint their annealing state into a JSONL journal
//! (`--journal`), and `--resume` replays the completed prefix and
//! continues the rest; because every proposal draw is pure in
//! `(seed, step)`, a resumed run is byte-identical to a
//! straight-through one.
//!
//! Every cell also evaluates the hand-built strategy library at the
//! same budget, so the report shows the search's margin over the best
//! hand-built adversary — the CI gate requires the found placement to
//! strictly beat it on at least one cell.

use std::collections::BTreeMap;

use crate::experiment::{Experiment, FaultKind, Outcome, ProtocolKind};
use crate::jsonl::parse_flat_json;
use crate::supervisor::{
    parse_rows, supervise, Checkpoint, CheckpointError, Journal, JournalFailure, JournalHeader,
    Journaled, Supervised, SupervisorConfig, TaskError,
};
use rbcast_adversary::{
    anneal, initial_state, local_fault_bound, mix, AnnealState, AttackScore, Placement,
    SearchConfig,
};
use rbcast_grid::plumbing::{fnv1a, FNV_OFFSET};
use rbcast_grid::{Metric, NodeId, Torus};

/// Configuration of one `rbcast attack` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackConfig {
    /// Radii to search; each contributes a column of `(r, t)` cells.
    pub rs: Vec<u32>,
    /// Master seed. Per-cell chains derive from `(seed, cell index)`.
    pub seed: u64,
    /// Annealing steps per cell.
    pub steps: u32,
    /// Worker threads for the cell sweep (does not affect results).
    pub threads: usize,
    /// Protocol under attack.
    pub protocol: ProtocolKind,
    /// Behaviour of the placed faults.
    pub fault_kind: FaultKind,
    /// Distance metric.
    pub metric: Metric,
    /// Checkpoint the annealing state every this many steps (0 = final
    /// checkpoint only).
    pub checkpoint_every: u32,
    /// Checkpoint journal to start or resume (`--journal` / `--resume`).
    pub checkpoint: Option<Checkpoint>,
}

impl AttackConfig {
    /// The default search: radius 1, indirect-simplified protocol,
    /// liar faults, a modest annealing budget.
    #[must_use]
    pub fn new(seed: u64) -> AttackConfig {
        AttackConfig {
            rs: vec![1],
            seed,
            steps: 120,
            threads: 1,
            protocol: ProtocolKind::IndirectSimplified,
            fault_kind: FaultKind::Liar,
            metric: Metric::Linf,
            checkpoint_every: 20,
            checkpoint: None,
        }
    }
}

/// One `(r, t)` search cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCell {
    /// Broadcast radius.
    pub r: u32,
    /// Local fault bound the search must respect.
    pub t: usize,
    /// The protocol's proven tolerance at this radius — `t - threshold`
    /// is the cell's margin to the paper's bound.
    pub threshold: usize,
}

/// Result of one cell's search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// The cell searched.
    pub cell: AttackCell,
    /// Worst-found placement (sorted node ids).
    pub found: Vec<NodeId>,
    /// Score of [`CellResult::found`].
    pub found_score: AttackScore,
    /// Name of the best hand-built strategy admissible at this bound —
    /// a [`Placement::name`], not an allocation made mid-search.
    pub baseline_name: &'static str,
    /// Score of that strategy.
    pub baseline_score: AttackScore,
    /// Simulations executed for this cell (search + baselines).
    pub evaluations: u64,
    /// Annealing proposals accepted.
    pub accepted: u64,
    /// True when the search state came fully from a resume journal.
    pub resumed: bool,
}

/// Cells checkpoint their own annealing state; the supervisor journals
/// nothing for them.
impl Journaled for CellResult {}

impl CellResult {
    /// True iff the search strictly beat every hand-built strategy on
    /// this cell.
    #[must_use]
    pub fn beats_baseline(&self) -> bool {
        self.found_score > self.baseline_score
    }
}

/// Report of a full attack sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// Per-cell results, in cell order.
    pub cells: Vec<CellResult>,
    /// The first checkpoint the search could not write, if any.
    pub journal_error: Option<JournalFailure>,
}

impl AttackReport {
    /// The CI gate: the search beat the best hand-built strategy on at
    /// least one cell.
    #[must_use]
    pub fn gate_passed(&self) -> bool {
        self.cells.iter().any(CellResult::beats_baseline)
    }
}

/// Why an attack run could not complete.
#[derive(Debug)]
pub enum AttackError {
    /// The checkpoint journal was refused or could not be opened.
    Checkpoint(CheckpointError),
    /// A cell search failed terminally under supervision.
    Search(String),
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::Checkpoint(e) => e.fmt(f),
            AttackError::Search(e) => write!(f, "search failed: {e}"),
        }
    }
}

impl std::error::Error for AttackError {}

impl From<CheckpointError> for AttackError {
    fn from(e: CheckpointError) -> Self {
        AttackError::Checkpoint(e)
    }
}

/// The `(r, t)` cells an attack configuration sweeps: per radius, half
/// the proven threshold, the threshold itself, and one past it — enough
/// points for a margin-to-threshold curve without exploding the budget.
#[must_use]
pub fn attack_cells(cfg: &AttackConfig) -> Vec<AttackCell> {
    let mut cells = Vec::new();
    for &r in &cfg.rs {
        let threshold = cfg.protocol.proven_t(r);
        let mut ts = vec![threshold.div_ceil(2), threshold, threshold + 1];
        ts.retain(|&t| t > 0);
        ts.sort_unstable();
        ts.dedup();
        for t in ts {
            cells.push(AttackCell { r, t, threshold });
        }
    }
    cells
}

/// FNV-1a fingerprint of everything a journal's contents depend on.
/// Thread count and checkpoint cadence are deliberately excluded — they
/// do not change any journalled value.
#[must_use]
fn attack_fingerprint(cfg: &AttackConfig, cells: &[AttackCell]) -> u64 {
    let spec = format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{cells:?}",
        cfg.rs, cfg.seed, cfg.steps, cfg.protocol, cfg.fault_kind, cfg.metric
    );
    fnv1a(FNV_OFFSET, spec.as_bytes())
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/// A cell's journalled search state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellCheckpoint {
    state: AnnealState,
    done: bool,
}

/// Node ids as a comma-separated decimal list (`"3,17,40"`; empty for
/// none) — the journal's placement field and `rbcast attack`'s
/// `placement:` line.
#[must_use]
pub fn ids_to_field(ids: &[NodeId]) -> String {
    let mut out = String::new();
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.0.to_string());
    }
    out
}

fn ids_from_field(s: &str) -> Result<Vec<NodeId>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|part| part.parse::<u32>().map(NodeId).map_err(|e| e.to_string()))
        .collect()
}

fn score_to_field(s: AttackScore) -> String {
    format!("{},{},{}", s.wrong, s.undecided, s.last_round)
}

fn score_from_field(s: &str) -> Result<AttackScore, String> {
    let mut parts = s.split(',');
    let mut next = || {
        parts
            .next()
            .ok_or_else(|| format!("score field {s:?} has too few components"))
    };
    let wrong = next()?.parse::<u64>().map_err(|e| e.to_string())?;
    let undecided = next()?.parse::<u64>().map_err(|e| e.to_string())?;
    let last_round = next()?.parse::<u32>().map_err(|e| e.to_string())?;
    Ok(AttackScore {
        wrong,
        undecided,
        last_round,
    })
}

/// One cell's annealing checkpoint as a journal task line (the journal
/// is a [`Journal`] under the attack's [`attack_fingerprint`] header;
/// last line per task wins).
pub(crate) fn checkpoint_line(task: usize, state: &AnnealState, done: bool) -> String {
    format!(
        "{{\"task\":{task},\"step\":{step},\"evaluations\":{evals},\
         \"accepted\":{acc},\"current_score\":\"{cs}\",\"best_score\":\"{bs}\",\
         \"current\":\"{cur}\",\"best\":\"{best}\",\"done\":{done}}}",
        step = state.step,
        evals = state.evaluations,
        acc = state.accepted,
        cs = score_to_field(state.current_score),
        bs = score_to_field(state.best_score),
        cur = ids_to_field(&state.current),
        best = ids_to_field(&state.best),
        done = u8::from(done),
    )
}

impl CellCheckpoint {
    /// Parses a [`checkpoint_line`].
    fn from_line(line: &str) -> Result<CellCheckpoint, String> {
        let fields = parse_flat_json(line)?;
        let text =
            |key: &str| (fields.text(key)?).ok_or_else(|| format!("missing string field {key:?}"));
        let state = AnnealState {
            step: fields.int("step")?,
            current: ids_from_field(text("current")?)?,
            current_score: score_from_field(text("current_score")?)?,
            best: ids_from_field(text("best")?)?,
            best_score: score_from_field(text("best_score")?)?,
            evaluations: fields.int("evaluations")?,
            accepted: fields.int("accepted")?,
        };
        let done = fields.int::<u64>("done")? == 1;
        Ok(CellCheckpoint { state, done })
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// The torus an attack cell runs on — the experiment default for the
/// radius, constructed explicitly so the search and the evaluator are
/// guaranteed to agree on the geometry.
#[must_use]
pub fn attack_torus(r: u32) -> Torus {
    Torus::for_radius(r)
}

fn score_outcome(o: &Outcome) -> AttackScore {
    AttackScore {
        wrong: o.committed_wrong as u64,
        undecided: o.undecided as u64,
        last_round: o.last_decision_round.unwrap_or(0),
    }
}

/// Hand-built strategies admissible at bound `t` on this cell, used as
/// the search's baseline.
fn hand_built(cfg: &AttackConfig, t: usize) -> Vec<Placement> {
    vec![
        Placement::FrontierCluster { t },
        Placement::RandomLocal {
            t,
            seed: cfg.seed,
            attempts: 60,
        },
        Placement::DoubleStrip,
        Placement::CheckerStrips,
        Placement::ColumnStrips,
    ]
}

/// Runs one cell's search (and baseline evaluations) to completion.
fn run_cell(
    cfg: &AttackConfig,
    index: usize,
    cell: AttackCell,
    prior: Option<&CellCheckpoint>,
    journal: Option<&Journal>,
) -> Result<CellResult, TaskError> {
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<[crate::obs::Counter; 2]> = OnceLock::new();
    let [evals_ctr, accepted_ctr] = COUNTERS.get_or_init(|| {
        [
            crate::obs::counter("attack/evaluations"),
            crate::obs::counter("attack/accepted"),
        ]
    });

    let torus = attack_torus(cell.r);
    let search_cfg = SearchConfig {
        r: cell.r,
        metric: cfg.metric,
        t: cell.t,
        // Cell chains must not collide: derive each from the master
        // seed and the cell's position in the sweep.
        seed: mix(cfg.seed, index as u64, 0x17),
        steps: cfg.steps,
    };
    let experiment = Experiment::new(cell.r, cfg.protocol)
        .with_metric(cfg.metric)
        .with_torus(torus.clone())
        .with_t(cell.t)
        .with_fault_kind(cfg.fault_kind);
    let mut eval = |faults: &[NodeId]| -> AttackScore {
        evals_ctr.incr();
        let outcome = experiment
            .clone()
            .with_placement(Placement::Explicit {
                faults: faults.to_vec(),
            })
            .run();
        score_outcome(&outcome)
    };

    // Baselines are cheap and deterministic; recompute them every run
    // (journals only store search state). They double as anneal seeds:
    // a fresh search starts from whichever is worse for the protocol —
    // the min-cut seed or the best admissible hand-built placement — so
    // the refinement can only extend the library, never trail it.
    let mut baseline_name = "none";
    let mut baseline_score = AttackScore::default();
    let mut baseline_faults: Vec<NodeId> = Vec::new();
    let mut baseline_evals = 0u64;
    for placement in hand_built(cfg, cell.t) {
        let mut faults = placement.place(&torus, cell.r, cfg.metric);
        faults.sort_unstable();
        faults.dedup();
        if local_fault_bound(&torus, cell.r, cfg.metric, &faults) > cell.t {
            continue;
        }
        let score = eval(&faults);
        baseline_evals += 1;
        if baseline_name == "none" || score > baseline_score {
            baseline_name = placement.name();
            baseline_score = score;
            baseline_faults = faults;
        }
    }

    let (mut state, resumed) = match prior {
        Some(cp) if cp.done => (cp.state.clone(), true),
        Some(cp) => (cp.state.clone(), false),
        None => {
            let _guard = crate::obs::span("attack/seed");
            let mut state = initial_state(&torus, &search_cfg, &mut eval);
            if !baseline_faults.is_empty() && baseline_score > state.best_score {
                state.current.clone_from(&baseline_faults);
                state.current_score = baseline_score;
                state.best = baseline_faults;
                state.best_score = baseline_score;
            }
            (state, false)
        }
    };
    if !(resumed && state.step >= search_cfg.steps) {
        let accepted_before = state.accepted;
        {
            let _guard = crate::obs::span("attack/anneal");
            anneal(
                &torus,
                &search_cfg,
                &mut state,
                &mut eval,
                cfg.checkpoint_every,
                &mut |s| {
                    if let Some(j) = journal {
                        let line = checkpoint_line(index, s, s.step >= search_cfg.steps);
                        // A failed write is latched on the journal and
                        // reaches the report through `Journal::failure`.
                        let _ = j.append_line(index, line);
                    }
                },
            );
        }
        accepted_ctr.add(state.accepted - accepted_before);
    }

    Ok(CellResult {
        cell,
        found: state.best.clone(),
        found_score: state.best_score,
        baseline_name,
        baseline_score,
        evaluations: state.evaluations + baseline_evals,
        accepted: state.accepted,
        resumed,
    })
}

/// Runs the full attack sweep described by `cfg`.
///
/// One supervised task per `(r, t)` cell: panics inside an evaluation
/// are isolated and retried like any sweep task, and results come back
/// in cell order regardless of `threads`. A checkpoint that cannot be
/// written does not stop the search: the journal stops taking writes and
/// the report's `journal_error` names the first one lost.
///
/// # Errors
///
/// When [`Journal::open`] refuses the checkpoint journal, a journalled
/// checkpoint does not parse, or a cell search fails terminally after
/// its retry budget.
pub fn run_attack(cfg: &AttackConfig) -> Result<AttackReport, AttackError> {
    let cells = attack_cells(cfg);
    let header = JournalHeader {
        fingerprint: attack_fingerprint(cfg, &cells),
        tasks: cells.len(),
    };
    let (journal, prior) = match &cfg.checkpoint {
        Some(checkpoint) => {
            let (journal, rows) = Journal::open(checkpoint, header)?;
            let prior = parse_rows(checkpoint, rows, CellCheckpoint::from_line)?;
            (Some(journal), prior)
        }
        None => (None, BTreeMap::new()),
    };
    let journal = journal.as_ref();

    let sup = SupervisorConfig::new();
    let results = supervise(&cells, cfg.threads.max(1), &sup, |ctx, cell| {
        run_cell(cfg, ctx.index, *cell, prior.get(&ctx.index), journal)
    });

    let mut out = Vec::with_capacity(results.len());
    for (i, supervised) in results.into_iter().enumerate() {
        match supervised {
            Supervised::Done { value, .. } => out.push(value),
            Supervised::Failed { error, .. } => {
                return Err(AttackError::Search(format!("cell {i}: {error}")));
            }
            // `sup` holds no resume map: cells resume from their own
            // checkpoints inside `run_cell`.
            Supervised::Resumed { .. } => {
                return Err(AttackError::Search(format!(
                    "cell {i}: resumed without a result"
                )));
            }
        }
    }
    Ok(AttackReport {
        cells: out,
        journal_error: journal.and_then(Journal::failure),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> AttackConfig {
        let mut cfg = AttackConfig::new(7);
        cfg.steps = 6;
        cfg.checkpoint_every = 2;
        cfg
    }

    #[test]
    fn cells_cover_the_threshold_curve() {
        let cfg = AttackConfig::new(1);
        let cells = attack_cells(&cfg);
        // r=1, byzantine threshold 1 → t ∈ {1, 2}
        assert_eq!(
            cells,
            vec![
                AttackCell {
                    r: 1,
                    t: 1,
                    threshold: 1
                },
                AttackCell {
                    r: 1,
                    t: 2,
                    threshold: 1
                },
            ]
        );
    }

    #[test]
    fn fingerprint_tracks_search_inputs_only() {
        let cfg = AttackConfig::new(3);
        let cells = attack_cells(&cfg);
        let fp = attack_fingerprint(&cfg, &cells);
        let mut same = cfg.clone();
        same.threads = 8;
        same.checkpoint_every = 999;
        same.checkpoint = Some(Checkpoint::Fresh("elsewhere.jsonl".into()));
        assert_eq!(fp, attack_fingerprint(&same, &cells));
        let mut other = cfg.clone();
        other.seed = 4;
        assert_ne!(fp, attack_fingerprint(&other, &attack_cells(&other)));
    }

    #[test]
    fn attack_is_deterministic_across_thread_counts() {
        let mut one = tiny_cfg();
        one.threads = 1;
        let mut four = tiny_cfg();
        four.threads = 4;
        let a = run_attack(&one).expect("attack runs");
        let b = run_attack(&four).expect("attack runs");
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_lines_roundtrip() {
        let line = checkpoint_line(1, &sample_state(4), true);
        assert_eq!(
            CellCheckpoint::from_line(&line).expect("parse"),
            CellCheckpoint {
                state: sample_state(4),
                done: true
            }
        );
        assert!(CellCheckpoint::from_line("{\"task\":1,\"step\":4}").is_err());
    }

    #[test]
    fn resume_reproduces_straight_run() {
        let dir = std::env::temp_dir().join(format!("rbcast-attack-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("attack.jsonl");

        let mut cfg = tiny_cfg();
        cfg.checkpoint = Some(Checkpoint::Fresh(path.clone()));
        let straight = run_attack(&cfg).expect("straight run");

        // Truncate the journal to a partial prefix (header + first few
        // checkpoints) and resume: the report must be identical.
        let full = std::fs::read_to_string(&path).expect("journal written");
        let lines: Vec<&str> = full.lines().collect();
        assert!(lines.len() > 3, "journal too short to truncate: {full}");
        let partial: String = lines[..3].join("\n") + "\n";
        std::fs::write(&path, partial).expect("truncate");

        let mut resume_cfg = cfg.clone();
        resume_cfg.checkpoint = Some(Checkpoint::Resume(path.clone()));
        let resumed = run_attack(&resume_cfg).expect("resumed run");
        // `resumed` flags may differ; compare the search results.
        for (a, b) in straight.cells.iter().zip(resumed.cells.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.found, b.found);
            assert_eq!(a.found_score, b.found_score);
            assert_eq!(a.baseline_name, b.baseline_name);
            assert_eq!(a.baseline_score, b.baseline_score);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_journal_is_refused() {
        let dir =
            std::env::temp_dir().join(format!("rbcast-attack-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("attack.jsonl");
        let mut cfg = tiny_cfg();
        cfg.checkpoint = Some(Checkpoint::Fresh(path.clone()));
        run_attack(&cfg).expect("first run");
        let written = std::fs::read(&path).expect("journal written");

        let mut other = cfg.clone();
        other.seed ^= 1;
        other.checkpoint = Some(Checkpoint::Resume(path.clone()));
        match run_attack(&other) {
            Err(AttackError::Checkpoint(CheckpointError::Mismatch(..))) => {}
            other => panic!("expected fingerprint refusal, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).expect("journal kept"), written);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_state(step: u32) -> AnnealState {
        AnnealState {
            step,
            current: vec![NodeId(3), NodeId(9)],
            current_score: AttackScore {
                wrong: 0,
                undecided: 2,
                last_round: 7,
            },
            best: vec![NodeId(3)],
            best_score: AttackScore {
                wrong: 1,
                undecided: 0,
                last_round: 2,
            },
            evaluations: 11,
            accepted: 5,
        }
    }

    /// The fingerprint computed at the commit before the byte fold moved
    /// to `rbcast_grid::plumbing`, and the journal bytes since the attack
    /// checkpoints became `"task"` lines under the sweep's header.
    #[test]
    fn fingerprint_and_journal_bytes_are_pinned() {
        let cfg = AttackConfig::new(3);
        assert_eq!(
            attack_fingerprint(&cfg, &attack_cells(&cfg)),
            0xb9aa_06c6_9515_540a
        );
        let dir = std::env::temp_dir().join(format!("rbcast-attack-pin-{}", std::process::id()));
        let path = dir.join("attack.jsonl");
        let header = JournalHeader {
            fingerprint: 0xabcd,
            tasks: 2,
        };
        let (journal, _) = Journal::open(&Checkpoint::Fresh(path.clone()), header).expect("open");
        journal
            .append_line(1, checkpoint_line(1, &sample_state(4), true))
            .expect("append");
        assert_eq!(
            std::fs::read_to_string(&path).expect("journal written"),
            "{\"fingerprint\":\"0x000000000000abcd\",\"tasks\":2}\n\
             {\"task\":1,\"step\":4,\"evaluations\":11,\"accepted\":5,\
             \"current_score\":\"0,2,7\",\"best_score\":\"1,0,2\",\
             \"current\":\"3,9\",\"best\":\"3\",\"done\":1}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
