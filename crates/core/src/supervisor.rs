//! Fault-tolerant sweep execution: panic isolation, deadlines, retry,
//! checkpoint/resume, and deterministic chaos injection.
//!
//! The [`crate::engine`] is deliberately dumb: it fans tasks out and, in
//! its legacy entry point, re-raises the first worker panic — one bad
//! `(t, r, seed, adversary)` cell kills a whole frontier sweep and
//! discards every finished result. This module wraps the engine in a
//! supervisor that **degrades gracefully instead of failing
//! atomically**:
//!
//! * **Panic isolation** — each task attempt runs under
//!   `std::panic::catch_unwind` (the `catch-unwind` audit rule confines
//!   that construct to this module); a panicking task becomes a
//!   structured [`TaskError::Panicked`], not process death. A panic hook
//!   shim keeps supervised panics off stderr without hiding anyone
//!   else's.
//! * **Cooperative deadlines** — a per-task round budget is threaded
//!   through `Experiment::with_round_budget` into the simulator's run
//!   loop; a runaway run stops at the budget with
//!   [`rbcast_sim::StopReason::DeadlineExceeded`] and surfaces as
//!   [`TaskError::DeadlineExceeded`]. No threads are killed — the
//!   watchdog is a loop bound, so determinism is untouched.
//! * **Bounded deterministic retry** — failed attempts are retried up to
//!   [`SupervisorConfig::max_attempts`] times. A task body sees only its
//!   index ([`TaskCtx`]) and chaos draws are pure in `(index, attempt)`,
//!   so a sweep's output stays byte-identical at any thread count no
//!   matter which worker retries what.
//! * **Checkpoint journal** — `supervise` appends one JSONL line per
//!   settled task (index, status, attempts, outcome digest + summary) to
//!   the configured [`Journal`]; a killed sweep resumes through
//!   [`Journal::open`] ([`SupervisorConfig::with_checkpoint`]), re-running
//!   only failed/missing tasks and converging to the uninterrupted output.
//! * **Graceful degradation** — [`run_experiments_supervised`] always
//!   returns every healthy result in input order together with a
//!   quarantine report; it never trades completed work for an error. A
//!   journal write that fails does not stop the run either: the
//!   [`Journal`] latches the first failure, stops writing, and the
//!   report carries it as a [`JournalFailure`] for the caller to exit on.
//! * **Chaos injection** — `RBCAST_CHAOS=panic:0.05,stall:0.02,seed=N`
//!   (test-only) deterministically injects synthetic panics/stalls so CI
//!   can exercise every supervisor path; draws are a pure function of
//!   `(chaos seed, task index, attempt)`, so they too are
//!   thread-count-invariant, and a retry of a chaos-panicked task rolls
//!   a fresh draw and usually succeeds.

use crate::engine::{self, payload_message};
use crate::jsonl::{parse_flat_json, JsonlFile};
use crate::{Experiment, Outcome};
use rbcast_grid::plumbing::{fnv1a, json_escape, splitmix64, FNV_OFFSET};
use rbcast_sim::StopReason;
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

/// Environment variable holding the chaos-injection spec
/// (`panic:0.05,stall:0.02,seed=7`; `:` and `=` are interchangeable).
const CHAOS_ENV: &str = "RBCAST_CHAOS";

/// Environment variable overriding the supervisor's attempt bound.
const RETRIES_ENV: &str = "RBCAST_RETRIES";

/// Environment variable arming a default per-task round budget.
const ROUND_BUDGET_ENV: &str = "RBCAST_ROUND_BUDGET";

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

/// Why a supervised task failed — the structured replacement for a
/// propagated panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked; the payload is captured verbatim.
    Panicked {
        /// Stringified panic payload.
        message: String,
    },
    /// The cooperative watchdog tripped: the run was still live when its
    /// round budget ran out.
    DeadlineExceeded {
        /// The budget that was exhausted.
        round_budget: u32,
    },
    /// An executor invariant broke (e.g. the work queue never produced a
    /// result for this index) — a harness bug, not a model outcome.
    Invariant {
        /// What broke.
        message: String,
    },
    /// Every attempt failed; wraps the last failure.
    Retried {
        /// Total attempts made (= the configured bound).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<TaskError>,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { message } => write!(f, "panicked: {message}"),
            TaskError::DeadlineExceeded { round_budget } => {
                write!(f, "deadline exceeded (round budget {round_budget})")
            }
            TaskError::Invariant { message } => write!(f, "invariant violated: {message}"),
            TaskError::Retried { attempts, last } => {
                write!(f, "failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for TaskError {}

// ---------------------------------------------------------------------
// Deterministic seeds and chaos
// ---------------------------------------------------------------------

/// Mixes a base seed with a task index and attempt number into one
/// well-distributed u64.
fn mix(base: u64, index: usize, attempt: u32) -> u64 {
    let i = u64::try_from(index).unwrap_or(u64::MAX);
    splitmix64(
        base ^ i
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt).wrapping_mul(0xFF51_AFD7_ED55_8CCD)),
    )
}

/// The derived seed for attempt `attempt` of task `index` — a pure
/// function of its arguments, so anything drawn from it is identical no
/// matter which thread performs the attempt or in what order
/// (`net::link` jitters its retransmissions with it).
#[must_use]
pub fn retry_seed(index: usize, attempt: u32) -> u64 {
    mix(0xA076_1D64_78BD_642F, index, attempt)
}

/// What the chaos layer injects into one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A genuine `panic!` raised inside the supervised region.
    Panic,
    /// A synthetic stall, surfaced as [`TaskError::DeadlineExceeded`]
    /// without burning wall-clock time.
    Stall,
}

/// Deterministic fault injection (test-only; armed via `CHAOS_ENV`).
///
/// Probabilities are stored in parts-per-million so drawing never
/// compares floats; a draw is a pure function of
/// `(seed, task index, attempt)`, which keeps chaos runs byte-identical
/// at every thread count and lets retries of a chaos-hit task succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    panic_ppm: u32,
    stall_ppm: u32,
    seed: u64,
}

impl ChaosConfig {
    /// Builds a config from probabilities in `[0, 1]` (handy in tests).
    ///
    /// # Errors
    ///
    /// If either probability is outside `[0, 1]` or they sum past 1.
    pub fn new(panic_p: f64, stall_p: f64, seed: u64) -> Result<ChaosConfig, String> {
        let cfg = ChaosConfig {
            panic_ppm: probability_ppm(panic_p)?,
            stall_ppm: probability_ppm(stall_p)?,
            seed,
        };
        if cfg.panic_ppm + cfg.stall_ppm > 1_000_000 {
            return Err("chaos probabilities sum past 1".to_string());
        }
        Ok(cfg)
    }

    /// Parses a spec like `panic:0.05,stall:0.02,seed=7`. Keys are
    /// `panic`, `stall` (probabilities in `[0, 1]`) and `seed` (u64);
    /// `:` and `=` both separate key from value; unknown keys are
    /// errors — a typo must not silently disarm a CI chaos gate.
    ///
    /// # Errors
    ///
    /// On any malformed field, unknown key, or out-of-range probability.
    fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for field in spec.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once([':', '='])
                .ok_or_else(|| format!("chaos field {field:?} is not key:value"))?;
            let value = value.trim();
            match key.trim() {
                "panic" => cfg.panic_ppm = parse_probability(value)?,
                "stall" => cfg.stall_ppm = parse_probability(value)?,
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|e| format!("chaos seed {value:?}: {e}"))?;
                }
                other => {
                    return Err(format!(
                        "unknown chaos field {other:?} (expected panic, stall, or seed)"
                    ))
                }
            }
        }
        if cfg.panic_ppm + cfg.stall_ppm > 1_000_000 {
            return Err("chaos probabilities sum past 1".to_string());
        }
        Ok(cfg)
    }

    /// Reads and parses `CHAOS_ENV`. `None` when unset or empty.
    ///
    /// # Errors
    ///
    /// If the variable is set but malformed (strict: a broken spec must
    /// fail loudly, not silently run without chaos).
    fn from_env() -> Result<Option<ChaosConfig>, String> {
        match crate::config::env_var(CHAOS_ENV) {
            Some(raw) if !raw.trim().is_empty() => ChaosConfig::parse(&raw)
                .map(Some)
                .map_err(|e| format!("{CHAOS_ENV}: {e}")),
            _ => Ok(None),
        }
    }

    /// The deterministic draw for one attempt of one task.
    #[must_use]
    fn draw(&self, index: usize, attempt: u32) -> Option<ChaosEvent> {
        if self.panic_ppm == 0 && self.stall_ppm == 0 {
            return None;
        }
        let roll =
            u32::try_from(mix(self.seed ^ 0x517C_C1B7_2722_0A95, index, attempt) % 1_000_000)
                .expect("value mod 1e6 fits in u32");
        if roll < self.panic_ppm {
            Some(ChaosEvent::Panic)
        } else if roll < self.panic_ppm + self.stall_ppm {
            Some(ChaosEvent::Stall)
        } else {
            None
        }
    }
}

/// Parses a probability literal into parts-per-million.
fn parse_probability(value: &str) -> Result<u32, String> {
    let p: f64 = value
        .parse()
        .map_err(|e| format!("probability {value:?}: {e}"))?;
    probability_ppm(p)
}

/// Converts a probability in `[0, 1]` to parts-per-million.
fn probability_ppm(p: f64) -> Result<u32, String> {
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    // In-range by the check above; truncation cannot occur.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok((p * 1_000_000.0).round() as u32)
}

// ---------------------------------------------------------------------
// Panic capture
// ---------------------------------------------------------------------

thread_local! {
    /// True while this thread is inside a supervised `catch_unwind`
    /// region — the panic hook stays silent for exactly those panics.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` under `catch_unwind`, suppressing the default panic banner
/// for panics raised inside it (they are captured and reported
/// structurally, so printing them would spam a chaos sweep's stderr).
/// The hook is installed once and chains to whatever hook was active, so
/// unsupervised panics keep their normal output.
fn quiet_catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                previous(info);
            }
        }));
    });
    SUPERVISED.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPERVISED.with(|s| s.set(false));
    result
}

// ---------------------------------------------------------------------
// Checkpoint journal
// ---------------------------------------------------------------------

/// The outcome digest a journal stores for a completed task: enough to
/// reprint a sweep row and to cross-check convergence, without replaying
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeSummary {
    /// Honest nodes that committed the correct value.
    pub correct: usize,
    /// Honest nodes that committed a wrong value.
    pub wrong: usize,
    /// Honest nodes that never decided.
    pub undecided: usize,
    /// Total local broadcasts in the run.
    pub messages: u64,
}

impl OutcomeSummary {
    /// The summary of a computed outcome.
    #[must_use]
    pub fn of(outcome: &Outcome) -> OutcomeSummary {
        OutcomeSummary {
            correct: outcome.committed_correct,
            wrong: outcome.committed_wrong,
            undecided: outcome.undecided,
            messages: outcome.stats.messages_sent,
        }
    }
}

/// Per-task simulator metrics journaled alongside the outcome summary —
/// the per-task slice of the process-wide metrics registry
/// (`crate::obs`), durable so a resumed sweep can still aggregate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMetrics {
    /// Rounds the run executed.
    pub rounds: u32,
    /// Message deliveries.
    pub deliveries: u64,
    /// Deliveries destroyed by jamming.
    pub jammed: u64,
    /// Deliveries destroyed by channel loss.
    pub lost: u64,
}

impl TaskMetrics {
    /// The metrics of a computed outcome.
    #[must_use]
    pub fn of(outcome: &Outcome) -> TaskMetrics {
        TaskMetrics {
            rounds: outcome.stats.rounds,
            deliveries: outcome.stats.deliveries,
            jammed: outcome.stats.jammed_deliveries,
            lost: outcome.stats.lost_deliveries,
        }
    }
}

/// One journal line: the durable record of one task's fate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalEntry {
    /// Task index within the sweep (input order).
    pub task: usize,
    /// Whether the task completed.
    pub ok: bool,
    /// Attempts spent.
    pub attempts: u32,
    /// Delivery-trace hash of the completed run (determinism witness).
    pub digest: Option<u64>,
    /// Outcome summary of the completed run.
    pub summary: Option<OutcomeSummary>,
    /// Per-task simulator metrics (absent in pre-metrics journals).
    pub metrics: Option<TaskMetrics>,
    /// Error display for a failed task.
    pub error: Option<String>,
}

impl JournalEntry {
    /// Serialises to one JSONL line (no trailing newline).
    #[must_use]
    fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"task\":{},\"status\":\"{}\",\"attempts\":{}",
            self.task,
            if self.ok { "ok" } else { "failed" },
            self.attempts
        );
        if let Some(d) = self.digest {
            line.push_str(&format!(",\"digest\":\"{d:#018x}\""));
        }
        if let Some(s) = &self.summary {
            line.push_str(&format!(
                ",\"correct\":{},\"wrong\":{},\"undecided\":{},\"messages\":{}",
                s.correct, s.wrong, s.undecided, s.messages
            ));
        }
        if let Some(m) = &self.metrics {
            line.push_str(&format!(
                ",\"rounds\":{},\"deliveries\":{},\"jammed\":{},\"lost\":{}",
                m.rounds, m.deliveries, m.jammed, m.lost
            ));
        }
        if let Some(e) = &self.error {
            line.push_str(&format!(",\"error\":\"{}\"", json_escape(e)));
        }
        line.push('}');
        line
    }

    /// Parses one JSONL line (strict: the journal is a recovery record,
    /// so a corrupt line is an error, not a shrug).
    ///
    /// # Errors
    ///
    /// On malformed JSON, missing required fields, or bad field types.
    pub fn from_line(line: &str) -> Result<JournalEntry, String> {
        let fields = parse_flat_json(line)?;
        let ok = match fields.text("status")? {
            Some("ok") => true,
            Some("failed") => false,
            Some(s) => return Err(format!("unknown status {s:?}")),
            None => return Err("missing field \"status\"".to_string()),
        };
        let summary = if fields.has("correct") {
            Some(OutcomeSummary {
                correct: fields.int("correct")?,
                wrong: fields.int("wrong")?,
                undecided: fields.int("undecided")?,
                messages: fields.int("messages")?,
            })
        } else {
            None
        };
        let metrics = if fields.has("rounds") {
            Some(TaskMetrics {
                rounds: fields.int("rounds")?,
                deliveries: fields.int("deliveries")?,
                jammed: fields.int("jammed")?,
                lost: fields.int("lost")?,
            })
        } else {
            None
        };
        if ok && summary.is_none() {
            return Err("ok entry lacks an outcome summary".to_string());
        }
        Ok(JournalEntry {
            task: fields.int("task")?,
            ok,
            attempts: fields.int("attempts")?,
            digest: fields.hex("digest")?,
            summary,
            metrics,
            error: fields.text("error")?.map(str::to_string),
        })
    }
}

/// The journal's header line: a fingerprint of the run's specification
/// (a sweep's [`sweep_fingerprint`], an attack's `attack_fingerprint`),
/// written when the journal is created so a resume against the journal
/// of a *different* run is refused instead of silently splicing
/// incompatible checkpoints (the task indices would alias unrelated
/// experiments). [`Journal::open`] refuses to resume a headerless
/// journal: nothing says which run wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Fingerprint of the run's specification.
    pub fingerprint: u64,
    /// Number of tasks in the run.
    pub tasks: usize,
}

impl JournalHeader {
    /// Serialises to one JSONL line (no trailing newline).
    #[must_use]
    fn to_line(self) -> String {
        format!(
            "{{\"fingerprint\":\"{:#018x}\",\"tasks\":{}}}",
            self.fingerprint, self.tasks
        )
    }

    /// Parses a header line.
    ///
    /// # Errors
    ///
    /// On malformed JSON or missing/mistyped fields.
    pub fn from_line(line: &str) -> Result<JournalHeader, String> {
        let fields = parse_flat_json(line)?;
        Ok(JournalHeader {
            fingerprint: (fields.hex("fingerprint")?).ok_or("missing field \"fingerprint\"")?,
            tasks: fields.int("tasks")?,
        })
    }
}

/// FNV-1a fingerprint of a sweep specification: folds every experiment's
/// full configuration (its `Debug` rendering — dims, radius, metric,
/// protocol, `t`, placement, fault kind, channel, budgets) plus the task
/// count. Two sweeps fingerprint equal iff their experiment lists are
/// configured identically, which is exactly when their journals are
/// interchangeable.
#[must_use]
pub fn sweep_fingerprint(experiments: &[Experiment]) -> u64 {
    let mut hash = FNV_OFFSET;
    for e in experiments {
        hash = fnv1a(hash, format!("{e:?}").as_bytes());
        // Record separator: "AB","C" must not collide with "A","BC".
        hash = fnv1a(hash, &[0xff]);
    }
    hash
}

/// Where a run keeps its checkpoint journal, and whether it continues
/// one — what `--journal FILE` and `--resume FILE` parse to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Checkpoint {
    /// Start a journal at this path, truncating any file there.
    Fresh(PathBuf),
    /// Continue the journal a killed run left at this path.
    Resume(PathBuf),
}

impl Checkpoint {
    /// The journal's path.
    #[must_use]
    fn path(&self) -> &Path {
        match self {
            Checkpoint::Fresh(path) | Checkpoint::Resume(path) => path,
        }
    }
}

/// Why [`Journal::open`] refused a journal, each naming its path. A
/// refused resume journal is left as it was found.
#[derive(Debug)]
pub enum CheckpointError {
    /// The journal could not be created, read or written — a missing
    /// resume journal among them.
    Io(PathBuf, std::io::Error),
    /// The resume journal's first line is not a header, so nothing says
    /// which run wrote its rows.
    Headerless(PathBuf),
    /// The resume journal holds this header, another run's: its task
    /// indices would alias unrelated work.
    Mismatch(PathBuf, JournalHeader),
    /// A complete line that is not a task record of this run's codec:
    /// which line or task, and what is wrong with it.
    Corrupt(PathBuf, String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(path, e) => write!(f, "journal {}: {e}", path.display()),
            CheckpointError::Headerless(path) => write!(
                f,
                "journal {} has no fingerprint header, so nothing says which run wrote it \
                 — refusing to resume from it",
                path.display()
            ),
            CheckpointError::Mismatch(path, found) => write!(
                f,
                "journal {} records a different run (fingerprint {:#018x}, {} tasks) \
                 — refusing to splice checkpoints across specifications",
                path.display(),
                found.fingerprint,
                found.tasks
            ),
            CheckpointError::Corrupt(path, why) => write!(f, "journal {}: {why}", path.display()),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The `"task"` index of a journal line.
fn task_of(line: &str) -> Result<usize, String> {
    (parse_flat_json(line)?.int("task"))
        .map_err(|_| "not a task line (no numeric \"task\")".to_string())
}

/// Parses the task lines [`Journal::open`] returned with the run's codec.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] naming the first task whose line `parse`
/// rejects.
pub(crate) fn parse_rows<R>(
    checkpoint: &Checkpoint,
    rows: BTreeMap<usize, String>,
    parse: impl Fn(&str) -> Result<R, String>,
) -> Result<BTreeMap<usize, R>, CheckpointError> {
    let mut parsed = BTreeMap::new();
    for (task, line) in rows {
        let row = parse(&line).map_err(|why| {
            CheckpointError::Corrupt(
                checkpoint.path().to_path_buf(),
                format!("task {task}: {why}"),
            )
        })?;
        parsed.insert(task, row);
    }
    Ok(parsed)
}

/// The first checkpoint record a run could not write: the journal's
/// path, the task whose record was lost, and the OS cause. A run that
/// meets one keeps computing without its journal and hands this to its
/// caller on the report, which prints it as one `error:` line and exits
/// 2: the output is complete, the journal is not, and resuming from it
/// recomputes what it lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalFailure {
    /// The journal's path, as the error line prints it.
    pub path: String,
    /// The first task whose record was not written.
    pub task: usize,
    /// The error the write returned.
    pub cause: String,
}

impl std::fmt::Display for JournalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint journal {} stopped at task {}: {}; the output is complete, the \
             journal is not, and resuming from it recomputes what it lacks",
            self.path, self.task, self.cause
        )
    }
}

/// Append-only JSONL checkpoint journal: a [`JournalHeader`] line, then
/// one line per task record, each appended and flushed as it happens,
/// so a killed run loses at most the in-flight tasks. Line *order* is
/// scheduling-dependent; the determinism contract lives in the records
/// themselves (pure functions of the task), which is why
/// [`Journal::open`] folds last-line-wins into an index-keyed map.
/// Sweeps write [`JournalEntry`] lines; other runs (`rbcast attack`)
/// write their own codec's lines, keyed by the same `"task"` field.
///
/// The first append that fails is latched as a [`JournalFailure`]: the
/// file is closed, every later append is a no-op that returns the same
/// error, and `Journal::failure` reports it.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<Result<JsonlFile, JournalFailure>>,
}

impl Journal {
    fn over(path: &Path, file: JsonlFile) -> Journal {
        Journal {
            path: path.to_path_buf(),
            file: Mutex::new(Ok(file)),
        }
    }

    /// Opens the checkpoint journal of a run that `header` fingerprints —
    /// the one way `rbcast sweep`, `rbcast attack` and the bench sweeps
    /// start or continue a journal.
    ///
    /// * [`Checkpoint::Fresh`] truncates the file and writes `header`.
    /// * [`Checkpoint::Resume`] reads the file once. Its first line must
    ///   equal `header`; a file that is empty, or was cut inside its
    ///   header, gets `header` written back. A torn tail is healed, and
    ///   the last complete line of each `"task"` is returned for the
    ///   caller's codec to parse. New lines append to the same file.
    ///
    /// # Errors
    ///
    /// A missing, headerless or foreign resume journal, a line without a
    /// `"task"`, or any I/O failure. A refused journal is left untouched.
    pub fn open(
        checkpoint: &Checkpoint,
        header: JournalHeader,
    ) -> Result<(Journal, BTreeMap<usize, String>), CheckpointError> {
        let path = checkpoint.path();
        let io = |e| CheckpointError::Io(path.to_path_buf(), e);
        if let Checkpoint::Fresh(_) = checkpoint {
            let journal = Journal::create_with_header(path, &header).map_err(io)?;
            return Ok((journal, BTreeMap::new()));
        }
        let (mut file, lines) = JsonlFile::open_existing(path).map_err(io)?;
        let mut numbered = lines.iter();
        let first = numbered.next();
        if let Some((_, line)) = first {
            match JournalHeader::from_line(line) {
                Ok(found) if found == header => {}
                Ok(found) => return Err(CheckpointError::Mismatch(path.to_path_buf(), found)),
                Err(_) => return Err(CheckpointError::Headerless(path.to_path_buf())),
            }
        }
        let mut rows = BTreeMap::new();
        for (n, line) in numbered {
            let task = task_of(line).map_err(|why| {
                CheckpointError::Corrupt(path.to_path_buf(), format!("line {n}: {why}"))
            })?;
            rows.insert(task, line.to_string());
        }
        file.heal(&lines).map_err(io)?;
        if first.is_none() {
            file.append(header.to_line()).map_err(io)?;
        }
        Ok((Journal::over(path, file), rows))
    }

    /// Creates (truncating) a journal at `path`, making parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        Ok(Journal::over(path, JsonlFile::create(path)?))
    }

    /// [`Journal::create`], then writes `header` as the first line, so
    /// later resumes can verify they are resuming the same run.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn create_with_header(path: &Path, header: &JournalHeader) -> std::io::Result<Journal> {
        let mut file = JsonlFile::create(path)?;
        file.append(header.to_line())?;
        Ok(Journal::over(path, file))
    }

    /// Appends one sweep entry and flushes it to disk.
    ///
    /// # Errors
    ///
    /// As `Journal::append_line`.
    pub fn record(&self, entry: &JournalEntry) -> std::io::Result<()> {
        self.append_line(entry.task, entry.to_line())
    }

    /// Appends `line`, task `task`'s record in a caller's own codec (a
    /// flat JSON object with that `"task"` index), and flushes it to
    /// disk.
    ///
    /// # Errors
    ///
    /// When this write fails — it is latched as the journal's
    /// [`JournalFailure`] — or an earlier one did, in which case nothing
    /// is written.
    pub(crate) fn append_line(&self, task: usize, line: String) -> std::io::Result<()> {
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let written = match &mut *file {
            Ok(open) => open.append(line),
            Err(failure) => return Err(std::io::Error::other(failure.to_string())),
        };
        if let Err(e) = &written {
            *file = Err(JournalFailure {
                path: self.path.display().to_string(),
                task,
                cause: e.to_string(),
            });
        }
        written
    }

    /// The first append that failed, if any did.
    #[must_use]
    pub(crate) fn failure(&self) -> Option<JournalFailure> {
        self.file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .err()
            .cloned()
    }
}

// ---------------------------------------------------------------------
// The supervisor proper
// ---------------------------------------------------------------------

/// Context handed to a supervised task body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx {
    /// Task index within the sweep (input order).
    pub index: usize,
}

/// Supervisor policy: retries, deadlines, chaos, and checkpointing.
#[derive(Debug, Default)]
pub struct SupervisorConfig {
    /// Maximum attempts per task (at least 1; [`SupervisorConfig::new`]
    /// defaults to 2 — one retry).
    pub max_attempts: u32,
    /// Default round budget threaded into experiments that did not set
    /// their own (`None` disarms the watchdog).
    pub round_budget: Option<u32>,
    /// Chaos injection (test-only; `None` in production).
    pub chaos: Option<ChaosConfig>,
    /// Checkpoint journal to append completed tasks to.
    pub journal: Option<Journal>,
    /// Prior journal state: tasks with an `ok` entry are skipped and
    /// their stored summaries returned as [`Supervised::Resumed`]
    /// (filled by [`SupervisorConfig::with_checkpoint`]).
    pub resume: BTreeMap<usize, JournalEntry>,
}

impl SupervisorConfig {
    /// The default policy: 2 attempts, no watchdog, no chaos, no
    /// journal.
    #[must_use]
    pub fn new() -> SupervisorConfig {
        SupervisorConfig {
            max_attempts: 2,
            ..SupervisorConfig::default()
        }
    }

    /// [`SupervisorConfig::new`] with `CHAOS_ENV`, `RETRIES_ENV` and
    /// `ROUND_BUDGET_ENV` applied — the bench binaries' entry point.
    ///
    /// # Errors
    ///
    /// If any of the variables is set but malformed.
    pub fn from_env() -> Result<SupervisorConfig, String> {
        let mut cfg = SupervisorConfig::new();
        cfg.chaos = ChaosConfig::from_env()?;
        if let Some(raw) = crate::config::env_var(RETRIES_ENV) {
            cfg.max_attempts = raw
                .trim()
                .parse::<u32>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{RETRIES_ENV}={raw:?} is not a positive integer"))?;
        }
        if let Some(raw) = crate::config::env_var(ROUND_BUDGET_ENV) {
            cfg.round_budget = Some(
                raw.trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!("{ROUND_BUDGET_ENV}={raw:?} is not a positive integer")
                    })?,
            );
        }
        Ok(cfg)
    }

    /// Sets the attempt bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the default round budget.
    #[must_use]
    pub fn with_round_budget(mut self, budget: Option<u32>) -> Self {
        self.round_budget = budget;
        self
    }

    /// Arms chaos injection.
    #[must_use]
    pub fn with_chaos(mut self, chaos: Option<ChaosConfig>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attaches a checkpoint journal.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Opens `checkpoint` through [`Journal::open`] under the sweep's
    /// `header`, attaches it, and loads a resumed journal's entries as
    /// the prior state.
    ///
    /// # Errors
    ///
    /// As [`Journal::open`], or a task line that is not a
    /// [`JournalEntry`].
    pub fn with_checkpoint(
        mut self,
        checkpoint: &Checkpoint,
        header: JournalHeader,
    ) -> Result<Self, CheckpointError> {
        let (journal, rows) = Journal::open(checkpoint, header)?;
        self.resume = parse_rows(checkpoint, rows, JournalEntry::from_line)?;
        self.journal = Some(journal);
        Ok(self)
    }

    fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Outcome of one supervised generic task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Supervised<R> {
    /// The task completed (possibly after retries).
    Done {
        /// Its result.
        value: R,
        /// Attempts spent (1 = first try).
        attempts: u32,
    },
    /// Every attempt failed; the task is quarantined.
    Failed {
        /// The terminal error ([`TaskError::Retried`] when more than
        /// one attempt was made).
        error: TaskError,
        /// Attempts spent.
        attempts: u32,
    },
    /// Not run: [`SupervisorConfig::resume`] holds its completed record.
    Resumed {
        /// The stored summary.
        summary: OutcomeSummary,
        /// The stored digest.
        digest: Option<u64>,
    },
}

impl<R> Supervised<R> {
    /// The completed value, if this run computed one.
    fn value(&self) -> Option<&R> {
        match self {
            Supervised::Done { value, .. } => Some(value),
            Supervised::Failed { .. } | Supervised::Resumed { .. } => None,
        }
    }
}

/// What a completed task's [`JournalEntry`] records besides its index,
/// status and attempts. A value the supervisor never journals — a run
/// without [`SupervisorConfig::journal`] — keeps the default, which adds
/// nothing.
pub trait Journaled {
    /// Writes this value's fields into its task's entry.
    fn fill(&self, _entry: &mut JournalEntry) {}
}

impl Journaled for (Outcome, u64) {
    fn fill(&self, entry: &mut JournalEntry) {
        let (outcome, digest) = self;
        entry.digest = Some(*digest);
        entry.summary = Some(OutcomeSummary::of(outcome));
        entry.metrics = Some(TaskMetrics::of(outcome));
    }
}

/// Runs one task under the full supervision ladder: chaos draw →
/// `catch_unwind` → structured error → bounded retry.
fn run_one<T, R, F>(config: &SupervisorConfig, index: usize, task: &T, body: &F) -> Supervised<R>
where
    F: Fn(&TaskCtx, &T) -> Result<R, TaskError>,
{
    let bound = config.attempts();
    let mut last: Option<TaskError> = None;
    for attempt in 0..bound {
        let chaos_event = config.chaos.and_then(|c| c.draw(index, attempt));
        if matches!(chaos_event, Some(ChaosEvent::Stall)) {
            // A synthetic stall: what the watchdog would report, without
            // burning rounds to prove it.
            last = Some(TaskError::DeadlineExceeded {
                round_budget: config.round_budget.unwrap_or(0),
            });
            continue;
        }
        let ctx = TaskCtx { index };
        let caught = quiet_catch_unwind(|| {
            if matches!(chaos_event, Some(ChaosEvent::Panic)) {
                // Chaos mode exercises the real unwind path, not a
                // simulated one — this panic is the whole point.
                // audit:allow(panic): deliberate chaos-injected panic
                panic!("chaos: injected panic (task {index}, attempt {attempt})");
            }
            body(&ctx, task)
        });
        match caught {
            Ok(Ok(value)) => {
                return Supervised::Done {
                    value,
                    attempts: attempt + 1,
                }
            }
            Ok(Err(e)) => last = Some(e),
            Err(payload) => {
                last = Some(TaskError::Panicked {
                    message: payload_message(payload.as_ref()),
                });
            }
        }
    }
    let last = last.unwrap_or(TaskError::Invariant {
        message: "zero attempts configured".to_string(),
    });
    let error = if bound > 1 {
        TaskError::Retried {
            attempts: bound,
            last: Box::new(last),
        }
    } else {
        last
    };
    Supervised::Failed {
        error,
        attempts: bound,
    }
}

/// Supervises a task list on the deterministic engine — the one
/// supervised runner. For each task, keyed by its index in `tasks`:
///
/// 1. a task [`SupervisorConfig::resume`] records as completed is not
///    run and comes back [`Supervised::Resumed`] (it never sees a chaos
///    draw);
/// 2. any other runs the ladder — chaos draw, `catch_unwind`, structured
///    error, bounded retry — under `max_attempts` and `chaos`;
/// 3. its fate is appended to [`SupervisorConfig::journal`], with the
///    value's [`Journaled`] fields.
///
/// The result vector is in input order with one [`Supervised`] cell per
/// task — never fewer. A failed journal write does not stop the run:
/// the journal latches it (see [`Journal::failure`]).
pub(crate) fn supervise<T, R, F>(
    tasks: &[T],
    threads: usize,
    config: &SupervisorConfig,
    body: F,
) -> Vec<Supervised<R>>
where
    T: Sync,
    R: Send + Journaled,
    F: Fn(&TaskCtx, &T) -> Result<R, TaskError> + Sync,
{
    let slots = engine::run_indexed_partial(tasks, threads, |i, t| {
        if let Some(JournalEntry {
            ok: true,
            summary: Some(summary),
            digest,
            ..
        }) = config.resume.get(&i)
        {
            return Supervised::Resumed {
                summary: *summary,
                digest: *digest,
            };
        }
        let settled = run_one(config, i, t, &body);
        if let Some(journal) = &config.journal {
            let mut entry = JournalEntry {
                task: i,
                ..JournalEntry::default()
            };
            match &settled {
                Supervised::Done { value, attempts } => {
                    (entry.ok, entry.attempts) = (true, *attempts);
                    value.fill(&mut entry);
                }
                Supervised::Failed { error, attempts } => {
                    entry.attempts = *attempts;
                    entry.error = Some(error.to_string());
                }
                Supervised::Resumed { .. } => {}
            }
            // A failed write is latched on the journal and reaches the
            // caller through `Journal::failure`.
            let _ = journal.record(&entry);
        }
        settled
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| Supervised::Failed {
                error: lost_slot(),
                attempts: 0,
            })
        })
        .collect()
}

/// The error of a task whose slot the engine never filled — a harness
/// bug, reported in place rather than shortening the result vector.
fn lost_slot() -> TaskError {
    TaskError::Invariant {
        message: "engine produced no result for this task (worker lost before hand-off)"
            .to_string(),
    }
}

/// One task's slot in a supervised sweep report: its outcome and
/// delivery-trace hash (the determinism witness and journal digest)
/// when computed this run.
pub type TaskReport = Supervised<(Outcome, u64)>;

impl TaskReport {
    /// The computed outcome, if this task ran to completion this run.
    #[must_use]
    pub fn outcome(&self) -> Option<&Outcome> {
        self.value().map(|(outcome, _)| outcome)
    }

    /// The row summary, whether computed or resumed.
    #[must_use]
    pub fn summary(&self) -> Option<OutcomeSummary> {
        match self {
            Supervised::Done { value, .. } => Some(OutcomeSummary::of(&value.0)),
            Supervised::Resumed { summary, .. } => Some(*summary),
            Supervised::Failed { .. } => None,
        }
    }

    /// The digest, whether computed or resumed.
    #[must_use]
    pub fn digest(&self) -> Option<u64> {
        match self {
            Supervised::Done { value, .. } => Some(value.1),
            Supervised::Resumed { digest, .. } => *digest,
            Supervised::Failed { .. } => None,
        }
    }
}

/// A supervised sweep's full report: one [`TaskReport`] per experiment,
/// in input order — completed results are never withheld because other
/// tasks failed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-task reports, indexed like the input experiments.
    pub tasks: Vec<TaskReport>,
    /// The first journal record the sweep could not write, if any.
    pub journal_error: Option<JournalFailure>,
}

impl SweepReport {
    /// The quarantined tasks: `(input index, error)` pairs.
    #[must_use]
    pub fn quarantined(&self) -> Vec<(usize, &TaskError)> {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                TaskReport::Failed { error, .. } => Some((i, error)),
                _ => None,
            })
            .collect()
    }

    /// True when every task completed (computed or resumed).
    #[must_use]
    pub fn fully_healthy(&self) -> bool {
        self.quarantined().is_empty()
    }
}

/// The supervised counterpart of [`engine::run_experiments`]: threads
/// the configured round budget into experiments that lack one, builds
/// their arenas once, and runs them through `supervise` — panic
/// isolation, watchdog, bounded retry, resume and journal included —
/// always returning a full-length, input-ordered report.
///
/// Healthy slots are byte-identical to what the unsupervised engine
/// produces for the same experiments — supervision only adds an
/// envelope, never perturbs a run.
#[must_use]
pub fn run_experiments_supervised(
    experiments: &[Experiment],
    threads: usize,
    config: &SupervisorConfig,
) -> SweepReport {
    let _span = crate::obs::span("sweep/supervised");
    let prepared: Vec<Experiment> = experiments
        .iter()
        .map(|e| match (e.round_budget(), config.round_budget) {
            (None, Some(_)) => e.clone().with_round_budget(config.round_budget),
            _ => e.clone(),
        })
        .collect();
    let _arenas = engine::prewarm_arenas(&prepared);
    let tasks = supervise(&prepared, threads, config, |_, e| {
        let (outcome, digest) = e.run_traced();
        match outcome.stats.stop_reason {
            StopReason::DeadlineExceeded => Err(TaskError::DeadlineExceeded {
                round_budget: e.round_budget().unwrap_or(outcome.stats.rounds),
            }),
            _ => Ok((outcome, digest)),
        }
    });
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<[crate::obs::Counter; 4]> = OnceLock::new();
    let [done_c, retries_c, quarantined_c, resumed_c] = COUNTERS.get_or_init(|| {
        [
            crate::obs::counter("supervisor/tasks"),
            crate::obs::counter("supervisor/retries"),
            crate::obs::counter("supervisor/quarantined"),
            crate::obs::counter("supervisor/resumed"),
        ]
    });
    for task in &tasks {
        let (counter, attempts) = match task {
            Supervised::Done { attempts, .. } => (done_c, *attempts),
            Supervised::Failed { attempts, .. } => (quarantined_c, *attempts),
            Supervised::Resumed { .. } => (resumed_c, 1),
        };
        counter.incr();
        retries_c.add(u64::from(attempts.saturating_sub(1)));
    }
    SweepReport {
        tasks,
        journal_error: config.journal.as_ref().and_then(Journal::failure),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::checkpoint_line;
    use crate::ProtocolKind;
    use rbcast_adversary::AttackScore;
    use rbcast_grid::NodeId;
    use std::sync::atomic::Ordering;

    /// The test tasks' values are never journalled.
    impl Journaled for u32 {}

    #[test]
    fn retry_seed_is_pure_and_attempt_sensitive() {
        assert_eq!(retry_seed(7, 0), retry_seed(7, 0));
        assert_ne!(retry_seed(7, 0), retry_seed(7, 1));
        assert_ne!(retry_seed(7, 0), retry_seed(8, 0));
    }

    #[test]
    fn chaos_parse_accepts_both_separators() {
        let a = ChaosConfig::parse("panic:0.05,stall:0.02,seed=9").expect("valid spec");
        let b = ChaosConfig::parse("panic=0.05, stall=0.02, seed:9").expect("valid spec");
        assert_eq!(a, b);
        assert_eq!(a.panic_ppm, 50_000);
        assert_eq!(a.stall_ppm, 20_000);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn chaos_parse_rejects_garbage() {
        assert!(ChaosConfig::parse("panic:1.5").is_err());
        assert!(ChaosConfig::parse("panic:-0.1").is_err());
        assert!(ChaosConfig::parse("panics:0.1").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
        assert!(ChaosConfig::parse("seed:abc").is_err());
        assert!(ChaosConfig::parse("panic:0.7,stall:0.7").is_err());
    }

    #[test]
    fn chaos_draw_is_deterministic_and_roughly_calibrated() {
        let chaos = ChaosConfig::new(0.05, 0.02, 42).expect("valid probabilities");
        let hits: Vec<_> = (0..10_000).map(|i| chaos.draw(i, 0)).collect();
        assert_eq!(
            hits,
            (0..10_000).map(|i| chaos.draw(i, 0)).collect::<Vec<_>>()
        );
        let panics = hits
            .iter()
            .filter(|h| **h == Some(ChaosEvent::Panic))
            .count();
        let stalls = hits
            .iter()
            .filter(|h| **h == Some(ChaosEvent::Stall))
            .count();
        assert!((300..=700).contains(&panics), "panics: {panics}");
        assert!((100..=350).contains(&stalls), "stalls: {stalls}");
        // A different attempt re-rolls (retries can escape chaos).
        assert!((0..10_000).any(|i| chaos.draw(i, 0) != chaos.draw(i, 1)));
    }

    #[test]
    fn disarmed_chaos_never_fires() {
        let chaos = ChaosConfig::default();
        assert!((0..1_000).all(|i| chaos.draw(i, 0).is_none()));
    }

    #[test]
    fn supervise_isolates_panics_and_returns_the_rest() {
        let tasks: Vec<u32> = (0..20).collect();
        let config = SupervisorConfig::new().with_max_attempts(1);
        for threads in [1, 2, 8] {
            let out = supervise(&tasks, threads, &config, |_, &t| {
                assert!(t != 13, "unlucky task");
                Ok(t * 2)
            });
            assert_eq!(out.len(), tasks.len());
            for (i, s) in out.iter().enumerate() {
                if i == 13 {
                    match s {
                        Supervised::Failed {
                            error: TaskError::Panicked { message },
                            attempts: 1,
                        } => assert!(message.contains("unlucky"), "{message}"),
                        other => panic!("expected panic quarantine, got {other:?}"),
                    }
                } else {
                    assert_eq!(s.value(), Some(&(u32::try_from(i).expect("small") * 2)));
                }
            }
        }
    }

    /// Counts a task body's calls: the attempt number it is on.
    fn attempt_counter() -> impl Fn() -> u32 + Sync {
        let calls = std::sync::atomic::AtomicU32::new(0);
        move || calls.fetch_add(1, Ordering::Relaxed)
    }

    #[test]
    fn retries_wrap_the_last_error() {
        let attempt = attempt_counter();
        let out = supervise(
            &[0u32],
            1,
            &SupervisorConfig::new().with_max_attempts(3),
            |_, _| -> Result<u32, TaskError> {
                Err(TaskError::Invariant {
                    message: format!("attempt {}", attempt()),
                })
            },
        );
        match &out[0] {
            Supervised::Failed {
                error: TaskError::Retried { attempts: 3, last },
                attempts: 3,
            } => {
                assert_eq!(
                    **last,
                    TaskError::Invariant {
                        message: "attempt 2".to_string()
                    }
                );
            }
            other => panic!("expected retried failure, got {other:?}"),
        }
    }

    #[test]
    fn a_flaky_task_succeeds_on_retry() {
        let attempt = attempt_counter();
        let out = supervise(
            &[0u32],
            1,
            &SupervisorConfig::new().with_max_attempts(2),
            |_, _| {
                let n = attempt();
                assert!(n != 0, "first attempt always dies");
                Ok(n)
            },
        );
        match &out[0] {
            Supervised::Done { value, attempts: 2 } => assert_eq!(*value, 1),
            other => panic!("expected second-attempt success, got {other:?}"),
        }
    }

    #[test]
    fn journal_roundtrips_both_entry_shapes() {
        let ok = JournalEntry {
            task: 4,
            ok: true,
            attempts: 2,
            digest: Some(0x0123_4567_89ab_cdef),
            summary: Some(OutcomeSummary {
                correct: 140,
                wrong: 0,
                undecided: 4,
                messages: 512,
            }),
            metrics: Some(TaskMetrics {
                rounds: 17,
                deliveries: 480,
                jammed: 3,
                lost: 1,
            }),
            error: None,
        };
        let failed = JournalEntry {
            task: 5,
            ok: false,
            attempts: 2,
            digest: None,
            summary: None,
            metrics: None,
            error: Some("panicked: chaos \"quoted\"\nline2 \\ backslash".to_string()),
        };
        for entry in [&ok, &failed] {
            let line = entry.to_line();
            assert_eq!(&JournalEntry::from_line(&line).expect("roundtrip"), entry);
        }
    }

    #[test]
    fn journal_parsing_is_strict() {
        assert!(JournalEntry::from_line("not json").is_err());
        assert!(JournalEntry::from_line("{\"task\":1}").is_err());
        assert!(
            JournalEntry::from_line("{\"task\":1,\"status\":\"maybe\",\"attempts\":1}").is_err()
        );
        // ok entries must carry a summary (resume reprints rows from it)
        assert!(JournalEntry::from_line("{\"task\":1,\"status\":\"ok\",\"attempts\":1}").is_err());
    }

    #[test]
    fn journal_records_and_reloads() {
        let path = std::env::temp_dir().join(format!(
            "rbcast-supervisor-roundtrip-{}.jsonl",
            std::process::id()
        ));
        let header = torn_sample().0;
        let (journal, _) = Journal::open(&Checkpoint::Fresh(path.clone()), header).expect("open");
        for task in 0..3usize {
            journal
                .record(&JournalEntry {
                    task,
                    ok: task != 1,
                    attempts: 1,
                    digest: (task != 1).then_some(7),
                    summary: (task != 1).then_some(OutcomeSummary {
                        correct: 1,
                        wrong: 0,
                        undecided: 0,
                        messages: 9,
                    }),
                    metrics: None,
                    error: (task == 1).then(|| "boom".to_string()),
                })
                .expect("record");
        }
        // Task 1 re-recorded ok: last entry wins on load.
        journal
            .record(&JournalEntry {
                task: 1,
                ok: true,
                attempts: 2,
                digest: Some(8),
                summary: Some(OutcomeSummary {
                    correct: 1,
                    wrong: 0,
                    undecided: 0,
                    messages: 9,
                }),
                metrics: None,
                error: None,
            })
            .expect("record");
        let loaded = SupervisorConfig::new()
            .with_checkpoint(&Checkpoint::Resume(path.clone()), header)
            .expect("resume")
            .resume;
        assert_eq!(loaded.len(), 3);
        assert!(loaded[&1].ok);
        assert_eq!(loaded[&1].attempts, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_fingerprint_is_spec_sensitive() {
        let a = vec![Experiment::new(1, ProtocolKind::Flood)];
        let b = vec![Experiment::new(2, ProtocolKind::Flood)];
        let c = vec![Experiment::new(1, ProtocolKind::Cpa)];
        let aa = vec![
            Experiment::new(1, ProtocolKind::Flood),
            Experiment::new(1, ProtocolKind::Flood),
        ];
        assert_eq!(sweep_fingerprint(&a), sweep_fingerprint(&a));
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&b), "radius");
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&c), "protocol");
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&aa), "task count");
        assert_ne!(
            sweep_fingerprint(&a),
            sweep_fingerprint(&[a[0].clone().with_t(1)]),
            "fault budget"
        );
    }

    #[test]
    fn journal_open_starts_checks_and_resumes() {
        let (header, [ok, failed]) = torn_sample();
        assert_eq!(
            JournalHeader::from_line(&header.to_line()).expect("roundtrip"),
            header
        );
        assert!(JournalHeader::from_line("{\"tasks\":3}").is_err());
        assert!(JournalHeader::from_line("{\"fingerprint\":\"0xzz\",\"tasks\":3}").is_err());

        let path = std::env::temp_dir().join(format!(
            "rbcast-supervisor-open-{}.jsonl",
            std::process::id()
        ));
        let (fresh, resume) = (
            Checkpoint::Fresh(path.clone()),
            Checkpoint::Resume(path.clone()),
        );
        let open = |checkpoint: &Checkpoint, header| {
            Journal::open(checkpoint, header).map(|(_, rows)| rows)
        };
        let head = format!("{}\n", header.to_line());
        let body = format!("{head}{}\n{}\n", ok.to_line(), failed.to_line());

        // Fresh truncates and writes the header.
        std::fs::write(&path, &body).expect("write");
        assert_eq!(open(&fresh, header).expect("fresh"), BTreeMap::new());
        assert_eq!(std::fs::read_to_string(&path).expect("read"), head);

        // Resume returns each task's line; the header is not a task.
        std::fs::write(&path, &body).expect("write");
        let rows = open(&resume, header).expect("resume");
        assert_eq!(
            rows,
            BTreeMap::from([(4, ok.to_line()), (5, failed.to_line())])
        );

        // Refusals leave the file as they found it, torn tail included.
        let refused = |bytes: &str, header, want: &str| {
            std::fs::write(&path, bytes).expect("write");
            let err = open(&resume, header).expect_err(want).to_string();
            assert!(err.contains(want), "{want}: {err}");
            assert_eq!(std::fs::read_to_string(&path).expect("read"), bytes);
        };
        let other = JournalHeader {
            fingerprint: 1,
            tasks: 3,
        };
        refused(&format!("{body}{{\"task\":9,"), other, "different run");
        refused(
            &format!("{}\n{{\"ta", ok.to_line()),
            header,
            "no fingerprint header",
        );
        refused(
            &format!("{head}{{\"step\":3}}\n"),
            header,
            "line 2: not a task line",
        );
        std::fs::remove_file(&path).expect("remove");
        match open(&resume, header) {
            Err(CheckpointError::Io(_, e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("a missing journal must be refused, got {other:?}"),
        }
        assert!(!path.exists(), "a refused resume creates nothing");

        // Empty, or cut inside its header: the header is written back.
        for cut in [0, 10] {
            std::fs::write(&path, &head[..cut]).expect("write");
            assert_eq!(open(&resume, header).expect("resume"), BTreeMap::new());
            assert_eq!(std::fs::read_to_string(&path).expect("read"), head);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn supervised_experiments_match_the_plain_engine() {
        let experiments: Vec<Experiment> = (0..4u64)
            .map(|seed| {
                Experiment::new(1, ProtocolKind::Flood)
                    .with_t(2)
                    .with_placement(rbcast_adversary::Placement::RandomLocal {
                        t: 2,
                        seed,
                        attempts: 40,
                    })
            })
            .collect();
        let plain = engine::run_experiments_traced(&experiments, 2);
        let report = run_experiments_supervised(&experiments, 2, &SupervisorConfig::new());
        assert!(report.fully_healthy());
        for (task, (outcome, hash)) in report.tasks.iter().zip(&plain) {
            assert_eq!(task.outcome(), Some(outcome));
            assert_eq!(task.digest(), Some(*hash));
        }
    }

    #[test]
    fn deadline_exceeded_tasks_are_quarantined_not_fatal() {
        let experiments: Vec<Experiment> = vec![
            Experiment::new(1, ProtocolKind::Flood),
            // Budget 1 cannot finish a flood on the default torus.
            Experiment::new(1, ProtocolKind::Flood).with_round_budget(Some(1)),
            Experiment::new(1, ProtocolKind::Flood),
        ];
        let config = SupervisorConfig::new().with_max_attempts(1);
        let report = run_experiments_supervised(&experiments, 2, &config);
        assert_eq!(report.quarantined().len(), 1);
        let (index, error) = report.quarantined()[0];
        assert_eq!(index, 1);
        assert_eq!(*error, TaskError::DeadlineExceeded { round_budget: 1 });
        // The healthy neighbours are untouched.
        assert!(report.tasks[0]
            .outcome()
            .is_some_and(Outcome::all_honest_correct));
        assert!(report.tasks[2]
            .outcome()
            .is_some_and(Outcome::all_honest_correct));
    }

    #[test]
    fn resume_skips_completed_tasks_and_reruns_failures() {
        let experiments: Vec<Experiment> = (0..3)
            .map(|_| Experiment::new(1, ProtocolKind::Flood))
            .collect();
        // A journal claiming task 0 finished and task 1 failed.
        let mut resume = BTreeMap::new();
        resume.insert(
            0,
            JournalEntry {
                task: 0,
                ok: true,
                attempts: 1,
                digest: Some(0xdead),
                summary: Some(OutcomeSummary {
                    correct: 999,
                    wrong: 0,
                    undecided: 0,
                    messages: 1,
                }),
                metrics: None,
                error: None,
            },
        );
        resume.insert(
            1,
            JournalEntry {
                task: 1,
                ok: false,
                attempts: 2,
                digest: None,
                summary: None,
                metrics: None,
                error: Some("panicked: chaos".to_string()),
            },
        );
        let config = SupervisorConfig {
            resume,
            ..SupervisorConfig::new()
        };
        let report = run_experiments_supervised(&experiments, 2, &config);
        // Task 0: reprinted from the journal verbatim (even the bogus
        // summary — resume trusts its checkpoint).
        match &report.tasks[0] {
            TaskReport::Resumed { summary, digest } => {
                assert_eq!(summary.correct, 999);
                assert_eq!(*digest, Some(0xdead));
            }
            other => panic!("expected resumed task, got {other:?}"),
        }
        // Tasks 1 (failed) and 2 (missing) were recomputed.
        assert!(report.tasks[1].outcome().is_some());
        assert!(report.tasks[2].outcome().is_some());
    }

    #[test]
    fn chaos_run_quarantines_deterministically_and_healthy_rows_match() {
        let experiments: Vec<Experiment> = (0..24u64)
            .map(|seed| {
                Experiment::new(1, ProtocolKind::Flood)
                    .with_t(2)
                    .with_placement(rbcast_adversary::Placement::RandomLocal {
                        t: 2,
                        seed,
                        attempts: 40,
                    })
            })
            .collect();
        // High rates + no retry so quarantines certainly appear.
        let chaos = ChaosConfig::new(0.25, 0.15, 1).expect("valid probabilities");
        let config = SupervisorConfig::new()
            .with_max_attempts(1)
            .with_chaos(Some(chaos));
        let baseline = engine::run_experiments_traced(&experiments, 1);
        let reports: Vec<SweepReport> = [1usize, 2, 8]
            .iter()
            .map(|&threads| run_experiments_supervised(&experiments, threads, &config))
            .collect();
        assert!(
            !reports[0].fully_healthy(),
            "chaos at 25%/15% over 24 tasks must quarantine something"
        );
        for report in &reports {
            // Identical quarantine set at every thread count…
            assert_eq!(
                report
                    .quarantined()
                    .iter()
                    .map(|(i, _)| *i)
                    .collect::<Vec<_>>(),
                reports[0]
                    .quarantined()
                    .iter()
                    .map(|(i, _)| *i)
                    .collect::<Vec<_>>()
            );
            // …and healthy slots byte-identical to the fault-free run.
            for (i, task) in report.tasks.iter().enumerate() {
                if let TaskReport::Done { value, .. } = task {
                    assert_eq!(value, &baseline[i]);
                }
            }
        }
        // With a retry allowed, strictly fewer (usually zero) quarantines.
        let retrying = SupervisorConfig::new()
            .with_max_attempts(2)
            .with_chaos(Some(chaos));
        let retried = run_experiments_supervised(&experiments, 2, &retrying);
        assert!(retried.quarantined().len() < reports[0].quarantined().len());
    }

    /// Values computed at the commit before the mixer, byte fold and
    /// escape moved to `rbcast_grid::plumbing`: the consolidation must
    /// not move a retry seed, a fingerprint or a journal byte.
    #[test]
    fn seeds_fingerprints_and_journal_lines_are_pinned() {
        assert_eq!(retry_seed(3, 2), 0x1435_47e2_fc69_dc69);
        let spec = vec![
            Experiment::new(1, ProtocolKind::Flood),
            Experiment::new(2, ProtocolKind::Cpa).with_t(1),
        ];
        assert_eq!(sweep_fingerprint(&spec), 0x49a2_c973_7f10_acc0);
        let failed = JournalEntry {
            task: 5,
            ok: false,
            attempts: 2,
            digest: None,
            summary: None,
            metrics: None,
            error: Some("a\"b\\c\nd\u{1}e\tf\rg".to_string()),
        };
        assert_eq!(
            failed.to_line(),
            "{\"task\":5,\"status\":\"failed\",\"attempts\":2,\
             \"error\":\"a\\\"b\\\\c\\nd\\u0001e\\tf\\rg\"}"
        );
        assert_eq!(
            torn_sample().1[0].to_line(),
            "{\"task\":4,\"status\":\"ok\",\"attempts\":1,\"digest\":\"0x0123456789abcdef\",\
             \"correct\":140,\"wrong\":0,\"undecided\":4,\"messages\":512,\
             \"rounds\":17,\"deliveries\":480,\"jammed\":3,\"lost\":1}"
        );
        assert_eq!(
            torn_sample().0.to_line(),
            "{\"fingerprint\":\"0x0123456789abcdef\",\"tasks\":3}"
        );
    }

    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/support/torn_write.rs"
    ));

    /// A header, an ok entry and a failed entry (whose error needs
    /// every escape) — the sweep journal the torn-write property cuts.
    fn torn_sample() -> (JournalHeader, [JournalEntry; 2]) {
        let header = JournalHeader {
            fingerprint: 0x0123_4567_89ab_cdef,
            tasks: 3,
        };
        let ok = JournalEntry {
            task: 4,
            ok: true,
            attempts: 1,
            digest: Some(0x0123_4567_89ab_cdef),
            summary: Some(OutcomeSummary {
                correct: 140,
                wrong: 0,
                undecided: 4,
                messages: 512,
            }),
            metrics: Some(TaskMetrics {
                rounds: 17,
                deliveries: 480,
                jammed: 3,
                lost: 1,
            }),
            error: None,
        };
        let failed = JournalEntry {
            task: 5,
            ok: false,
            attempts: 3,
            digest: None,
            summary: None,
            metrics: None,
            error: Some("panicked: \"quoted\"\nline2 \\ é".to_string()),
        };
        (header, [ok, failed])
    }

    /// The torn-write property over [`Journal::open`]'s resume: `lines`
    /// are task lines of one codec under `torn_sample`'s header; cut
    /// anywhere, the journal resumes to the last complete line of each
    /// task, and `extra` appends after the healed prefix.
    fn check_torn_resumes(tag: &str, lines: &[String], extra: &str) {
        let header = torn_sample().0;
        let full: String = std::iter::once(header.to_line())
            .chain(lines.iter().cloned())
            .map(|line| line + "\n")
            .collect();
        let last_wins = |lines: &[String]| -> BTreeMap<usize, String> {
            lines
                .iter()
                .map(|line| (task_of(line).expect("a task line"), line.clone()))
                .collect()
        };
        // k complete lines hold the header and k - 1 task lines.
        let expected: Vec<_> = (0..=lines.len() + 1)
            .map(|k| last_wins(&lines[..k.saturating_sub(1)]))
            .collect();
        let resume = |path: &Path| Journal::open(&Checkpoint::Resume(path.to_path_buf()), header);
        check_torn_writes(
            tag,
            full.as_bytes(),
            &expected,
            |path| {
                resume(path)
                    .map(|(_, rows)| rows)
                    .map_err(|e| e.to_string())
            },
            |path| {
                let (journal, _) = resume(path).expect("resume");
                let task = task_of(extra).expect("a task line");
                journal
                    .append_line(task, extra.to_string())
                    .expect("append");
            },
            |prefix| {
                let mut grown = prefix.clone();
                grown.extend(last_wins(&[extra.to_string()]));
                grown
            },
        );
    }

    #[test]
    fn a_journal_cut_at_any_byte_resumes_from_its_complete_lines() {
        let (_, [ok, failed]) = torn_sample();
        let extra = JournalEntry {
            task: 9,
            error: Some("boom".to_string()),
            ..failed.clone()
        };
        check_torn_resumes("sweep", &[ok.to_line(), failed.to_line()], &extra.to_line());

        // The attack's cell checkpoints, with a last-wins overwrite.
        let state = |step| rbcast_adversary::AnnealState {
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
        };
        let line = |task, step, done| checkpoint_line(task, &state(step), done);
        check_torn_resumes(
            "attack",
            &[line(0, 2, false), line(1, 2, false), line(0, 4, true)],
            &line(1, 6, true),
        );
    }
}
