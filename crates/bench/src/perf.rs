//! What the experiments share around a sweep: the supervised,
//! journalled fan-out (`run_sweep`) and the `BENCH_scale.json` writer.
//!
//! Every sweep-shaped experiment fans its grid out through
//! [`rbcast_core::engine`] under the sweep supervisor. Timing lives here
//! and nowhere near the simulation: stopwatches come from
//! [`rbcast_core::obs`] (the only module allowed to read the wall
//! clock), holding or dropping one never changes an outcome, and what
//! they read goes to stderr — an experiment's stdout is its result and
//! must not depend on the host. End-to-end and per-layer performance is
//! measured from outside, by `benchmark/`.

use rbcast_core::supervisor::{
    self, Checkpoint, Journal, JournalFailure, JournalHeader, SupervisorConfig, SweepReport,
    TaskReport,
};
use rbcast_core::{engine, Experiment, Outcome};
use rbcast_grid::plumbing::json_escape;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The supervised results of one sweep: healthy outcomes in experiment
/// order (quarantined slots are `None`) plus the quarantine report.
/// Derefs to `[Option<Outcome>]`, so `rows[i]`, `rows.iter().flatten()`
/// and `chunks(n)` all work directly on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRows {
    rows: Vec<Option<Outcome>>,
    /// Quarantined tasks: `(experiment index, error display)`.
    pub quarantined: Vec<(usize, String)>,
}

impl std::ops::Deref for SweepRows {
    type Target = [Option<Outcome>];
    fn deref(&self) -> &Self::Target {
        &self.rows
    }
}

impl SweepRows {
    /// True when no task was quarantined.
    #[must_use]
    pub(crate) fn fully_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// The supervisor policy every bench sweep runs under: the environment
/// knobs (`RBCAST_CHAOS`, `RBCAST_RETRIES`, `RBCAST_ROUND_BUDGET`)
/// applied to the defaults. A malformed knob aborts with exit code 2 —
/// a typo must not silently disarm a chaos gate.
fn env_config() -> SupervisorConfig {
    match SupervisorConfig::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The first journal write any sweep of this process lost.
static JOURNAL_ERROR: OnceLock<JournalFailure> = OnceLock::new();

/// The first checkpoint write a `run_sweep` of this process could not
/// make: the binary prints it as its one `error:` line and exits 2 once
/// every row is printed, as `rbcast sweep` does.
#[must_use]
pub fn journal_error() -> Option<&'static JournalFailure> {
    JOURNAL_ERROR.get()
}

/// Where a sweep's checkpoint journal lives:
/// `results/journal/<label>.jsonl` under the workspace root (anchored
/// at compile time — `cargo test` sets a per-crate cwd,
/// and journals must not scatter with it), with `/` flattened to `_`.
#[must_use]
fn journal_path(label: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("journal")
        .join(format!("{}.jsonl", label.replace('/', "_")))
}

/// Runs `experiments` under the sweep supervisor at the ambient thread
/// count ([`engine::thread_count`]`(None)`, i.e. `RBCAST_THREADS` or all
/// cores). Healthy outcomes come back in experiment order — identical
/// for every thread count — so callers print rows exactly as a serial
/// loop would; failed tasks are quarantined (reported on stdout, since
/// they change verdicts, and journalled) instead of killing the run.
/// Each sweep checkpoints to a fresh [`journal_path`]`(label)` under its
/// fingerprint header as tasks complete, and a one-line timing summary
/// goes to stderr. A journal that cannot be created exits 2 at once, as
/// `rbcast sweep --journal` does; one that loses a write later keeps the
/// sweep running, and [`journal_error`] holds the first loss.
#[must_use]
pub(crate) fn run_sweep(label: &str, experiments: &[Experiment]) -> SweepRows {
    let threads = engine::thread_count(None);
    let mut config = env_config();
    let header = JournalHeader {
        fingerprint: supervisor::sweep_fingerprint(experiments),
        tasks: experiments.len(),
    };
    match Journal::open(&Checkpoint::Fresh(journal_path(label)), header) {
        Ok((journal, _)) => config.journal = Some(journal),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let t0 = rbcast_core::obs::Stopwatch::start();
    let report = supervisor::run_experiments_supervised(experiments, threads, &config);
    let wall_ms = t0.elapsed_ms();
    if let Some(failure) = &report.journal_error {
        let _ = JOURNAL_ERROR.set(failure.clone());
    }
    let rows = rows_of(label, report);
    let quarantine_note = if rows.fully_healthy() {
        String::new()
    } else {
        format!(", {} quarantined", rows.quarantined.len())
    };
    eprintln!(
        "sweep {label}: {} runs on {threads} thread(s) in {wall_ms:.1} ms ({:.0} runs/s{quarantine_note})",
        experiments.len(),
        experiments.len() as f64 * 1000.0 / wall_ms.max(1e-9),
    );
    rows
}

/// Flattens a supervised report into [`SweepRows`], printing the
/// quarantine report (if any) so no failure is silent.
fn rows_of(label: &str, report: SweepReport) -> SweepRows {
    let quarantined: Vec<(usize, String)> = report
        .quarantined()
        .into_iter()
        .map(|(i, e)| (i, e.to_string()))
        .collect();
    for (i, error) in &quarantined {
        println!("quarantine {label}: task {i}: {error}");
    }
    let rows = report
        .tasks
        .into_iter()
        .map(|t| match t {
            TaskReport::Done {
                value: (outcome, _),
                ..
            } => Some(outcome),
            // Bench sweeps never resume; a Resumed slot would mean a
            // stale resume map leaked in — treat it as unavailable.
            TaskReport::Resumed { .. } | TaskReport::Failed { .. } => None,
        })
        .collect();
    SweepRows { rows, quarantined }
}

/// One cell of the scale bench: a single fault-free broadcast on an
/// `side × side` torus, timed wall-clock. Throughput is reported two
/// ways — `nodes/sec` (population divided by wall time, the headline
/// scaling number) and `rounds/sec` (simulated rounds per second, the
/// per-step cost of the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleCell {
    /// Protocol label (`flood` / `cpa` / `indirect`).
    pub protocol: String,
    /// Torus side length; the population is `side * side`.
    pub side: usize,
    /// Node count (`side * side`).
    pub nodes: usize,
    /// Rounds the run executed.
    pub rounds: u32,
    /// Message deliveries performed.
    pub deliveries: u64,
    /// Local broadcasts performed.
    pub messages: u64,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// Process peak RSS (`VmHWM`) in kilobytes when the cell finished,
    /// or `None` where the probe is unavailable. The high-water mark is
    /// monotone across a bench run, so a cell's value bounds the memory
    /// of everything up to and including it; the final cell carries the
    /// run's true peak. Memory regressions (e.g. per-node evidence
    /// blow-up) surface here without any allocator instrumentation.
    pub peak_rss_kb: Option<u64>,
}

/// Process peak resident-set size in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). Std-only, no allocator hooks; returns
/// `None` on platforms without procfs or if the field is missing.
#[must_use]
pub(crate) fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

impl ScaleCell {
    /// Nodes simulated per second of wall time.
    #[must_use]
    pub(crate) fn nodes_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.nodes as f64 * 1000.0 / self.wall_ms
        }
    }

    /// Simulated rounds per second of wall time.
    #[must_use]
    pub(crate) fn rounds_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            f64::from(self.rounds) * 1000.0 / self.wall_ms
        }
    }
}

/// Serialises scale cells to the `BENCH_scale.json` document: the
/// engine label, one record per cell, and the trailing
/// [`rbcast_core::obs`] metrics / timings snapshots (what the cells
/// did — deliveries, arena traffic — next to how long they took). Key
/// order is fixed and floats print with three decimals, so the output
/// is byte-stable for identical inputs and identical counter state.
#[must_use]
fn to_scale_json(engine: &str, cells: &[ScaleCell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"rbcast-bench-scale/v2\",");
    let _ = writeln!(s, "  \"engine\": \"{}\",", json_escape(engine));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"protocol\": \"{}\", \"side\": {}, \"nodes\": {}, \
             \"rounds\": {}, \"deliveries\": {}, \"messages\": {}, \
             \"wall_ms\": {:.3}, \"nodes_per_sec\": {:.3}, \
             \"rounds_per_sec\": {:.3}, \"peak_rss_kb\": {}}}",
            json_escape(&c.protocol),
            c.side,
            c.nodes,
            c.rounds,
            c.deliveries,
            c.messages,
            c.wall_ms,
            c.nodes_per_sec(),
            c.rounds_per_sec(),
            match c.peak_rss_kb {
                Some(kb) => kb.to_string(),
                None => "null".to_string(),
            }
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let metrics = rbcast_core::obs::metrics_snapshot();
    s.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(s, "    \"{}\": {value}", json_escape(name));
        s.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    s.push_str("  },\n");
    let spans = rbcast_core::obs::timings_snapshot();
    s.push_str("  \"timings\": {\n");
    for (i, (name, stat)) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{}\": {{\"count\": {}, \"total_ms\": {:.3}}}",
            json_escape(name),
            stat.count,
            stat.total_ms()
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// Writes [`to_scale_json`] to `path`. I/O errors are reported, not
/// fatal — a read-only checkout must not fail a bench run.
pub(crate) fn write_scale_json(path: &Path, engine: &str, cells: &[ScaleCell]) {
    match std::fs::write(path, to_scale_json(engine, cells)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_returns_outcomes_in_order() {
        use rbcast_core::ProtocolKind;
        let experiments: Vec<Experiment> = (1..=2)
            .map(|r| Experiment::new(r, ProtocolKind::Flood))
            .collect();
        let rows = run_sweep("test/order", &experiments);
        assert_eq!(rows.len(), 2);
        assert!(rows.fully_healthy());
        let serial = engine::run_experiments(&experiments, 1);
        let healthy: Vec<Outcome> = rows.iter().flatten().cloned().collect();
        assert_eq!(healthy, serial);
        std::fs::remove_file(journal_path("test/order")).ok();
    }

    fn cell(protocol: &str, side: usize, rounds: u32, wall_ms: f64) -> ScaleCell {
        ScaleCell {
            protocol: protocol.to_string(),
            side,
            nodes: side * side,
            rounds,
            deliveries: 40,
            messages: 10,
            wall_ms,
            peak_rss_kb: Some(2048),
        }
    }

    #[test]
    fn scale_json_shape_is_stable_and_rates_are_derived() {
        let cells = [
            cell("flood", 100, 54, 500.0),
            cell("cpa", 1000, 510, 2000.0),
        ];
        let j = to_scale_json("sparse", &cells);
        assert!(j.contains("\"schema\": \"rbcast-bench-scale/v2\""));
        assert!(j.contains("\"engine\": \"sparse\""));
        // 10 000 nodes in 0.5 s → 20 000 nodes/s; 54 rounds → 108 rounds/s
        assert!(j.contains(
            "\"protocol\": \"flood\", \"side\": 100, \"nodes\": 10000, \
             \"rounds\": 54, \"deliveries\": 40, \"messages\": 10, \
             \"wall_ms\": 500.000, \"nodes_per_sec\": 20000.000, \
             \"rounds_per_sec\": 108.000, \"peak_rss_kb\": 2048"
        ));
        // an absent probe serialises as JSON null, not a sentinel
        let mut no_probe = cell("flood", 10, 5, 1.0);
        no_probe.peak_rss_kb = None;
        assert!(to_scale_json("dense", &[no_probe]).contains("\"peak_rss_kb\": null"));
        assert!(j.contains("\"nodes\": 1000000"));
        // the trailing observability blocks ride along
        assert!(j.contains("\"metrics\": {"));
        assert!(j.contains("\"timings\": {"));
        // byte-stable up to the live counter snapshots
        let stable = |s: &str| s.split("\"metrics\"").next().map(str::to_owned);
        assert_eq!(stable(&j), stable(&to_scale_json("sparse", &cells)));
    }

    #[test]
    fn peak_rss_probe_reports_a_plausible_value_on_procfs_platforms() {
        // On Linux the probe must succeed and report at least a few
        // hundred kB (the test binary alone maps more than that).
        // Elsewhere `None` is the documented answer.
        if std::path::Path::new("/proc/self/status").exists() {
            let kb = peak_rss_kb().expect("VmHWM present on procfs");
            assert!(kb > 100, "implausible peak RSS: {kb} kB");
        } else {
            assert_eq!(peak_rss_kb(), None);
        }
    }

    #[test]
    fn scale_rates_handle_zero_wall() {
        let c = cell("flood", 10, 5, 0.0);
        assert!(c.nodes_per_sec().abs() < 1e-12);
        assert!(c.rounds_per_sec().abs() < 1e-12);
    }

    #[test]
    fn journal_paths_flatten_labels_and_anchor_at_the_workspace_root() {
        let p = journal_path("thresh_byz/achievability");
        assert!(p.ends_with("results/journal/thresh_byz_achievability.jsonl"));
        assert!(p.is_absolute());
    }
}
