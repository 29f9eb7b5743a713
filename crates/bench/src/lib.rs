//! Experiment runner regenerating every table and figure of the paper.
//!
//! One binary over one table: [`experiments::EXPERIMENTS`] maps each
//! experiment id (see EXPERIMENTS.md) to the function that prints its
//! rows and records its verdicts. An experiment's stdout is its result —
//! deterministic, archived under `results/` and compared by CI — so
//! anything wall-clock or host-dependent goes to stderr. This library
//! holds the shared report formatting and verdict bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rbcast_core::Outcome;

pub mod experiments;
pub mod perf;

/// How much of an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Everything EXPERIMENTS.md quotes.
    Full,
    /// `--smoke`: the seconds-scale slice CI gates for the experiments
    /// that are too slow at full size. Most experiments ignore it.
    Smoke,
}

/// Prints a section header.
fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints a table rule sized to `width`.
fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints a PASS/FAIL verdict line (also used by EXPERIMENTS.md).
fn verdict(label: &str, ok: bool) {
    println!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
}

/// Tracks an overall exit status across verdicts.
#[derive(Debug, Default)]
pub struct Verdicts {
    failures: usize,
    skipped: usize,
    total: usize,
}

impl Verdicts {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Verdicts::default()
    }

    /// Records and prints one verdict.
    fn check(&mut self, label: &str, ok: bool) {
        verdict(label, ok);
        self.total += 1;
        if !ok {
            self.failures += 1;
        }
    }

    /// Records and prints a check that could not run because every input
    /// it needed was quarantined by the sweep supervisor. A skip is
    /// visible but not a failure: the quarantine report already carries
    /// the underlying errors, and failing the run on top of it would
    /// turn graceful degradation back into all-or-nothing.
    fn skip(&mut self, label: &str) {
        println!("[SKIP] {label} (inputs quarantined)");
        self.total += 1;
        self.skipped += 1;
    }

    /// Settles `label` over a slice of sweep rows: a [`check`] that `ok`
    /// holds for every outcome when all of them are healthy, a [`skip`]
    /// when the supervisor quarantined any.
    ///
    /// [`check`]: Verdicts::check
    /// [`skip`]: Verdicts::skip
    fn check_all(&mut self, label: &str, rows: &[Option<Outcome>], ok: impl Fn(&Outcome) -> bool) {
        if rows.iter().any(Option::is_none) {
            self.skip(label);
        } else {
            self.check(label, rows.iter().flatten().all(ok));
        }
    }

    /// Prints one table line per sweep row — `prefix(i)` followed by
    /// `cells(outcome)`, or by `(quarantined)` where the supervisor gave
    /// the task up — then settles `label` with [`check_all`].
    ///
    /// [`check_all`]: Verdicts::check_all
    fn check_rows(
        &mut self,
        label: &str,
        rows: &[Option<Outcome>],
        prefix: impl Fn(usize) -> String,
        cells: impl Fn(&Outcome) -> String,
        ok: impl Fn(&Outcome) -> bool,
    ) {
        for (i, row) in rows.iter().enumerate() {
            let cells = row
                .as_ref()
                .map_or_else(|| "(quarantined)".to_string(), &cells);
            println!("{}{cells}", prefix(i));
        }
        self.check_all(label, rows, ok);
    }

    /// Prints the summary; true when no check failed.
    #[must_use]
    pub fn finish(self) -> bool {
        println!();
        let note = if self.skipped > 0 {
            format!(" ({} skipped)", self.skipped)
        } else {
            String::new()
        };
        println!(
            "{}/{} checks passed{note}",
            self.total - self.failures - self.skipped,
            self.total
        );
        self.failures == 0
    }
}
