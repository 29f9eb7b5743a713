//! Deterministic observability: structured trace events, a process-wide
//! metrics registry, and scoped wall-clock timing.
//!
//! Three strictly separated pieces:
//!
//! 1. **Event traces** — re-exported from [`rbcast_sim::trace`]: the
//!    typed stream a [`rbcast_sim::Network`] emits (round boundaries,
//!    transmissions, deliveries, jams, losses, decisions, protocol
//!    notes). Event payloads are pure functions of simulation state, so
//!    serialized streams are byte-identical across worker-thread counts,
//!    and the legacy FNV delivery-trace hash is derived from the stream
//!    by construction ([`replay_hash`] re-derives it).
//! 2. **Metrics** — named monotonic [`Counter`]s ([`counter`]),
//!    snapshotted by [`metrics_snapshot`]. Counters aggregate across
//!    threads with commutative atomics, so totals are deterministic for
//!    a fixed workload even though increment order is not.
//! 3. **Timing** — scoped wall-clock spans (`span`) and stopwatches
//!    ([`Stopwatch`]), aggregated by [`timings_snapshot`]. This is the
//!    *only* module in the workspace allowed to read the wall clock
//!    (`cargo xtask audit` rule `obs-wallclock`); timing never feeds
//!    anything hashed, journaled, or compared for determinism.

pub use rbcast_sim::trace::{
    fold_words, replay_hash, JsonlSink, MemorySink, TraceEvent, TraceSink,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A registered monotonic counter. Cheap to copy; increments are
/// relaxed atomics, safe from any thread.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub(crate) fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

static COUNTERS: Mutex<BTreeMap<&'static str, &'static AtomicU64>> = Mutex::new(BTreeMap::new());

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Registry state is a bag of atomics / plain sums — never left
    // inconsistent by a panicking holder, so poisoning is ignorable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the counter registered under `name`, creating it (at zero)
/// on first use. Call sites should cache the returned handle (e.g. in a
/// `OnceLock`) so the registry lock is not taken per increment.
pub fn counter(name: &'static str) -> Counter {
    let mut map = lock_ignoring_poison(&COUNTERS);
    let slot = map
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
    Counter(slot)
}

/// A point-in-time reading of every registered counter, sorted by name,
/// plus the bridged counters of crates below the observability layer
/// (currently `flow/augmentations` and `flow/min-cuts` from
/// [`rbcast_flow::stats`]).
#[must_use]
pub fn metrics_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = lock_ignoring_poison(&COUNTERS)
        .iter()
        .map(|(name, v)| ((*name).to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let bridged = [
        (
            "flow/augmentations",
            rbcast_flow::stats::augmentations_total(),
        ),
        ("flow/min-cuts", rbcast_flow::stats::min_cuts_total()),
    ];
    for (key, value) in bridged {
        match out.binary_search_by(|(n, _)| n.as_str().cmp(key)) {
            Ok(i) => out[i].1 += value,
            Err(i) => out.insert(i, (key.to_string(), value)),
        }
    }
    out
}

/// Aggregated wall-clock statistics of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Total elapsed nanoseconds across them.
    pub total_ns: u64,
}

impl SpanStat {
    /// Total elapsed milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1_000_000.0
    }

    /// Mean elapsed milliseconds per span (0 when no spans completed).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms() / self.count as f64
        }
    }
}

static TIMINGS: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

/// A scoped wall-clock timer: measures from `span` until drop, then
/// folds the elapsed time into the per-name aggregate.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos();
        let elapsed = u64::try_from(elapsed).unwrap_or(u64::MAX);
        let mut map = lock_ignoring_poison(&TIMINGS);
        let stat = map.entry(self.name).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed);
    }
}

/// Opens a scoped timer under `name` (convention: `"area/operation"`,
/// e.g. `"flow/dinic"`, `"sweep/task"`). The measurement ends when the
/// returned guard drops.
#[must_use = "a span measures until dropped; binding it to _ ends it immediately"]
pub(crate) fn span(name: &'static str) -> Span {
    Span {
        name,
        start: Instant::now(), // audit:allow(wall-clock) obs is the sanctioned timing module
    }
}

/// A point-in-time reading of every span aggregate, sorted by name.
#[must_use]
pub fn timings_snapshot() -> Vec<(String, SpanStat)> {
    lock_ignoring_poison(&TIMINGS)
        .iter()
        .map(|(name, stat)| ((*name).to_string(), *stat))
        .collect()
}

/// A free-standing wall-clock stopwatch for callers that need the
/// elapsed value itself (e.g. the bench harness's sweep timings) rather
/// than a named aggregate. Keeps `Instant` confined to this module.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now()) // audit:allow(wall-clock) obs is the sanctioned timing module
    }

    /// Elapsed milliseconds since start.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1_000.0
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name_and_monotonic() {
        let a = counter("test/obs_counter_shared");
        let b = counter("test/obs_counter_shared");
        let before = a.get();
        a.add(2);
        b.incr();
        assert_eq!(a.get(), before + 3);
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn snapshot_is_sorted_and_contains_registered_names() {
        counter("test/obs_snapshot_a").incr();
        counter("test/obs_snapshot_b").incr();
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        assert!(names.contains(&"test/obs_snapshot_a"));
        assert!(names.contains(&"test/obs_snapshot_b"));
        assert!(names.contains(&"flow/augmentations"));
    }

    #[test]
    fn spans_aggregate_per_name() {
        {
            let _s = span("test/obs_span");
        }
        {
            let _s = span("test/obs_span");
        }
        let snap = timings_snapshot();
        let stat = snap
            .iter()
            .find(|(n, _)| n == "test/obs_span")
            .map(|(_, s)| *s)
            .expect("span recorded");
        assert!(stat.count >= 2);
        assert!(stat.mean_ms() >= 0.0);
    }

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        let first = sw.elapsed_ms();
        assert!(first >= 0.0);
        assert!(sw.elapsed_ms() >= first);
    }
}
