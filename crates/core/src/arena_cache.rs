//! Process-wide cache of shared topology arenas.
//!
//! A sweep runs hundreds of experiments over a handful of distinct
//! geometries. Each run needs a [`NeighborTable`], and building one is
//! the single most expensive part of network construction — so tables
//! are interned here, keyed by `(torus dims, r, metric)`, and handed out
//! as `Arc`s. The registry holds only [`Weak`] references: it never
//! keeps a table alive by itself. Callers that want "built once per
//! sweep" semantics (the engine does) hold a strong guard for the
//! sweep's duration.
//!
//! Sharing is sound because a [`NeighborTable`] is immutable after
//! construction and fully determined by its key — two experiments with
//! the same key would build byte-identical tables, so handing both the
//! same `Arc` cannot change any outcome or trace hash.

use rbcast_grid::{ArenaError, Metric, NeighborTable, Torus};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

// Cache traffic is reported through the metrics registry as
// `arena/hits` / `arena/misses` (diagnostics only — totals never feed
// anything hashed or journaled).

/// `(width, height, radius, metric tag)` — `Metric` is not `Ord`, so it
/// is encoded as a stable discriminant.
type Key = (u32, u32, u32, u8);

fn metric_tag(metric: Metric) -> u8 {
    match metric {
        Metric::Linf => 0,
        Metric::L2 => 1,
    }
}

fn registry() -> &'static Mutex<BTreeMap<Key, Weak<NeighborTable>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<Key, Weak<NeighborTable>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The shared arena for `(torus, r, metric)`: returns the live cached
/// table if one exists, otherwise builds, caches, and returns it.
///
/// # Errors
///
/// As [`NeighborTable::try_build`]: an arena too large to index or to
/// allocate.
///
/// # Panics
///
/// Panics if the torus cannot host the radius (see
/// [`NeighborTable::build`]).
pub(crate) fn shared(
    torus: &Torus,
    r: u32,
    metric: Metric,
) -> Result<Arc<NeighborTable>, ArenaError> {
    static HITS: OnceLock<crate::obs::Counter> = OnceLock::new();
    static MISSES: OnceLock<crate::obs::Counter> = OnceLock::new();
    let key = (torus.width(), torus.height(), r, metric_tag(metric));
    // Tables are immutable, so a panic while holding the lock cannot
    // leave entries half-written — recover rather than propagate.
    let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(table) = map.get(&key).and_then(Weak::upgrade) {
        HITS.get_or_init(|| crate::obs::counter("arena/hits"))
            .incr();
        return Ok(table);
    }
    MISSES
        .get_or_init(|| crate::obs::counter("arena/misses"))
        .incr();
    let built = Arc::new(NeighborTable::try_build(torus, r, metric)?);
    map.retain(|_, w| w.strong_count() > 0);
    map.insert(key, Arc::downgrade(&built));
    Ok(built)
}

/// Drops `table` and then every registry entry whose table is gone. A
/// dead entry's `Weak` keeps the table's `Arc` allocation alive, and
/// where that chunk lands decides whether the allocator can trim the
/// heap once a run has freed everything else — so the run that drops
/// the last strong reference takes the entry with it.
pub(crate) fn release(table: Arc<NeighborTable>) {
    drop(table);
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|_, w| w.strong_count() > 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_yields_the_same_table() {
        let torus = Torus::for_radius(1);
        let a = shared(&torus, 1, Metric::Linf).expect("a small arena");
        let b = shared(&torus, 1, Metric::Linf).expect("a small arena");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_keys_yield_distinct_tables() {
        let torus = Torus::for_radius(2);
        let a = shared(&torus, 1, Metric::Linf).expect("a small arena");
        let b = shared(&torus, 2, Metric::Linf).expect("a small arena");
        let c = shared(&torus, 1, Metric::L2).expect("a small arena");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(b.radius(), 2);
        assert_eq!(c.metric(), Metric::L2);
    }

    #[test]
    fn cache_traffic_is_counted() {
        let hits = crate::obs::counter("arena/hits");
        let misses = crate::obs::counter("arena/misses");
        let (h0, m0) = (hits.get(), misses.get());
        // A geometry no other test uses: the first request must miss,
        // the second (while the first guard is alive) must hit.
        let torus = Torus::new(21, 21);
        let a = shared(&torus, 1, Metric::L2).expect("a small arena");
        let _b = shared(&torus, 1, Metric::L2).expect("a small arena");
        drop(a);
        // Counters are process-global and tests run concurrently, so
        // only lower bounds are stable.
        assert!(misses.get() > m0, "first build must count as a miss");
        assert!(hits.get() > h0, "second lookup must count as a hit");
    }

    #[test]
    fn dropped_tables_are_rebuilt_not_leaked() {
        let torus = Torus::new(25, 25);
        let first = shared(&torus, 3, Metric::L2).expect("a small arena");
        let ptr = Arc::as_ptr(&first);
        drop(first);
        // The weak entry is dead; a fresh request builds a new table.
        let second = shared(&torus, 3, Metric::L2).expect("a small arena");
        // Can't assert pointer inequality (the allocator may reuse the
        // address) — but the table must be valid and correctly keyed.
        let _ = ptr;
        assert_eq!(second.radius(), 3);
        assert_eq!(second.len(), 625);
    }

    #[test]
    fn a_finished_experiment_leaves_no_registry_entry() {
        // A geometry no other test uses.
        let torus = Torus::new(27, 27);
        let key = (27, 27, 2, metric_tag(Metric::L2));
        let registered = || {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .contains_key(&key)
        };
        let experiment = crate::Experiment::new(2, crate::ProtocolKind::Flood)
            .with_torus(torus)
            .with_metric(Metric::L2);
        let guard = experiment.arena_guard().expect("a small arena");
        assert!(registered());
        assert!(experiment.run().all_honest_correct());
        assert!(registered(), "a live guard keeps its entry");
        release(guard);
        assert!(!registered(), "the last release prunes the entry");
        assert!(experiment.run().all_honest_correct());
        assert!(
            !registered(),
            "a run that held the last reference prunes it"
        );
    }
}
