//! Process-wide instrumentation counters.
//!
//! The flow crate sits below the observability layer
//! (`rbcast-core::obs`), so it cannot register counters there directly;
//! instead it maintains its own monotonic atomics, which the registry
//! reads when taking a metrics snapshot. The counters are diagnostics
//! only — nothing deterministic (hashes, journals, outcomes) may read
//! them.

use std::sync::atomic::{AtomicU64, Ordering};

static AUGMENTATIONS: AtomicU64 = AtomicU64::new(0);
static MIN_CUTS: AtomicU64 = AtomicU64::new(0);
static BUDGET_CUTS: AtomicU64 = AtomicU64::new(0);
static INSTANCE_CUTS: AtomicU64 = AtomicU64::new(0);
static PACK_QUERIES: AtomicU64 = AtomicU64::new(0);

/// Records one augmenting path routed by Dinic's algorithm.
pub(crate) fn count_augmentation() {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    AUGMENTATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Total augmenting paths routed by [`crate::FlowNetwork`] since process
/// start, across all threads. Monotonic.
#[must_use]
pub fn augmentations_total() -> u64 {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    AUGMENTATIONS.load(Ordering::Relaxed)
}

/// Records one minimum-vertex-cut extraction.
pub(crate) fn count_min_cut() {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    MIN_CUTS.fetch_add(1, Ordering::Relaxed);
}

/// Total min-vertex-cut queries answered by
/// [`crate::try_min_vertex_cut`] since process start, across all
/// threads. Monotonic. The adversary search uses cut extraction as its
/// seeding primitive, so this counter tracks how hard a search leaned on
/// the flow machinery.
#[must_use]
pub fn min_cuts_total() -> u64 {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    MIN_CUTS.load(Ordering::Relaxed)
}

/// Records one packing search stopped by its branch-and-bound budget
/// short of its target.
pub(crate) fn count_budget_cut() {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    BUDGET_CUTS.fetch_add(1, Ordering::Relaxed);
}

/// Total [`crate::ChainPacker`] searches since process start, across all
/// threads, that spent their whole branch-and-bound budget without
/// reaching their target. Monotonic. Each one answered "not yet" where
/// a longer search might have answered "determined": a verdict the
/// budget, not the evidence, decided.
#[must_use]
pub fn budget_cuts_total() -> u64 {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    BUDGET_CUTS.load(Ordering::Relaxed)
}

/// Records one packing instance truncated to its shortest chains.
pub(crate) fn count_instance_cut() {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    INSTANCE_CUTS.fetch_add(1, Ordering::Relaxed);
}

/// Total [`crate::ChainPacker`] searches since process start, across all
/// threads, whose admitted chains exceeded the packer's instance cap and
/// were cut to the shortest. Monotonic. Like a budget cut, each one can
/// only have answered "not yet" where the whole instance might have
/// answered "determined".
#[must_use]
pub fn instance_cuts_total() -> u64 {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    INSTANCE_CUTS.load(Ordering::Relaxed)
}

/// Records one packing query.
pub(crate) fn count_pack_query() {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    PACK_QUERIES.fetch_add(1, Ordering::Relaxed);
}

/// Total [`crate::ChainPacker`] packing queries since process start,
/// across all threads: one per `max_disjoint_reusing` call, whatever it
/// answers. Monotonic. What a commit-rule evaluation spends on packing
/// is this count times the chains each query admits, so a filter that
/// answers "no" before packing shows here first.
#[must_use]
pub fn pack_queries_total() -> u64 {
    // audit:allow(atomic-ordering): monotone diagnostic counter, read only at snapshot
    PACK_QUERIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;

    #[test]
    fn augmentations_advance_with_flow() {
        let before = augmentations_total();
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 1, 1);
        assert_eq!(net.max_flow(0, 1), 2);
        // Other tests run concurrently, so only a lower bound is stable.
        assert!(augmentations_total() >= before + 2);
    }

    #[test]
    fn min_cut_queries_advance_counter() {
        let before = min_cuts_total();
        // path 0-1-2: the cut is {1}
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let cut = crate::try_min_vertex_cut(&adj, 0, 2)
            .expect("valid terminals")
            .expect("non-adjacent terminals");
        assert_eq!(cut, vec![1]);
        assert!(min_cuts_total() > before);
    }
}
