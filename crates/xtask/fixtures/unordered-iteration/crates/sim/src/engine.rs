//! Fixture: HashMap/HashSet iteration in an order-sensitive crate.
//! `cargo xtask audit --root crates/xtask/fixtures/unordered-iteration`
//! must exit non-zero with `unordered-iteration` findings.

use std::collections::{HashMap, HashSet};

fn tally(events: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for &(node, _) in events {
        *counts.entry(node).or_insert(0) += 1;
        seen.insert(node);
    }
    // Nondeterministic drain order: exactly what the rule forbids.
    counts.into_iter().collect()
}
