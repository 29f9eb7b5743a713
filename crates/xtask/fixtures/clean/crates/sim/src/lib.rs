//! Fixture: a file every rule should accept — lint headers present,
//! ordered collections in live code, `expect` with an invariant message,
//! annotated measurement site, and unordered collections confined to
//! `#[cfg(test)]`. `cargo xtask audit --root crates/xtask/fixtures/clean`
//! must exit zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

/// Deterministic tally over a sorted map.
pub fn tally(events: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for &(node, _) in events {
        *counts.entry(node).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// `expect` with an invariant-naming message is the sanctioned escape.
pub fn head(values: &[u32]) -> u32 {
    *values
        .first()
        .expect("tally is never called with an empty event batch")
}

/// Annotated measurement-only wall-clock read.
pub fn measure<F: FnOnce()>(f: F) -> std::time::Duration {
    let t0 = std::time::Instant::now(); // audit:allow(obs-wallclock)
    f();
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hashmaps_are_fine_in_tests() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        assert_eq!(tally(&[(1, 2)]), vec![(1, 1)]);
    }
}
