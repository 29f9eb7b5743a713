//! Fixture: entropy / wall-clock nondeterminism outside seeded entry
//! points. `cargo xtask audit --root crates/xtask/fixtures/nondeterminism`
//! must exit non-zero with `nondeterminism` findings.

use std::time::Instant;

fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rng.next_u64()
}

fn stamp() -> Instant {
    // The annotation keeps this fixture firing only its own rule.
    Instant::now() // audit:allow(obs-wallclock)
}
