//! Fixture: entropy nondeterminism outside seeded entry points; `cargo
//! xtask audit --root …/nondeterminism` must exit non-zero with its
//! findings. `stamp`'s clock read is `obs-wallclock`'s alone.

use std::time::Instant;

fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rng.next_u64()
}

fn stamp() -> Instant {
    // The annotation keeps this fixture firing only its own rule.
    Instant::now() // audit:allow(obs-wallclock)
}
