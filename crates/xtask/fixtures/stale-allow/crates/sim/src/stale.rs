//! Fixture: annotations that no longer suppress anything.
//! `cargo xtask audit --root crates/xtask/fixtures/stale-allow` must
//! exit non-zero with `stale-allow` findings.

fn sum(values: &[u64]) -> u64 {
    let mut acc = 0; // audit:allow(hot-loop-alloc)
    for v in values {
        acc += v;
    }
    acc
}

// audit:allow(panic) rationale not introduced by a colon never attaches
fn double(n: u64) -> u64 {
    n + n
}
