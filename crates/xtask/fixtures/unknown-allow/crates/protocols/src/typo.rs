//! Fixture: an annotation naming no known rule.
//! `cargo xtask audit --root crates/xtask/fixtures/unknown-allow` must
//! exit non-zero with `unknown-allow` findings.

fn relay_count(n: u32) -> u32 {
    n + 1 // audit:allow(pancake)
}
