//! Fixture: unwrap/panic in library code.
//! `cargo xtask audit --root crates/xtask/fixtures/unwrap-panic`
//! must exit non-zero with `unwrap-panic` findings.

fn head(values: &[u32]) -> u32 {
    *values.first().unwrap()
}

fn must_be_even(n: u32) -> u32 {
    if n % 2 != 0 {
        panic!("odd input");
    }
    n / 2
}

fn guarded(n: u32) -> u32 {
    if n == 0 {
        // Prose that merely mentions audit:allow(panic) mid-sentence must
        // not suppress the next line — the old line-based audit did.
        panic!("zero input");
    }
    n
}
