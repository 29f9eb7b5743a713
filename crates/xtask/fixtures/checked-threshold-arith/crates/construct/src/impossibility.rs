//! Fixture: unchecked multiplication on fault-bound quantities inside a
//! threshold module. `cargo xtask audit --root
//! crates/xtask/fixtures/checked-threshold-arith` must exit non-zero
//! with `checked-threshold-arith` findings.

fn naive_bound(r: u32) -> u32 {
    2 * r * r / 3
}

fn widened_bound(r: u32) -> u64 {
    let r = u64::from(r);
    2 * r * r / 3
}

fn checked_bound(r: u32) -> Option<u32> {
    r.checked_mul(r)?.checked_mul(2).map(|x| x / 3)
}
