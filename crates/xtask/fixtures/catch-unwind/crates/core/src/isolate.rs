//! Fixture: ad-hoc panic swallowing outside the supervisor module.
//! `cargo xtask audit --root crates/xtask/fixtures/catch-unwind`
//! must exit non-zero with `catch-unwind` findings.

/// Catches a worker's panic in place instead of routing the task
/// through `rbcast_core::supervisor` — the failure never reaches the
/// quarantine report or the checkpoint journal, which is exactly what
/// the rule forbids.
fn run_quietly(f: impl FnOnce() -> u64 + std::panic::UnwindSafe) -> Option<u64> {
    std::panic::catch_unwind(f).ok()
}
