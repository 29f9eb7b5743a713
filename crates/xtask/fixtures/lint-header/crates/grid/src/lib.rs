//! Fixture: crate root missing the mandatory lint headers
//! (`#![forbid(unsafe_code)]`, `#![warn(missing_docs)]`).
//! `cargo xtask audit --root crates/xtask/fixtures/lint-header`
//! must exit non-zero with `lint-header` findings.

fn noop() {}
