//! Fixture: raw process-environment read outside the config layer.
//! `cargo xtask audit --root crates/xtask/fixtures/env-read` must exit
//! non-zero with `env-read` findings.

fn threads() -> usize {
    std::env::var("RBCAST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn chaos_seed() -> Option<std::ffi::OsString> {
    std::env::var_os("RBCAST_CHAOS")
}
