//! Fixture: ad-hoc wall-clock reads outside `rbcast-core::obs`.
//! `cargo xtask audit --root crates/xtask/fixtures/obs-wallclock` must
//! exit non-zero with `obs-wallclock` findings (and only those — the
//! `wall-clock` annotations below keep `nondeterminism` quiet, and
//! `SystemTime` appears without `::now` so only the token rule sees it).

fn elapsed_ms<F: FnOnce()>(f: F) -> f64 {
    let t0 = std::time::Instant::now(); // audit:allow(wall-clock)
    f();
    t0.elapsed().as_secs_f64() * 1000.0
}

fn epoch() -> std::time::SystemTime {
    std::time::SystemTime::UNIX_EPOCH
}
