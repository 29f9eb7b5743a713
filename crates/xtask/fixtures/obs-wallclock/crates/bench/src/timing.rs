//! Fixture: ad-hoc wall-clock reads outside `rbcast-core::obs`.
//! `cargo xtask audit --root crates/xtask/fixtures/obs-wallclock` must
//! exit non-zero with `obs-wallclock` findings (and only those: a clock
//! read is obs-wallclock's alone, and `SystemTime` appears without
//! `::now` as well, which only this rule's bare-type sequence sees).

fn elapsed_ms<F: FnOnce()>(f: F) -> f64 {
    let t0 = std::time::Instant::now(); // obs-wallclock fires here, and no other rule
    f();
    t0.elapsed().as_secs_f64() * 1000.0
}

fn epoch() -> std::time::SystemTime {
    std::time::SystemTime::UNIX_EPOCH
}
