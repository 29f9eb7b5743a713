//! Fixture: ad-hoc threads outside the engine module.
//! `cargo xtask audit --root crates/xtask/fixtures/raw-thread-spawn`
//! must exit non-zero with `raw-thread-spawn` findings.

/// Fans work out by hand instead of going through
/// `rbcast_core::engine::run_indexed` — result order then depends on
/// thread scheduling, which is exactly what the rule forbids.
fn fan_out(tasks: Vec<u64>) -> Vec<u64> {
    let mut handles = Vec::new();
    for task in tasks {
        handles.push(std::thread::spawn(move || task * 2));
    }
    let mut out = Vec::new();
    std::thread::scope(|_s| {});
    for h in handles {
        if let Ok(v) = h.join() {
            out.push(v);
        }
    }
    out
}
