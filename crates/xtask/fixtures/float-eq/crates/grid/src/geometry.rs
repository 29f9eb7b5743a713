//! Fixture: exact float comparison in geometry code.
//! `cargo xtask audit --root crates/xtask/fixtures/float-eq`
//! must exit non-zero with `float-eq` findings.

fn on_unit_circle(x: f64, y: f64) -> bool {
    x * x + y * y == 1.0
}

fn distinct_radius(r: f64, other: f64) -> bool {
    r != other
}
