//! Fixture: the out-of-workspace benchmark package is a caller too.

fn main() {
    println!("{}", alpha::from_benchmark() + beta::relay(&alpha::Gauge::default()));
}
