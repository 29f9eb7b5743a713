//! Fixture: the library crate `beta`, a second package calling into
//! `alpha`.

pub use alpha::reexported_only;

/// Calls into `alpha`; `alpha::mentioned_only` in this comment is not
/// a call.
pub fn relay(gauge: &alpha::Gauge) -> u32 {
    let label = "alpha::mentioned_only()";
    alpha::called_by_beta() + alpha::LIMIT + gauge.read() + label.len() as u32
}
