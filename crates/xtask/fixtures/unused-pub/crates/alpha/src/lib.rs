//! Fixture: the library crate `alpha`, whose `pub` items `unused-pub`
//! judges by the callers it finds in `beta`, in `alpha`'s tests, in
//! `benchmark/` and in doctests.
//!
//! ```
//! assert_eq!(alpha::doc_only(), 3);
//! ```
//!
//! ```text
//! alpha::text_block_only()
//! ```

/// Called from `beta`: clean.
pub fn called_by_beta() -> u32 {
    LIMIT + uncalled()
}

/// Named nowhere outside this crate: a finding.
pub fn uncalled() -> u32 {
    1
}

/// Named outside this crate only in `beta`'s comments and strings: a
/// finding.
pub fn mentioned_only() -> u32 {
    2
}

/// Used only by the doctest at the top of this file: clean.
pub fn doc_only() -> u32 {
    3
}

/// Named only in a ```text block, which rustdoc does not compile: a
/// finding.
pub fn text_block_only() -> u32 {
    4
}

/// Called from `crates/alpha/tests/`: clean.
pub fn from_tests() -> u32 {
    5
}

/// Called from `benchmark/`: clean.
pub fn from_benchmark() -> u32 {
    6
}

/// Reached outside this crate only through `beta`'s `pub use`: a
/// finding.
pub fn reexported_only() -> u32 {
    7
}

/// Read by `beta`: clean.
pub const LIMIT: u32 = 8;

/// Never read outside this crate: a finding.
pub static UNREAD: u32 = 9;

/// A type whose inherent methods are judged like free functions.
#[derive(Default)]
pub struct Gauge(u32);

impl Gauge {
    /// Called from `beta`: clean.
    pub fn read(&self) -> u32 {
        self.0
    }

    /// Named nowhere outside this crate: a finding.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// Crate-private: not the rule's business.
    pub(crate) fn bump(&mut self) {
        self.0 += 1;
    }
}

#[cfg(test)]
mod tests {
    /// Test-only helpers are not library surface.
    pub fn helper() -> u32 {
        super::uncalled()
    }
}
