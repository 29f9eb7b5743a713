//! The config layer: the single sanctioned home for process-environment
//! reads.
//!
//! Every `RBCAST_*` knob flows through `env_var`, so the full set of
//! environment switches is discoverable from this module's callers and
//! the audit (`env-read` rule) can keep `std::env` out of the rest of
//! the workspace. Knob *names* stay with the subsystem that owns them
//! (`engine::THREADS_ENV`, the supervisor's chaos/retry variables);
//! only the raw read is centralised here.

/// Read one environment variable, `None` when unset or not valid UTF-8.
///
/// An unset knob and an invalid-unicode knob are deliberately collapsed:
/// callers treat both as "not configured" and apply their own defaults
/// and parse-failure diagnostics.
#[must_use]
pub(crate) fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_variable_reads_as_none() {
        assert_eq!(env_var("RBCAST_DEFINITELY_UNSET_KNOB_XYZZY"), None);
    }

    #[test]
    fn set_variable_reads_back() {
        // Safe single-threaded mutation is not guaranteed under the test
        // harness, so probe with a variable this process inherited: PATH
        // exists in every CI and dev environment we run under.
        if std::env::var_os("PATH").is_some() {
            assert!(env_var("PATH").is_some());
        }
    }
}
