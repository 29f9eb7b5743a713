//! Run statistics.

use crate::Round;

/// Why a simulation run stopped — the single source of truth, covering
/// quiescence, early termination, the experiment's own round cap, and
/// the supervisor's cooperative deadline (see
/// [`crate::Network::set_round_budget`]). The legacy `quiescent`
/// boolean is a derived view: [`RunStats::quiescent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// Nothing remained on the air.
    #[default]
    Quiescent,
    /// Every node in the completion mask (the honest set) had decided
    /// and early termination was enabled.
    AllDecided,
    /// The experiment's own `max_rounds` cap was reached — a legitimate
    /// model outcome (e.g. partitioned runs idle forever).
    RoundCap,
    /// The supervisor's round budget was exhausted before the run could
    /// finish: the watchdog verdict for a runaway task.
    DeadlineExceeded,
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Rounds executed (a round exists only when messages were on the
    /// air).
    pub rounds: Round,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Total local broadcasts performed.
    pub messages_sent: u64,
    /// Total message deliveries (one per broadcast per alive receiver).
    pub deliveries: u64,
    /// Deliveries destroyed by channel loss (lossy channels only).
    pub lost_deliveries: u64,
    /// Deliveries destroyed by deliberate collisions (§X jamming).
    pub jammed_deliveries: u64,
    /// Transmissions destroyed by deliberate collisions — exactly the
    /// jam budget spent, since each assigned jam costs one unit of a
    /// jammer's battery.
    pub jammed_transmissions: u64,
}

impl RunStats {
    /// True when the run ended because nothing remained on the air;
    /// false when it stopped early or hit a cap. Derived from
    /// [`RunStats::stop_reason`].
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.stop_reason == StopReason::Quiescent
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} broadcasts, {} deliveries{}",
            self.rounds,
            self.messages_sent,
            self.deliveries,
            match self.stop_reason {
                StopReason::Quiescent => "",
                StopReason::AllDecided => " (stopped: all honest nodes decided)",
                StopReason::RoundCap => " (round cap hit)",
                StopReason::DeadlineExceeded => " (deadline: round budget exhausted)",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cap_when_not_quiescent() {
        let s = RunStats {
            rounds: 5,
            stop_reason: StopReason::RoundCap,
            messages_sent: 10,
            deliveries: 40,
            ..RunStats::default()
        };
        assert!(s.to_string().contains("round cap hit"));
        let q = RunStats {
            stop_reason: StopReason::Quiescent,
            ..s
        };
        assert!(!q.to_string().contains("round cap hit"));
        let e = RunStats {
            stop_reason: StopReason::AllDecided,
            ..s
        };
        assert!(e.to_string().contains("all honest nodes decided"));
        assert!(!e.to_string().contains("round cap hit"));
        let d = RunStats {
            stop_reason: StopReason::DeadlineExceeded,
            ..s
        };
        assert!(d.to_string().contains("round budget exhausted"));
    }

    #[test]
    fn booleans_are_pure_views_of_the_stop_reason() {
        let mut s = RunStats::default();
        let table = [
            (StopReason::Quiescent, true),
            (StopReason::AllDecided, false),
            (StopReason::RoundCap, false),
            (StopReason::DeadlineExceeded, false),
        ];
        for (reason, quiescent) in table {
            s.stop_reason = reason;
            assert_eq!(s.quiescent(), quiescent, "{reason:?}");
        }
    }

    #[test]
    fn default_stop_reason_is_quiescent() {
        assert_eq!(RunStats::default().stop_reason, StopReason::Quiescent);
    }

    #[test]
    fn default_is_empty_run() {
        let s = RunStats::default();
        assert_eq!(s.rounds, 0);
        assert_eq!(s.messages_sent, 0);
    }
}
