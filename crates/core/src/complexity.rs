//! Closed-form message-complexity predictions, validated against the
//! simulator.
//!
//! The paper motivates the simplified protocol by communication overhead
//! ("localizes the circulation of indirect reports, and thus reduces
//! communication overhead"); this module quantifies that claim. For a
//! fault-free broadcast on an `n`-node torus with neighborhood size
//! `d = |nbd|`:
//!
//! | protocol | local broadcasts | reason |
//! |----------|------------------|--------|
//! | flood (§VII) | `n` | every node re-broadcasts once |
//! | CPA (§IX) | `n` | every node announces its commit once |
//! | simplified (§VI-B) | `n·(1 + d)` | one commit announcement + one `HEARD` per neighbor announcement observed |
//! | full (§VI) | measured | relaying is data-dependent (chains ≤ 3 relays, box-pruned, dominance-pruned) |
//!
//! The full protocol's volume is bounded above by `n·(1 + d + d·c₂ + d·c₂·c₃)`
//! with `cᵢ` the box-constrained relay branching — measured empirically
//! rather than predicted exactly.

use crate::{Experiment, ProtocolKind};
use rbcast_grid::{Metric, Torus};

/// Exact predicted number of local broadcasts for a *fault-free* run of
/// `kind` on `torus` (L∞ or L2), or `None` when the volume is
/// data-dependent (the full indirect protocol).
#[must_use]
fn predicted_broadcasts(kind: ProtocolKind, torus: &Torus, r: u32, metric: Metric) -> Option<u64> {
    let n = torus.len() as u64;
    let d = metric.neighborhood_size(r) as u64;
    match kind {
        ProtocolKind::Flood | ProtocolKind::Cpa => Some(n),
        ProtocolKind::PersistentFlood { repeats } => Some(n * u64::from(repeats)),
        ProtocolKind::IndirectSimplified => Some(n * (1 + d)),
        ProtocolKind::IndirectFull | ProtocolKind::IndirectCustom(_) => None,
    }
}

/// One row of the complexity table: prediction vs measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexityRow {
    /// Protocol.
    pub protocol: &'static str,
    /// Node count.
    pub n: usize,
    /// Predicted broadcasts (`None` = data-dependent).
    pub predicted: Option<u64>,
    /// Measured broadcasts.
    pub measured: u64,
}

/// One fault-free run of `kind` at radius `r` on `Torus::for_radius(r)`
/// (L∞), counted to quiescence: predicted vs measured broadcasts.
///
/// # Panics
///
/// Panics if the fault-free broadcast does not reach every node.
#[must_use]
pub fn row(r: u32, kind: ProtocolKind) -> ComplexityRow {
    let torus = Torus::for_radius(r);
    // Complexity counts every broadcast until quiescence, including the
    // tail after all nodes have decided (persistent flood keeps
    // re-transmitting there) — so the run may not stop early.
    let o = Experiment::new(r, kind).with_early_termination(false).run();
    assert!(o.all_honest_correct(), "{}: {o}", kind.name());
    ComplexityRow {
        protocol: kind.name(),
        n: torus.len(),
        predicted: predicted_broadcasts(kind, &torus, r, Metric::Linf),
        measured: o.stats.messages_sent,
    }
}

/// Runs every protocol fault-free at radius `r` and tabulates predicted
/// vs measured broadcast counts.
#[must_use]
pub fn table(r: u32) -> Vec<ComplexityRow> {
    [
        ProtocolKind::Flood,
        ProtocolKind::Cpa,
        ProtocolKind::IndirectSimplified,
        ProtocolKind::IndirectFull,
    ]
    .into_iter()
    .map(|kind| row(r, kind))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_and_cpa_are_linear() {
        let rows = table(1);
        let n = rows[0].n as u64;
        for row in &rows[..2] {
            assert_eq!(row.predicted, Some(n), "{}", row.protocol);
            assert_eq!(row.measured, n, "{}", row.protocol);
        }
    }

    #[test]
    fn simplified_prediction_is_exact() {
        // checked directly (without the full-protocol rows of `table`,
        // which are slow in debug builds) for r = 1 and 2
        for r in 1..=2u32 {
            let row = row(r, ProtocolKind::IndirectSimplified);
            assert_eq!(Some(row.measured), row.predicted, "r={r}");
            let expect = (row.n as u64) * u64::from((2 * r + 1) * (2 * r + 1));
            assert_eq!(row.measured, expect);
        }
    }

    #[test]
    fn full_protocol_dominates_simplified() {
        let rows = table(1);
        let simplified = rows
            .iter()
            .find(|row| row.protocol == "indirect-simplified")
            .unwrap()
            .measured;
        let full = rows
            .iter()
            .find(|row| row.protocol == "indirect-full")
            .unwrap()
            .measured;
        assert!(full > 3 * simplified, "full={full} simplified={simplified}");
    }

    #[test]
    fn persistent_flood_scales_with_repeats() {
        let torus = Torus::for_radius(1);
        let p3 = predicted_broadcasts(
            ProtocolKind::PersistentFlood { repeats: 3 },
            &torus,
            1,
            Metric::Linf,
        );
        assert_eq!(p3, Some(3 * torus.len() as u64));
        let o = Experiment::new(1, ProtocolKind::PersistentFlood { repeats: 3 })
            .with_early_termination(false)
            .run();
        assert_eq!(Some(o.stats.messages_sent), p3);
    }

    #[test]
    fn l2_neighborhoods_shrink_the_simplified_volume() {
        let torus = Torus::for_radius(2);
        let linf = predicted_broadcasts(ProtocolKind::IndirectSimplified, &torus, 2, Metric::Linf);
        let l2 = predicted_broadcasts(ProtocolKind::IndirectSimplified, &torus, 2, Metric::L2);
        assert!(l2 < linf);
    }
}
