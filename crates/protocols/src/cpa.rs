//! The simple protocol of §IX — Koo's protocol, named the *Certified
//! Propagation Algorithm* (CPA) by Pelc & Peleg.
//!
//! Source neighbors commit on hearing the source directly; every other
//! node commits once `t+1` distinct neighbors have announced the same
//! committed value (at most `t` of which can be faulty, so at least one
//! honest vouch exists). Each node rebroadcasts its committed value once
//! and terminates. Theorem 6 proves this tolerates every `t ≤ ⅔·r²` in
//! the L∞ metric.

use crate::{Msg, ProtocolParams};
use rbcast_grid::NodeId;
use rbcast_sim::{Ctx, Process, Value};

/// CPA process state.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, NodeId, Torus};
/// use rbcast_protocols::{Cpa, Msg, ProtocolParams};
/// use rbcast_sim::Harness;
///
/// let torus = Torus::for_radius(1);
/// let me = torus.id(Coord::new(4, 4));
/// let params = ProtocolParams { source: torus.id(Coord::ORIGIN), value: true, t: 1 };
/// let mut cpa = Cpa::new(params);
/// let mut h = Harness::new(torus.clone(), 1, Metric::Linf, me);
/// // two distinct neighbors announce the same value: t+1 votes → commit
/// h.deliver(&mut cpa, torus.id(Coord::new(5, 4)), &Msg::Committed(true));
/// h.deliver(&mut cpa, torus.id(Coord::new(4, 5)), &Msg::Committed(true));
/// assert_eq!(h.decision(), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct Cpa {
    // Whether the node committed is whether it decided, which the host
    // keeps (`Ctx::has_decided`).
    /// Neighbors whose first announcement has been counted (later
    /// contradictions from a duplicitous neighbor are ignored, per §V —
    /// the value itself lives in `votes`). Membership only, kept sorted:
    /// at most (2r+1)² − 1 ids, so a binary search over one small
    /// allocation — freed at commit, when the rule stops reading it.
    announced: Vec<NodeId>,
    /// Votes per value from distinct neighbors: at most (2r+1)² − 1.
    votes: [u32; 2],
    source: NodeId,
    /// The fault budget, saturated at `u32::MAX`: no vote count reaches
    /// it there, as none reached the `usize` it was.
    t: u32,
    value: Value,
}

impl Cpa {
    /// Creates the process.
    #[must_use]
    pub fn new(params: ProtocolParams) -> Self {
        Cpa {
            announced: Vec::new(),
            votes: [0, 0],
            source: params.source,
            t: u32::try_from(params.t).unwrap_or(u32::MAX),
            value: params.value,
        }
    }

    /// Number of distinct neighbors that have announced `v`.
    #[cfg(test)]
    fn votes_for(&self, v: Value) -> usize {
        self.votes[usize::from(v)] as usize
    }

    fn commit(&mut self, ctx: &mut Ctx<'_, Msg>, v: Value) {
        if !ctx.has_decided() {
            // Trace the vote count behind the commit (0 when the commit
            // came straight from the source's own broadcast).
            ctx.note("commit-votes", u64::from(self.votes[usize::from(v)]));
            ctx.decide(v);
            // Only an uncommitted node reads who announced.
            self.announced = Vec::new();
            ctx.broadcast(Msg::Committed(v));
        }
    }
}

impl Process<Msg> for Cpa {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if ctx.id() == self.source {
            ctx.decide(self.value);
            ctx.broadcast(Msg::Source(self.value));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        match msg {
            Msg::Source(v) => {
                // Only the designated source can originate the broadcast
                // (identities cannot be spoofed, so `from` is authentic).
                if from == self.source {
                    self.commit(ctx, *v);
                }
            }
            Msg::Committed(v) => {
                if ctx.has_decided() {
                    return;
                }
                // First announcement per neighbor only.
                let Err(at) = self.announced.binary_search(&from) else {
                    return;
                };
                self.announced.insert(at, from);
                self.votes[usize::from(*v)] += 1;
                if self.votes[usize::from(*v)] > self.t {
                    self.commit(ctx, *v);
                }
            }
            // CPA ignores indirect reports entirely.
            Msg::Heard(_) => {}
        }
    }

    // CPA's commit rule fires inside `on_message`; with no deliveries
    // its state cannot change, so round-end polling is unnecessary.
    fn needs_round_end(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::{Coord, Metric, Torus};
    use rbcast_sim::Network;

    fn run_cpa(torus: &Torus, r: u32, t: usize, silent: &[NodeId]) -> Network<Msg> {
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t,
        };
        let silent = silent.to_vec();
        let mut net = Network::new(torus.clone(), r, Metric::Linf, move |id| {
            if silent.contains(&id) {
                crate::attackers::silent()
            } else {
                Box::new(Cpa::new(params)) as Box<dyn Process<Msg>>
            }
        });
        net.run(5_000);
        net
    }

    #[test]
    fn fault_free_cpa_completes_at_theorem6_budget() {
        for r in 1..=2u32 {
            let torus = Torus::for_radius(r);
            let t = rbcast_core::thresholds::cpa_guaranteed_t(r) as usize;
            let net = run_cpa(&torus, r, t, &[]);
            for id in torus.node_ids() {
                assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "r={r} {id}");
            }
        }
    }

    #[test]
    fn tolerates_theorem6_silent_cluster() {
        // r = 2: t = ⌊8/3⌋ = 2; a cluster of 2 silent faults on the
        // wavefront must not stop CPA.
        let r = 2;
        let torus = Torus::for_radius(r);
        let f = [torus.id(Coord::new(4, 0)), torus.id(Coord::new(4, 1))];
        let net = run_cpa(&torus, r, 2, &f);
        for id in torus.node_ids() {
            if !f.contains(&id) {
                assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "{id}");
            }
        }
    }

    #[test]
    fn votes_count_distinct_neighbors_only() {
        let params = ProtocolParams {
            source: NodeId(999_999),
            value: true,
            t: 2,
        };
        let mut cpa = Cpa::new(params);
        assert_eq!(cpa.votes_for(true), 0);
        // simulate two announcements from the same neighbor: only one
        // should count — exercised through the public run API in
        // `equivocating_neighbor_counts_once` below; here check initial
        // state invariants.
        assert!(cpa.announced.is_empty());
        cpa.votes[1] = 3;
        assert_eq!(cpa.votes_for(true), 3);
    }

    #[test]
    fn equivocating_neighbor_counts_once() {
        use rbcast_sim::Harness;
        let torus = Torus::for_radius(1);
        let me = torus.id(Coord::new(4, 4));
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t: 2,
        };
        let mut cpa = Cpa::new(params);
        let mut h = Harness::new(torus.clone(), 1, Metric::Linf, me);
        // Out of id order, so the sorted membership list inserts at the
        // front and in the middle, not only at the back.
        let [a, b, c] = [(4, 5), (3, 3), (5, 4)].map(|(x, y)| torus.id(Coord::new(x, y)));
        h.deliver(&mut cpa, a, &Msg::Committed(true));
        h.deliver(&mut cpa, a, &Msg::Committed(false)); // ignored: a already spoke
        h.deliver(&mut cpa, b, &Msg::Committed(false));
        h.deliver(&mut cpa, a, &Msg::Committed(true)); // ignored again
        assert_eq!((cpa.votes_for(true), cpa.votes_for(false)), (1, 1));
        h.deliver(&mut cpa, c, &Msg::Committed(true));
        h.deliver(&mut cpa, b, &Msg::Committed(true)); // ignored: b said `false`
        assert_eq!((cpa.votes_for(true), cpa.votes_for(false)), (2, 1));
        assert_eq!(h.decision(), None, "two votes do not beat t = 2");
        assert_eq!(cpa.announced, [b, c, a], "sorted by id");
        let d = torus.id(Coord::new(3, 4));
        h.deliver(&mut cpa, d, &Msg::Committed(true));
        assert_eq!(h.decision(), Some(true), "three votes beat t = 2");
        assert_eq!(
            cpa.announced.capacity(),
            0,
            "a committed node frees its list"
        );
        assert_eq!(h.drain_outbox(), [Msg::Committed(true)]);
        let e = torus.id(Coord::new(5, 5));
        h.deliver(&mut cpa, e, &Msg::Committed(true));
        assert!(h.drain_outbox().is_empty() && cpa.announced.capacity() == 0);
    }

    #[test]
    fn a_budget_past_u32_saturates_and_never_commits_on_votes() {
        let torus = Torus::for_radius(1);
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t: usize::MAX,
        };
        let mut cpa = Cpa::new(params);
        let me = torus.id(Coord::new(4, 4));
        let mut h = rbcast_sim::Harness::new(torus.clone(), 1, Metric::Linf, me);
        for from in torus.neighborhood(me, 1, Metric::Linf) {
            h.deliver(&mut cpa, from, &Msg::Committed(true));
        }
        assert_eq!(cpa.votes_for(true), 8);
        assert_eq!(h.decision(), None);
    }

    #[test]
    fn never_commits_wrong_value_under_liars() {
        // t liars per neighborhood pushing `false` cannot reach t+1 votes.
        let r = 2;
        let torus = Torus::for_radius(r);
        let t = 2;
        let liars = [torus.id(Coord::new(4, 0)), torus.id(Coord::new(5, 0))];
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t,
        };
        let mut net = Network::new(torus.clone(), r, Metric::Linf, move |id| {
            if liars.contains(&id) {
                crate::attackers::liar(false)
            } else {
                Box::new(Cpa::new(params)) as Box<dyn Process<Msg>>
            }
        });
        net.run(5_000);
        for id in torus.node_ids() {
            if !liars.contains(&id) {
                if let Some((v, _)) = net.decision(id) {
                    assert!(v, "{id} committed the liars' value");
                }
            }
        }
    }

    #[test]
    fn stalls_when_cluster_exceeds_its_guarantee() {
        // Pack a full wavefront neighborhood with silent faults far above
        // the CPA threshold: nodes beyond the wall starve. This documents
        // CPA's weakness relative to the indirect protocol rather than a
        // tight bound (CPA's exact empirical frontier is mapped in the
        // thresh_cpa experiment).
        let r = 2;
        let torus = Torus::for_radius(r); // 20x20
                                          // full-width vertical wall of silent nodes, 3 columns thick, away
                                          // from the source so its neighbors still commit
        let mut wall = Vec::new();
        for y in 0..torus.height() {
            for x in 7..10 {
                wall.push(torus.id(Coord::new(x, i64::from(y))));
            }
        }
        // mirror wall on the other side of the torus
        for y in 0..torus.height() {
            for x in 14..17 {
                wall.push(torus.id(Coord::new(x, i64::from(y))));
            }
        }
        let net = run_cpa(&torus, r, 2, &wall);
        // a node in the enclosed band never decides
        let starved = torus.id(Coord::new(12, 5));
        assert_eq!(net.decision(starved), None);
        // but source-side nodes do
        assert!(net.decision(torus.id(Coord::new(1, 0))).is_some());
    }
}
