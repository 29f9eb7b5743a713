//! The Bhandari–Vaidya indirect-report protocol (§VI) and its simplified
//! two-hop variant (§VI-B).
//!
//! Message flow:
//!
//! 1. the source locally broadcasts its value;
//! 2. source neighbors commit immediately and broadcast
//!    `COMMITTED(i, v)` once;
//! 3. every node relays commit reports as `HEARD(…)` chains, each relay
//!    affixing its identifier, up to `max_relays` hops (3 in the full
//!    protocol — reports travel four hops from the committer; 1 in the
//!    simplified protocol);
//! 4. nodes evaluate the commit rule ([`CommitRule`]) at round
//!    boundaries; on committing they broadcast `COMMITTED` once and keep
//!    relaying for the benefit of others.
//!
//! Relay hygiene (all checkable locally, faithful to the model):
//! a `HEARD` whose last affixed relay differs from the true transmitter
//! is proof of fault and is dropped; chains with repeated nodes are
//! degenerate and dropped; chains that no longer fit inside any single
//! neighborhood can never serve as evidence and are pruned ("earmarking
//! exact messages that a node should look out for", §VI).

use crate::chain::{ChainRepr, CHAIN_CAP};
use crate::evidence::{CommitRule, EvidenceStore, Geometry};
use crate::{Msg, ProtocolParams};
use rbcast_grid::{Coord, Metric, NodeId};
use rbcast_sim::{Ctx, Process, Value};

/// Configuration of the indirect-report protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectConfig {
    /// Maximum relays a report chain may accumulate (3 = full §VI
    /// protocol, 1 = simplified §VI-B protocol); [`Indirect::new`]
    /// clamps it to [`CHAIN_CAP`], the most a report can carry.
    pub max_relays: usize,
    /// The commit rule to evaluate.
    pub rule: CommitRule,
}

impl IndirectConfig {
    /// The full §VI protocol: four-hop reports, two-level rule.
    #[must_use]
    pub fn full() -> Self {
        IndirectConfig {
            max_relays: 3,
            rule: CommitRule::TwoLevel,
        }
    }

    /// The simplified §VI-B protocol: two-hop reports, one-level rule.
    #[must_use]
    pub fn simplified() -> Self {
        IndirectConfig {
            max_relays: 1,
            rule: CommitRule::OneLevel,
        }
    }
}

impl Default for IndirectConfig {
    fn default() -> Self {
        IndirectConfig::full()
    }
}

/// A node running the indirect-report protocol.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, Torus};
/// use rbcast_protocols::{Indirect, IndirectConfig, Msg, ProtocolParams};
/// use rbcast_sim::{Network, Process};
///
/// let torus = Torus::for_radius(1);
/// let params = ProtocolParams {
///     source: torus.id(Coord::ORIGIN),
///     value: true,
///     t: 1, // the exact maximum for r = 1 (Theorem 1)
/// };
/// let mut net = Network::new(torus.clone(), 1, Metric::Linf, |_| {
///     Box::new(Indirect::new(params, IndirectConfig::simplified()))
///         as Box<dyn Process<Msg>>
/// });
/// net.run(10_000);
/// assert!(torus
///     .node_ids()
///     .all(|id| net.decision(id).map(|(v, _)| v) == Some(true)));
/// ```
#[derive(Debug)]
pub struct Indirect {
    // Of the run's constants a node keeps only what its callbacks read:
    // `t` and the rule are the evidence store's from `new` on.
    source: NodeId,
    value: Value,
    /// [`IndirectConfig::max_relays`], at most [`CHAIN_CAP`].
    max_relays: u8,
    evidence: EvidenceStore,
    /// Neighbors whose first `COMMITTED` has been heard (§V: on
    /// contradiction, accept only the first — the value itself lives in
    /// the evidence store). Membership only, kept sorted: at most
    /// (2r+1)² − 1 ids, so a binary search over one small allocation.
    first_commit: Vec<NodeId>,
    committed: bool,
}

// Every node stores one of these, so its size is what bounds the
// networks a host can simulate.
const _: () = assert!(std::mem::size_of::<Indirect>() <= 112);

impl Indirect {
    /// Creates the process. A `config.max_relays` past [`CHAIN_CAP`]
    /// is [`CHAIN_CAP`]: no report can carry more relays, so a node
    /// must not try to extend a full one.
    #[must_use]
    pub fn new(params: ProtocolParams, config: IndirectConfig) -> Self {
        const CAP: u8 = CHAIN_CAP as u8;
        Indirect {
            source: params.source,
            value: params.value,
            max_relays: u8::try_from(config.max_relays).map_or(CAP, |m| m.min(CAP)),
            evidence: EvidenceStore::new(params.t, config.rule),
            first_commit: Vec::new(),
            committed: false,
        }
    }

    /// Read-only access to the evidence store.
    #[cfg(test)]
    fn evidence(&self) -> &EvidenceStore {
        &self.evidence
    }

    fn commit(&mut self, ctx: &mut Ctx<'_, Msg>, v: Value) {
        if !self.committed {
            self.committed = true;
            ctx.decide(v);
            // Free what the relay rule no longer reads before the
            // announcement allocates.
            self.evidence.retire(usize::from(self.max_relays));
            ctx.broadcast(Msg::Committed(v));
        }
    }

    /// Handles an observed commit announcement by `committer` (either a
    /// direct `COMMITTED`, or the source's initial broadcast which
    /// doubles as its commit announcement).
    fn observe_commit(&mut self, ctx: &mut Ctx<'_, Msg>, committer: NodeId, v: Value) {
        // First announcement per neighbor only (duplicity is detectable
        // on a broadcast channel; everyone keeps the first).
        let Err(at) = self.first_commit.binary_search(&committer) else {
            return;
        };
        self.first_commit.insert(at, committer);
        self.evidence.record_direct(committer, v);
        // Relay the report one hop, affixing our identifier.
        if self.max_relays >= 1 {
            ctx.broadcast(Msg::Heard(
                ChainRepr::direct(committer, v).extended(ctx.id()),
            ));
        }
    }

    /// Whether the chain (committer + relays) can still fit inside a
    /// single neighborhood — if not, it can never be evidence and is not
    /// worth storing — and whether it still does with us (at `me`, when
    /// given) affixed — if not, it is not worth relaying. Both verdicts
    /// come from one pass over the members.
    fn fits_single_neighborhood(
        ctx: &Ctx<'_, Msg>,
        committer: Coord,
        relays: &[NodeId],
        me: Option<Coord>,
    ) -> (bool, bool) {
        let torus = ctx.torus();
        let r = ctx.radius();
        let metric = ctx.metric();
        // Work in displacement space relative to the committer (chain
        // members are always within a few hops, far from the wrap seam).
        // Chains are bounded at CHAIN_CAP relays, so the member list
        // (origin + relays) lives on the stack.
        let mut members = [Coord::ORIGIN; CHAIN_CAP + 1];
        let mut n = 1;
        for &k in relays {
            members[n] = torus.displacement(committer, torus.coord(k));
            n += 1;
        }
        let members = &members[..n];
        let me = me.map(|me| torus.displacement(committer, me));
        match metric {
            Metric::Linf => {
                // A lattice center within r of every member exists iff the
                // bounding box spans at most 2r per axis.
                let (mut min_x, mut max_x, mut min_y, mut max_y) = (0i64, 0i64, 0i64, 0i64);
                for m in members {
                    min_x = min_x.min(m.x);
                    max_x = max_x.max(m.x);
                    min_y = min_y.min(m.y);
                    max_y = max_y.max(m.y);
                }
                let span = 2 * i64::from(r);
                let fits = max_x - min_x <= span && max_y - min_y <= span;
                let fits_with_me = me.is_some_and(|m| {
                    max_x.max(m.x) - min_x.min(m.x) <= span
                        && max_y.max(m.y) - min_y.min(m.y) <= span
                });
                (fits, fits_with_me)
            }
            Metric::L2 => {
                // Scan candidate centers within r of the committer.
                let ri = i64::from(r);
                let mut fits = false;
                for dy in -ri..=ri {
                    for dx in -ri..=ri {
                        let c = Coord::new(dx, dy);
                        if !metric.within(Coord::ORIGIN, c, r) {
                            continue;
                        }
                        if members.iter().all(|&m| metric.within(c, m, r)) {
                            fits = true;
                            match me {
                                None => return (true, false),
                                Some(m) if metric.within(c, m, r) => return (true, true),
                                Some(_) => {}
                            }
                        }
                    }
                }
                (fits, false)
            }
        }
    }
}

impl Process<Msg> for Indirect {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Bind the evidence store to this node's ball-local committer
        // frame, its only index: a chain is evidence only if it fits in
        // one radius-r ball with its last relay, our neighbour, so its
        // committer is within 3r of us. A store never bound would
        // record nothing and never commit.
        self.evidence.bind(ctx.arena(), ctx.coord());
        if ctx.id() == self.source {
            self.committed = true;
            ctx.decide(self.value);
            self.evidence.retire(usize::from(self.max_relays));
            // The source's initial broadcast doubles as its commit
            // announcement; neighbors treat it as COMMITTED(source, v).
            ctx.broadcast(Msg::Source(self.value));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        match msg {
            Msg::Source(v) => {
                if from != self.source {
                    return; // only the designated source originates
                }
                // Source neighbors commit immediately (base case).
                self.commit(ctx, *v);
                self.observe_commit(ctx, from, *v);
            }
            Msg::Committed(v) => {
                self.observe_commit(ctx, from, *v);
            }
            Msg::Heard(chain) => {
                // Once committed, a maximum-length chain is dead on
                // arrival: it cannot be forwarded (forwarding requires
                // `len < max_relays`) and recording it is unreadable
                // (`on_round_end` never evaluates again; the commit
                // notes fired at commit time). Skipping it cannot
                // perturb a later forwardable chain's novelty either —
                // dominance needs the dominator's relay set contained
                // in the other's, so a longer chain never dominates a
                // shorter one. Shorter chains still record below, since
                // their extensions may serve nodes yet to commit. In a
                // fault-free run most deliveries are post-commit
                // re-reports, so this gate is the difference between
                // O(1) and a packer scan for the bulk of the traffic.
                if self.committed && chain.len() >= usize::from(self.max_relays) {
                    return;
                }
                // Validate: the last affixed relay must be the true
                // transmitter (mismatch = detectable forgery), the chain
                // must be sane, and we must not appear in it.
                if chain.last_relay() != Some(from) {
                    return;
                }
                if chain.len() > usize::from(self.max_relays) {
                    return;
                }
                let me = ctx.id();
                let committer = chain.committer();
                if committer == me || chain.contains_relay(me) || chain.contains_relay(committer) {
                    return;
                }
                let relays = chain.relays();
                // Repeated relay = degenerate chain. k ≤ max_relays ≤ CHAIN_CAP,
                // so a quadratic scan beats clone + sort + dedup and
                // allocates nothing.
                if (1..relays.len()).any(|i| relays[..i].contains(&relays[i])) {
                    return;
                }
                // Forward with our identifier affixed while the extended
                // chain remains potentially useful. If we heard the
                // committer's own COMMITTED, our one-relay report
                // `[me]` dominates every extension `[…, me]` at every
                // receiver, so deeper chains need not be forwarded —
                // the paper's "earmarking" state reduction.
                let relayable = chain.len() < usize::from(self.max_relays)
                    && self.first_commit.binary_search(&committer).is_err();
                let committer_coord = ctx.torus().coord(committer);
                let (fits, fits_with_me) = Self::fits_single_neighborhood(
                    ctx,
                    committer_coord,
                    relays,
                    relayable.then(|| ctx.coord()),
                );
                if !fits {
                    return; // can never be evidence for anyone
                }
                let new = self.evidence.record_chain(committer, chain.value(), relays);
                // The packed repr makes the fan-out a pure copy: extend
                // in place, no per-hop reallocation.
                if new && fits_with_me {
                    ctx.broadcast(Msg::Heard(chain.extended(me)));
                }
            }
        }
    }

    fn on_round_end(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.committed {
            return;
        }
        let geo = Geometry::new(ctx.arena(), ctx.coord());
        if let Some(v) = self.evidence.evaluate(&geo) {
            // Trace the evidence the commit rested on: how many distinct
            // chains, and a digest of their contents (so divergent runs
            // can be compared on *what* evidence fired, not just volume).
            // Both fold over the whole store, so neither is built unless
            // a trace will carry it.
            ctx.note_with("commit-evidence", || self.evidence.chain_count() as u64);
            ctx.note_with("commit-digest", || self.evidence.digest());
            self.commit(ctx, v);
        }
    }

    // The commit rule is a pure function of the evidence store, which
    // only grows in `on_message`: a round without deliveries cannot
    // change `evaluate`'s answer, so the sparse engine may skip the
    // round-end callback until the next delivery.
    fn needs_round_end(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::{Metric, Torus};
    use rbcast_sim::Network;

    fn honest_net(
        r: u32,
        t: usize,
        config: IndirectConfig,
        faulty: Vec<NodeId>,
        attacker: fn() -> Box<dyn Process<Msg>>,
    ) -> (Network<Msg>, Torus) {
        let torus = Torus::for_radius(r);
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t,
        };
        let f = faulty.clone();
        let net = Network::new(torus.clone(), r, Metric::Linf, move |id| {
            if f.contains(&id) {
                attacker()
            } else {
                Box::new(Indirect::new(params, config)) as Box<dyn Process<Msg>>
            }
        });
        (net, torus)
    }

    #[test]
    fn fault_free_full_protocol_r1() {
        let (mut net, torus) = honest_net(1, 1, IndirectConfig::full(), vec![], || unreachable!());
        net.run(10_000);
        for id in torus.node_ids() {
            assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "{id}");
        }
    }

    #[test]
    fn fault_free_simplified_protocol_r2() {
        let (mut net, torus) = honest_net(
            2,
            4,
            IndirectConfig::simplified(),
            vec![],
            || unreachable!(),
        );
        net.run(10_000);
        for id in torus.node_ids() {
            assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "{id}");
        }
    }

    #[test]
    fn tolerates_max_t_silent_cluster_r1_full() {
        // r = 1: threshold t < 1.5, so t_max = 1.
        let torus = Torus::for_radius(1);
        let faulty = vec![torus.id(Coord::new(2, 0))];
        let (mut net, torus) = honest_net(
            1,
            1,
            IndirectConfig::full(),
            faulty.clone(),
            crate::attackers::silent,
        );
        net.run(10_000);
        for id in torus.node_ids() {
            if !faulty.contains(&id) {
                assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "{id}");
            }
        }
    }

    #[test]
    fn tolerates_max_t_liar_cluster_r1_simplified() {
        let torus = Torus::for_radius(1);
        let faulty = vec![torus.id(Coord::new(2, 0))];
        let (mut net, torus) =
            honest_net(1, 1, IndirectConfig::simplified(), faulty.clone(), || {
                crate::attackers::liar(false)
            });
        net.run(10_000);
        for id in torus.node_ids() {
            if !faulty.contains(&id) {
                assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "{id}");
            }
        }
    }

    /// Harness-driven validation tests: feed crafted HEARD messages and
    /// inspect exactly what is recorded and forwarded.
    mod validation {
        use super::*;
        use rbcast_sim::Harness;

        fn setup() -> (Harness<Msg>, Indirect, Torus) {
            let torus = Torus::for_radius(2);
            let me = torus.id(Coord::new(10, 10));
            let params = ProtocolParams {
                source: torus.id(Coord::ORIGIN),
                value: true,
                t: 1,
            };
            let mut proc = Indirect::new(params, IndirectConfig::full());
            let mut h = Harness::new(torus.clone(), 2, Metric::Linf, me);
            h.start(&mut proc);
            (h, proc, torus)
        }

        fn id(torus: &Torus, x: i64, y: i64) -> rbcast_grid::NodeId {
            torus.id(Coord::new(x, y))
        }

        #[test]
        fn valid_chain_is_recorded_and_forwarded() {
            let (mut h, mut p, torus) = setup();
            let committer = id(&torus, 13, 10);
            let relay = id(&torus, 11, 10);
            h.deliver(&mut p, relay, &Msg::heard(committer, true, &[relay]));
            assert_eq!(p.evidence().chain_count(), 1);
            let out = h.drain_outbox();
            assert_eq!(out.len(), 1);
            let me = id(&torus, 10, 10);
            match &out[0] {
                Msg::Heard(chain) => {
                    assert_eq!(chain.committer(), committer);
                    assert!(chain.value());
                    assert_eq!(chain.relays(), &[relay, me], "must affix own id last");
                }
                other => panic!("expected forwarded HEARD, got {other:?}"),
            }
        }

        #[test]
        fn wrong_last_relay_is_proof_of_fault_and_dropped() {
            let (mut h, mut p, torus) = setup();
            let committer = id(&torus, 13, 10);
            h.deliver(
                &mut p,
                id(&torus, 11, 10), // true transmitter
                // claims someone else relayed it
                &Msg::heard(committer, true, &[id(&torus, 12, 10)]),
            );
            assert_eq!(p.evidence().chain_count(), 0);
            assert!(h.drain_outbox().is_empty());
        }

        #[test]
        fn chain_containing_me_is_dropped() {
            let (mut h, mut p, torus) = setup();
            let me = id(&torus, 10, 10);
            let relay = id(&torus, 11, 10);
            h.deliver(
                &mut p,
                relay,
                // I never sent that
                &Msg::heard(id(&torus, 13, 10), true, &[me, relay]),
            );
            assert_eq!(p.evidence().chain_count(), 0);
        }

        #[test]
        fn chain_with_committer_as_relay_is_degenerate() {
            let (mut h, mut p, torus) = setup();
            let committer = id(&torus, 12, 10);
            let relay = id(&torus, 11, 10);
            h.deliver(
                &mut p,
                relay,
                &Msg::heard(committer, true, &[committer, relay]),
            );
            assert_eq!(p.evidence().chain_count(), 0);
        }

        #[test]
        fn repeated_relays_are_dropped() {
            let (mut h, mut p, torus) = setup();
            let relay = id(&torus, 11, 10);
            h.deliver(
                &mut p,
                relay,
                &Msg::heard(id(&torus, 13, 10), true, &[relay, relay]),
            );
            assert_eq!(p.evidence().chain_count(), 0);
        }

        #[test]
        fn over_length_chains_are_dropped() {
            let (mut h, mut p, torus) = setup();
            let last = id(&torus, 11, 10);
            h.deliver(
                &mut p,
                last,
                // 4 relays > max 3
                &Msg::heard(
                    id(&torus, 13, 13),
                    true,
                    &[
                        id(&torus, 13, 12),
                        id(&torus, 12, 11),
                        id(&torus, 12, 10),
                        last,
                    ],
                ),
            );
            assert_eq!(p.evidence().chain_count(), 0);
        }

        #[test]
        fn chains_that_fit_no_neighborhood_are_pruned() {
            let (mut h, mut p, torus) = setup();
            let last = id(&torus, 11, 10);
            // committer at (15, 15) is L∞ 5 from relay (11, 10): no ball
            // of radius 2 covers both
            h.deliver(&mut p, last, &Msg::heard(id(&torus, 15, 15), true, &[last]));
            assert_eq!(p.evidence().chain_count(), 0);
        }

        #[test]
        fn duplicate_chain_not_reforwarded() {
            let (mut h, mut p, torus) = setup();
            let relay = id(&torus, 11, 10);
            let msg = Msg::heard(id(&torus, 13, 10), true, &[relay]);
            h.deliver(&mut p, relay, &msg);
            let first = h.drain_outbox().len();
            h.deliver(&mut p, relay, &msg);
            assert_eq!(first, 1);
            assert!(h.drain_outbox().is_empty(), "duplicate was re-forwarded");
        }

        #[test]
        fn equivocating_committer_first_value_wins() {
            let (mut h, mut p, torus) = setup();
            let committer = id(&torus, 11, 10);
            h.deliver(&mut p, committer, &Msg::Committed(true));
            h.deliver(&mut p, committer, &Msg::Committed(false));
            // only the first announcement is recorded/relayed
            let outs = h.drain_outbox();
            assert_eq!(outs.len(), 1);
            match &outs[0] {
                Msg::Heard(chain) => assert!(chain.value()),
                other => panic!("expected HEARD, got {other:?}"),
            }
        }

        #[test]
        fn direct_observation_suppresses_deeper_forwarding() {
            let (mut h, mut p, torus) = setup();
            let committer = id(&torus, 11, 10);
            h.deliver(&mut p, committer, &Msg::Committed(true));
            let _ = h.drain_outbox();
            // a 1-relay chain about the same committer arrives: recorded
            // or dominated, but NOT forwarded (our [me] report dominates)
            let relay = id(&torus, 10, 11);
            h.deliver(&mut p, relay, &Msg::heard(committer, true, &[relay]));
            assert!(h.drain_outbox().is_empty());
        }

        #[test]
        fn committed_simplified_node_keeps_no_chains_and_relays_a_late_commit_once() {
            let torus = Torus::for_radius(2);
            let me = id(&torus, 10, 10);
            let params = ProtocolParams {
                source: torus.id(Coord::ORIGIN),
                value: true,
                t: 1,
            };
            let mut p = Indirect::new(params, IndirectConfig::simplified());
            let mut h = Harness::new(torus.clone(), 2, Metric::Linf, me);
            h.start(&mut p);
            // Two neighbours' commits are t + 1 = 2 disjoint reports
            // inside one neighbourhood.
            for committer in [id(&torus, 11, 10), id(&torus, 9, 10)] {
                h.deliver(&mut p, committer, &Msg::Committed(true));
            }
            assert_eq!(p.evidence().chain_count(), 2);
            h.end_round(&mut p);
            assert_eq!(h.decision(), Some(true));
            assert_eq!(
                p.evidence().chain_count(),
                0,
                "a §VI-B node frees its chains"
            );
            let _ = h.drain_outbox();

            let late = id(&torus, 10, 11);
            h.deliver(&mut p, late, &Msg::Committed(true));
            match h.drain_outbox().as_slice() {
                [Msg::Heard(chain)] => {
                    assert_eq!(chain.committer(), late);
                    assert_eq!(chain.relays(), &[me]);
                }
                other => panic!("expected one relayed HEARD, got {other:?}"),
            }
            h.deliver(&mut p, late, &Msg::Committed(true));
            assert!(h.drain_outbox().is_empty(), "a repeat is not relayed");
            assert_eq!(p.evidence().chain_count(), 0);
        }

        #[test]
        fn a_full_chain_is_not_extended_past_the_cap() {
            // max_relays past CHAIN_CAP used to let a forwardable
            // CHAIN_CAP-relay chain reach `ChainRepr::extended`, which
            // panics on a full chain.
            let torus = Torus::for_radius(2);
            let params = ProtocolParams {
                source: torus.id(Coord::ORIGIN),
                value: true,
                t: 1,
            };
            let config = IndirectConfig {
                max_relays: CHAIN_CAP + 1,
                ..IndirectConfig::full()
            };
            let mut p = Indirect::new(params, config);
            let mut h = Harness::new(torus.clone(), 2, Metric::Linf, id(&torus, 10, 10));
            h.start(&mut p);
            let last = id(&torus, 11, 10);
            let relays = [
                id(&torus, 12, 11),
                id(&torus, 11, 12),
                id(&torus, 11, 11),
                last,
            ];
            h.deliver(&mut p, last, &Msg::heard(id(&torus, 12, 12), true, &relays));
            assert_eq!(
                p.evidence().chain_count(),
                1,
                "a full chain is still evidence"
            );
            assert!(
                h.drain_outbox().is_empty(),
                "a full chain has no room for us"
            );
        }

        /// The frame a store binds indexes every committer a one-relay
        /// chain can be evidence about, so refusing the rest changes no
        /// verdict. For each receiver, on the seam and off it, every
        /// neighbour `from` delivers `HEARD(C, true, [from])` about every
        /// committer `C` within L∞ `3r + 1`, each to a freshly started
        /// node: it is recorded iff some lattice center lies within `r`
        /// of both `C` and `from`.
        #[test]
        fn every_chain_that_fits_one_neighborhood_is_recorded() {
            for r in [1, 2] {
                let torus = Torus::for_radius(r);
                let params = ProtocolParams {
                    source: torus.id(Coord::ORIGIN),
                    value: true,
                    t: 1,
                };
                let reach = 3 * i64::from(r) + 1;
                let side = i64::from(torus.width());
                for metric in [Metric::Linf, Metric::L2] {
                    for me in [
                        Coord::new(1, 0),
                        Coord::new(side - 1, side - 2),
                        Coord::new(side / 2, side / 2),
                    ] {
                        let me_id = torus.id(me);
                        let mut h = Harness::new(torus.clone(), r, metric, me_id);
                        let near = |a: Coord, b: Coord| torus.within(a, b, r, metric);
                        for from in torus.coords().filter(|&c| c != me && near(me, c)) {
                            let from_id = torus.id(from);
                            for dy in -reach..=reach {
                                for dx in -reach..=reach {
                                    let c = torus.canonical(me + Coord::new(dx, dy));
                                    if c == me || c == from {
                                        continue;
                                    }
                                    let fits = torus.coords().any(|z| near(z, c) && near(z, from));
                                    let mut p = Indirect::new(params, IndirectConfig::full());
                                    h.start(&mut p);
                                    let msg = Msg::heard(torus.id(c), true, &[from_id]);
                                    h.deliver(&mut p, from_id, &msg);
                                    let _ = h.drain_outbox();
                                    assert_eq!(
                                        p.evidence().chain_count() == 1,
                                        fits,
                                        "r={r} {metric:?} me={me} from={from} committer={c}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn source_message_from_non_source_ignored() {
            let (mut h, mut p, torus) = setup();
            h.deliver(&mut p, id(&torus, 11, 10), &Msg::Source(false));
            assert_eq!(h.decision(), None);
            assert!(h.drain_outbox().is_empty());
        }
    }

    #[test]
    fn safety_under_forgers_at_max_t_r1() {
        // Forgers fabricate chains for the wrong value; no honest node
        // may ever commit `false`.
        let torus = Torus::for_radius(1);
        let faulty = vec![torus.id(Coord::new(2, 2))];
        let (mut net, torus) = honest_net(1, 1, IndirectConfig::full(), faulty.clone(), || {
            crate::attackers::forger(false)
        });
        net.run(10_000);
        for id in torus.node_ids() {
            if !faulty.contains(&id) {
                if let Some((v, _)) = net.decision(id) {
                    assert!(v, "{id} committed the forged value");
                }
            }
        }
    }
}
