//! Byzantine node behaviours.
//!
//! Faithful to the model of §II/§V: a Byzantine node may send arbitrary
//! *content*, but it cannot spoof its identity (every transmission is
//! attributed to it), cannot send different bits to different neighbors
//! in one broadcast, and cannot cause collisions. These constraints shape
//! the attacks:
//!
//! * [`silent`] — contributes nothing (subsumes crash behaviour for the
//!   Byzantine budget).
//! * [`liar`] — behaves like a committer of the wrong value and corrupts
//!   every report chain it relays.
//! * [`forger`] — additionally fabricates `HEARD` chains attributing the
//!   wrong value to every nearby node, with invented deep relays. Because
//!   it must affix its own (true) identifier as the last relay, all of
//!   one forger's fabrications share that relay and count at most once in
//!   any disjoint-evidence set — the structural reason `t` forgers cannot
//!   defeat the `t+1` disjoint-chain rule.

use crate::chain::ChainRepr;
use crate::Msg;
use rbcast_grid::NodeId;
use rbcast_sim::{Ctx, Process, Value};
use std::collections::BTreeSet;

/// A node that exploits the §X *spoofing* relaxation: it announces the
/// wrong value impersonating every honest neighbor in turn. Against a
/// channel with spoofing enabled this forges an apparently independent
/// quorum of committers; against the baseline channel the forged
/// identities are corrected back and the attack collapses to a liar's.
#[must_use]
pub fn spoofer(wrong: Value) -> Box<dyn Process<Msg>> {
    Box::new(Spoofer { wrong })
}

struct Spoofer {
    wrong: Value,
}

impl Process<Msg> for Spoofer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // impersonate every neighbor announcing the wrong value (the
        // arena's rows match `torus.neighborhood` order exactly)
        for n in ctx.neighbors() {
            ctx.broadcast_as(n, Msg::Committed(self.wrong));
        }
        ctx.broadcast(Msg::Committed(self.wrong));
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}

    // Fires everything in `on_start`; no round-end behaviour.
    fn needs_round_end(&self) -> bool {
        false
    }
}

/// A node that never transmits anything.
#[must_use]
pub fn silent() -> Box<dyn Process<Msg>> {
    Box::new(Silent)
}

struct Silent;

impl Process<Msg> for Silent {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}

    // Does nothing, ever — certainly not at round end.
    fn needs_round_end(&self) -> bool {
        false
    }
}

/// A node that announces having committed to `wrong` and relays every
/// report chain with the value flipped to `wrong`.
#[must_use]
pub fn liar(wrong: Value) -> Box<dyn Process<Msg>> {
    Box::new(Liar {
        wrong,
        announced: false,
        relayed: BTreeSet::new(),
    })
}

struct Liar {
    wrong: Value,
    announced: bool,
    /// Chains already corrupted, keyed on the repacked (committer,
    /// relays) pair — the value is always `wrong`, so it carries no
    /// extra information; `Copy` keys mean dedup allocates nothing.
    relayed: BTreeSet<ChainRepr>,
}

impl Process<Msg> for Liar {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Announce immediately: a liar wants its vote in early.
        self.announced = true;
        ctx.broadcast(Msg::Committed(self.wrong));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        match msg {
            Msg::Source(_) | Msg::Committed(_) => {
                // Relay a corrupted report: claim `from` committed wrong.
                let lie = ChainRepr::direct(from, self.wrong);
                if self.relayed.insert(lie) {
                    ctx.broadcast(Msg::Heard(lie.extended(ctx.id())));
                }
            }
            Msg::Heard(chain) => {
                // Forward the chain with the value flipped (the liar must
                // still affix its true identifier).
                let committer = chain.committer();
                if chain.len() < 3 && !chain.contains_relay(ctx.id()) && committer != ctx.id() {
                    let lie = ChainRepr::new(committer, self.wrong, chain.relays());
                    if self.relayed.insert(lie) {
                        ctx.broadcast(Msg::Heard(lie.extended(ctx.id())));
                    }
                }
            }
        }
    }

    // All lying happens in `on_start`/`on_message`; no round-end logic.
    fn needs_round_end(&self) -> bool {
        false
    }
}

/// A node that floods fabricated evidence for `wrong`: claims every node
/// within two hops committed it, inventing one-deep and two-deep relay
/// chains through every neighbor.
#[must_use]
pub fn forger(wrong: Value) -> Box<dyn Process<Msg>> {
    Box::new(Forger {
        wrong,
        fired: false,
    })
}

struct Forger {
    wrong: Value,
    fired: bool,
}

impl Process<Msg> for Forger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.fired = true;
        let me = ctx.id();
        ctx.broadcast(Msg::Committed(self.wrong));
        // Fabricate: every neighbor "committed" wrong (observed by us).
        // The arena's rows match `torus.neighborhood` order exactly.
        let neighbors = ctx.neighbors();
        for n in neighbors.clone() {
            ctx.broadcast(Msg::Heard(ChainRepr::direct(n, self.wrong).extended(me)));
        }
        // Deep fabrications: invent a relay between a committer and us —
        // each neighbor's successor in the row, the last one's the first.
        // (Bounded to keep the message volume proportional to a node's
        // honest traffic.)
        for (c, relay) in neighbors.clone().zip(neighbors.cycle().skip(1)) {
            if relay != c {
                ctx.broadcast(Msg::Heard(
                    ChainRepr::direct(c, self.wrong)
                        .extended(relay)
                        .extended(me),
                ));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        // Also corrupt genuine chains passing by, like the liar.
        if let Msg::Heard(chain) = msg {
            let committer = chain.committer();
            if chain.len() < 3 && !chain.contains_relay(ctx.id()) && committer != ctx.id() {
                ctx.broadcast(Msg::Heard(
                    ChainRepr::new(committer, self.wrong, chain.relays()).extended(ctx.id()),
                ));
            }
        }
        let _ = from;
    }

    // Forges on start and on delivery only; no round-end behaviour.
    fn needs_round_end(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::{Coord, Metric, Torus};
    use rbcast_sim::Network;

    #[test]
    fn silent_node_sends_nothing() {
        let torus = Torus::for_radius(1);
        let mut net = Network::new(torus, 1, Metric::Linf, |_| silent());
        let stats = net.run(10);
        assert_eq!(stats.messages_sent, 0);
        assert!(stats.quiescent());
    }

    #[test]
    fn liar_announces_immediately() {
        let torus = Torus::for_radius(1);
        let mut net = Network::new(torus.clone(), 1, Metric::Linf, |id| {
            if id == torus.id(Coord::ORIGIN) {
                liar(false)
            } else {
                silent()
            }
        });
        let stats = net.run(10);
        assert_eq!(stats.messages_sent, 1);
    }

    #[test]
    fn forger_floods_fabrications() {
        let torus = Torus::for_radius(1);
        let mut net = Network::new(torus.clone(), 1, Metric::Linf, |id| {
            if id == torus.id(Coord::ORIGIN) {
                forger(true)
            } else {
                silent()
            }
        });
        let stats = net.run(10);
        // 1 COMMITTED + 8 shallow + 8 deep fabrications
        assert_eq!(stats.messages_sent, 17);
    }

    #[test]
    fn liar_corrupts_relayed_chains_with_its_own_id() {
        // A liar relaying a chain must appear as the last relay — honest
        // receivers can therefore discount anything passing through it
        // once identified; structurally, all its chains share it.
        let torus = Torus::for_radius(1);
        let origin = torus.id(Coord::ORIGIN);
        let lid = torus.id(Coord::new(1, 0));
        let mut net = Network::new(torus.clone(), 1, Metric::Linf, |id| {
            if id == origin {
                // an honest-ish committer: just announce true once
                struct Announcer;
                impl Process<Msg> for Announcer {
                    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                        ctx.broadcast(Msg::Committed(true));
                    }
                    fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: &Msg) {}
                }
                Box::new(Announcer)
            } else if id == lid {
                liar(false)
            } else {
                silent()
            }
        });
        let stats = net.run(10);
        // announcer's COMMITTED + liar's initial COMMITTED + liar's
        // corrupted relay of the announcement
        assert_eq!(stats.messages_sent, 3);
    }
}
