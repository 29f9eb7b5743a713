//! The crash-stop protocol of §VII: pure flooding.
//!
//! "When only crash-stop failures are admissible, no special protocol is
//! required. Each node that receives a value, commits to it,
//! re-broadcasts it once for the benefit of others, and then may
//! terminate local execution." Reachability is the sole criterion;
//! Theorems 4–5 establish the exact L∞ threshold `t < r(2r+1)`.

use crate::{Msg, ProtocolParams};
use rbcast_grid::NodeId;
use rbcast_sim::{Ctx, Process, Value};

/// Flooding process for the crash-stop fault model.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, Torus};
/// use rbcast_protocols::{Flood, Msg, ProtocolParams};
/// use rbcast_sim::{Network, Process};
///
/// let torus = Torus::for_radius(1);
/// let params = ProtocolParams {
///     source: torus.id(Coord::ORIGIN),
///     value: true,
///     t: 0,
/// };
/// let mut net = Network::new(torus.clone(), 1, Metric::Linf, |_| {
///     Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
/// });
/// net.run(100);
/// assert!(torus.node_ids().all(|id| net.decision(id).is_some()));
/// ```
#[derive(Debug, Clone)]
pub struct Flood {
    // Whether the node is done is whether it decided, which the host
    // keeps (`Ctx::has_decided`): nothing else varies per node.
    source: NodeId,
    value: Value,
}

impl Flood {
    /// Creates the process; the node identified by `params.source` seeds
    /// the broadcast. Flooding has no fault budget: `params.t` is unread.
    #[must_use]
    pub fn new(params: ProtocolParams) -> Self {
        Flood {
            source: params.source,
            value: params.value,
        }
    }
}

impl Process<Msg> for Flood {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if ctx.id() == self.source {
            ctx.decide(self.value);
            ctx.broadcast(Msg::Source(self.value));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: &Msg) {
        if ctx.has_decided() {
            return;
        }
        // Under crash-stop faults every received value is genuine; commit
        // to the first and relay it once.
        ctx.decide(msg.value());
        ctx.broadcast(Msg::Committed(msg.value()));
    }

    // Flood acts only on deliveries; it has no round-end behaviour, so
    // the sparse engine never needs to poll it.
    fn needs_round_end(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::{Coord, Metric, Torus};
    use rbcast_sim::Network;

    fn run_flood(torus: &Torus, r: u32, crashed: &[NodeId]) -> rbcast_sim::Network<Msg> {
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t: 0,
        };
        let mut net = Network::new(torus.clone(), r, Metric::Linf, |_| {
            Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
        });
        for &c in crashed {
            net.crash_at(c, 0);
        }
        net.run(1_000);
        net
    }

    #[test]
    fn fault_free_flood_reaches_everyone() {
        let torus = Torus::for_radius(2);
        let net = run_flood(&torus, 2, &[]);
        for id in torus.node_ids() {
            assert_eq!(net.decision(id).map(|(v, _)| v), Some(true), "{id}");
        }
    }

    #[test]
    fn each_node_broadcasts_exactly_once() {
        let torus = Torus::for_radius(1);
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: false,
            t: 0,
        };
        let mut net = Network::new(torus.clone(), 1, Metric::Linf, |_| {
            Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
        });
        let stats = net.run(1_000);
        assert_eq!(stats.messages_sent, torus.len() as u64);
        assert!(stats.quiescent());
    }

    #[test]
    fn crashed_nodes_do_not_decide() {
        let torus = Torus::for_radius(2);
        let victim = torus.id(Coord::new(3, 3));
        let net = run_flood(&torus, 2, &[victim]);
        assert_eq!(net.decision(victim), None);
        // everyone else still decides (a single crash cannot partition)
        for id in torus.node_ids() {
            if id != victim {
                assert!(net.decision(id).is_some(), "{id}");
            }
        }
    }

    #[test]
    fn value_false_propagates_too() {
        let torus = Torus::for_radius(1);
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: false,
            t: 0,
        };
        let mut net = Network::new(torus.clone(), 1, Metric::Linf, |_| {
            Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
        });
        net.run(1_000);
        for id in torus.node_ids() {
            assert_eq!(net.decision(id).map(|(v, _)| v), Some(false));
        }
    }

    #[test]
    fn rounds_scale_with_distance() {
        // On a 4(2r+1) torus the farthest node is ~2(2r+1) away; flooding
        // covers distance r per round, so expect ≳ torus_width/(2r) rounds.
        let torus = Torus::for_radius(2);
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: true,
            t: 0,
        };
        let mut net = Network::new(torus.clone(), 2, Metric::Linf, |_| {
            Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
        });
        let stats = net.run(1_000);
        assert!(stats.rounds >= 5, "rounds={}", stats.rounds);
        assert!(stats.rounds <= 20, "rounds={}", stats.rounds);
    }
}
