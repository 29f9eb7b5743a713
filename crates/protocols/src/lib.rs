//! Reliable broadcast protocols for grid radio networks.
//!
//! Implements every protocol analysed in Bhandari & Vaidya,
//! *On Reliable Broadcast in a Radio Network* (PODC 2005):
//!
//! * [`Flood`] — the crash-stop protocol of §VII: commit to the first
//!   value heard, rebroadcast once. Tolerates every `t < r(2r+1)` (L∞,
//!   Theorems 4–5).
//! * [`Cpa`] — the simple protocol of §IX (Koo's protocol, the *Certified
//!   Propagation Algorithm*): commit after hearing the same value from
//!   `t+1` distinct neighbors. Theorem 6 guarantees `t ≤ ⅔·r²`.
//! * [`Indirect`] — the paper's main contribution (§VI): `HEARD` relay
//!   chains up to four hops carry indirect commit reports; a node commits
//!   once it reliably determines `t+1` committers inside one neighborhood,
//!   where reliable determination requires `t+1` node-disjoint report
//!   chains inside one neighborhood. Achieves the exact threshold
//!   `t < ½·r(2r+1)` (Theorem 1). The §VI-B *simplified* variant (2-hop
//!   reports) is [`IndirectConfig::simplified`]; the one-level commit
//!   rule ablation is [`CommitRule::OneLevel`].
//! * [`PersistentFlood`] — flooding with re-transmissions, the §X
//!   counter-measure to bounded jamming and channel loss.
//! * [`attackers`] — Byzantine node behaviours (silent, liar, forger,
//!   and the §X spoofer) used by the threshold experiments.
//!
//! # Example: CPA under a frontier cluster of silent faults
//!
//! ```
//! use rbcast_grid::{Coord, Metric, Torus};
//! use rbcast_sim::Network;
//! use rbcast_protocols::{attackers, Cpa, Msg, ProtocolParams};
//!
//! let torus = Torus::for_radius(2);
//! let source = torus.id(Coord::ORIGIN);
//! let params = ProtocolParams { source, value: true, t: 2 };
//! let faulty = [torus.id(Coord::new(4, 0)), torus.id(Coord::new(5, 0))];
//! let mut net = Network::new(torus.clone(), 2, Metric::Linf, |id| {
//!     if faulty.contains(&id) {
//!         attackers::silent()
//!     } else {
//!         Box::new(Cpa::new(params))
//!     }
//! });
//! net.run(200);
//! // every honest node commits to the source's value
//! for id in torus.node_ids() {
//!     if !faulty.contains(&id) {
//!         assert_eq!(net.decision(id).map(|(v, _)| v), Some(true));
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attackers;
mod chain;
mod cpa;
mod evidence;
mod flood;
mod indirect;
mod msg;
mod persistent;

pub use chain::{ChainRepr, CHAIN_CAP};
pub use cpa::Cpa;
pub use evidence::{CommitRule, EvidenceStore, Geometry};
pub use flood::Flood;
pub use indirect::{Indirect, IndirectConfig};
pub use msg::Msg;
pub use persistent::PersistentFlood;

use rbcast_grid::NodeId;
use rbcast_sim::Value;

/// Parameters shared by every protocol instance in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolParams {
    /// The designated source node (the paper puts it at the origin).
    pub source: NodeId,
    /// The value the source broadcasts.
    pub value: Value,
    /// The locally bounded fault budget `t` the protocol is configured
    /// to tolerate.
    pub t: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::{Coord, Metric, Torus};
    use rbcast_sim::{Network, Process};

    /// Builds one honest node's process.
    type Spawn = fn(ProtocolParams) -> Box<dyn Process<Msg>>;

    #[test]
    fn every_protocol_commits_a_false_source_value() {
        let torus = Torus::for_radius(1);
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: false,
            t: 1,
        };
        let protocols: [(&str, Spawn); 4] = [
            ("flood", |p| Box::new(Flood::new(p))),
            ("cpa", |p| Box::new(Cpa::new(p))),
            ("indirect-full", |p| {
                Box::new(Indirect::new(p, IndirectConfig::full()))
            }),
            ("indirect-simplified", |p| {
                Box::new(Indirect::new(p, IndirectConfig::simplified()))
            }),
        ];
        for (name, spawn) in protocols {
            let mut net = Network::new(torus.clone(), 1, Metric::Linf, |_| spawn(params));
            net.run(200);
            for id in torus.node_ids() {
                assert_eq!(
                    net.decision(id).map(|(v, _)| v),
                    Some(false),
                    "{name}: {id}"
                );
            }
        }
    }
}
