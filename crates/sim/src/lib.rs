//! Synchronous radio-network simulator implementing the paper's channel
//! model (§II): an idealized shared medium where a local broadcast is
//! heard, reliably and in per-sender FIFO order, by every node within
//! transmission radius `r`, with no collisions (a pre-determined TDMA
//! schedule orders transmissions) and no address spoofing (receivers
//! always learn the true sender identity).
//!
//! Protocols implement the [`Process`] trait; Byzantine nodes are simply
//! adversarial `Process` implementations (they can send arbitrary
//! messages — but, faithfully to the model, they *cannot* forge their
//! sender identity and *cannot* send different bits to different
//! neighbors in one transmission). Crash-stop faults are modelled with
//! [`Network::crash_at`].
//!
//! Beyond the baseline model, [`ChannelConfig`] provides the §X
//! relaxations (independent losses masked by a redundancy primitive,
//! forged sender identities, bounded deliberate collisions), and
//! [`Harness`] drives a single `Process` for unit tests.
//!
//! # Example
//!
//! ```
//! use rbcast_grid::{Coord, Metric, Torus};
//! use rbcast_sim::{Ctx, Network, Process};
//!
//! // A one-shot flooding process: forward the first value heard.
//! struct Flood { origin: bool, done: bool }
//! impl Process<bool> for Flood {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
//!         if self.origin {
//!             ctx.decide(true);
//!             ctx.broadcast(true);
//!             self.done = true;
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, bool>, _from: rbcast_grid::NodeId, &v: &bool) {
//!         if !self.done {
//!             self.done = true;
//!             ctx.decide(v);
//!             ctx.broadcast(v);
//!         }
//!     }
//! }
//!
//! let torus = Torus::new(12, 12);
//! let source = torus.id(Coord::ORIGIN);
//! let mut net = Network::new(torus, 2, Metric::Linf, |id| {
//!     Box::new(Flood { origin: id == source, done: false }) as Box<dyn Process<bool>>
//! });
//! let stats = net.run(100);
//! assert!(stats.quiescent());
//! assert!(net.decisions().iter().all(|d| d.map(|(v, _)| v) == Some(true)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
pub mod driver;
mod harness;
mod network;
mod process;
mod stats;
pub mod trace;

pub use channel::{BurstChain, BurstLoss, ChannelConfig};
pub use driver::{InstanceHost, InstanceId};
pub use harness::Harness;
pub use network::{EngineKind, Network};
pub use process::{Ctx, Node, Process};
pub use stats::{RunStats, StopReason};

/// The broadcast payload domain: the paper's message is a binary value.
pub type Value = bool;

/// Simulation round counter.
pub type Round = u32;
