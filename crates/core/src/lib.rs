//! Reliable broadcast in a grid radio network under locally bounded
//! Byzantine and crash-stop faults.
//!
//! This crate is the public face of the `rbcast` workspace, a
//! reproduction of Bhandari & Vaidya, *On Reliable Broadcast in a Radio
//! Network* (PODC 2005). It ties the substrates together:
//!
//! * [`thresholds`] — the paper's fault-tolerance thresholds as
//!   functions of the transmission radius `r`;
//! * [`Experiment`] — a builder that assembles a torus, a protocol, a
//!   fault placement and a Byzantine behaviour, runs the broadcast, and
//!   reports a summarised [`Outcome`];
//! * [`percolation`] — the §XI random-failure extension (independent
//!   node faults, connecting crash-stop broadcast to site percolation);
//! * [`engine`] — the deterministic parallel sweep executor (results
//!   collected by input index, so output is byte-identical for every
//!   thread count);
//! * [`obs`] — the deterministic observability layer: structured trace
//!   events, a metrics registry, and the workspace's only sanctioned
//!   wall-clock timing.
//!
//! # Quickstart
//!
//! ```
//! use rbcast_core::{Experiment, FaultKind, ProtocolKind};
//! use rbcast_adversary::Placement;
//!
//! // r = 1, Byzantine threshold t < ½·r(2r+1) = 1.5 ⇒ t = 1 tolerable.
//! let outcome = Experiment::new(1, ProtocolKind::IndirectFull)
//!     .with_t(1)
//!     .with_placement(Placement::FrontierCluster { t: 1 })
//!     .with_fault_kind(FaultKind::Liar)
//!     .run();
//! assert!(outcome.all_honest_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod complexity;
pub mod config;
pub mod engine;
mod experiment;
pub mod graphs;
pub mod jsonl;
pub mod obs;
pub mod percolation;
pub mod render;
pub mod supervisor;
pub mod thresholds;

pub use experiment::{reserve_node_table, Experiment, FaultKind, Outcome, ProtocolKind};
pub use rbcast_sim::EngineKind;
