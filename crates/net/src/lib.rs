//! Networked runtime for the verified broadcast protocols.
//!
//! The simulator proves the protocols correct under the paper's channel
//! model; this crate runs the *same* [`rbcast_sim::Process`]
//! implementations, unchanged, over real datagrams. The layering:
//!
//! * [`wire`] — hand-rolled packet format with a provable
//!   single-bit-corruption checksum; decoding is total (structured
//!   errors, never panics).
//! * [`link`] — per-neighbor reliable FIFO streams: sequencing,
//!   cumulative acks, deterministic capped-backoff retransmission,
//!   duplicate suppression, epoch-based restart detection.
//! * [`transport`] — the [`transport::Datagram`] abstraction with UDP
//!   and in-process loopback implementations (the only raw-socket code
//!   in the workspace, pinned by the `raw-socket-io` audit rule).
//! * [`chaos`] — a seeded fault-injection shim between link and wire:
//!   Gilbert–Elliott burst loss (`rbcast_sim`'s [`rbcast_sim::BurstLoss`]),
//!   duplication, reordering, delay — all deterministic per seed.
//! * [`journal`] — append-before-ack JSONL durability, the basis of
//!   crash recovery.
//! * [`runtime`] — the lockstep round barrier that reproduces the
//!   simulator's delivery order exactly, with degraded-mode quarantine
//!   for silent peers and journal-driven resumption.
//! * [`cluster`] — shared run configuration, the sim parity oracle,
//!   and the single-threaded loopback cluster used by tests.
//!
//! The design invariant throughout: **reliability is recovered below
//! the protocol, determinism is preserved above it.** A cluster run
//! under chaos must commit exactly what the simulator commits —
//! [`cluster::ClusterSpec::sim_oracle`] digest equality is enforced by
//! the golden parity tests and the CI cluster smoke.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod journal;
pub mod link;
pub mod runtime;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosTransport};
pub use cluster::{ClusterReport, ClusterSpec, LoopbackCluster, OracleReport};
pub use journal::{FileJournal, MemJournal, NetJournal, Record, SharedJournal};
pub use link::{Link, LinkStats};
/// The protocol vocabulary is `rbcast_core`'s. This alias exists only
/// because `benchmark/src/wl_cluster.rs` names it; it goes with the next
/// PR that may edit `benchmark/`.
pub use rbcast_core::ProtocolKind as NetProtocol;
pub use runtime::{NodeReport, NodeRuntime, RuntimeConfig};
pub use transport::{Datagram, LoopbackHub, LoopbackPort, UdpTransport};
pub use wire::{decode_packet, encode_packet, Packet, PacketKind, SeqFrame, WireError};
