//! Grid geometry substrate for reliable broadcast in a radio network.
//!
//! This crate models the network geometry of Bhandari & Vaidya,
//! *On Reliable Broadcast in a Radio Network* (PODC 2005): nodes sit on a
//! unit square grid (an infinite grid in the paper's analysis, a finite
//! torus in any executable experiment — the paper notes the results carry
//! over verbatim because a torus has no boundary anomalies).
//!
//! Provided here:
//!
//! * [`Coord`] — signed grid coordinates for infinite-grid geometry.
//! * [`Metric`] — the two distance metrics the paper analyses,
//!   [`Metric::Linf`] and [`Metric::L2`].
//! * [`Torus`] — a finite `width × height` toroidal node arena mapping
//!   coordinates to dense [`NodeId`]s.
//! * [`NeighborTable`] — the shared, immutable topology arena: the
//!   radius-`r` stencil every node's neighbour row is computed from, the
//!   closed-ball center stencils and the transmission order, built once
//!   per `(torus, r, metric)` and shared across runs and worker threads.
//! * [`Neighborhood`] helpers — `nbd(c)` and the paper's perturbed
//!   neighborhood `pnbd(c)` (§IV).
//! * [`Rect`] — inclusive rectangular lattice regions (used heavily by the
//!   constructive proofs: regions A, B1/B2, C1/C2, D1/D2/D3, J, K1/K2, …).
//! * [`TdmaSchedule`] — the pre-determined collision-free transmission
//!   schedule the model assumes (§II).
//! * [`BitSet`] — bit-packed node sets backing the simulator's sparse
//!   wavefront engine (delivered/wake/decided sets, completion masks).
//! * [`NeighborSet`] — the ids a node has heard from once, as bits over
//!   its ball-local frame: one inline word at `r = 1`.
//! * [`plumbing`] — the workspace's one FNV-1a fold, splitmix64, JSON
//!   escape and `"key":` field scanner (here because every crate
//!   already depends on this one).
//!
//! # Example
//!
//! ```
//! use rbcast_grid::{Coord, Metric, Torus};
//!
//! let torus = Torus::new(20, 20);
//! let origin = torus.id(Coord::new(0, 0));
//! // In the L-infinity metric a radius-2 neighborhood is a 5x5 square:
//! let nbd: Vec<_> = torus.neighborhood(origin, 2, Metric::Linf).collect();
//! assert_eq!(nbd.len(), 24); // excludes the center itself
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bitset;
mod coord;
mod metric;
mod nbd;
mod neighbor_set;
pub mod plumbing;
mod region;
mod tdma;
mod torus;

pub use arena::{ArenaError, LocalFrame, NeighborTable, Neighbors};
pub use bitset::BitSet;
pub use coord::Coord;
pub use metric::Metric;
pub use nbd::{linf_offsets, Neighborhood};
pub use neighbor_set::NeighborSet;
pub use region::Rect;
pub use tdma::{ScheduleError, TdmaSchedule};
pub use torus::{NodeId, Torus};
