//! Max-flow machinery for disjoint-path evidence verification.
//!
//! The commit rules of Bhandari & Vaidya's reliable-broadcast protocols
//! hinge on *node-disjoint path* arguments (Menger-style): a node trusts a
//! report once it has arrived over `t + 1` node-disjoint paths that all
//! lie inside a single neighborhood, because at most `t` of those paths
//! can contain a faulty node. This crate provides:
//!
//! * [`FlowNetwork`] — a from-scratch Dinic max-flow implementation with
//!   early termination at a target flow value.
//! * [`vertex_disjoint_count`] / [`try_min_vertex_cut`] — the size of a
//!   maximum set of internally-vertex-disjoint paths in an undirected
//!   graph, via the standard node-splitting reduction, and a minimum
//!   vertex cut that witnesses it (Menger).
//! * [`ChainPacker`] — maximum sets of pairwise node-disjoint *reported
//!   relay chains* (the `HEARD(...)` evidence of the paper's §VI
//!   protocol). Chains are packed over a prefix trie so that a unit of
//!   flow can only follow a genuinely reported chain — naive max-flow on
//!   the union of chains would allow unsound "mixed" paths splicing a
//!   prefix of one report onto the suffix of another.
//!
//! # Example
//!
//! ```
//! use rbcast_flow::vertex_disjoint_count;
//!
//! // A 4-cycle: two internally-disjoint paths between opposite corners.
//! let adj = vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]];
//! assert_eq!(vertex_disjoint_count(&adj, 0, 2, None), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dinic;
mod disjoint;
mod packing;
pub mod stats;

pub use dinic::{EdgeId, FlowNetwork};
pub use disjoint::{
    try_min_vertex_cut, try_vertex_disjoint_count, vertex_disjoint_count, DisjointError,
};
pub use packing::{Chain, ChainPacker, PackScratch, MAX_CHAIN_KEYS};
