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
//!   protocol). Whole chains are the units: the packer solves an exact
//!   set packing — a greedy pass, then a budgeted branch and bound over
//!   the chain conflict graph — because max-flow on the union of chains
//!   would accept unsound "mixed" paths splicing a prefix of one report
//!   onto the suffix of another. A stored [`Chain`] is 8 bytes: up to
//!   four `u16` keys below the `0xFFFF` sentinel, with no signature —
//!   whether a chain holds a key is one lane compare on one word. Keys
//!   are small local names (the evidence store uses a node's slot in the
//!   receiver's frame); [`ChainPacker::insert`] refuses a key of
//!   `0xFFFF` or more.
//! * [`stats`] — write-only diagnostic counters: augmenting paths, min
//!   cuts, and packing searches the branch-and-bound budget cut short.
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
