//! CPA on arbitrary graphs — the Pelc–Peleg setting of §III.
//!
//! The related-work discussion contrasts the paper's grid model with
//! Pelc & Peleg's study of locally bounded faults on *arbitrary* graphs,
//! where the Certified Propagation Algorithm (CPA) is defined
//! graph-theoretically: commit on hearing the source directly, or on
//! `t+1` committed neighbors. This module provides:
//!
//! * [`Graph`] — a minimal undirected graph with a constructor from a
//!   radio torus (so the generic executor can be cross-validated against
//!   the radio simulator — two independent implementations of the same
//!   protocol);
//! * [`local_fault_bound`] — the graph version of the locally bounded
//!   audit (max faults in any closed neighborhood `N[v]`);
//! * [`run_cpa`] — a synchronous executor returning each node's commit
//!   round;
//! * example graphs exhibiting topology effects the grid cannot (a cut
//!   vertex stalling CPA at `t = 1`).

use rbcast_grid::{Metric, NeighborTable, NodeId, Torus};
use std::collections::HashSet;

/// A simple undirected graph over nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
}

impl Graph {
    /// Builds a graph from an edge list over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert_ne!(u, v, "self-loops are not allowed");
            if !adj[u].contains(&v) {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
        Graph { adj }
    }

    /// The radio network's connectivity graph: nodes of `torus`, an edge
    /// whenever two nodes are within transmission radius `r` under
    /// `metric`.
    #[must_use]
    pub fn from_torus(torus: &Torus, r: u32, metric: Metric) -> Self {
        let table = NeighborTable::build(torus, r, metric);
        let adj = torus
            .node_ids()
            .map(|id| table.neighbors(id).map(NodeId::index).collect())
            .collect();
        Graph { adj }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True iff the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of `v`.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }
}

/// Maximum number of faulty nodes in any closed neighborhood `N[v]` —
/// the graph form of the paper's locally bounded constraint.
#[must_use]
pub fn local_fault_bound(graph: &Graph, faulty: &[usize]) -> usize {
    let fault_set: HashSet<usize> = faulty.iter().copied().collect();
    (0..graph.len())
        .map(|v| {
            usize::from(fault_set.contains(&v))
                + graph
                    .neighbors(v)
                    .iter()
                    .filter(|n| fault_set.contains(n))
                    .count()
        })
        .max()
        .unwrap_or(0)
}

/// Result of a generic-graph CPA run: for each node, the round in which
/// it committed (`None` = never; the source commits in round 0).
#[must_use]
pub fn run_cpa(graph: &Graph, source: usize, t: usize, faulty: &[usize]) -> Vec<Option<u32>> {
    let fault_set: HashSet<usize> = faulty.iter().copied().collect();
    let n = graph.len();
    let mut committed_at: Vec<Option<u32>> = vec![None; n];
    if fault_set.contains(&source) {
        return committed_at; // a faulty source broadcasts nothing useful
    }
    committed_at[source] = Some(0);

    let mut round = 0u32;
    loop {
        round += 1;
        let mut changed = false;
        let mut next = committed_at.clone();
        for v in 0..n {
            if committed_at[v].is_some() || fault_set.contains(&v) {
                continue;
            }
            // direct source neighbor?
            let hears_source = graph.neighbors(v).contains(&source);
            // committed honest neighbors as of the previous round
            let votes = graph
                .neighbors(v)
                .iter()
                .filter(|&&u| !fault_set.contains(&u) && committed_at[u].is_some())
                .count();
            if hears_source || votes > t {
                next[v] = Some(round);
                changed = true;
            }
        }
        committed_at = next;
        if !changed {
            return committed_at;
        }
    }
}

/// A graph where CPA stalls at `t = 1` despite full reachability: two
/// cliques joined by a two-vertex bridge — every bridge-crossing node has
/// at most one committed neighbor at the frontier, never the `t+1 = 2`
/// CPA demands. (The topology effect Pelc & Peleg study; impossible on
/// the grid where neighborhoods are fat.)
#[must_use]
pub fn bottleneck_graph() -> (Graph, usize) {
    // clique {0,1,2,3} with source 0; bridge 3—4; 4—5; clique {5,6,7,8}
    let mut edges = Vec::new();
    for u in 0..4 {
        for v in (u + 1)..4 {
            edges.push((u, v));
        }
    }
    edges.push((3, 4));
    edges.push((4, 5));
    for u in 5..9 {
        for v in (u + 1)..9 {
            edges.push((u, v));
        }
    }
    (Graph::from_edges(9, &edges), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::Coord;

    #[test]
    fn from_edges_dedups_and_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        let _ = Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn torus_graph_has_radio_degrees() {
        let torus = Torus::new(12, 12);
        let g = Graph::from_torus(&torus, 2, Metric::Linf);
        assert_eq!(g.len(), 144);
        assert!((0..g.len()).all(|v| g.neighbors(v).len() == 24));
    }

    #[test]
    fn graph_audit_matches_radio_audit() {
        use rbcast_adversary::Placement;
        let torus = Torus::new(20, 20);
        let g = Graph::from_torus(&torus, 2, Metric::Linf);
        for placement in [Placement::DoubleStrip, Placement::CheckerStrips] {
            let faults = placement.place(&torus, 2, Metric::Linf);
            let graph_faults: Vec<usize> = faults.iter().map(|f| f.index()).collect();
            assert_eq!(
                local_fault_bound(&g, &graph_faults),
                rbcast_adversary::local_fault_bound(&torus, 2, Metric::Linf, &faults),
                "{}",
                placement.name()
            );
        }
    }

    #[test]
    fn generic_cpa_cross_validates_the_radio_simulator() {
        // Two independent implementations of CPA must agree on WHO
        // commits under silent faults (rounds may differ by scheduling).
        use crate::{Experiment, FaultKind, ProtocolKind};
        use rbcast_adversary::Placement;

        let r = 2u32;
        let t = 2usize;
        let torus = Torus::for_radius(r);
        let faults = Placement::FrontierCluster { t }.place(&torus, r, Metric::Linf);

        // radio simulator
        let outcome = Experiment::new(r, ProtocolKind::Cpa)
            .with_t(t)
            .with_placement(Placement::FrontierCluster { t })
            .with_fault_kind(FaultKind::Silent)
            .run();

        // generic executor
        let g = Graph::from_torus(&torus, r, Metric::Linf);
        let graph_faults: Vec<usize> = faults.iter().map(|f| f.index()).collect();
        let commits = run_cpa(&g, torus.id(Coord::ORIGIN).index(), t, &graph_faults);
        let committed = commits
            .iter()
            .enumerate()
            .filter(|&(v, c)| c.is_some() && !graph_faults.contains(&v))
            .count();
        assert_eq!(committed, outcome.committed_correct);
    }

    #[test]
    fn fault_free_cpa_reaches_everyone_on_a_clique() {
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(6, &edges);
        let commits = run_cpa(&g, 0, 2, &[]);
        assert!(commits.iter().all(Option::is_some));
        // all non-source nodes hear the source directly: round 1
        assert!(commits[1..].iter().all(|&c| c == Some(1)));
    }

    #[test]
    fn bottleneck_stalls_cpa_at_t1_but_not_t0() {
        let (g, source) = bottleneck_graph();
        // t = 0: plain flooding semantics, everyone commits
        let flood = run_cpa(&g, source, 0, &[]);
        assert!(flood.iter().all(Option::is_some));
        // t = 1, fault-free: the bridge node 4 has only one committed
        // neighbor (3), never 2 — the far clique starves
        let stalled = run_cpa(&g, source, 1, &[]);
        assert!(stalled[..4].iter().all(Option::is_some));
        assert!(stalled[4..].iter().all(Option::is_none));
    }

    #[test]
    fn faulty_source_produces_nothing() {
        let (g, source) = bottleneck_graph();
        let commits = run_cpa(&g, source, 0, &[source]);
        assert!(commits.iter().all(Option::is_none));
    }

    #[test]
    fn grid_richness_vs_sparse_topology() {
        // The same t that stalls the bottleneck graph is harmless on the
        // grid graph — the topology dependence Pelc & Peleg highlight.
        let torus = Torus::new(12, 12);
        let g = Graph::from_torus(&torus, 1, Metric::Linf);
        let commits = run_cpa(&g, 0, 1, &[]);
        assert!(commits.iter().all(Option::is_some));
    }
}
