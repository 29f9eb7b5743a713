//! Internally-vertex-disjoint paths in undirected graphs (Menger).

use std::fmt;

use crate::FlowNetwork;

/// Precondition violations of the disjoint-path API.
///
/// Every variant names the invariant the caller broke, so a failure
/// surfaced through [`Result`] (or an `expect` on one) identifies the
/// offending input rather than a bare index panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisjointError {
    /// `s` or `t` is not a vertex of the graph (`terminal >= n`).
    TerminalOutOfRange {
        /// The offending terminal index.
        terminal: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// `s == t`: internal disjointness is undefined for a single vertex.
    IdenticalTerminals {
        /// The coincident terminal index.
        terminal: usize,
    },
    /// An adjacency list references a vertex outside the graph.
    AdjacencyOutOfRange {
        /// Vertex whose adjacency list is malformed.
        from: usize,
        /// The out-of-range entry.
        entry: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
}

impl fmt::Display for DisjointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DisjointError::TerminalOutOfRange { terminal, n } => {
                write!(f, "terminal {terminal} out of range for {n}-vertex graph")
            }
            DisjointError::IdenticalTerminals { terminal } => {
                write!(f, "source and sink are both vertex {terminal}")
            }
            DisjointError::AdjacencyOutOfRange { from, entry, n } => write!(
                f,
                "adjacency list of vertex {from} references {entry}, out of range \
                 for {n}-vertex graph"
            ),
        }
    }
}

impl std::error::Error for DisjointError {}

/// Validates the shared preconditions of the disjoint-path API.
fn validate(adj: &[Vec<usize>], s: usize, t: usize) -> Result<(), DisjointError> {
    let n = adj.len();
    for terminal in [s, t] {
        if terminal >= n {
            return Err(DisjointError::TerminalOutOfRange { terminal, n });
        }
    }
    if s == t {
        return Err(DisjointError::IdenticalTerminals { terminal: s });
    }
    for (from, nbrs) in adj.iter().enumerate() {
        if let Some(&entry) = nbrs.iter().find(|&&v| v >= n) {
            return Err(DisjointError::AdjacencyOutOfRange { from, entry, n });
        }
    }
    Ok(())
}

/// Maximum number of internally-vertex-disjoint paths between `s` and `t`
/// in an undirected graph given as an adjacency list.
///
/// Uses the node-splitting reduction: every vertex other than `s`/`t`
/// becomes an `in → out` arc of capacity 1, so each unit of flow occupies
/// a distinct set of intermediate vertices. If `cap` is `Some(k)`, the
/// computation stops as soon as `k` paths are found (the return value is
/// then `min(k, true maximum)`).
///
/// # Panics
///
/// Panics if `s == t`, if either is out of range, or if an adjacency entry
/// is out of range. [`try_vertex_disjoint_count`] is the non-panicking
/// form.
///
/// # Example
///
/// ```
/// use rbcast_flow::vertex_disjoint_count;
///
/// // K4: three internally-disjoint paths between any two vertices
/// // (one direct edge + two length-2 paths).
/// let adj = vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]];
/// assert_eq!(vertex_disjoint_count(&adj, 0, 3, None), 3);
/// ```
#[must_use]
pub fn vertex_disjoint_count(adj: &[Vec<usize>], s: usize, t: usize, cap: Option<u32>) -> u32 {
    try_vertex_disjoint_count(adj, s, t, cap)
        .expect("caller guarantees distinct in-range terminals and a closed adjacency list")
}

/// Non-panicking form of [`vertex_disjoint_count`]: precondition
/// violations come back as a [`DisjointError`] naming the broken
/// invariant.
pub fn try_vertex_disjoint_count(
    adj: &[Vec<usize>],
    s: usize,
    t: usize,
    cap: Option<u32>,
) -> Result<u32, DisjointError> {
    validate(adj, s, t)?;
    let (mut net, s_out, t_in) = build_split_network(adj, s, t);
    Ok(net.max_flow_capped(s_out, t_in, cap.unwrap_or(u32::MAX)))
}

/// Extracts a *minimum vertex cut* separating `s` from `t`: a smallest
/// set of vertices (excluding the terminals) whose removal disconnects
/// them. By Menger's theorem its size equals
/// [`vertex_disjoint_count`]`(adj, s, t, None)` — the impossibility-side
/// witness dual to the disjoint-path families (a fault placement hitting
/// every path).
///
/// Returns `Ok(None)` when `s` and `t` are adjacent (no vertex cut
/// exists), and a [`DisjointError`] naming the broken invariant when the
/// input violates a precondition of [`vertex_disjoint_count`].
pub fn try_min_vertex_cut(
    adj: &[Vec<usize>],
    s: usize,
    t: usize,
) -> Result<Option<Vec<usize>>, DisjointError> {
    validate(adj, s, t)?;
    crate::stats::count_min_cut();
    if adj[s].contains(&t) {
        return Ok(None);
    }
    // Build the split network with *unbounded* adjacency arcs so the
    // minimum cut consists purely of node-internal arcs (the vertex
    // capacities). The counting variant uses unit adjacency arcs instead
    // (equivalent for the flow value, not for cut extraction).
    let n = adj.len();
    let mut net = FlowNetwork::new(2 * n);
    const INF: u32 = u32::MAX / 2;
    for v in 0..n {
        let cap = if v == s || v == t { INF } else { 1 };
        net.add_edge(2 * v, 2 * v + 1, cap);
    }
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            net.add_edge(2 * u + 1, 2 * v, INF);
        }
    }
    let (s_out, t_in) = (2 * s + 1, 2 * t);
    let _ = net.max_flow(s_out, t_in);
    // Min cut = vertices whose internal in→out arc crosses the residual
    // reachability boundary.
    let reach = net.residual_reachable(s_out);
    let mut cut = Vec::new();
    for v in 0..n {
        if v != s && v != t && reach[2 * v] && !reach[2 * v + 1] {
            cut.push(v);
        }
    }
    Ok(Some(cut))
}

/// Builds the node-split network. Returns `(network, source, sink)` where
/// `source` is `s`'s out-copy and `sink` is `t`'s in-copy.
fn build_split_network(adj: &[Vec<usize>], s: usize, t: usize) -> (FlowNetwork, usize, usize) {
    // Preconditions hold here: every caller has gone through validate().
    let n = adj.len();

    // vertex v -> in-copy 2v, out-copy 2v+1
    let mut net = FlowNetwork::new(2 * n);
    for v in 0..n {
        // s and t have unbounded internal capacity; all other vertices 1.
        let cap = if v == s || v == t { u32::MAX } else { 1 };
        net.add_edge(2 * v, 2 * v + 1, cap);
    }
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            // one direction per listed arc; undirected graphs list both.
            net.add_edge(2 * u + 1, 2 * v, 1);
        }
    }
    (net, 2 * s + 1, 2 * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Convenience: build symmetric adjacency from an edge list.
    fn min_vertex_cut(adj: &[Vec<usize>], s: usize, t: usize) -> Option<Vec<usize>> {
        try_min_vertex_cut(adj, s, t).expect("well-formed test graph")
    }

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj
    }

    #[test]
    fn path_graph_has_one_disjoint_path() {
        let adj = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(vertex_disjoint_count(&adj, 0, 3, None), 1);
    }

    #[test]
    fn cycle_has_two() {
        let adj = undirected(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(vertex_disjoint_count(&adj, 0, 3, None), 2);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let adj = undirected(5, &edges);
        // direct edge + 3 two-hop paths
        assert_eq!(vertex_disjoint_count(&adj, 0, 4, None), 4);
    }

    #[test]
    fn cut_vertex_limits_count() {
        // bowtie: two triangles sharing vertex 2
        let adj = undirected(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        assert_eq!(vertex_disjoint_count(&adj, 0, 4, None), 1);
    }

    #[test]
    fn cap_limits_result() {
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let adj = undirected(6, &edges);
        assert_eq!(vertex_disjoint_count(&adj, 0, 5, Some(2)), 2);
    }

    #[test]
    fn disconnected_graph_zero_paths() {
        let adj = undirected(4, &[(0, 1), (2, 3)]);
        assert_eq!(vertex_disjoint_count(&adj, 0, 3, None), 0);
    }

    #[test]
    fn multiple_direct_edges_count_once_each() {
        // parallel edges in the adjacency list both usable
        let mut adj = vec![Vec::new(); 2];
        adj[0].push(1);
        adj[0].push(1);
        adj[1].push(0);
        adj[1].push(0);
        assert_eq!(vertex_disjoint_count(&adj, 0, 1, None), 2);
    }

    #[test]
    fn grid_neighborhood_menger_sanity() {
        // 3x3 grid graph (rook-adjacent), corner to corner: 2 disjoint paths.
        let idx = |x: usize, y: usize| y * 3 + x;
        let mut edges = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                if x + 1 < 3 {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < 3 {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let adj = undirected(9, &edges);
        assert_eq!(vertex_disjoint_count(&adj, idx(0, 0), idx(2, 2), None), 2);
    }

    #[test]
    fn try_variants_report_broken_preconditions() {
        let adj = undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            try_vertex_disjoint_count(&adj, 0, 9, None),
            Err(DisjointError::TerminalOutOfRange { terminal: 9, n: 4 })
        );
        assert_eq!(
            try_vertex_disjoint_count(&adj, 2, 2, None),
            Err(DisjointError::IdenticalTerminals { terminal: 2 })
        );
        let mut bad = adj.clone();
        bad[1].push(42);
        assert_eq!(
            try_min_vertex_cut(&bad, 0, 3),
            Err(DisjointError::AdjacencyOutOfRange {
                from: 1,
                entry: 42,
                n: 4
            })
        );
        // Errors render the invariant, not just a code.
        let msg = DisjointError::TerminalOutOfRange { terminal: 9, n: 4 }.to_string();
        assert!(msg.contains("terminal 9"), "{msg}");
    }

    #[test]
    fn try_variants_agree_with_panicking_forms() {
        let adj = undirected(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]);
        assert_eq!(
            try_vertex_disjoint_count(&adj, 0, 5, None),
            Ok(vertex_disjoint_count(&adj, 0, 5, None))
        );
    }

    #[test]
    fn min_cut_of_bowtie_is_the_shared_vertex() {
        let adj = undirected(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        assert_eq!(min_vertex_cut(&adj, 0, 4), Some(vec![2]));
    }

    #[test]
    fn min_cut_none_for_adjacent_terminals() {
        let adj = undirected(2, &[(0, 1)]);
        assert_eq!(min_vertex_cut(&adj, 0, 1), None);
    }

    #[test]
    fn min_cut_disconnects_and_matches_menger() {
        let adj = undirected(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 4)]);
        let cut = min_vertex_cut(&adj, 0, 5).unwrap();
        assert_eq!(cut.len() as u32, vertex_disjoint_count(&adj, 0, 5, None));
        // removing the cut disconnects 0 from 5
        let mut reach = [false; 6];
        reach[0] = true;
        let mut queue = vec![0usize];
        while let Some(v) = queue.pop() {
            for &w in &adj[v] {
                if !cut.contains(&w) && !reach[w] {
                    reach[w] = true;
                    queue.push(w);
                }
            }
        }
        assert!(!reach[5], "cut {cut:?} failed to disconnect");
    }

    proptest! {
        /// Menger duality: on random graphs with non-adjacent terminals,
        /// the extracted cut has exactly the disjoint-path count and
        /// disconnects the terminals.
        #[test]
        fn min_cut_duality(seed_edges in proptest::collection::vec((0usize..9, 0usize..9), 0..30)) {
            let edges: Vec<(usize, usize)> = seed_edges
                .into_iter()
                .filter(|&(u, v)| u != v && !(u == 0 && v == 8) && !(u == 8 && v == 0))
                .collect();
            let adj = undirected(9, &edges);
            prop_assume!(!adj[0].contains(&8));
            let count = vertex_disjoint_count(&adj, 0, 8, None);
            let cut = min_vertex_cut(&adj, 0, 8).unwrap();
            prop_assert_eq!(cut.len() as u32, count);
            // removal disconnects
            let mut reach = [false; 9];
            reach[0] = true;
            let mut queue = vec![0usize];
            while let Some(v) = queue.pop() {
                for &w in &adj[v] {
                    if !cut.contains(&w) && !reach[w] {
                        reach[w] = true;
                        queue.push(w);
                    }
                }
            }
            prop_assert!(!reach[8]);
        }

        /// The cap parameter never changes feasibility, only truncates.
        #[test]
        fn cap_is_a_pure_truncation(seed_edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)) {
            let edges: Vec<(usize, usize)> =
                seed_edges.into_iter().filter(|&(u, v)| u != v).collect();
            let adj = undirected(8, &edges);
            let full = vertex_disjoint_count(&adj, 0, 7, None);
            for cap in 0..=4u32 {
                let capped = vertex_disjoint_count(&adj, 0, 7, Some(cap));
                prop_assert_eq!(capped, full.min(cap));
            }
        }

        /// Menger: disjoint path count is at most min(deg(s), deg(t)) in
        /// simple graphs.
        #[test]
        fn bounded_by_terminal_degree(seed_edges in proptest::collection::vec((0usize..8, 0usize..8), 0..28)) {
            let mut set = std::collections::HashSet::new();
            for (u, v) in seed_edges {
                if u != v {
                    set.insert((u.min(v), u.max(v)));
                }
            }
            let edges: Vec<_> = set.into_iter().collect();
            let adj = undirected(8, &edges);
            let count = vertex_disjoint_count(&adj, 0, 7, None);
            prop_assert!(count as usize <= adj[0].len());
            prop_assert!(count as usize <= adj[7].len());
        }
    }
}
