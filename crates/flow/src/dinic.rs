//! Dinic's maximum-flow algorithm.

/// Identifier of a directed edge added to a [`FlowNetwork`].
///
/// Returned by [`FlowNetwork::add_edge`]; it names one forward edge of
/// the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: u32,
    // index of the reverse edge in `edges`
    rev: usize,
}

/// A directed flow network solved with Dinic's algorithm.
///
/// Capacities are integral (`u32`); the implementation runs in
/// `O(V²·E)` in general and `O(E·√V)` on the unit-capacity networks the
/// disjoint-path reductions produce.
///
/// # Example
///
/// ```
/// use rbcast_flow::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// net.add_edge(0, 1, 2);
/// net.add_edge(0, 2, 1);
/// net.add_edge(1, 3, 1);
/// net.add_edge(2, 3, 2);
/// assert_eq!(net.max_flow(0, 3), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    graph: Vec<Vec<usize>>, // node -> indices into `edges`
    edges: Vec<Edge>,
    // scratch space for BFS levels / DFS iterator positions
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl FlowNetwork {
    /// Creates an empty network with `n` nodes (numbered `0..n`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            graph: vec![Vec::new(); n],
            edges: Vec::new(),
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    #[must_use]
    fn len(&self) -> usize {
        self.graph.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap` and returns
    /// its id. A zero-capacity reverse edge is added automatically.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u32) -> EdgeId {
        assert!(
            from < self.len() && to < self.len(),
            "edge endpoint out of range"
        );
        let fwd = self.edges.len();
        let rev = fwd + 1;
        self.edges.push(Edge { to, cap, rev });
        self.edges.push(Edge {
            to: from,
            cap: 0,
            rev: fwd,
        });
        self.graph[from].push(fwd);
        self.graph[to].push(rev);
        EdgeId(fwd)
    }

    /// Flow currently routed over edge `e` (meaningful after
    /// [`FlowNetwork::max_flow`]).
    #[cfg(test)]
    fn flow_on(&self, e: EdgeId) -> u32 {
        // flow = capacity of the reverse edge
        let rev = self.edges[e.0].rev;
        self.edges[rev].cap
    }

    /// Vertices reachable from `from` in the residual graph of the last
    /// flow — the source side of a minimum cut (max-flow/min-cut).
    #[must_use]
    pub(crate) fn residual_reachable(&self, from: usize) -> Vec<bool> {
        let mut reach = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        reach[from] = true;
        while let Some(v) = queue.pop_front() {
            for &ei in &self.graph[v] {
                let e = &self.edges[ei];
                if e.cap > 0 && !reach[e.to] {
                    reach[e.to] = true;
                    queue.push_back(e.to);
                }
            }
        }
        reach
    }

    /// Computes the maximum `s → t` flow.
    ///
    /// Equivalent to `max_flow_capped(s, t, u32::MAX)`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u32 {
        self.max_flow_capped(s, t, u32::MAX)
    }

    /// Computes the `s → t` max flow, stopping early once `target` units
    /// have been routed (useful when the caller only needs to know whether
    /// `t + 1` disjoint paths exist).
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub(crate) fn max_flow_capped(&mut self, s: usize, t: usize, target: u32) -> u32 {
        assert!(s < self.len() && t < self.len(), "terminal out of range");
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0;
        while flow < target {
            if !self.bfs(s, t) {
                break;
            }
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, target - flow);
                if f == 0 {
                    break;
                }
                flow += f;
                crate::stats::count_augmentation();
                if flow >= target {
                    break;
                }
            }
        }
        flow
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &ei in &self.graph[v] {
                let e = &self.edges[ei];
                if e.cap > 0 && self.level[e.to] < 0 {
                    self.level[e.to] = self.level[v] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, limit: u32) -> u32 {
        if v == t {
            return limit;
        }
        while self.iter[v] < self.graph[v].len() {
            let ei = self.graph[v][self.iter[v]];
            let (to, cap) = {
                let e = &self.edges[ei];
                (e.to, e.cap)
            };
            if cap > 0 && self.level[v] < self.level[to] {
                let d = self.dfs(to, t, limit.min(cap));
                if d > 0 {
                    self.edges[ei].cap -= d;
                    let rev = self.edges[ei].rev;
                    self.edges[rev].cap += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn no_path_means_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        // node 2 disconnected
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn classic_diamond() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn augmenting_path_required() {
        // The textbook example where a greedy routing must be undone via
        // the residual (reverse) edge.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn capped_flow_stops_early() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 100);
        assert_eq!(net.max_flow_capped(0, 1, 3), 3);
    }

    #[test]
    fn flow_on_reports_per_edge_flow() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 4);
        let b = net.add_edge(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
        assert_eq!(net.flow_on(a), 2);
        assert_eq!(net.flow_on(b), 2);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 1, 1);
        assert_eq!(net.max_flow(0, 1), 3);
    }

    #[test]
    fn bipartite_matching_via_flow() {
        // 3x3 bipartite graph, perfect matching exists.
        // s=0, left={1,2,3}, right={4,5,6}, t=7
        let mut net = FlowNetwork::new(8);
        for l in 1..=3 {
            net.add_edge(0, l, 1);
        }
        for r in 4..=6 {
            net.add_edge(r, 7, 1);
        }
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 5, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(net.max_flow(0, 7), 3);
    }

    #[test]
    fn flow_conservation_holds() {
        // random-ish fixed network; verify conservation at internal nodes
        let mut net = FlowNetwork::new(6);
        let mut ids = Vec::new();
        let edges = [
            (0usize, 1usize, 3u32),
            (0, 2, 4),
            (1, 3, 2),
            (2, 3, 3),
            (1, 4, 2),
            (2, 4, 1),
            (3, 5, 4),
            (4, 5, 3),
        ];
        for &(u, v, c) in &edges {
            ids.push((u, v, net.add_edge(u, v, c)));
        }
        let total = net.max_flow(0, 5);
        assert_eq!(total, 7);
        for node in 1..=4usize {
            let inflow: u32 = ids
                .iter()
                .filter(|&&(_, v, _)| v == node)
                .map(|&(_, _, id)| net.flow_on(id))
                .sum();
            let outflow: u32 = ids
                .iter()
                .filter(|&&(u, _, _)| u == node)
                .map(|&(_, _, id)| net.flow_on(id))
                .sum();
            assert_eq!(inflow, outflow, "conservation at node {node}");
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_terminals_panic() {
        let mut net = FlowNetwork::new(2);
        net.max_flow(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 2, 1);
    }
}
