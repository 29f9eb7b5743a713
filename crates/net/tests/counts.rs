//! Counts cannot move: the benchmark's two toy clusters, with every
//! exact count the net layer keeps pinned to the value it had at the
//! commit before the pump was rebuilt around what arrives (PR 19). A
//! lost dedup, an extra retransmission, a changed send order or a
//! journal record more or less fails here on any host, however its
//! clock swings.
//!
//! The cluster is assembled from `NodeRuntime::open` + `LoopbackHub` +
//! `SharedJournal` the way `benchmark/src/wl_cluster.rs` assembles its
//! traced one (boot order, per-node chaos seeding and step order are
//! `LoopbackCluster`'s), because the journals must stay reachable to be
//! counted — and so that an API change which would break the benchmark
//! breaks a workspace test first.

use rbcast_core::ProtocolKind;
use rbcast_grid::{Metric, NeighborTable, NodeId};
use rbcast_net::cluster::summarize;
use rbcast_net::{
    ChaosConfig, ChaosTransport, ClusterSpec, Datagram, LoopbackHub, NodeRuntime, RuntimeConfig,
    SharedJournal,
};
use std::rc::Rc;
use std::sync::Arc;

struct Cluster {
    spec: ClusterSpec,
    cfg: RuntimeConfig,
    chaos: Option<ChaosConfig>,
    arena: Arc<NeighborTable>,
    hub: Rc<LoopbackHub>,
    nodes: Vec<Option<NodeRuntime>>,
    journals: Vec<SharedJournal>,
    ticks: u64,
}

impl Cluster {
    fn new(side: u32, instances: u32, rounds: u32, chaos: Option<ChaosConfig>) -> Cluster {
        let spec = ClusterSpec {
            width: side,
            height: side,
            radius: 1,
            metric: Metric::Linf,
            protocol: ProtocolKind::IndirectSimplified,
            t: 1,
            instances,
            rounds,
        };
        let arena = spec.arena();
        let n = arena.len();
        let mut cluster = Cluster {
            spec,
            cfg: RuntimeConfig {
                rounds,
                patience: 200_000,
            },
            chaos,
            arena,
            hub: LoopbackHub::new(),
            nodes: (0..n).map(|_| None).collect(),
            journals: (0..n).map(|_| SharedJournal::new()).collect(),
            ticks: 0,
        };
        for node in 0..n {
            cluster.boot(node as u32);
        }
        cluster
    }

    fn boot(&mut self, node: u32) {
        let port = self.hub.attach(node);
        let transport: Box<dyn Datagram> = match self.chaos {
            Some(base) => {
                let mut cfg = base;
                cfg.seed = base.seed ^ (u64::from(node) << 17);
                Box::new(ChaosTransport::new(node, port, cfg))
            }
            None => Box::new(port),
        };
        let spec = self.spec;
        let rt = NodeRuntime::open(
            Arc::clone(&self.arena),
            NodeId(node),
            &spec.instance_ids(),
            &mut |inst| spec.process_for(inst),
            transport,
            Box::new(self.journals[node as usize].clone()),
            self.cfg,
        )
        .expect("an uncorrupted journal replays");
        self.nodes[node as usize] = Some(rt);
    }

    fn step(&mut self) -> bool {
        self.ticks += 1;
        let mut all_done = true;
        for rt in self.nodes.iter_mut().flatten() {
            all_done &= rt.pump();
        }
        all_done
    }

    /// Runs to completion and returns `[ticks, digest, decisions]`, the
    /// summed `LinkStats` `[sent, retransmits, dup_rx, stale_rx,
    /// acks_rx]`, the summed `RuntimeStats` `[wire_errors, unknown_src,
    /// frames_ingested, stale_frames, unknown_instance, forced_rounds]`
    /// and the journal records held across all nodes.
    fn finish(mut self) -> ([u64; 3], [u64; 5], [u64; 6], usize) {
        while !self.step() {
            assert!(self.ticks < 1_000_000, "cluster wedged");
        }
        let nodes = self
            .nodes
            .iter()
            .flatten()
            .map(NodeRuntime::report)
            .collect();
        let report = summarize(&self.spec, nodes, self.ticks, Vec::new());
        assert_eq!(report.digest, self.spec.sim_oracle().digest, "parity");
        let (mut link, mut runtime) = ([0; 5], [0; 6]);
        for node in &report.nodes {
            let (l, s) = (node.link_totals, node.stats);
            let l = [l.sent, l.retransmits, l.dup_rx, l.stale_rx, l.acks_rx];
            let s = [
                s.wire_errors,
                s.unknown_src,
                s.frames_ingested,
                s.stale_frames,
                s.unknown_instance,
                s.forced_rounds,
            ];
            link.iter_mut().zip(l).for_each(|(sum, x)| *sum += x);
            runtime.iter_mut().zip(s).for_each(|(sum, x)| *sum += x);
        }
        let records = self.journals.iter().map(SharedJournal::len).sum();
        (
            [report.ticks, report.digest, report.decisions.len() as u64],
            link,
            runtime,
            records,
        )
    }
}

/// `cluster_clean` at `--check` size: 6×6, 4 instances × 16 rounds.
#[test]
fn clean_toy_cluster_counts_are_pinned() {
    let got = Cluster::new(6, 4, 16, None).finish();
    assert_eq!(
        got,
        (
            [17, 0x66a4_12f5_77b7_2fa5, 144],
            [14_976, 0, 0, 0, 4_488],
            [0, 0, 10_368, 0, 0, 0],
            15_624
        )
    );
}

/// `cluster_chaos_kill` at `--check` size: 5×5, 3 × 14, the benchmark's
/// smoke-chaos seed, node 7 killed after 20 ticks and restarted from its
/// journal 50 ticks later.
#[test]
fn chaos_kill_toy_cluster_counts_are_pinned() {
    // benchmark/src/workload.rs: derive(DEFAULT_SEED, 0xC4A05, 0).
    let chaos = ChaosConfig::smoke(0xd769_9da5_a33b_3791);
    let mut cluster = Cluster::new(5, 3, 14, Some(chaos));
    for _ in 0..20 {
        cluster.step();
    }
    cluster.nodes[7] = None;
    for _ in 0..50 {
        cluster.step();
    }
    cluster.boot(7);
    assert_eq!(
        cluster.finish(),
        (
            [17_263, 0xf62a_bf2c_8984_a7bd, 75],
            [8_200, 4_754, 2_799, 1, 2_829],
            [0, 0, 5_412, 33, 0, 0],
            8_649
        )
    );
}
