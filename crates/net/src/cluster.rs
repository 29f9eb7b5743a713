//! Cluster orchestration: shared run configuration, the sim oracle,
//! and a single-threaded in-process loopback cluster.
//!
//! [`ClusterSpec`] is the *entire* static configuration of a run —
//! topology, protocol, instance set, round horizon — shared verbatim by
//! every node (loopback or UDP child process) and by the
//! [`ClusterSpec::sim_oracle`], which replays the identical run on the
//! verified simulator. Oracle digest equality is the golden parity
//! criterion: the networked runtime must be *byte-identical* in its
//! decisions to the engine the paper's theorems were checked against.
//!
//! [`LoopbackCluster`] pumps every node round-robin on one thread over
//! a [`LoopbackHub`] — no sockets, no scheduling nondeterminism — and
//! supports mid-run kill/stall plus journal-backed restart, which is
//! how the recovery tests exercise the crash path deterministically.

use crate::chaos::{ChaosConfig, ChaosTransport};
use crate::journal::{JournalError, SharedJournal};
use crate::runtime::{NodeReport, NodeRuntime, RuntimeConfig};
use crate::transport::{Datagram, LoopbackHub};
use rbcast_core::ProtocolKind;
use rbcast_grid::{ArenaError, Metric, NeighborTable, NodeId, Torus};
use rbcast_protocols::{Msg, ProtocolParams};
use rbcast_sim::driver::{commit_digest, InstanceId};
use rbcast_sim::{ChannelConfig, Network, Process, Round, Value};
use std::rc::Rc;
use std::sync::Arc;

/// Static configuration of one cluster run, identical on every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Torus width.
    pub width: u32,
    /// Torus height.
    pub height: u32,
    /// Transmission radius.
    pub radius: u32,
    /// Neighborhood metric.
    pub metric: Metric,
    /// The protocol every node of every instance runs.
    pub protocol: ProtocolKind,
    /// Fault budget `t` the protocol is configured for.
    pub t: usize,
    /// Number of concurrent broadcast instances.
    pub instances: u32,
    /// Delivery rounds to run (must cover the protocol's decision
    /// latency; extra rounds are idle under the sparse contract).
    pub rounds: Round,
}

impl ClusterSpec {
    /// The shared topology. Uses the wrapping builder so small
    /// clusters (3×3 at r = 1, where wrap-around aliases neighbors)
    /// host correctly.
    ///
    /// # Panics
    ///
    /// On the error of [`ClusterSpec::try_arena`].
    #[must_use]
    pub fn arena(&self) -> Arc<NeighborTable> {
        self.try_arena().unwrap_or_else(|e| {
            // audit:allow(unwrap-panic): documented; `try_arena` is the fallible form
            panic!("{e}")
        })
    }

    /// [`ClusterSpec::arena`], returning a geometry the host cannot
    /// allocate as an error.
    ///
    /// # Errors
    ///
    /// As [`NeighborTable::try_build_wrapping`].
    pub fn try_arena(&self) -> Result<Arc<NeighborTable>, ArenaError> {
        let torus = Torus::new(self.width, self.height);
        NeighborTable::try_build_wrapping(&torus, self.radius, self.metric).map(Arc::new)
    }

    /// The run's instance set: instance `i` originates at node
    /// `i mod n` with sequence `i`. Deterministic, known to all nodes.
    #[must_use]
    pub fn instance_ids(&self) -> Vec<InstanceId> {
        let n = (self.width as u64 * self.height as u64) as u32;
        (0..self.instances)
            .map(|i| InstanceId {
                origin: NodeId(i % n),
                seq: i,
            })
            .collect()
    }

    /// The value instance `inst` broadcasts (alternating, so parity
    /// failures that swap values are caught).
    #[must_use]
    fn instance_value(inst: InstanceId) -> Value {
        inst.seq.is_multiple_of(2)
    }

    /// Builds one node's process for one instance.
    #[must_use]
    pub fn process_for(&self, inst: InstanceId) -> Box<dyn Process<Msg>> {
        let params = ProtocolParams {
            source: inst.origin,
            value: Self::instance_value(inst),
            t: self.t,
        };
        self.protocol.spawn(params)
    }

    /// Runs the identical configuration on the verified simulator — one
    /// reliable-channel [`Network`] per instance — and returns every
    /// decision plus the commit digest the cluster must reproduce.
    #[must_use]
    pub fn sim_oracle(&self) -> OracleReport {
        let arena = self.arena();
        let mut decisions = Vec::new();
        for inst in self.instance_ids() {
            let mut net =
                Network::with_arena(Arc::clone(&arena), ChannelConfig::reliable(), |_| {
                    self.process_for(inst)
                });
            net.run(self.rounds);
            for id in arena.torus().node_ids() {
                if let Some((value, round)) = net.decision(id) {
                    decisions.push((inst, id, value, round));
                }
            }
        }
        let digest = commit_digest(&decisions);
        OracleReport { decisions, digest }
    }
}

/// The sim oracle's answer for a [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Every `(instance, node, value, round)` decision.
    pub decisions: Vec<(InstanceId, NodeId, Value, Round)>,
    /// [`commit_digest`] over those decisions.
    pub digest: u64,
}

/// Aggregated outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Per-node summaries.
    pub nodes: Vec<NodeReport>,
    /// Every `(instance, node, value, round)` decision across nodes.
    pub decisions: Vec<(InstanceId, NodeId, Value, Round)>,
    /// [`commit_digest`] over those decisions.
    pub digest: u64,
    /// Fraction of `(instance, node)` pairs that committed.
    pub commit_rate: f64,
    /// Ticks the run loop executed.
    pub ticks: u64,
    /// Nodes that could not (re)boot because their journal was corrupt,
    /// with the replay error. A quarantined node contributes no
    /// decisions; the rest of the cluster keeps running.
    pub quarantined: Vec<(u32, String)>,
}

/// An in-process cluster: every node is a [`NodeRuntime`] pumped
/// round-robin on the calling thread, exchanging datagrams through a
/// [`LoopbackHub`] (optionally behind per-node chaos shims).
pub struct LoopbackCluster {
    spec: ClusterSpec,
    cfg: RuntimeConfig,
    chaos: Option<ChaosConfig>,
    arena: Arc<NeighborTable>,
    hub: Rc<LoopbackHub>,
    nodes: Vec<Option<NodeRuntime>>,
    journals: Vec<SharedJournal>,
    /// Nodes frozen (not pumped) until the given tick — stall chaos.
    stalled_until: Vec<u64>,
    /// Why a node refused to boot (corrupt journal), by node index.
    quarantined: Vec<Option<String>>,
    ticks: u64,
}

impl std::fmt::Debug for LoopbackCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackCluster")
            .field("spec", &self.spec)
            .field("live", &self.nodes.iter().filter(|n| n.is_some()).count())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl LoopbackCluster {
    /// Boots every node of `spec`. `chaos` (if any) wraps each node's
    /// transport with a shim seeded per node, so loss patterns differ
    /// across links but replay identically across runs.
    #[must_use]
    pub fn new(spec: ClusterSpec, cfg: RuntimeConfig, chaos: Option<ChaosConfig>) -> Self {
        let arena = spec.arena();
        let n = arena.len();
        let mut cluster = LoopbackCluster {
            spec,
            cfg,
            chaos,
            arena,
            hub: LoopbackHub::new(),
            nodes: (0..n).map(|_| None).collect(),
            journals: (0..n).map(|_| SharedJournal::new()).collect(),
            stalled_until: vec![0; n],
            quarantined: vec![None; n],
            ticks: 0,
        };
        for i in 0..n {
            // Fresh journals cannot be corrupt, but the same boot path
            // serves restarts, where they can.
            let _booted = cluster.boot(i as u32);
        }
        cluster
    }

    fn boot(&mut self, node: u32) -> Result<(), JournalError> {
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
        match NodeRuntime::open(
            Arc::clone(&self.arena),
            NodeId(node),
            &spec.instance_ids(),
            &mut |inst| spec.process_for(inst),
            transport,
            Box::new(self.journals[node as usize].clone()),
            self.cfg,
        ) {
            Ok(rt) => {
                self.nodes[node as usize] = Some(rt);
                self.quarantined[node as usize] = None;
                Ok(())
            }
            Err(e) => {
                // A node that cannot replay its journal stays down —
                // rebooting with amnesia could un-ack delivered frames.
                // The cluster keeps running without it; the report
                // carries the reason.
                self.quarantined[node as usize] = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Kills a node: its runtime (including unacked link buffers and
    /// in-memory round state) is dropped. The journal survives — it is
    /// the only thing a real crash preserves.
    pub fn kill(&mut self, node: u32) {
        self.nodes[node as usize] = None;
    }

    /// Restarts a killed node from its journal (bumped epoch, replayed
    /// state, re-sent outboxes). Returns false — leaving the node
    /// quarantined, with the reason in [`LoopbackCluster::report`] —
    /// when the journal no longer replays.
    pub fn restart(&mut self, node: u32) -> bool {
        assert!(
            self.nodes[node as usize].is_none(),
            "restart of a live node"
        );
        self.boot(node).is_ok()
    }

    /// Corrupts a node's journal by appending a raw garbage line — the
    /// recovery tests' stand-in for a torn write on disk. Takes effect
    /// at the next [`LoopbackCluster::restart`] (a live runtime never
    /// re-reads its own journal).
    #[cfg(test)]
    fn corrupt_journal(&mut self, node: u32, line: &str) {
        self.journals[node as usize].inject_raw(line);
    }

    /// Freezes a node for `ticks` cluster steps: it receives nothing
    /// and sends nothing, then resumes with its state intact (a GC
    /// pause / SIGSTOP, as opposed to a crash).
    #[cfg(test)]
    fn stall(&mut self, node: u32, ticks: u64) {
        self.stalled_until[node as usize] = self.ticks + ticks;
    }

    /// True when a node is currently live (booted and not killed).
    #[cfg(test)]
    fn is_live(&self, node: u32) -> bool {
        self.nodes[node as usize].is_some()
    }

    /// Pumps every live, un-stalled node once. Returns true when every
    /// live node has finished its rounds.
    pub fn step(&mut self) -> bool {
        self.ticks += 1;
        let mut all_done = true;
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            let Some(rt) = slot else { continue };
            if self.stalled_until[i] > self.ticks {
                all_done = false;
                continue;
            }
            if !rt.pump() {
                all_done = false;
            }
        }
        all_done
    }

    /// Runs until every live node finishes or `max_ticks` elapse;
    /// returns true on completion.
    pub fn run(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            if self.step() {
                return true;
            }
        }
        false
    }

    /// Aggregates decisions and digest across all live nodes.
    #[must_use]
    pub fn report(&self) -> ClusterReport {
        let nodes: Vec<NodeReport> = self
            .nodes
            .iter()
            .flatten()
            .map(NodeRuntime::report)
            .collect();
        let quarantined = self
            .quarantined
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.as_ref().map(|why| (i as u32, why.clone())))
            .collect();
        summarize(&self.spec, nodes, self.ticks, quarantined)
    }
}

/// Folds per-node reports into the cluster-level summary (shared by the
/// loopback cluster and the UDP cluster CLI, which collects the same
/// per-node reports from child processes).
#[must_use]
pub fn summarize(
    spec: &ClusterSpec,
    nodes: Vec<NodeReport>,
    ticks: u64,
    quarantined: Vec<(u32, String)>,
) -> ClusterReport {
    let mut decisions = Vec::new();
    for report in &nodes {
        for &(inst, value, round) in &report.decisions {
            decisions.push((inst, report.node, value, round));
        }
    }
    let digest = commit_digest(&decisions);
    let pairs = (spec.width as u64 * spec.height as u64) * u64::from(spec.instances);
    let commit_rate = if pairs == 0 {
        0.0
    } else {
        decisions.len() as f64 / pairs as f64
    };
    ClusterReport {
        nodes,
        decisions,
        digest,
        commit_rate,
        ticks,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            width: 3,
            height: 3,
            radius: 1,
            metric: Metric::Linf,
            protocol: ProtocolKind::Flood,
            t: 0,
            instances: 2,
            rounds: 12,
        }
    }

    #[test]
    fn loopback_flood_matches_oracle() {
        let spec = spec();
        let oracle = spec.sim_oracle();
        assert!(!oracle.decisions.is_empty());
        let mut cluster = LoopbackCluster::new(spec, RuntimeConfig::default(), None);
        assert!(cluster.run(100_000), "cluster must finish");
        let report = cluster.report();
        assert_eq!(report.decisions.len(), oracle.decisions.len());
        assert_eq!(report.digest, oracle.digest, "commit digests diverge");
        assert!((report.commit_rate - 1.0).abs() < 1e-12);
        assert!(report.nodes.iter().all(NodeReport::healthy));
    }

    #[test]
    fn corrupt_journal_quarantines_the_node_and_surfaces_in_the_report() {
        let spec = spec();
        // Finite patience: survivors must suspect the quarantined node
        // and finish without it, as in the unrecovered-crash test.
        let cfg = RuntimeConfig {
            patience: 400,
            ..RuntimeConfig::default()
        };
        let mut cluster = LoopbackCluster::new(spec, cfg, None);
        for _ in 0..20 {
            cluster.step();
        }
        // Crash node 4 and tear its journal: the restart must refuse to
        // boot (no amnesia reboots) instead of panicking, and the rest
        // of the cluster must still finish.
        cluster.kill(4);
        cluster.corrupt_journal(
            4,
            "{\"frame\":{\"peer\":1,\"pe\":1,\"seq\":0,\"body\":\"zz\"}}",
        );
        assert!(!cluster.restart(4), "corrupt journal must refuse to boot");
        assert!(!cluster.is_live(4));
        assert!(cluster.run(100_000), "healthy nodes must still finish");

        let report = cluster.report();
        assert_eq!(report.quarantined.len(), 1);
        let (node, why) = &report.quarantined[0];
        assert_eq!(*node, 4);
        assert!(why.contains("corrupt journal"), "reason surfaced: {why}");
        assert_eq!(report.nodes.len(), 8, "the other eight nodes report");
        assert!(report.commit_rate < 1.0);

        // A second restart after the corruption still refuses, and the
        // quarantine reason stays stable.
        assert!(!cluster.restart(4));
        assert_eq!(cluster.report().quarantined, report.quarantined);
    }

    #[test]
    fn a_journaled_frame_from_a_stranger_quarantines_the_node() {
        use crate::journal::{NetJournal, Record};
        use crate::wire::SeqFrame;
        let spec = ClusterSpec {
            width: 6,
            height: 6,
            ..spec()
        };
        let cfg = RuntimeConfig {
            patience: 400,
            ..RuntimeConfig::default()
        };
        // Off the torus, and on it but two hops from node 0.
        for stranger in [999, 21] {
            let mut cluster = LoopbackCluster::new(spec, cfg, None);
            for _ in 0..10 {
                cluster.step();
            }
            cluster.kill(0);
            // Well formed, for a round node 0 has yet to close: only
            // the sender is wrong.
            let frame = SeqFrame::Data {
                round: spec.rounds,
                instance: spec.instance_ids()[0],
                msg: Msg::Committed(true),
            };
            cluster.journals[0].clone().append(&Record::Frame {
                peer: stranger,
                peer_epoch: 1,
                seq: 0,
                frame,
            });
            let records = cluster.journals[0].len();
            assert!(
                !cluster.restart(0),
                "a frame from {stranger} must refuse to boot"
            );
            assert_eq!(
                cluster.journals[0].len(),
                records,
                "and leave its journal be"
            );
            assert!(cluster.run(100_000), "healthy nodes must still finish");
            let report = cluster.report();
            assert_eq!(report.quarantined.len(), 1);
            let (node, why) = &report.quarantined[0];
            assert_eq!(*node, 0);
            assert!(why.contains("corrupt journal"), "reason surfaced: {why}");
            assert!(why.contains(&format!("from {stranger},")), "{why}");
            assert_eq!(report.nodes.len(), 35, "the other nodes report");
        }
    }

    #[test]
    fn healthy_restart_clears_nothing_and_reports_no_quarantine() {
        let spec = spec();
        let mut cluster = LoopbackCluster::new(spec, RuntimeConfig::default(), None);
        for _ in 0..20 {
            cluster.step();
        }
        cluster.kill(4);
        assert!(cluster.restart(4), "intact journal must boot");
        assert!(cluster.run(100_000));
        let report = cluster.report();
        assert!(report.quarantined.is_empty());
        // Replayed records count too: the stat is the journal's length.
        for (node, journal) in report.nodes.iter().zip(&cluster.journals) {
            assert_eq!(node.stats.journal_records, journal.len() as u64);
        }
    }

    #[test]
    fn stalled_node_catches_up_without_suspicion() {
        let spec = spec();
        let oracle = spec.sim_oracle();
        let mut cluster = LoopbackCluster::new(spec, RuntimeConfig::default(), None);
        cluster.stall(4, 300);
        assert!(cluster.run(100_000));
        let report = cluster.report();
        assert_eq!(report.digest, oracle.digest);
        assert!(report.nodes.iter().all(NodeReport::healthy));
    }
}
