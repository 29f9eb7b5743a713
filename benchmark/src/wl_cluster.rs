//! The two `rbcast cluster --transport loopback` workloads: the same
//! `net` layer on its fast path (`cluster_clean`) and on its recovery
//! path (`cluster_chaos_kill`: burst loss, duplication, reordering, one
//! node killed and restarted from its journal).

use crate::shim::{DatagramShim, JournalShim, JournalTap, WireTap};
use crate::trace::Trace;
use crate::workload::{derive, RepOutput, Spec, Workload, DEFAULT_SEED};
use rbcast_grid::{Metric, NeighborTable, NodeId};
use rbcast_net::cluster::summarize;
use rbcast_net::{
    decode_packet, encode_packet, ChaosConfig, ChaosTransport, ClusterReport, ClusterSpec,
    Datagram, FileJournal, LoopbackCluster, LoopbackHub, NetJournal, NetProtocol, NodeRuntime,
    OracleReport, Record, RuntimeConfig, SharedJournal,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

pub const CLUSTER_CLEAN: Spec = Spec {
    name: "cluster_clean",
    unit: "commits",
    why: "16x16 loopback cluster, 64 instances, no chaos: the net fast path (pump, wire \
          encode/decode, link acks, journal record encoding) against the sim oracle's price",
    seeded: false,
    build: |_seed, toy| {
        let (side, instances, rounds) = if toy { (6, 4, 16) } else { (16, 64, 40) };
        Box::new(ClusterWorkload::new(side, instances, rounds, None, None))
    },
};

pub const CLUSTER_CHAOS_KILL: Spec = Spec {
    name: "cluster_chaos_kill",
    unit: "commits",
    why: "12x12 loopback cluster under smoke chaos with node 40 killed and restarted from its \
          journal: ARQ retransmission, duplicate suppression, replay and epoch bump carry the run",
    // The loss pattern is part of the workload, not of `--seed`: a
    // round waits for its unluckiest link, so the tick count (and with
    // it the wall time, which is mostly idle pumping) swings by ±15 %
    // from one chaos seed to the next — wider than any bound worth
    // having.
    seeded: false,
    build: |_seed, toy| {
        let (side, instances, rounds, victim) = if toy { (5, 3, 14, 7) } else { (12, 48, 32, 40) };
        let chaos = ChaosConfig::smoke(derive(DEFAULT_SEED, 0xC4A05, 0));
        Box::new(ClusterWorkload::new(
            side,
            instances,
            rounds,
            Some(chaos),
            Some(victim),
        ))
    },
};

/// The pump-loop budget and barrier patience `rbcast cluster` defaults to.
const MAX_TICKS: u64 = 20_000_000;
const PATIENCE: u64 = 200_000;
/// `rbcast cluster --kill`: the victim dies after this many ticks …
const KILL_AFTER_TICKS: u64 = 20;
/// … and restarts from its journal this many ticks later.
const DOWN_TICKS: u64 = 50;

struct ClusterWorkload {
    spec: ClusterSpec,
    cfg: RuntimeConfig,
    chaos: Option<ChaosConfig>,
    kill: Option<u32>,
    oracle: OracleReport,
    oracle_s: f64,
    /// Datagrams and journal records the last traced repetition
    /// captured, for the kernels.
    datagrams: RefCell<Vec<Vec<u8>>>,
    records: RefCell<Vec<Record>>,
}

impl ClusterWorkload {
    fn new(
        side: u32,
        instances: u32,
        rounds: u32,
        chaos: Option<ChaosConfig>,
        kill: Option<u32>,
    ) -> ClusterWorkload {
        let spec = ClusterSpec {
            width: side,
            height: side,
            radius: 1,
            metric: Metric::Linf,
            protocol: NetProtocol::IndirectSimplified,
            t: 1,
            instances,
            rounds,
        };
        let start = Instant::now();
        let oracle = spec.sim_oracle();
        ClusterWorkload {
            spec,
            cfg: RuntimeConfig {
                rounds,
                patience: PATIENCE,
                ..RuntimeConfig::default()
            },
            chaos,
            kill,
            oracle,
            oracle_s: start.elapsed().as_secs_f64(),
            datagrams: RefCell::default(),
            records: RefCell::default(),
        }
    }

    fn output(&self, finished: bool, report: &ClusterReport) -> RepOutput {
        let parity = finished
            && report.quarantined.is_empty()
            && report.digest == self.oracle.digest
            && report.decisions.len() == self.oracle.decisions.len();
        RepOutput {
            hash: report.digest,
            work: report.decisions.len() as u64,
            rounds_to_commit: report
                .decisions
                .iter()
                .map(|&(_, _, _, round)| u64::from(round))
                .max()
                .unwrap_or(0),
            ops: 1,
            failed: u64::from(!parity),
            counts: vec![
                ("ticks", report.ticks),
                ("commits", report.decisions.len() as u64),
            ],
        }
    }
}

/// `LoopbackCluster`, rebuilt from `NodeRuntime::open` + `LoopbackHub`
/// so every node's transport and journal can carry a shim. Mirrors the
/// original's boot order, per-node chaos seeding and step order exactly;
/// the run must reproduce its digest and tick count.
struct TracedCluster<'a> {
    w: &'a ClusterWorkload,
    arena: Arc<NeighborTable>,
    hub: Rc<LoopbackHub>,
    nodes: Vec<Option<NodeRuntime>>,
    journals: Vec<SharedJournal>,
    ticks: u64,
    /// What the link layer handed down.
    outer: Rc<WireTap>,
    /// What reached the hub (equals `outer` without chaos).
    inner: Rc<WireTap>,
    journal_tap: Rc<JournalTap>,
    started: Instant,
    /// `closed_ms[node][k]`: when the node closed round `k`.
    closed_ms: Vec<Vec<f64>>,
    pump_calls: u64,
    pump_ns: u64,
}

impl<'a> TracedCluster<'a> {
    fn new(w: &'a ClusterWorkload) -> Self {
        let arena = w.spec.arena();
        let n = arena.len();
        let mut cluster = TracedCluster {
            w,
            arena,
            hub: LoopbackHub::new(),
            nodes: (0..n).map(|_| None).collect(),
            journals: (0..n).map(|_| SharedJournal::new()).collect(),
            ticks: 0,
            outer: Rc::default(),
            inner: Rc::default(),
            journal_tap: Rc::default(),
            started: Instant::now(),
            closed_ms: vec![Vec::new(); n],
            pump_calls: 0,
            pump_ns: 0,
        };
        for node in 0..n {
            cluster.boot(node as u32);
        }
        cluster
    }

    fn boot(&mut self, node: u32) -> bool {
        let port = self.hub.attach(node);
        let transport: Box<dyn Datagram> = match self.w.chaos {
            Some(base) => {
                let mut cfg = base;
                cfg.seed = base.seed ^ (u64::from(node) << 17);
                Box::new(DatagramShim::new(
                    ChaosTransport::new(node, DatagramShim::new(port, &self.inner), cfg),
                    &self.outer,
                ))
            }
            None => Box::new(DatagramShim::new(port, &self.outer)),
        };
        let spec = self.w.spec;
        let journal = JournalShim::new(self.journals[node as usize].clone(), &self.journal_tap);
        let opened = NodeRuntime::open(
            Arc::clone(&self.arena),
            NodeId(node),
            &spec.instance_ids(),
            &mut |inst| spec.process_for(inst),
            transport,
            Box::new(journal),
            self.w.cfg,
        );
        self.nodes[node as usize] = opened.ok();
        self.note_closed(node as usize);
        self.nodes[node as usize].is_some()
    }

    /// Stamps every round `node` has closed since the last look.
    fn note_closed(&mut self, node: usize) {
        let Some(rt) = &self.nodes[node] else { return };
        let closed = rt.rounds_closed() as usize;
        if self.closed_ms[node].len() < closed {
            let now = self.started.elapsed().as_secs_f64() * 1e3;
            self.closed_ms[node].resize(closed, now);
        }
    }

    /// One tick: every live node pumped once, in node order. Clocked
    /// per tick, not per pump — the chaos run makes millions of pumps,
    /// most of them idle.
    fn step(&mut self) -> bool {
        self.ticks += 1;
        let mut all_done = true;
        let start = Instant::now();
        for node in 0..self.nodes.len() {
            let Some(rt) = self.nodes[node].as_mut() else {
                continue;
            };
            all_done &= rt.pump();
            self.pump_calls += 1;
            self.note_closed(node);
        }
        self.pump_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        all_done
    }

    fn report(&self) -> ClusterReport {
        let nodes = self
            .nodes
            .iter()
            .flatten()
            .map(NodeRuntime::report)
            .collect();
        summarize(&self.w.spec, nodes, self.ticks, Vec::new())
    }
}

impl Workload for ClusterWorkload {
    /// `run_loopback_cluster` of the CLI: boot, optional kill/restart
    /// schedule, run to completion, report.
    fn run(&self) -> RepOutput {
        let mut cluster = LoopbackCluster::new(self.spec, self.cfg, self.chaos);
        if let Some(victim) = self.kill {
            for _ in 0..KILL_AFTER_TICKS {
                if cluster.step() {
                    break;
                }
            }
            cluster.kill(victim);
            for _ in 0..DOWN_TICKS {
                cluster.step();
            }
            cluster.restart(victim);
        }
        let finished = cluster.run(MAX_TICKS);
        self.output(finished, &cluster.report())
    }

    fn run_traced(&self, trace: &mut Trace) -> RepOutput {
        let (mut cluster, boot_s) = trace.span("net.cluster.boot", |_| TracedCluster::new(self));
        trace.value("net.cluster.boot_s", boot_s);

        let run = trace.open("net.cluster.run");
        let mut finished = false;
        if let Some(victim) = self.kill {
            for _ in 0..KILL_AFTER_TICKS {
                if cluster.step() {
                    break;
                }
            }
            cluster.nodes[victim as usize] = None;
            for _ in 0..DOWN_TICKS {
                cluster.step();
            }
            let closed_before = cluster.closed_ms[victim as usize].len();
            let (_, restart_s) = trace.span("net.recovery.restart", |_| cluster.boot(victim));
            trace.value("net.recovery.restart_s", restart_s);
            // Catch-up: ticks until the restarted node closes a round
            // its previous incarnation had not.
            let restarted_at = cluster.ticks;
            while !finished
                && cluster.closed_ms[victim as usize].len() <= closed_before
                && cluster.ticks < MAX_TICKS
            {
                finished = cluster.step();
            }
            trace.count("net.recovery.catchup_ticks", cluster.ticks - restarted_at);
        }
        while !finished && cluster.ticks < MAX_TICKS {
            finished = cluster.step();
        }
        let run_s = trace.close(run);
        let (report, _) = trace.span("net.cluster.report", |_| cluster.report());

        let commits = report.decisions.len().max(1) as f64;
        trace.count("net.cluster.ticks", cluster.ticks);
        trace.value("net.oracle.sim_s", self.oracle_s);
        trace.value(
            "net.overhead_vs_sim",
            (boot_s + run_s) / self.oracle_s.max(1e-9),
        );
        trace.count("net.runtime.pump.calls", cluster.pump_calls);
        trace.value("net.runtime.pump.s", cluster.pump_ns as f64 * 1e-9);
        let (mut frames, mut stale, mut forced, mut wire_errors) = (0, 0, 0, 0);
        let (mut sent, mut retransmits, mut dup_rx, mut stale_rx, mut acks_rx) = (0, 0, 0, 0, 0);
        for node in &report.nodes {
            frames += node.stats.frames_ingested;
            stale += node.stats.stale_frames;
            forced += node.stats.forced_rounds;
            wire_errors += node.stats.wire_errors;
            sent += node.link_totals.sent;
            retransmits += node.link_totals.retransmits;
            dup_rx += node.link_totals.dup_rx;
            stale_rx += node.link_totals.stale_rx;
            acks_rx += node.link_totals.acks_rx;
        }
        trace.count("net.runtime.frames_ingested", frames);
        trace.count("net.runtime.stale_frames", stale);
        trace.count("net.runtime.forced_rounds", forced);
        trace.count("net.runtime.wire_errors", wire_errors);
        trace.count("net.link.sent", sent);
        trace.count("net.link.retransmits", retransmits);
        trace.count("net.link.dup_rx", dup_rx);
        trace.count("net.link.stale_rx", stale_rx);
        trace.count("net.link.acks_rx", acks_rx);
        trace.value(
            "net.link.retransmit_frac",
            retransmits as f64 / sent.max(1) as f64,
        );
        let tx = cluster.outer.datagrams.get();
        trace.count("net.transport.datagrams_tx", tx);
        trace.count("net.transport.bytes_tx", cluster.outer.bytes.get());
        trace.value("net.transport.datagrams_per_commit", tx as f64 / commits);
        trace.value(
            "net.transport.bytes_per_commit",
            cluster.outer.bytes.get() as f64 / commits,
        );
        if self.chaos.is_some() {
            trace.value(
                "net.chaos.loss_frac",
                1.0 - cluster.inner.datagrams.get() as f64 / tx.max(1) as f64,
            );
        }
        let appends = cluster.journal_tap.appends.calls();
        trace.count("net.journal.appends", appends);
        trace.value(
            "net.journal.append_s",
            cluster.journal_tap.appends.seconds(),
        );
        trace.value("net.journal.appends_per_commit", appends as f64 / commits);

        let mut rounds: Vec<f64> = Vec::with_capacity(report.decisions.len());
        let mut latency_ms: Vec<f64> = Vec::with_capacity(report.decisions.len());
        for &(_, node, _, round) in &report.decisions {
            rounds.push(f64::from(round));
            if let Some(&ms) = cluster.closed_ms[node.index()].get(round as usize) {
                latency_ms.push(ms);
            }
        }
        rounds.sort_by(f64::total_cmp);
        latency_ms.sort_by(f64::total_cmp);
        let q = crate::stats::quantile;
        trace.count("net.cluster.commit_round_p50", q(&rounds, 0.5) as u64);
        trace.count("net.cluster.commit_round_p99", q(&rounds, 0.99) as u64);
        trace.value("net.cluster.commit_latency_ms_p50", q(&latency_ms, 0.5));
        trace.value("net.cluster.commit_latency_ms_p99", q(&latency_ms, 0.99));

        *self.datagrams.borrow_mut() = std::mem::take(&mut *cluster.outer.sample.borrow_mut());
        *self.records.borrow_mut() = std::mem::take(&mut *cluster.journal_tap.sample.borrow_mut());
        let output = self.output(finished, &report);
        trace.span("net.cluster.drop", |_| drop(cluster));
        output
    }

    fn kernels(&self, trace: &mut Trace) {
        let datagrams = self.datagrams.borrow();
        if !datagrams.is_empty() {
            let passes = 50;
            let start = Instant::now();
            let mut packets = Vec::new();
            for _ in 0..passes {
                packets.clear();
                packets.extend(
                    datagrams
                        .iter()
                        .filter_map(|d| decode_packet(std::hint::black_box(d)).ok()),
                );
            }
            let per = (passes * datagrams.len()) as f64;
            trace.value(
                "net.wire.decode_ns",
                start.elapsed().as_secs_f64() * 1e9 / per,
            );
            let start = Instant::now();
            let mut bytes = 0usize;
            for _ in 0..passes {
                for p in &packets {
                    bytes += encode_packet(std::hint::black_box(p)).len();
                }
            }
            std::hint::black_box(bytes);
            let per = (passes * packets.len().max(1)) as f64;
            trace.value(
                "net.wire.encode_ns",
                start.elapsed().as_secs_f64() * 1e9 / per,
            );
        }

        // `FileJournal` is what UDP nodes append to; the loopback
        // cluster's `MemJournal` skips the write+flush, so the file
        // path is timed here on the records the run produced.
        let records = self.records.borrow();
        if !records.is_empty() {
            let path = crate::scratch_dir().join("cluster.kernel.journal.jsonl");
            let _ = std::fs::remove_file(&path);
            let mut journal = FileJournal::open(&path).expect("kernel journal is creatable");
            let mut us: Vec<f64> = records
                .iter()
                .map(|r| {
                    let start = Instant::now();
                    journal.append(r);
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            trace.value(
                "net.journal.file_append_us_p50",
                crate::stats::quantile(&us, 0.5),
            );
            trace.value(
                "net.journal.file_append_us_p99",
                crate::stats::quantile(&us, 0.99),
            );
            drop(journal);
            let _ = std::fs::remove_file(&path);
        }
    }
}
