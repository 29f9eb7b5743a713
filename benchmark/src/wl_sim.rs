//! The three single-broadcast workloads (`rbcast run`): one
//! [`Experiment`] each, timed around `Experiment::run_traced`; traced,
//! the same network is assembled from the layers' public API.

use crate::shim::{
    take_process_stats, Capture, ChainCapture, Opaque, ProcessShim, RoundLog, RoundSink,
};
use crate::trace::Trace;
use crate::workload::{RepOutput, Spec, Workload};
use rbcast_adversary::{local_fault_bound_in, Placement};
use rbcast_core::{thresholds, Experiment, FaultKind, Outcome, ProtocolKind};
use rbcast_flow::{ChainPacker, PackScratch};
use rbcast_grid::{Coord, Metric, NeighborTable, NodeId, Torus};
use rbcast_protocols::{
    attackers, ChainRepr, Cpa, Flood, Indirect, IndirectConfig, Msg, ProtocolParams,
};
use rbcast_sim::{ChannelConfig, Network, Process};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

pub const WAVE_FLOOD_1M: Spec = Spec {
    name: "wave_flood_1m",
    unit: "nodes",
    why: "fault-free flood on a 1000x1000 torus: time is the sim round loop and the grid arena \
          build; a protocol change must not move it",
    seeded: false,
    build: |_seed, toy| {
        let side = if toy { 60 } else { 1000 };
        Box::new(SimWorkload::new(SimSpec::fault_free(
            ProtocolKind::Flood,
            side,
        )))
    },
};

pub const WAVE_INDIRECT_100K: Spec = Spec {
    name: "wave_indirect_100k",
    unit: "nodes",
    why: "fault-free indirect-simplified on 316x316: same round loop, nine times the messages, \
          so time and memory move to protocols (on_message, evidence slots)",
    seeded: false,
    build: |_seed, toy| {
        let side = if toy { 40 } else { 316 };
        Box::new(SimWorkload::new(SimSpec::fault_free(
            ProtocolKind::IndirectSimplified,
            side,
        )))
    },
};

pub const BYZ_FULL_R2: Spec = Spec {
    name: "byz_full_r2",
    unit: "runs",
    why: "indirect-full at r=2, t=t_max=4 under a frontier cluster of liars on 20x20: a tiny \
          arena and a dense Byzantine message storm, so evidence and chain packing do the work",
    seeded: false,
    build: |_seed, toy| {
        // At r = 2 the report storm costs over half a second whatever
        // the fault budget, so the toy size drops to r = 1: still the
        // two-level rule, liars and relayed chains, in milliseconds.
        let r = if toy { 1 } else { 2 };
        let t = thresholds::byzantine_max_t(r) as usize;
        Box::new(SimWorkload::new(SimSpec {
            r,
            torus: None,
            protocol: ProtocolKind::IndirectFull,
            t,
            placement: Some(Placement::FrontierCluster { t }),
            fault: FaultKind::Liar,
        }))
    },
};

/// One experiment's configuration, kept outside [`Experiment`] (whose
/// fields are private) so the traced pass can rebuild the same network.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub r: u32,
    /// `None` = the radius' default torus, as `Experiment` picks it.
    pub torus: Option<(u32, u32)>,
    pub protocol: ProtocolKind,
    pub t: usize,
    pub placement: Option<Placement>,
    pub fault: FaultKind,
}

impl SimSpec {
    fn fault_free(protocol: ProtocolKind, side: u32) -> SimSpec {
        let t = match protocol {
            ProtocolKind::Flood => thresholds::crash_max_t(1),
            _ => thresholds::byzantine_max_t(1),
        } as usize;
        SimSpec {
            r: 1,
            torus: Some((side, side)),
            protocol,
            t,
            placement: None,
            fault: FaultKind::CrashStop,
        }
    }

    pub fn torus(&self) -> Torus {
        self.torus
            .map_or_else(|| Torus::for_radius(self.r), |(w, h)| Torus::new(w, h))
    }

    /// The experiment a user would describe for this configuration.
    pub fn experiment(&self) -> Experiment {
        let mut e = Experiment::new(self.r, self.protocol)
            .with_t(self.t)
            .with_fault_kind(self.fault);
        if let Some((w, h)) = self.torus {
            e = e.with_torus(Torus::new(w, h));
        }
        if let Some(p) = &self.placement {
            e = e.with_placement(p.clone());
        }
        e
    }

    /// An honest node's process inside a counting shim (and, on a
    /// sampled node, a chain capture).
    fn honest_process(
        &self,
        params: ProtocolParams,
        capture: Option<ChainCapture>,
    ) -> Box<dyn Process<Msg>> {
        fn shim<P: Process<Msg> + 'static>(
            process: P,
            capture: Option<ChainCapture>,
        ) -> Box<dyn Process<Msg>> {
            match capture {
                Some(chains) => Box::new(ProcessShim(Capture {
                    inner: process,
                    chains,
                })),
                None => Box::new(ProcessShim(process)),
            }
        }
        match self.protocol {
            ProtocolKind::Flood => shim(Flood::new(params), capture),
            ProtocolKind::Cpa => shim(Cpa::new(params), capture),
            ProtocolKind::IndirectFull => {
                shim(Indirect::new(params, IndirectConfig::full()), capture)
            }
            ProtocolKind::IndirectSimplified => {
                shim(Indirect::new(params, IndirectConfig::simplified()), capture)
            }
            other => unreachable!("no workload uses {other:?}"),
        }
    }

    /// A faulty node's process inside a counting shim.
    fn faulty_process(&self, wrong: bool) -> Box<dyn Process<Msg>> {
        let attacker = match self.fault {
            FaultKind::CrashStop | FaultKind::Silent => attackers::silent(),
            FaultKind::Liar => attackers::liar(wrong),
            FaultKind::Forger => attackers::forger(wrong),
            other => unreachable!("no workload uses {other:?}"),
        };
        Box::new(ProcessShim(Opaque(attacker)))
    }
}

/// Whether `outcome` is the reliable broadcast the paper promises below
/// threshold: every honest node committed the source's value.
pub fn broadcast_failed(outcome: &Outcome) -> bool {
    !outcome.all_honest_correct()
}

fn rep_output(unit_work: u64, outcome: &Outcome, hash: u64) -> RepOutput {
    RepOutput {
        hash,
        work: unit_work,
        rounds_to_commit: u64::from(outcome.last_decision_round.unwrap_or(0)),
        ops: 1,
        failed: u64::from(broadcast_failed(outcome)),
        counts: vec![
            ("rounds", u64::from(outcome.stats.rounds)),
            ("messages", outcome.stats.messages_sent),
            ("deliveries", outcome.stats.deliveries),
            ("commits", outcome.committed_correct as u64),
        ],
    }
}

struct SimWorkload {
    spec: SimSpec,
    experiment: Experiment,
    /// `HEARD` chains the sampled nodes received in the last traced
    /// repetition.
    captured: RefCell<Vec<Vec<ChainRepr>>>,
}

impl SimWorkload {
    fn new(spec: SimSpec) -> SimWorkload {
        SimWorkload {
            experiment: spec.experiment(),
            spec,
            captured: RefCell::new(Vec::new()),
        }
    }

    /// Work units per repetition: nodes simulated for the wave
    /// workloads, one run for the Byzantine cell.
    fn work(&self) -> u64 {
        if self.spec.placement.is_some() {
            1
        } else {
            self.spec.torus().len() as u64
        }
    }
}

impl Workload for SimWorkload {
    fn run(&self) -> RepOutput {
        let (outcome, hash) = self.experiment.run_traced();
        rep_output(self.work(), &outcome, hash)
    }

    /// `Experiment::run_once`, step for step, from public API.
    fn run_traced(&self, trace: &mut Trace) -> RepOutput {
        let spec = &self.spec;
        let torus = spec.torus();
        let (arena, _) = trace.timed("grid.arena.build", "grid.arena.build_s", |_| {
            Arc::new(NeighborTable::build(&torus, spec.r, Metric::Linf))
        });
        trace.count("grid.arena.nodes", arena.len() as u64);
        let source = torus.id(Coord::ORIGIN);
        let value = true;
        let params = ProtocolParams {
            source,
            value,
            t: spec.t,
        };
        let (faults, _) = trace.timed("adversary.place", "adversary.place_s", |_| {
            spec.placement
                .as_ref()
                .map(|p| p.place(&torus, spec.r, Metric::Linf))
                .unwrap_or_default()
        });
        let (audited_bound, _) =
            trace.timed("adversary.audit_bound", "adversary.audit_bound_s", |_| {
                local_fault_bound_in(&arena, &faults)
            });
        let fault_set: HashSet<NodeId> = faults.iter().copied().collect();

        // Zero the shims' shared counters for this network.
        take_process_stats();
        // Four honest nodes spread over the arena keep their HEARD
        // chains for the packer kernel.
        let n = arena.len() as u32;
        let sampled: Vec<(NodeId, ChainCapture)> = (1..=4)
            .map(|k| NodeId(k * n / 5))
            .filter(|id| !fault_set.contains(id))
            .map(|id| (id, ChainCapture::default()))
            .collect();
        let (mut net, _) = trace.timed("sim.network.construct", "sim.network.construct_s", |_| {
            Network::with_arena(Arc::clone(&arena), ChannelConfig::reliable(), |id| {
                if fault_set.contains(&id) {
                    return spec.faulty_process(!value);
                }
                let capture = sampled
                    .iter()
                    .find(|(s, _)| *s == id)
                    .map(|(_, c)| Rc::clone(c));
                spec.honest_process(params, capture)
            })
        });
        net.set_classifier(Msg::kind);
        let honest_ids: Vec<NodeId> = torus
            .node_ids()
            .filter(|id| !fault_set.contains(id))
            .collect();
        net.set_completion_mask(&honest_ids);
        net.set_early_termination(true);
        if matches!(spec.fault, FaultKind::CrashStop) {
            for &f in &faults {
                net.crash_at(f, 0);
            }
        }
        let log = Rc::new(RefCell::new(RoundLog::default()));
        net.set_trace_sink(Box::new(RoundSink(Rc::clone(&log))));

        let run = trace.open("sim.network.run");
        let run_stats = net.run(10_000);
        // Round spans go in as children of the run span while it is
        // still open.
        let log = log.borrow();
        for &(start, end) in &log.rounds {
            trace.closed_span("sim.round", start, end);
        }
        let run_s = trace.close(run);

        let (outcome, _) = trace.timed("core.outcome.collect", "core.outcome.collect_s", |_| {
            let message_kinds: Vec<(&'static str, u64)> =
                net.kind_counts().iter().map(|(&k, &v)| (k, v)).collect();
            let (mut correct, mut wrong, mut undecided) = (0, 0, 0);
            for &id in &honest_ids {
                match net.decision(id) {
                    Some((v, _)) if v == value => correct += 1,
                    Some(_) => wrong += 1,
                    None => undecided += 1,
                }
            }
            Outcome {
                honest: honest_ids.len(),
                committed_correct: correct,
                committed_wrong: wrong,
                undecided,
                fault_count: faults.len(),
                audited_bound,
                stats: run_stats,
                message_kinds,
                last_decision_round: net.latest_decision_round(&honest_ids),
            }
        });
        let hash = net.trace_hash();
        // A million boxed processes take a while to free; `run_traced`
        // pays that inside its timed region too.
        trace.span("sim.network.drop", |_| drop(net));

        let stats = take_process_stats();
        let protocol_s = stats.seconds();
        let mut rounds_us: Vec<f64> = log
            .rounds
            .iter()
            .map(|(s, e)| e.duration_since(*s).as_secs_f64() * 1e6)
            .collect();
        rounds_us.sort_by(f64::total_cmp);
        trace.value("sim.network.run_s", run_s);
        trace.value("sim.self_s", (run_s - protocol_s).max(0.0));
        trace.value(
            "sim.self_ns_per_delivery",
            (run_s - protocol_s).max(0.0) * 1e9 / run_stats.deliveries.max(1) as f64,
        );
        trace.value("sim.round.p50_us", crate::stats::quantile(&rounds_us, 0.5));
        trace.value("sim.round.max_us", rounds_us.last().copied().unwrap_or(0.0));
        trace.count("sim.rounds", u64::from(run_stats.rounds));
        trace.count("sim.messages", run_stats.messages_sent);
        trace.count("sim.deliveries", run_stats.deliveries);
        trace.value("protocols.on_start.s", stats.on_start.seconds());
        trace.count("protocols.on_message.calls", stats.on_message_calls());
        trace.value("protocols.on_message.s", stats.on_message_seconds());
        trace.value(
            "protocols.on_message.ns_per_call",
            stats.on_message_seconds() * 1e9 / stats.on_message_calls().max(1) as f64,
        );
        const BY_KIND: [(&str, &str); 3] = [
            (
                "protocols.on_message.SOURCE.calls",
                "protocols.on_message.SOURCE.s",
            ),
            (
                "protocols.on_message.COMMITTED.calls",
                "protocols.on_message.COMMITTED.s",
            ),
            (
                "protocols.on_message.HEARD.calls",
                "protocols.on_message.HEARD.s",
            ),
        ];
        for ((calls, secs), stat) in BY_KIND.into_iter().zip(&stats.on_message) {
            trace.count(calls, stat.calls());
            trace.value(secs, stat.seconds());
        }
        trace.count("protocols.on_round_end.calls", stats.on_round_end.calls());
        trace.value("protocols.on_round_end.s", stats.on_round_end.seconds());
        trace.count("protocols.decisions", log.decisions);

        *self.captured.borrow_mut() = sampled
            .into_iter()
            .map(|(_, c)| std::mem::take(&mut *c.borrow_mut()))
            .collect();
        rep_output(self.work(), &outcome, hash)
    }

    fn kernels(&self, trace: &mut Trace) {
        packer_kernel(&self.captured.borrow(), self.spec.t, trace);
    }
}

/// `flow.packer.kernel_ns`: one `max_disjoint_reusing(t+1)` query per
/// (committer, value) chain set the sampled nodes held, as the two-level
/// rule's determination step issues them. Zero when no `HEARD` report
/// was captured (flood).
fn packer_kernel(captured: &[Vec<ChainRepr>], t: usize, trace: &mut Trace) {
    let mut packers: Vec<ChainPacker> = Vec::new();
    for chains in captured {
        let mut by_committer: BTreeMap<(NodeId, bool), ChainPacker> = BTreeMap::new();
        for chain in chains {
            let relays: Vec<u64> = chain.relays().iter().map(|r| u64::from(r.0)).collect();
            by_committer
                .entry((chain.committer(), chain.value()))
                .or_default()
                .insert(&relays);
        }
        packers.extend(by_committer.into_values());
    }
    let need = (t + 1) as u32;
    packers.retain(|p| p.len() >= need as usize);
    if packers.is_empty() {
        return;
    }
    let mut scratch = PackScratch::default();
    let start = Instant::now();
    let (mut found, mut queries) = (0u64, 0u64);
    // Whole passes over the captured sets, for a fifth of a second.
    while start.elapsed().as_secs_f64() < 0.2 {
        for p in &packers {
            found += u64::from(std::hint::black_box(p).max_disjoint_reusing(
                &mut scratch,
                |_| true,
                need,
            ));
        }
        queries += packers.len() as u64;
    }
    std::hint::black_box(found);
    trace.value(
        "flow.packer.kernel_ns",
        start.elapsed().as_secs_f64() * 1e9 / queries as f64,
    );
}
