//! In-round delivery order, end to end: every process of a loopback
//! cluster hears its messages in exactly the order the simulator hands
//! them over, message for message.
//!
//! Decision parity alone does not pin this: a protocol that commits on
//! a count decides the same whatever order a round's frames come in.
//! So each process is spawned inside a recorder that logs every
//! `on_message` as `(sender, msg)` under its `(node, instance)`, and the
//! same recorders run on the simulator's per-instance networks, the way
//! `ClusterSpec::sim_oracle` builds them. The torus is 6×6 at r = 1,
//! where a TDMA schedule fits, so a node's neighbours rank in an order
//! that is not their ids': draining a completed round peer by peer in id
//! order instead of rank order changes the logs.

use rbcast_core::ProtocolKind;
use rbcast_grid::{Metric, NodeId};
use rbcast_net::{ClusterSpec, LoopbackHub, MemJournal, NodeRuntime, RuntimeConfig};
use rbcast_protocols::Msg;
use rbcast_sim::driver::InstanceId;
use rbcast_sim::{ChannelConfig, Ctx, Network, Process};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Every `(sender, msg)` each `(node, instance)` heard, in order.
type Log = Rc<RefCell<BTreeMap<(u32, InstanceId), Vec<(u32, Msg)>>>>;

/// A process that logs what it hears and forwards every callback.
struct Recorder {
    key: (u32, InstanceId),
    inner: Box<dyn Process<Msg>>,
    log: Log,
}

impl Recorder {
    fn spawn(spec: &ClusterSpec, node: NodeId, inst: InstanceId, log: &Log) -> Recorder {
        Recorder {
            key: (node.0, inst),
            inner: spec.process_for(inst),
            log: Rc::clone(log),
        }
    }
}

impl Process<Msg> for Recorder {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
        let mut log = self.log.borrow_mut();
        log.entry(self.key).or_default().push((from.0, *msg));
        drop(log);
        self.inner.on_message(ctx, from, msg);
    }

    fn on_round_end(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_round_end(ctx);
    }

    fn needs_round_end(&self) -> bool {
        self.inner.needs_round_end()
    }
}

fn spec(protocol: ProtocolKind) -> ClusterSpec {
    ClusterSpec {
        width: 6,
        height: 6,
        radius: 1,
        metric: Metric::Linf,
        protocol,
        t: 1,
        instances: 6,
        rounds: 16,
    }
}

/// The simulator's logs: one reliable network per instance, as the
/// sim oracle runs them.
fn sim_log(spec: &ClusterSpec) -> Log {
    let log = Log::default();
    let arena = spec.arena();
    for inst in spec.instance_ids() {
        let mut net = Network::with_arena(Arc::clone(&arena), ChannelConfig::reliable(), |id| {
            Recorder::spawn(spec, id, inst, &log)
        });
        net.run(spec.rounds);
    }
    log
}

/// The loopback cluster's logs: a `NodeRuntime` per node over one hub,
/// pumped round-robin until every node has closed its rounds.
fn net_log(spec: &ClusterSpec) -> Log {
    let log = Log::default();
    let arena = spec.arena();
    let hub = LoopbackHub::new();
    let cfg = RuntimeConfig {
        rounds: spec.rounds,
        ..RuntimeConfig::default()
    };
    let mut nodes: Vec<NodeRuntime> = (0..arena.len() as u32)
        .map(|node| {
            NodeRuntime::open(
                Arc::clone(&arena),
                NodeId(node),
                &spec.instance_ids(),
                &mut |inst| Box::new(Recorder::spawn(spec, NodeId(node), inst, &log)),
                Box::new(hub.attach(node)),
                Box::new(MemJournal::new()),
                cfg,
            )
            .expect("a fresh journal replays")
        })
        .collect();
    let mut ticks = 0;
    while !nodes.iter_mut().fold(true, |done, rt| rt.pump() & done) {
        ticks += 1;
        assert!(ticks < 100_000, "cluster wedged");
    }
    log
}

#[test]
fn the_torus_ranks_some_neighbourhood_out_of_id_order() {
    let arena = spec(ProtocolKind::Flood).arena();
    let out_of_order = arena.torus().node_ids().any(|me| {
        let mut ids: Vec<NodeId> = arena.neighbors(me).collect();
        ids.sort_unstable();
        !ids.is_sorted_by_key(|&id| arena.rank(id))
    });
    assert!(out_of_order, "on 6×6 at r = 1 a TDMA schedule fits");
}

#[test]
fn every_process_hears_what_the_simulator_delivers_in_the_same_order() {
    for protocol in [
        ProtocolKind::Flood,
        ProtocolKind::Cpa,
        ProtocolKind::IndirectSimplified,
    ] {
        let spec = spec(protocol);
        let (want, got) = (sim_log(&spec), net_log(&spec));
        let (want, got) = (want.borrow(), got.borrow());
        assert!(
            want.values().any(|heard| heard.len() > 1),
            "{protocol:?}: some process must hear more than one message"
        );
        assert_eq!(
            want.keys().collect::<Vec<_>>(),
            got.keys().collect::<Vec<_>>(),
            "{protocol:?}: who heard anything"
        );
        for (key, heard) in want.iter() {
            assert_eq!(
                &got[key], heard,
                "{protocol:?}: node {} of {:?}",
                key.0, key.1
            );
        }
    }
}
