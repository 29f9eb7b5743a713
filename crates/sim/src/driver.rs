//! Transport-agnostic protocol drivers: the bridge between [`Process`]
//! implementations and whatever carries their messages.
//!
//! The dense/sparse [`crate::Network`] is one driver of [`Process`]
//! logic — it owns all nodes and plays the shared radio medium itself.
//! A networked runtime is another: each OS process owns *one* node and
//! real sockets carry the messages. Both must present identical
//! semantics to the protocol:
//!
//! * round `k`'s deliveries are the messages broadcast during round
//!   `k − 1`, presented in global transmission order (TDMA slot order
//!   across senders — [`transmission_order`] — FIFO per sender);
//! * `on_round_end` runs after all of a round's deliveries, under the
//!   sparse-engine quiescence contract ([`Process::needs_round_end`]);
//! * round 0 is `on_start` plus an unconditional first `on_round_end`.
//!
//! [`NodeDriver`] packages those semantics for a single node so a
//! transport can stay protocol-agnostic: inject deliveries, call
//! [`NodeDriver::end_round`], ship the returned broadcasts. Because the
//! round schedule is deterministic and the callbacks are pure state
//! machines, a driver fed the same per-round deliveries as a `Network`
//! node reproduces its decisions *exactly* — the property the networked
//! runtime's golden parity tests pin down.
//!
//! [`InstanceHost`] multiplexes many concurrent broadcast instances
//! (keyed by [`InstanceId`], an `(origin, sequence)` pair) over one
//! node, mirroring how a serving system runs many broadcasts at once
//! over the same topology.

use crate::process::{Decision, DecisionLedger, Transmission};
use crate::trace::{fold_words, FNV_OFFSET};
use crate::{Ctx, Process, Round, Value};
use rbcast_grid::{NeighborTable, NodeId, TdmaSchedule};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies one broadcast instance among many running concurrently:
/// the originating node plus a per-origin sequence number (the
/// "identifier = sender + sequence" scheme of classic reliable
/// broadcast implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// The node that originates this broadcast (the protocol's source).
    pub origin: NodeId,
    /// Per-origin sequence number distinguishing concurrent broadcasts.
    pub seq: u32,
}

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// The global transmission order every driver must deliver in: TDMA
/// slot order when a periodic schedule fits the torus, id order
/// otherwise (the model guarantees collision-freedom either way).
///
/// Extracted from the `Network` constructor so the sim engine and the
/// networked runtime sort by the *same* schedule — a receiver sorting
/// its round-`k` arrivals by these ranks reproduces the sim's delivery
/// order restricted to its own neighborhood.
#[must_use]
pub fn transmission_order(arena: &NeighborTable) -> Vec<NodeId> {
    let torus = arena.torus();
    let mut order: Vec<NodeId> = torus.node_ids().collect();
    if let Ok(tdma) = TdmaSchedule::new(torus, arena.radius()) {
        order.sort_by_key(|&id| (tdma.slot_of(torus.coord(id)), id));
    }
    order
}

/// Inverse of [`transmission_order`]: `ranks[id.index()]` is `id`'s
/// position in the schedule.
#[must_use]
pub fn transmission_ranks(order: &[NodeId], n: usize) -> Vec<u32> {
    let mut rank_of = vec![0u32; n];
    for (rank, &id) in order.iter().enumerate() {
        rank_of[id.index()] = u32::try_from(rank).expect("node count fits u32");
    }
    rank_of
}

/// Drives a single [`Process`] with exact `Network` round semantics.
///
/// Construction runs `on_start` (round 0); the first
/// [`NodeDriver::end_round`] call unconditionally runs the round-0
/// `on_round_end` — both engines run round 0 dense — and later rounds
/// honour [`Process::needs_round_end`] exactly like the sparse engine:
/// the callback fires iff the node heard something this round or asked
/// to stay awake at its last callback.
///
/// Broadcast identities are not forwarded: a networked node cannot
/// spoof its link-layer identity, matching the paper's unforgeable
/// sender assumption, so only payloads leave the driver.
pub struct NodeDriver<M> {
    arena: Arc<NeighborTable>,
    id: NodeId,
    proc: Box<dyn Process<M>>,
    decision: Decision,
    outbox: Vec<Transmission<M>>,
    round: Round,
    messages_sent: u64,
    ledger: DecisionLedger,
    delivered: bool,
    wake: bool,
}

impl<M> std::fmt::Debug for NodeDriver<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeDriver")
            .field("id", &self.id)
            .field("round", &self.round)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

impl<M> NodeDriver<M> {
    /// Creates the driver and runs the process's `on_start` (round 0).
    #[must_use]
    pub fn new(arena: Arc<NeighborTable>, id: NodeId, proc: Box<dyn Process<M>>) -> Self {
        let n = arena.len();
        let mut driver = NodeDriver {
            arena,
            id,
            proc,
            decision: None,
            outbox: Vec::new(),
            round: 0,
            messages_sent: 0,
            ledger: DecisionLedger::new(n),
            delivered: false,
            wake: false,
        };
        driver.with_ctx(|proc, ctx| proc.on_start(ctx));
        driver
    }

    fn with_ctx<F: FnOnce(&mut dyn Process<M>, &mut Ctx<'_, M>)>(&mut self, f: F) {
        let mut ctx = Ctx {
            id: self.id,
            arena: &self.arena,
            round: self.round,
            decision: &mut self.decision,
            outbox: &mut self.outbox,
            // Nothing reads a networked node's notes.
            notes: None,
            messages_sent: &mut self.messages_sent,
            ledger: &mut self.ledger,
        };
        f(self.proc.as_mut(), &mut ctx);
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total broadcasts performed by the process so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Injects one round-`k` delivery (a message broadcast by neighbor
    /// `from` during round `k − 1`). The caller presents a round's
    /// deliveries in global transmission order.
    pub fn deliver(&mut self, from: NodeId, msg: &M) {
        self.delivered = true;
        self.with_ctx(|proc, ctx| proc.on_message(ctx, from, msg));
    }

    /// Closes the current round: runs `on_round_end` under the sparse
    /// quiescence contract, advances the round counter, and returns the
    /// broadcasts queued this round (to be delivered next round).
    pub fn end_round(&mut self) -> Vec<M> {
        // Round 0 runs dense under both engines; afterwards the sparse
        // quiescence contract applies: fire iff delivered-to or awake.
        if self.round == 0 || self.delivered || self.wake {
            self.with_ctx(|proc, ctx| proc.on_round_end(ctx));
            // Re-read the standing-wakeup declaration only after a
            // callback actually ran (the contract forbids spontaneous
            // changes in between).
            self.wake = self.proc.needs_round_end();
        }
        self.delivered = false;
        self.round += 1;
        self.outbox.drain(..).map(|tx| tx.msg).collect()
    }

    /// The decision recorded so far, with the round it was made in.
    #[must_use]
    pub fn decision(&self) -> Option<(Value, Round)> {
        self.decision
    }

    /// The current round counter (rounds fully closed so far).
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }
}

/// Hosts every broadcast instance one node participates in, keyed by
/// [`InstanceId`] — the multi-instance map of the networked runtime.
///
/// All instances advance in lockstep: [`InstanceHost::end_round`]
/// closes the round for every driver and returns the union of their
/// broadcasts, tagged by instance, in `InstanceId` order (deterministic
/// across all hosts, so every receiver can reconstruct per-sender FIFO
/// order per instance).
pub struct InstanceHost<M> {
    arena: Arc<NeighborTable>,
    id: NodeId,
    round: Round,
    drivers: BTreeMap<InstanceId, NodeDriver<M>>,
}

impl<M> std::fmt::Debug for InstanceHost<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceHost")
            .field("id", &self.id)
            .field("round", &self.round)
            .field("instances", &self.drivers.len())
            .finish()
    }
}

impl<M> InstanceHost<M> {
    /// An empty host for node `id`.
    #[must_use]
    pub fn new(arena: Arc<NeighborTable>, id: NodeId) -> Self {
        InstanceHost {
            arena,
            id,
            round: 0,
            drivers: BTreeMap::new(),
        }
    }

    /// Registers instance `inst` with its process (running `on_start`).
    ///
    /// # Panics
    ///
    /// Panics after the first [`InstanceHost::end_round`] — the
    /// instance set is part of the run's configuration, known to every
    /// node up front, so late registration would desynchronise round 0.
    pub fn spawn(&mut self, inst: InstanceId, proc: Box<dyn Process<M>>) {
        assert!(
            self.round == 0,
            "instances must be spawned before round 0 closes"
        );
        let driver = NodeDriver::new(Arc::clone(&self.arena), self.id, proc);
        self.drivers.insert(inst, driver);
    }

    /// Delivers one message to instance `inst`; returns `false` (and
    /// does nothing) when the instance is unknown — the caller counts
    /// that as a protocol error from the peer.
    pub fn deliver(&mut self, inst: InstanceId, from: NodeId, msg: &M) -> bool {
        match self.drivers.get_mut(&inst) {
            Some(driver) => {
                driver.deliver(from, msg);
                true
            }
            None => false,
        }
    }

    /// Closes the round for every instance, returning all queued
    /// broadcasts tagged by instance, in `InstanceId` order.
    pub fn end_round(&mut self) -> Vec<(InstanceId, M)> {
        let mut out = Vec::new();
        for (&inst, driver) in &mut self.drivers {
            for m in driver.end_round() {
                out.push((inst, m));
            }
        }
        self.round += 1;
        out
    }

    /// Every decided instance as `(instance, value, round decided)`.
    #[must_use]
    pub fn decisions(&self) -> Vec<(InstanceId, Value, Round)> {
        self.drivers
            .iter()
            .filter_map(|(&inst, d)| d.decision().map(|(v, r)| (inst, v, r)))
            .collect()
    }

    /// Rounds fully closed so far.
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of hosted instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.drivers.len()
    }

    /// True iff no instance is hosted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drivers.is_empty()
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The shared topology arena.
    #[must_use]
    pub fn arena(&self) -> &Arc<NeighborTable> {
        &self.arena
    }
}

/// FNV-1a digest over a decision set: entries are sorted by
/// `(instance, node)` first, so any enumeration order of the same
/// decisions folds to the same digest. The sim oracle and the networked
/// runtime both report this digest; equality is the byte-level parity
/// criterion.
#[must_use]
pub fn commit_digest(decisions: &[(InstanceId, NodeId, Value, Round)]) -> u64 {
    let mut sorted: Vec<_> = decisions.to_vec();
    sorted.sort_unstable();
    let mut hash = FNV_OFFSET;
    for &(inst, node, value, round) in &sorted {
        fold_words(
            &mut hash,
            &[
                u64::from(inst.origin.0),
                u64::from(inst.seq),
                u64::from(node.0),
                u64::from(value),
                u64::from(round),
            ],
        );
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use rbcast_grid::{Coord, Metric, Torus};

    /// The doc-comment flood process: decide-and-forward the first
    /// value heard (sim cannot depend on rbcast-protocols — that would
    /// be a cycle — so parity tests use a local protocol).
    struct Flood {
        origin: bool,
        done: bool,
    }

    impl Process<bool> for Flood {
        fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
            if self.origin {
                ctx.decide(true);
                ctx.broadcast(true);
                self.done = true;
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, bool>, _from: NodeId, &v: &bool) {
            if !self.done {
                self.done = true;
                ctx.decide(v);
                ctx.broadcast(v);
            }
        }
        fn needs_round_end(&self) -> bool {
            false
        }
    }

    fn arena() -> Arc<NeighborTable> {
        Arc::new(NeighborTable::build(&Torus::new(12, 12), 2, Metric::Linf))
    }

    /// Drives one NodeDriver per node by hand — deliver each round's
    /// broadcasts in transmission order — and checks the decisions
    /// (values *and* rounds) equal a `Network` run of the same setup.
    #[test]
    fn hand_driven_drivers_reproduce_network_decisions() {
        let arena = arena();
        let torus = arena.torus().clone();
        let source = torus.id(Coord::new(3, 4));
        let n = torus.len();

        let mut net =
            Network::with_arena(Arc::clone(&arena), crate::ChannelConfig::reliable(), |id| {
                Box::new(Flood {
                    origin: id == source,
                    done: false,
                }) as Box<dyn Process<bool>>
            });
        net.run(50);
        let expect: Vec<Option<(Value, Round)>> =
            torus.node_ids().map(|id| net.decision(id)).collect();

        let order = transmission_order(&arena);
        let mut drivers: Vec<NodeDriver<bool>> = torus
            .node_ids()
            .map(|id| {
                NodeDriver::new(
                    Arc::clone(&arena),
                    id,
                    Box::new(Flood {
                        origin: id == source,
                        done: false,
                    }),
                )
            })
            .collect();

        // Round k: close round k−1 everywhere (collecting outboxes),
        // then deliver in global transmission order.
        for _round in 0..50 {
            let outs: Vec<Vec<bool>> = drivers.iter_mut().map(NodeDriver::end_round).collect();
            let mut any = false;
            for &sender in &order {
                for &m in &outs[sender.index()] {
                    any = true;
                    for &rid in arena.neighbors(sender) {
                        drivers[rid.index()].deliver(sender, &m);
                    }
                }
            }
            if !any {
                break;
            }
        }
        let got: Vec<Option<(Value, Round)>> = (0..n).map(|i| drivers[i].decision()).collect();
        assert_eq!(got, expect, "driver decisions diverge from the network");
    }

    /// `Ctx::coord()` is computed on demand from the arena; the three
    /// `Ctx` constructors (`Network`, `NodeDriver`, `Harness`) must all
    /// report the torus's own id → coordinate map. A non-square torus
    /// makes a width/height mix-up visible.
    #[test]
    fn ctx_coord_agrees_across_network_driver_and_harness() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Seen = Rc<RefCell<Vec<(NodeId, Coord)>>>;
        struct Locate(Seen);
        impl Process<bool> for Locate {
            fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
                self.0.borrow_mut().push((ctx.id(), ctx.coord()));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, bool>, _: NodeId, _: &bool) {}
        }

        let torus = Torus::new(9, 7);
        let arena = Arc::new(NeighborTable::build(&torus, 1, Metric::Linf));
        let expect: Vec<(NodeId, Coord)> =
            torus.node_ids().map(|id| (id, torus.coord(id))).collect();
        assert_eq!(expect[10].1, Coord::new(1, 1), "9 wide: id 10 is (1, 1)");

        let via_network: Seen = Rc::default();
        let mut net =
            Network::with_arena(Arc::clone(&arena), crate::ChannelConfig::reliable(), |_| {
                Box::new(Locate(via_network.clone())) as Box<dyn Process<bool>>
            });
        net.run(1);
        // Round 0 visits nodes in transmission order, not id order.
        via_network.borrow_mut().sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(*via_network.borrow(), expect);

        let via_driver: Seen = Rc::default();
        for id in torus.node_ids() {
            let _ = NodeDriver::new(Arc::clone(&arena), id, Box::new(Locate(via_driver.clone())));
        }
        assert_eq!(*via_driver.borrow(), expect);

        let via_harness: Seen = Rc::default();
        for id in torus.node_ids() {
            let mut harness = crate::Harness::<bool>::new(torus.clone(), 1, Metric::Linf, id);
            harness.start(&mut Locate(via_harness.clone()));
        }
        assert_eq!(*via_harness.borrow(), expect);
    }

    /// A note buffer is lent only where something reads it — `Network`
    /// while a sink is installed, `Harness` always, `NodeDriver` never —
    /// and `note_with` does not build its value for nobody.
    #[test]
    fn notes_are_built_only_for_a_reader() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct Noter(Rc<Cell<u32>>);
        impl Process<bool> for Noter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
                ctx.note("cheap", 1);
                ctx.note_with("costly", || {
                    self.0.set(self.0.get() + 1);
                    2
                });
            }
            fn on_message(&mut self, _: &mut Ctx<'_, bool>, _: NodeId, _: &bool) {}
        }
        struct Count(Rc<Cell<u32>>);
        impl crate::trace::TraceSink for Count {
            fn record(&mut self, event: &crate::trace::TraceEvent) {
                if matches!(event, crate::trace::TraceEvent::Note { .. }) {
                    self.0.set(self.0.get() + 1);
                }
            }
        }

        let arena = arena();
        let n = arena.len() as u32;
        let built = Rc::new(Cell::new(0));
        let network = |sink: Option<Box<dyn crate::trace::TraceSink>>| {
            let mut net =
                Network::with_arena(Arc::clone(&arena), crate::ChannelConfig::reliable(), |_| {
                    Box::new(Noter(built.clone())) as Box<dyn Process<bool>>
                });
            if let Some(sink) = sink {
                net.set_trace_sink(sink);
            }
            net.run(1);
        };
        network(None);
        assert_eq!(built.get(), 0, "an untraced network built a note value");
        let recorded = Rc::new(Cell::new(0));
        network(Some(Box::new(Count(recorded.clone()))));
        assert_eq!(built.replace(0), n);
        assert_eq!(
            recorded.get(),
            2 * n,
            "both notes of every node reach the sink"
        );

        let _ = NodeDriver::new(
            Arc::clone(&arena),
            NodeId(0),
            Box::new(Noter(built.clone())),
        );
        assert_eq!(built.get(), 0, "nothing drains a driver's notes");

        let mut harness =
            crate::Harness::<bool>::new(arena.torus().clone(), 2, Metric::Linf, NodeId(0));
        harness.start(&mut Noter(built.clone()));
        assert_eq!(built.get(), 1);
        assert_eq!(harness.drain_notes(), [("cheap", 1), ("costly", 2)]);
    }

    #[test]
    fn instance_host_isolates_instances() {
        let arena = arena();
        let torus = arena.torus().clone();
        let me = torus.id(Coord::new(5, 5));
        let neighbor = torus.id(Coord::new(6, 5));
        let a = InstanceId {
            origin: neighbor,
            seq: 0,
        };
        let b = InstanceId {
            origin: neighbor,
            seq: 1,
        };
        let mut host = InstanceHost::new(Arc::clone(&arena), me);
        host.spawn(
            a,
            Box::new(Flood {
                origin: false,
                done: false,
            }),
        );
        host.spawn(
            b,
            Box::new(Flood {
                origin: false,
                done: false,
            }),
        );
        assert_eq!(host.len(), 2);
        // Round 0 closes with nothing to say (non-origin everywhere).
        assert!(host.end_round().is_empty());
        // A delivery to instance `a` only wakes instance `a`.
        assert!(host.deliver(a, neighbor, &true));
        let out = host.end_round();
        assert_eq!(out, vec![(a, true)]);
        let decisions = host.decisions();
        assert_eq!(decisions, vec![(a, true, 1)]);
        // Unknown instances are rejected, not created.
        let unknown = InstanceId { origin: me, seq: 9 };
        assert!(!host.deliver(unknown, neighbor, &true));
    }

    #[test]
    #[should_panic(expected = "before round 0 closes")]
    fn late_spawn_is_rejected() {
        let arena = arena();
        let me = arena.torus().id(Coord::ORIGIN);
        let mut host: InstanceHost<bool> = InstanceHost::new(Arc::clone(&arena), me);
        host.end_round();
        host.spawn(
            InstanceId { origin: me, seq: 0 },
            Box::new(Flood {
                origin: true,
                done: false,
            }),
        );
    }

    #[test]
    fn commit_digest_is_order_insensitive_and_content_sensitive() {
        let i0 = InstanceId {
            origin: NodeId(1),
            seq: 0,
        };
        let i1 = InstanceId {
            origin: NodeId(1),
            seq: 1,
        };
        let a = vec![(i0, NodeId(2), true, 3), (i1, NodeId(4), false, 5)];
        let b = vec![(i1, NodeId(4), false, 5), (i0, NodeId(2), true, 3)];
        assert_eq!(commit_digest(&a), commit_digest(&b));
        let c = vec![(i0, NodeId(2), true, 4), (i1, NodeId(4), false, 5)];
        assert_ne!(commit_digest(&a), commit_digest(&c));
        assert_ne!(commit_digest(&a), commit_digest(&a[..1]));
    }

    #[test]
    fn transmission_ranks_invert_the_order() {
        let arena = arena();
        let order = transmission_order(&arena);
        let ranks = transmission_ranks(&order, arena.len());
        for (rank, &id) in order.iter().enumerate() {
            assert_eq!(ranks[id.index()] as usize, rank);
        }
    }
}
