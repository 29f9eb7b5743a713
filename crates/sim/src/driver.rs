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
//!   across senders — [`NeighborTable::rank`] — FIFO per sender);
//! * `on_round_end` runs after all of a round's deliveries, under the
//!   sparse-engine quiescence contract ([`Process::needs_round_end`]);
//! * round 0 is `on_start` plus an unconditional first `on_round_end`.
//!
//! [`InstanceHost`] packages those semantics for a single node so a
//! transport can stay protocol-agnostic: inject deliveries, call
//! [`InstanceHost::end_round`], ship the returned broadcasts. Because
//! the round schedule is deterministic and the callbacks are pure state
//! machines, a host fed the same per-round deliveries as a `Network`
//! node reproduces its decisions *exactly* — the property the networked
//! runtime's golden parity tests pin down. It multiplexes many
//! concurrent broadcast instances (keyed by [`InstanceId`], an
//! `(origin, sequence)` pair) over that one node, mirroring how a
//! serving system runs many broadcasts at once over the same topology.

use crate::process::Lent;
use crate::trace::{fold_words, FNV_OFFSET};
use crate::{Ctx, Process, Round, Value};
use rbcast_grid::{NeighborTable, NodeId};
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

/// One hosted instance: its process and the two flags of the sparse
/// quiescence contract. Its decision sits beside it in the host's
/// [`Lent`]; nothing else is kept per instance.
struct Slot<M> {
    inst: InstanceId,
    proc: Box<dyn Process<M>>,
    /// Heard something this round.
    delivered: bool,
    /// Asked, at its last callback, for round ends without traffic.
    wake: bool,
}

/// Hosts every broadcast instance one node participates in, driving
/// each [`Process`] with exact `Network` round semantics.
///
/// [`InstanceHost::spawn`] runs `on_start` (round 0); the first
/// [`InstanceHost::end_round`] unconditionally runs every instance's
/// round-0 `on_round_end` — both engines run round 0 dense — and later
/// rounds honour [`Process::needs_round_end`] exactly like the sparse
/// engine: the callback fires iff the instance heard something this
/// round or asked to stay awake at its last callback.
///
/// All instances advance in lockstep: `end_round` closes the round for
/// every one of them and returns the union of their broadcasts, tagged
/// by instance, in `InstanceId` order (deterministic across all hosts,
/// so every receiver can reconstruct per-sender FIFO order per
/// instance).
///
/// Broadcast identities are not forwarded: a networked node cannot
/// spoof its link-layer identity, matching the paper's unforgeable
/// sender assumption, so only payloads leave the host.
pub struct InstanceHost<M> {
    arena: Arc<NeighborTable>,
    id: NodeId,
    round: Round,
    /// Ordered by `InstanceId` — not spawn order — so a lookup is a
    /// binary search and a walk is the order every host agrees on.
    slots: Vec<Slot<M>>,
    /// One decision per slot, one queue for all of them. Nothing reads
    /// a networked node's notes, so no buffer is installed.
    lent: Lent<M>,
    /// Which instance queued each entry of `lent.queued`.
    queued_by: Vec<InstanceId>,
}

impl<M> std::fmt::Debug for InstanceHost<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceHost")
            .field("id", &self.id)
            .field("round", &self.round)
            .field("instances", &self.slots.len())
            .finish()
    }
}

impl<M> InstanceHost<M> {
    /// An empty host for node `id`.
    #[must_use]
    pub fn new(arena: Arc<NeighborTable>, id: NodeId) -> Self {
        let lent = Lent::new(arena.len(), 0);
        InstanceHost {
            arena,
            id,
            round: 0,
            slots: Vec::new(),
            lent,
            queued_by: Vec::new(),
        }
    }

    fn with_ctx<F: FnOnce(&mut dyn Process<M>, &mut Ctx<'_, M>)>(&mut self, slot: usize, f: F) {
        let hosted = &mut self.slots[slot];
        let slot = u32::try_from(slot).expect("instance count fits u32");
        let mut ctx = self.lent.ctx(&self.arena, self.id, self.round, slot);
        f(hosted.proc.as_mut(), &mut ctx);
        // `Transmission` has no room for the instance: note it here.
        self.queued_by.resize(self.lent.queued.len(), hosted.inst);
    }

    /// Registers instance `inst` with its process (running `on_start`).
    ///
    /// # Panics
    ///
    /// Panics after the first [`InstanceHost::end_round`] — the
    /// instance set is part of the run's configuration, known to every
    /// node up front, so late registration would desynchronise round 0
    /// — and when `inst` is already hosted: a second process would
    /// strand whatever the first one's `on_start` queued.
    pub fn spawn(&mut self, inst: InstanceId, proc: Box<dyn Process<M>>) {
        assert!(
            self.round == 0,
            "instances must be spawned before round 0 closes"
        );
        let slot = self.slots.partition_point(|s| s.inst < inst);
        assert!(
            self.slots.get(slot).is_none_or(|s| s.inst != inst),
            "instance {inst} is already spawned"
        );
        self.slots.insert(
            slot,
            Slot {
                inst,
                proc,
                delivered: false,
                wake: false,
            },
        );
        self.lent.decisions.insert(slot, None);
        self.with_ctx(slot, |proc, ctx| proc.on_start(ctx));
    }

    /// Delivers one round-`k` message (broadcast by neighbor `from`
    /// during round `k − 1`) to instance `inst`; the caller presents a
    /// round's deliveries in global transmission order. Returns `false`
    /// (and does nothing) when the instance is unknown — the caller
    /// counts that as a protocol error from the peer.
    pub fn deliver(&mut self, inst: InstanceId, from: NodeId, msg: &M) -> bool {
        let Ok(slot) = self.slots.binary_search_by_key(&inst, |s| s.inst) else {
            return false;
        };
        self.slots[slot].delivered = true;
        self.with_ctx(slot, |proc, ctx| proc.on_message(ctx, from, msg));
        true
    }

    /// Closes the round for every instance — `on_round_end` under the
    /// sparse quiescence contract — and returns all queued broadcasts
    /// tagged by instance, in `InstanceId` order.
    pub fn end_round(&mut self) -> Vec<(InstanceId, M)> {
        for slot in 0..self.slots.len() {
            let hosted = &self.slots[slot];
            // Round 0 runs dense under both engines; afterwards the
            // sparse quiescence contract applies: fire iff delivered-to
            // or awake.
            if self.round == 0 || hosted.delivered || hosted.wake {
                self.with_ctx(slot, |proc, ctx| proc.on_round_end(ctx));
                // Re-read the standing-wakeup declaration only after a
                // callback actually ran (the contract forbids
                // spontaneous changes in between).
                let hosted = &mut self.slots[slot];
                hosted.wake = hosted.proc.needs_round_end();
            }
            self.slots[slot].delivered = false;
        }
        self.round += 1;
        let queued = self.lent.queued.drain(..).map(|tx| tx.msg);
        let mut out: Vec<_> = self.queued_by.drain(..).zip(queued).collect();
        // The queue holds every instance's broadcasts in call order; one
        // stable sort splits it back per instance with each one's FIFO
        // intact, as `Network` splits its queue per sender by rank.
        out.sort_by_key(|&(inst, _)| inst);
        out
    }

    /// Every decided instance as `(instance, value, round decided)`.
    #[must_use]
    pub fn decisions(&self) -> Vec<(InstanceId, Value, Round)> {
        self.slots
            .iter()
            .zip(&self.lent.decisions)
            .filter_map(|(s, d)| d.map(|(v, r)| (s.inst, v, r)))
            .collect()
    }

    /// Rounds fully closed so far.
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of hosted instances.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
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

    /// The host this one replaced — a `BTreeMap` of per-instance
    /// `NodeDriver`s, each with its own arena handle, outbox, counters
    /// and ledger — kept as the reference the slot table is checked
    /// against. Bodies verbatim; only `with_ctx` differs, building its
    /// `Ctx` from a one-slot [`Lent`] per driver now that `Ctx` borrows
    /// nothing else.
    mod reference {
        use super::super::*;
        use std::collections::BTreeMap;

        pub struct NodeDriver<M> {
            arena: Arc<NeighborTable>,
            id: NodeId,
            proc: Box<dyn Process<M>>,
            lent: Lent<M>,
            round: Round,
            delivered: bool,
            wake: bool,
        }

        impl<M> NodeDriver<M> {
            pub fn new(arena: Arc<NeighborTable>, id: NodeId, proc: Box<dyn Process<M>>) -> Self {
                let n = arena.len();
                let mut driver = NodeDriver {
                    arena,
                    id,
                    proc,
                    lent: Lent::new(n, 1),
                    round: 0,
                    delivered: false,
                    wake: false,
                };
                driver.with_ctx(|proc, ctx| proc.on_start(ctx));
                driver
            }

            fn with_ctx<F: FnOnce(&mut dyn Process<M>, &mut Ctx<'_, M>)>(&mut self, f: F) {
                let mut ctx = self.lent.ctx(&self.arena, self.id, self.round, 0);
                f(self.proc.as_mut(), &mut ctx);
            }

            pub fn deliver(&mut self, from: NodeId, msg: &M) {
                self.delivered = true;
                self.with_ctx(|proc, ctx| proc.on_message(ctx, from, msg));
            }

            pub fn end_round(&mut self) -> Vec<M> {
                if self.round == 0 || self.delivered || self.wake {
                    self.with_ctx(|proc, ctx| proc.on_round_end(ctx));
                    self.wake = self.proc.needs_round_end();
                }
                self.delivered = false;
                self.round += 1;
                self.lent.queued.drain(..).map(|tx| tx.msg).collect()
            }

            pub fn decision(&self) -> Option<(Value, Round)> {
                self.lent.decisions[0]
            }
        }

        pub struct InstanceHost<M> {
            arena: Arc<NeighborTable>,
            id: NodeId,
            round: Round,
            drivers: BTreeMap<InstanceId, NodeDriver<M>>,
        }

        impl<M> InstanceHost<M> {
            pub fn new(arena: Arc<NeighborTable>, id: NodeId) -> Self {
                InstanceHost {
                    arena,
                    id,
                    round: 0,
                    drivers: BTreeMap::new(),
                }
            }

            pub fn spawn(&mut self, inst: InstanceId, proc: Box<dyn Process<M>>) {
                assert!(
                    self.round == 0,
                    "instances must be spawned before round 0 closes"
                );
                let driver = NodeDriver::new(Arc::clone(&self.arena), self.id, proc);
                self.drivers.insert(inst, driver);
            }

            pub fn deliver(&mut self, inst: InstanceId, from: NodeId, msg: &M) -> bool {
                match self.drivers.get_mut(&inst) {
                    Some(driver) => {
                        driver.deliver(from, msg);
                        true
                    }
                    None => false,
                }
            }

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

            pub fn decisions(&self) -> Vec<(InstanceId, Value, Round)> {
                self.drivers
                    .iter()
                    .filter_map(|(&inst, d)| d.decision().map(|(v, r)| (inst, v, r)))
                    .collect()
            }

            pub fn round(&self) -> Round {
                self.round
            }
        }
    }

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

    const ONLY: InstanceId = InstanceId {
        origin: NodeId(0),
        seq: 0,
    };

    /// A host running the one instance [`ONLY`].
    fn host_of<M>(
        arena: &Arc<NeighborTable>,
        id: NodeId,
        proc: Box<dyn Process<M>>,
    ) -> InstanceHost<M> {
        let mut host = InstanceHost::new(Arc::clone(arena), id);
        host.spawn(ONLY, proc);
        host
    }

    /// Drives one one-instance host per node by hand — deliver each
    /// round's broadcasts in transmission order — and checks the
    /// decisions (values *and* rounds) equal a `Network` run of the
    /// same setup.
    #[test]
    fn hand_driven_drivers_reproduce_network_decisions() {
        let arena = arena();
        let torus = arena.torus().clone();
        let source = torus.id(Coord::new(3, 4));

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

        let mut order = Vec::new();
        arena.for_each_in_order(|id| order.push(id));
        let mut hosts: Vec<InstanceHost<bool>> = torus
            .node_ids()
            .map(|id| {
                let flood = Flood {
                    origin: id == source,
                    done: false,
                };
                host_of(&arena, id, Box::new(flood))
            })
            .collect();

        // Round k: close round k−1 everywhere (collecting outboxes),
        // then deliver in global transmission order.
        for _round in 0..50 {
            let outs: Vec<_> = hosts.iter_mut().map(InstanceHost::end_round).collect();
            let mut any = false;
            for &sender in &order {
                for &(inst, m) in &outs[sender.index()] {
                    any = true;
                    for rid in arena.neighbors(sender) {
                        assert!(hosts[rid.index()].deliver(inst, sender, &m));
                    }
                }
            }
            if !any {
                break;
            }
        }
        let got: Vec<Option<(Value, Round)>> = hosts
            .iter()
            .map(|h| h.decisions().first().map(|&(_, v, r)| (v, r)))
            .collect();
        assert_eq!(got, expect, "host decisions diverge from the network");
    }

    /// `Ctx::coord()` is computed on demand from the arena; every
    /// lender (`Network`, `InstanceHost`, `Harness`) must report the
    /// torus's own id → coordinate map. A non-square torus makes a
    /// width/height mix-up visible.
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

        let via_host: Seen = Rc::default();
        for id in torus.node_ids() {
            let _ = host_of(&arena, id, Box::new(Locate(via_host.clone())));
        }
        assert_eq!(*via_host.borrow(), expect);

        let via_harness: Seen = Rc::default();
        for id in torus.node_ids() {
            let mut harness = crate::Harness::<bool>::new(torus.clone(), 1, Metric::Linf, id);
            harness.start(&mut Locate(via_harness.clone()));
        }
        assert_eq!(*via_harness.borrow(), expect);
    }

    /// A note buffer is lent only where something reads it — `Network`
    /// while a sink is installed, `Harness` always, `InstanceHost`
    /// never — and `note_with` does not build its value for nobody.
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

        let _ = host_of(&arena, NodeId(0), Box::new(Noter(built.clone())));
        assert_eq!(built.get(), 0, "nothing drains a host's notes");

        let mut harness =
            crate::Harness::<bool>::new(arena.torus().clone(), 2, Metric::Linf, NodeId(0));
        harness.start(&mut Noter(built.clone()));
        assert_eq!(built.get(), 1);
        assert_eq!(harness.drain_notes(), [("cheap", 1), ("costly", 2)]);
    }

    /// What a [`Chatter`] was asked to do, in the order it was asked:
    /// `(tag, callback)`, shared by every instance of one host.
    type Calls = std::rc::Rc<std::cell::RefCell<Vec<(u32, &'static str)>>>;

    /// Broadcasts from all three callbacks, numbering what it sends, and
    /// keeps asking for round ends until its budget has drained.
    struct Chatter {
        tag: u32,
        sent: u32,
        at_start: u32,
        budget: u32,
        /// Decides on hearing this many messages (0: at start).
        decide_after: u32,
        heard: u32,
        calls: Calls,
    }

    impl Chatter {
        fn say(&mut self, ctx: &mut Ctx<'_, u32>, heard: u32) {
            self.sent += 1;
            ctx.broadcast(self.tag * 1_000_000 + self.sent * 1_000 + heard % 1_000);
        }
    }

    impl Process<u32> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.calls.borrow_mut().push((self.tag, "start"));
            for _ in 0..self.at_start {
                self.say(ctx, 0);
            }
            if self.decide_after == 0 {
                ctx.decide(true);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, &m: &u32) {
            self.calls.borrow_mut().push((self.tag, "message"));
            self.heard += 1;
            if self.heard == self.decide_after {
                ctx.decide(m % 2 == 0);
            }
            self.say(ctx, m + from.0);
            assert_eq!(ctx.has_decided(), self.heard >= self.decide_after);
        }
        fn on_round_end(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.calls.borrow_mut().push((self.tag, "round_end"));
            if self.budget > 0 {
                self.budget -= 1;
                self.say(ctx, 999);
            }
        }
        fn needs_round_end(&self) -> bool {
            self.budget > 0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The slot table is the map of drivers: for instance sets
        /// spawned out of `InstanceId` order (as `ClusterSpec` spawns
        /// them), deliveries interleaved across instances — unknown
        /// ones included, and enough per round that an unstable sort
        /// would leave its insertion-sort regime — and processes that
        /// broadcast from every callback while a wake-up budget drains,
        /// both hosts return the same thing from every call and run the
        /// same callbacks in the same order.
        #[test]
        fn slot_table_hosts_what_the_map_of_drivers_did(
            spawns in proptest::collection::vec(
                ((0u32..4, 0u32..4), 0u32..4, 0u32..4, 0u32..5), 2..9),
            rounds in proptest::collection::vec(
                proptest::collection::vec((0usize..10, 0u32..8, 0u32..1000), 0..80), 1..6),
        ) {
            use proptest::{prop_assert, prop_assert_eq};

            let mut insts: Vec<InstanceId> = Vec::new();
            let mut specs = Vec::new();
            for &((origin, seq), at_start, budget, decide_after) in &spawns {
                let inst = InstanceId { origin: NodeId(origin), seq };
                if !insts.contains(&inst) {
                    insts.push(inst);
                    specs.push((at_start, budget, decide_after));
                }
            }
            if insts.is_sorted() {
                insts.reverse();
            }
            // Picks past the end name an instance nobody hosts.
            let stranger = InstanceId { origin: NodeId(9), seq: 9 };

            let arena = arena();
            let me = NodeId(17);
            let (calls, want_calls) = (Calls::default(), Calls::default());
            let mut host = InstanceHost::new(Arc::clone(&arena), me);
            let mut want = reference::InstanceHost::new(Arc::clone(&arena), me);
            for (tag, (&inst, &(at_start, budget, decide_after))) in
                insts.iter().zip(&specs).enumerate()
            {
                let chatter = |calls: &Calls| {
                    Box::new(Chatter {
                        tag: tag as u32,
                        sent: 0,
                        at_start,
                        budget,
                        decide_after,
                        heard: 0,
                        calls: calls.clone(),
                    })
                };
                host.spawn(inst, chatter(&calls));
                want.spawn(inst, chatter(&want_calls));
            }
            prop_assert_eq!(host.len(), insts.len());
            prop_assert_eq!(host.decisions(), want.decisions());

            for deliveries in &rounds {
                for &(pick, from, msg) in deliveries {
                    let inst = insts.get(pick).copied().unwrap_or(stranger);
                    let known = host.deliver(inst, NodeId(from), &msg);
                    prop_assert_eq!(known, want.deliver(inst, NodeId(from), &msg));
                    prop_assert_eq!(known, pick < insts.len());
                }
                prop_assert_eq!(host.end_round(), want.end_round());
                prop_assert_eq!(host.decisions(), want.decisions());
                prop_assert_eq!(host.round(), want.round());
            }
            prop_assert_eq!(&*calls.borrow(), &*want_calls.borrow());
            prop_assert!(host.lent.queued.is_empty() && host.queued_by.is_empty());
        }
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

    /// The map host replaced the first process and dropped the
    /// broadcast its `on_start` had queued; the table refuses.
    #[test]
    #[should_panic(expected = "instance n0#0 is already spawned")]
    fn duplicate_spawn_is_rejected() {
        let origin = || {
            Box::new(Flood {
                origin: true,
                done: false,
            })
        };
        let mut host = host_of(&arena(), NodeId(0), origin());
        host.spawn(ONLY, origin());
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
}
