//! The protocol-facing node abstraction.

use crate::{Round, Value};
use rbcast_grid::{BitSet, Coord, Metric, NeighborTable, Neighbors, NodeId, Torus};

/// A node's protocol logic.
///
/// One `Process` instance drives one node. Honest nodes run the protocol
/// under test; Byzantine nodes run adversarial implementations. All state
/// lives inside the implementation — the simulator only routes messages.
pub trait Process<M> {
    /// Invoked once at round 0, before any message exchange.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// Invoked for every message heard. `from` is the true transmitter
    /// identity (the model rules out spoofing).
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: &M);

    /// Invoked after all of a round's deliveries, once per round in which
    /// this node was alive. Protocols with expensive commit rules batch
    /// their evaluation here.
    fn on_round_end(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Quiescence declaration for the sparse wavefront engine.
    ///
    /// Returning `false` is a promise that, until the next message is
    /// delivered to this node, [`Process::on_round_end`] would have no
    /// observable effect: no broadcast, no decision, no note, and no
    /// internal state change that a later callback depends on. The sparse
    /// engine then skips the callback in rounds where the node heard
    /// nothing, which is what turns an area-proportional round scan into
    /// a frontier-proportional one.
    ///
    /// The engine re-reads this after every callback it runs on the node,
    /// so the answer may change with internal state (e.g. a transmission
    /// budget draining to zero). It must not change *between* callbacks —
    /// a process has no spontaneous transitions in this model.
    ///
    /// The default is `true` (poll every round), which preserves exact
    /// dense semantics for implementations that predate this contract.
    fn needs_round_end(&self) -> bool {
        true
    }
}

/// A boxed process is a process: hosts that mix implementations in one
/// table store `Box<dyn Process<M>>` and call through the vtable.
impl<M, P: Process<M> + ?Sized> Process<M> for Box<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        (**self).on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: &M) {
        (**self).on_message(ctx, from, msg);
    }

    fn on_round_end(&mut self, ctx: &mut Ctx<'_, M>) {
        (**self).on_round_end(ctx);
    }

    fn needs_round_end(&self) -> bool {
        (**self).needs_round_end()
    }
}

/// One node of a network whose honest nodes all run protocol `P`: the
/// honest process stored inline, or a faulty node's boxed adversary.
/// The adversary sits behind one thin pointer — a box of its box — so
/// a slot costs `size_of::<P>()`, or one word more when `P` is smaller
/// than two: no per-node heap chunk and no vtable call on the honest
/// path, and the few faulty nodes pay the second hop.
pub enum Node<P, M> {
    /// The protocol under test.
    Honest(P),
    /// Whatever a faulty node runs.
    Faulty(Box<Box<dyn Process<M>>>),
}

impl<P: Process<M>, M> Process<M> for Node<P, M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        match self {
            Node::Honest(p) => p.on_start(ctx),
            Node::Faulty(p) => p.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: &M) {
        match self {
            Node::Honest(p) => p.on_message(ctx, from, msg),
            Node::Faulty(p) => p.on_message(ctx, from, msg),
        }
    }

    fn on_round_end(&mut self, ctx: &mut Ctx<'_, M>) {
        match self {
            Node::Honest(p) => p.on_round_end(ctx),
            Node::Faulty(p) => p.on_round_end(ctx),
        }
    }

    fn needs_round_end(&self) -> bool {
        match self {
            Node::Honest(p) => p.needs_round_end(),
            Node::Faulty(p) => p.needs_round_end(),
        }
    }
}

/// Everything a host keeps per slot beside the process itself: the
/// irrevocable decision and the round it was made in. Queued
/// transmissions and trace notes live in the host's one [`Lent`].
pub(crate) type Decision = Option<(Value, Round)>;

const _: () = assert!(std::mem::size_of::<Decision>() <= 8);
// Two references and three `u32`s, whatever the message type.
const _: () = assert!(std::mem::size_of::<Ctx<'static, ()>>() <= 32);

/// One queued or on-air transmission: the true sender, the identity the
/// channel reports to receivers (differs only under the §X spoofing
/// relaxation), and the payload.
#[derive(Debug, Clone)]
pub(crate) struct Transmission<M> {
    pub sender: NodeId,
    pub claimed: NodeId,
    pub msg: M,
}

/// Protocol-level trace notes queued by [`Ctx::note`].
pub(crate) type Notes = Vec<(&'static str, u64)>;

/// Incrementally maintained decision bookkeeping, updated at the moment
/// [`Ctx::decide`] commits a node. Replaces the dense engine's O(n)
/// per-round recount of every node's decision and the O(n) completion-mask
/// zip scan with popcount-maintained counters and an O(1) frozen check.
#[derive(Debug)]
pub(crate) struct DecisionLedger {
    /// One bit per node: has this node decided? Kept in lockstep with
    /// the node's [`Decision`] — `Ctx::decide` is the only writer of either.
    pub decided: BitSet,
    /// Completion mask (nodes that must decide before the trace-hash
    /// freeze), when one is installed.
    pub mask: Option<BitSet>,
    /// Popcount of `decided`.
    pub decided_count: u64,
    /// Popcount of `decided ∩ mask` (0 when no mask is installed).
    pub masked_decided: u64,
    /// Popcount of `mask` (0 when no mask is installed).
    pub mask_count: u64,
    /// Node indices that decided since the last `scan_decisions` drain,
    /// in decision order; re-sorted by node index before Decision events
    /// are emitted so the event stream matches the dense scan's.
    pub fresh: Vec<u32>,
}

impl DecisionLedger {
    pub(crate) fn new(n: usize) -> DecisionLedger {
        DecisionLedger {
            decided: BitSet::new(n),
            mask: None,
            decided_count: 0,
            masked_decided: 0,
            mask_count: 0,
            fresh: Vec::new(),
        }
    }

    /// Records a fresh (first-time) decision by node `idx`.
    pub(crate) fn record(&mut self, idx: usize) {
        if self.decided.set(idx) {
            self.decided_count += 1;
            if self.mask.as_ref().is_some_and(|m| m.get(idx)) {
                self.masked_decided += 1;
            }
            self.fresh
                .push(u32::try_from(idx).expect("node index fits u32"));
        }
    }

    /// Installs (or clears) the completion mask and recomputes the two
    /// mask-derived counters by popcount — O(n/64), run outside the loop.
    pub(crate) fn set_mask(&mut self, mask: Option<BitSet>) {
        self.mask = mask;
        self.mask_count = self.mask.as_ref().map_or(0, BitSet::count_ones);
        self.masked_decided = self
            .mask
            .as_ref()
            .map_or(0, |m| m.intersection_count(&self.decided));
    }

    /// All nodes in the (installed) completion mask have decided. With no
    /// mask — or an empty one — this is vacuously true, matching the dense
    /// engine's `iter().all()` over the mask.
    pub(crate) fn mask_complete(&self) -> bool {
        self.masked_decided == self.mask_count
    }
}

/// Everything a host lends to the callbacks it runs, owned once per
/// host — a [`crate::Network`], an [`crate::InstanceHost`], a
/// [`crate::Harness`] — however many nodes or instances it drives.
#[derive(Debug)]
pub(crate) struct Lent<M> {
    /// One decision per slot: a node of a network, an instance of a
    /// host.
    pub decisions: Vec<Decision>,
    /// Where broadcasts queue until the round closes, in call order,
    /// whichever slot made them.
    pub queued: Vec<Transmission<M>>,
    /// Present only when something will read the notes; `None` drops
    /// them unbuilt.
    pub notes: Option<Notes>,
    /// Broadcasts queued so far.
    pub messages_sent: u64,
    /// Which nodes have decided — for a host of one node's instances,
    /// one bit: it decided in some instance.
    pub ledger: DecisionLedger,
}

impl<M> Lent<M> {
    /// State for `slots` slots over a torus of `nodes` nodes; notes
    /// are dropped until a buffer is installed.
    pub(crate) fn new(nodes: usize, slots: usize) -> Lent<M> {
        Lent {
            decisions: vec![None; slots],
            queued: Vec::new(),
            notes: None,
            messages_sent: 0,
            ledger: DecisionLedger::new(nodes),
        }
    }

    /// The context of one callback: node `id` running slot `slot` in
    /// round `round`. Every host builds its [`Ctx`] here.
    pub(crate) fn ctx<'a>(
        &'a mut self,
        arena: &'a NeighborTable,
        id: NodeId,
        round: Round,
        slot: u32,
    ) -> Ctx<'a, M> {
        Ctx {
            id,
            round,
            slot,
            arena,
            lent: self,
        }
    }
}

/// The execution context handed to [`Process`] callbacks: node identity,
/// network geometry, and the two effects a node can have — broadcasting a
/// message and deciding a value.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    id: NodeId,
    round: Round,
    /// Which of the lender's decisions is this callback's.
    slot: u32,
    arena: &'a NeighborTable,
    lent: &'a mut Lent<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's grid coordinate (canonical torus representative).
    /// Computed on demand: few callbacks read it, so no constructor pays
    /// the id → coordinate division up front.
    #[must_use]
    pub fn coord(&self) -> Coord {
        self.arena.torus().coord(self.id)
    }

    /// The shared topology arena: the neighbour stencil and the
    /// commit-rule ball stencils for this network's `(torus, r, metric)`.
    #[must_use]
    pub fn arena(&self) -> &'a NeighborTable {
        self.arena
    }

    /// This node's radius-`r` neighborhood (excluding the node itself),
    /// in the canonical [`Torus::neighborhood`] order, computed from the
    /// arena's stencil.
    #[must_use]
    pub fn neighbors(&self) -> Neighbors<'a> {
        self.arena.neighbors(self.id)
    }

    /// The network arena.
    #[must_use]
    pub fn torus(&self) -> &'a Torus {
        self.arena.torus()
    }

    /// The transmission radius `r`.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.arena.radius()
    }

    /// The distance metric in force.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.arena.metric()
    }

    /// The current round number.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn round(&self) -> Round {
        self.round
    }

    /// Queues `msg` for local broadcast. It is heard by every node within
    /// distance `r` at the start of the next round, in per-sender FIFO
    /// order.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast_as(self.id, msg);
    }

    /// Queues `msg` for local broadcast under a *forged* sender identity
    /// (§X). Honest protocols never call this; Byzantine processes may —
    /// the forgery is honoured only when the channel was configured with
    /// spoofing enabled, and is silently corrected to the true identity
    /// otherwise.
    pub fn broadcast_as(&mut self, claimed: NodeId, msg: M) {
        self.lent.messages_sent += 1;
        self.lent.queued.push(Transmission {
            sender: self.id,
            claimed,
            msg,
        });
    }

    /// Records this node's irrevocable decision (the paper's *commit*).
    /// Later calls are ignored — a node commits at most once.
    pub fn decide(&mut self, v: Value) {
        let decision = &mut self.lent.decisions[self.slot as usize];
        if decision.is_none() {
            *decision = Some((v, self.round));
            self.lent.ledger.record(self.id.index());
        }
    }

    /// Records a protocol-level trace note — e.g. "commit evidence
    /// accepted" with the chain count that satisfied the rule. Notes are
    /// forwarded to the network's trace sink (when one is installed) as
    /// [`crate::trace::TraceEvent::Note`]; they never contribute to the
    /// delivery-trace hash, so annotating a protocol cannot perturb
    /// determinism checks.
    pub fn note(&mut self, label: &'static str, value: u64) {
        self.note_with(label, || value);
    }

    /// [`Ctx::note`] for a value that costs something to compute: `value`
    /// runs only when a reader is attached (a trace sink, or the test
    /// [`crate::Harness`]), so an untraced run never builds it.
    pub fn note_with(&mut self, label: &'static str, value: impl FnOnce() -> u64) {
        if let Some(notes) = self.lent.notes.as_mut() {
            notes.push((label, value()));
        }
    }

    /// The value this node has decided, if any.
    #[must_use]
    pub fn decision(&self) -> Option<Value> {
        self.lent.decisions[self.slot as usize].map(|(v, _)| v)
    }

    /// True once [`Ctx::decide`] has been called.
    #[must_use]
    pub fn has_decided(&self) -> bool {
        self.lent.decisions[self.slot as usize].is_some()
    }
}
