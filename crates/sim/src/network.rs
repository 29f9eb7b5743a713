//! The synchronous round-based network engine.

use crate::channel::delivery_lost;
use crate::process::{Lent, Transmission};
use crate::trace::{TraceEvent, TraceSink, FNV_OFFSET};
use crate::{ChannelConfig, Ctx, Process, Round, RoundReport, RunStats, StopReason, Value};
use rbcast_grid::{BitSet, Metric, NeighborTable, NodeId, Torus};
use std::sync::Arc;

/// Which round loop drives [`Network::run`].
///
/// Both engines execute the same model and are **byte-identical** in
/// every observable: trace hash, event stream, [`RunStats`], history,
/// per-kind tallies, decisions. The sparse engine is the default; the
/// dense loop survives as the parity oracle the determinism gate runs
/// both engines against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Event-driven sparse wavefront loop: only *frontier* nodes — those
    /// delivered to this round, plus those whose process declared a
    /// pending self-wakeup via [`Process::needs_round_end`] — run
    /// `on_round_end`. Cost per round is proportional to the wavefront,
    /// not the torus area.
    #[default]
    Sparse,
    /// The original every-node-every-round loop. Kept behind the
    /// `--dense` escape hatch as a test oracle.
    Dense,
}

/// The T2 ground truth a run is audited against: the source's value and
/// the set of faulty nodes. Only consulted under `debug-invariants`.
#[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
struct SafetyOracle {
    truth: Value,
    faulty: BitSet,
}

/// The crash-stop schedule: one bit per node — does it ever crash? —
/// and, for the few that do, the round it stops in. Almost every node
/// never crashes, so the per-delivery liveness test is one bit and the
/// rounds cost nothing for them.
#[derive(Debug)]
struct Crashes {
    /// Nodes with an entry in `at`.
    down: BitSet,
    /// `(node, first crashed round)`, sorted by node.
    at: Vec<(NodeId, Round)>,
}

impl Crashes {
    fn new(n: usize) -> Crashes {
        Crashes {
            down: BitSet::new(n),
            at: Vec::new(),
        }
    }

    /// Crashes `id` from `round` on; a node crashed twice stops at the
    /// earlier round.
    fn crash_at(&mut self, id: NodeId, round: Round) {
        let at = self.entry(id);
        if self.down.set(id.index()) {
            self.at.insert(at, (id, round));
        } else {
            let first = &mut self.at[at].1;
            *first = (*first).min(round);
        }
    }

    #[inline]
    fn is_crashed(&self, id: NodeId, round: Round) -> bool {
        self.down.get(id.index()) && self.at[self.entry(id)].1 <= round
    }

    /// Where `id`'s entry in `at` is, or would go.
    fn entry(&self, id: NodeId) -> usize {
        self.at.partition_point(|&(node, _)| node < id)
    }
}

/// A finite toroidal radio network executing one [`Process`] per node.
///
/// Execution proceeds in synchronous rounds:
///
/// 1. messages queued in round `k` are *on the air* and delivered at the
///    start of round `k+1`, in TDMA slot order across senders and FIFO
///    order per sender — every receiver observes the same order,
///    reproducing the broadcast-channel ordering guarantee of §II;
/// 2. each alive node's [`Process::on_message`] runs per delivery, then
///    [`Process::on_round_end`] runs once;
/// 3. everything queued during the round goes on the air for the next;
///    nodes crashed at or before the current round transmit nothing.
///
/// The run ends at quiescence (nothing on the air) or after `max_rounds`.
///
/// `P` is what one node's slot stores. The default boxes every process,
/// so any mix of implementations fits; a host that knows its honest
/// protocol stores [`crate::Node`]`<Protocol, M>` and keeps the honest
/// processes inline.
pub struct Network<M, P = Box<dyn Process<M>>> {
    /// The shared topology arena: torus, radius, metric, the
    /// neighbour stencil and the transmission order, immutable and
    /// possibly shared with other networks (and threads) running the
    /// same geometry.
    arena: Arc<NeighborTable>,
    engine: EngineKind,
    /// What callbacks borrow: one decision per node (all the simulator
    /// keeps per node, 8 bytes), next round's transmissions in the
    /// order [`Ctx::broadcast`] was called, the send counter, the note
    /// buffer while a sink reads it, and the decision ledger — decided
    /// bitset, completion mask and popcount-maintained counters, so no
    /// round recounts decisions or scans the mask.
    lent: Lent<M>,
    processes: Vec<P>,
    /// Crash-stop schedule: a bit per node, a round per crashed node.
    crashes: Crashes,
    channel: ChannelConfig,
    /// Remaining collision battery per jammer (parallel to
    /// `channel.jammers`).
    jam_remaining: Vec<u32>,
    history: Vec<RoundReport>,
    /// FNV-1a fold over every delivery and per-round decision count —
    /// two runs with identical inputs must produce identical hashes.
    trace_hash: u64,
    /// T2 safety oracle (see [`Network::set_safety_oracle`]); the
    /// assertion itself only compiles under `debug-invariants`.
    oracle: Option<SafetyOracle>,
    classifier: Option<fn(&M) -> &'static str>,
    kind_counts: std::collections::BTreeMap<&'static str, u64>,
    early_termination: bool,
    /// Cooperative per-run deadline set by the supervisor (see
    /// [`Network::set_round_budget`]): the watchdog that turns a runaway
    /// run into a structured `DeadlineExceeded` verdict instead of
    /// letting it idle all the way to `max_rounds`.
    round_budget: Option<Round>,
    /// Set at the end of the round in which every masked node has
    /// decided. From then on `trace_mix` is a no-op, so a run that stops
    /// early and one that idles to quiescence hash identically.
    hash_frozen: bool,
    deliveries: u64,
    lost_deliveries: u64,
    jammed_deliveries: u64,
    jammed_transmissions: u64,
    /// Optional structured-event consumer (see [`crate::trace`]). `None`
    /// is the null sink: non-hashed events are never even constructed,
    /// so an untraced run pays only a branch per site.
    sink: Option<Box<dyn TraceSink>>,
    /// Sparse-engine scratch: nodes that had a message delivered to them
    /// this round. Cleared every round.
    delivered: BitSet,
    /// Sparse-engine scratch: nodes whose process answered `true` to
    /// [`Process::needs_round_end`] at its last callback — pending
    /// self-wakeups. Refreshed after every callback the engine runs.
    wake: BitSet,
    /// Sparse-engine scratch: the current round's frontier
    /// (`delivered ∪ wake`, minus crashed), sorted into TDMA rank order.
    frontier: Vec<NodeId>,
    /// Reusable per-round jammer assignment (parallel to the on-air
    /// vector): which jammer, if any, collides each transmission.
    /// Hoisted out of the round loop — same pattern as `PackScratch`.
    jam_scratch: Vec<Option<NodeId>>,
    /// This round's transmissions. Swapped with `lent.queued` at every
    /// round end, so the two allocations alternate for the whole run.
    on_air: Vec<Transmission<M>>,
}

impl<M, P: Process<M>> Network<M, P> {
    /// Builds a network over `torus` with transmission radius `radius`
    /// under `metric`, instantiating each node's process with `make`.
    ///
    /// # Panics
    ///
    /// Panics if the torus is too small to emulate the infinite grid at
    /// this radius (see [`Torus::supports_radius`]).
    pub fn new<F>(torus: Torus, radius: u32, metric: Metric, make: F) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        Network::new_with_channel(torus, radius, metric, ChannelConfig::reliable(), make)
    }

    /// [`Network::new`] with an explicit (possibly imperfect) channel
    /// configuration — the §X relaxations.
    ///
    /// # Panics
    ///
    /// Panics if the torus is too small for the radius.
    pub fn new_with_channel<F>(
        torus: Torus,
        radius: u32,
        metric: Metric,
        channel: ChannelConfig,
        make: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        let arena = Arc::new(NeighborTable::build(&torus, radius, metric));
        Network::with_arena(arena, channel, make)
    }

    /// Builds a network over a prebuilt (possibly shared) topology
    /// arena: the zero-rebuild construction path the sweep engine uses.
    /// The arena carries the torus, radius, and metric; construction
    /// performs no neighborhood computation at all.
    pub fn with_arena<F>(arena: Arc<NeighborTable>, channel: ChannelConfig, mut make: F) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        let torus = arena.torus();
        let n = torus.len();
        let processes = torus.node_ids().map(&mut make).collect();
        Network {
            arena,
            engine: EngineKind::default(),
            lent: Lent::new(n, n),
            processes,
            crashes: Crashes::new(n),
            jam_remaining: vec![channel.jam_budget; channel.jammers.len()],
            channel,
            history: Vec::new(),
            trace_hash: FNV_OFFSET,
            oracle: None,
            classifier: None,
            kind_counts: std::collections::BTreeMap::new(),
            early_termination: false,
            round_budget: None,
            hash_frozen: false,
            deliveries: 0,
            lost_deliveries: 0,
            jammed_deliveries: 0,
            jammed_transmissions: 0,
            sink: None,
            delivered: BitSet::new(n),
            wake: BitSet::new(n),
            frontier: Vec::new(),
            jam_scratch: Vec::new(),
            on_air: Vec::new(),
        }
    }

    /// The shared topology arena.
    #[must_use]
    pub fn arena(&self) -> &Arc<NeighborTable> {
        &self.arena
    }

    /// Declares the set of nodes whose decisions complete the run
    /// (typically the honest nodes). At the end of the first round in
    /// which all of them have decided, the delivery-trace hash freezes;
    /// with [`Network::set_early_termination`] the run also stops there
    /// instead of idling on to quiescence or `max_rounds`. Installing
    /// the mask without enabling early termination changes no decision
    /// and no hash *relative to the early-terminating run* — that
    /// equivalence is what the determinism gate pins.
    pub fn set_completion_mask(&mut self, nodes: &[NodeId]) {
        let mut mask = BitSet::new(self.arena.len());
        for id in nodes {
            mask.set(id.index());
        }
        self.lent.ledger.set_mask(Some(mask));
    }

    /// [`Network::set_completion_mask`] over every node *except*
    /// `excluded` (typically the placed faults), without listing the
    /// rest.
    pub fn set_completion_mask_except(&mut self, excluded: &[NodeId]) {
        let mut mask = BitSet::full(self.arena.len());
        for id in excluded {
            mask.clear(id.index());
        }
        self.lent.ledger.set_mask(Some(mask));
    }

    /// Selects the round loop (see [`EngineKind`]). Both engines are
    /// observationally identical; the dense loop exists as a parity
    /// oracle and costs torus-area work per round.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// Enables or disables early termination at the completion round
    /// (no-op unless a completion mask is installed).
    pub fn set_early_termination(&mut self, on: bool) {
        self.early_termination = on;
    }

    /// Installs the supervisor's cooperative deadline: the run is cut
    /// off after `budget` rounds even if messages remain on the air, and
    /// [`RunStats::stop_reason`] reports
    /// [`StopReason::DeadlineExceeded`] so the caller can distinguish a
    /// watchdog trip from the experiment's own `max_rounds` cap. A
    /// budget at or above `max_rounds` never binds (the cap wins and is
    /// reported as [`StopReason::RoundCap`]); a budget generous enough
    /// for the run to finish changes nothing at all — neither the trace
    /// hash nor any decision.
    pub fn set_round_budget(&mut self, budget: Option<Round>) {
        self.round_budget = budget;
    }

    /// Schedules a crash-stop fault: the node performs no actions (no
    /// callbacks, no transmissions) from round `round` onward. `round 0`
    /// means the node never participates.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the torus.
    pub fn crash_at(&mut self, id: NodeId, round: Round) {
        self.crashes.crash_at(id, round);
    }

    /// Whether `id` is crashed as of round `round`.
    #[must_use]
    fn is_crashed(&self, id: NodeId, round: Round) -> bool {
        self.crashes.is_crashed(id, round)
    }

    /// Runs the simulation until quiescence or `max_rounds`, returning
    /// run statistics.
    pub fn run(&mut self, max_rounds: Round) -> RunStats {
        // A network may be run more than once (processes, decisions,
        // crash schedules, and jam batteries persist); everything that
        // describes *a run* — history, counters, the trace hash and its
        // freeze — restarts from zero so `history.len() == stats.rounds`
        // and per-kind tallies hold for every run, not just the first.
        self.history.clear();
        self.trace_hash = FNV_OFFSET;
        self.hash_frozen = false;
        self.lent.messages_sent = 0;
        self.deliveries = 0;
        self.lost_deliveries = 0;
        self.jammed_deliveries = 0;
        self.jammed_transmissions = 0;
        self.kind_counts.clear();
        // Decisions persist across runs; seed the fresh-list with every
        // node already decided so a traced re-run re-announces them at
        // round 0, exactly as the dense scan used to after its
        // `decided_seen` reset.
        {
            let mut fresh = std::mem::take(&mut self.lent.ledger.fresh);
            fresh.clear();
            self.lent.ledger.decided.for_each(|idx| fresh.push(idx));
            self.lent.ledger.fresh = fresh;
        }

        // Hot-path de-allocation: the arena handle is cloned (one
        // refcount bump) for the duration of the run, so deliveries can
        // borrow the receiver slice and the transmission order while
        // `with_ctx` borrows `self` mutably — no per-transmission
        // receiver-list clone and no per-delivery message clone.
        let arena = Arc::clone(&self.arena);
        let sparse = self.engine == EngineKind::Sparse;
        let lossy = self.channel.burst.is_some() || self.channel.loss != 0.0;

        // Round 0 runs dense under both engines: every process gets its
        // `on_start` and first `on_round_end` regardless of traffic.
        arena.for_each_in_order(|id| {
            if !self.is_crashed(id, 0) {
                self.with_ctx(id, 0, |proc, ctx| proc.on_start(ctx));
            }
        });
        arena.for_each_in_order(|id| {
            if !self.is_crashed(id, 0) {
                self.with_ctx(id, 0, |proc, ctx| proc.on_round_end(ctx));
            }
        });
        if sparse {
            // Seed the wake set: ask every live process once whether it
            // wants round-end callbacks without traffic. From here on the
            // answer is only re-read after a callback actually runs (the
            // contract forbids spontaneous changes in between).
            self.wake.clear_all();
            self.delivered.clear_all();
            arena.for_each_in_order(|id| {
                if !self.is_crashed(id, 0) && self.process(id).needs_round_end() {
                    self.wake.set(id.index());
                }
            });
        }
        // Round-0 decisions (e.g. a source committing at start-up)
        // predate the first delivery round; surface them in the stream.
        self.scan_decisions(0);
        let mut on_air = std::mem::take(&mut self.on_air);
        self.collect_transmissions(0, &mut on_air);

        let mut round: Round = 0;
        let mut early_stopped = false;
        // The watchdog deadline binds only below the experiment's own
        // cap; at or above it the cap is the limiting factor.
        let deadline = self.round_budget.filter(|&b| b < max_rounds);
        let cap = deadline.unwrap_or(max_rounds);
        while !on_air.is_empty() && round < cap {
            round += 1;
            let deliveries_before = self.deliveries;
            let decided_before = self.lent.ledger.decided_count;
            // Deliberate collisions (§X): each jammer destroys up to its
            // budget of this round's transmissions, greedily in order; a
            // jammed transmission is lost exactly at receivers within the
            // jammer's range.
            self.assign_jammers(&arena, &on_air, round);
            let tracing = self.tracing();
            if tracing {
                self.emit(TraceEvent::RoundStart {
                    round,
                    on_air: on_air.len() as u64,
                });
            }
            if sparse {
                self.delivered.clear_all();
            }
            // Deliver everything on the air, in global transmission
            // order, walking each sender's fan-out off the stencil.
            for (tx_index, tx) in on_air.iter().enumerate() {
                if tracing {
                    self.emit(TraceEvent::Transmission {
                        round,
                        index: tx_index as u64,
                        sender: tx.sender.index() as u64,
                        claimed: tx.claimed.index() as u64,
                    });
                }
                let jammer = self.jam_scratch[tx_index];
                for rid in arena.neighbors(tx.sender) {
                    if self.is_crashed(rid, round) {
                        continue;
                    }
                    if let Some(jammer) = jammer {
                        if arena.torus().within(
                            arena.torus().coord(jammer),
                            arena.torus().coord(rid),
                            arena.radius(),
                            arena.metric(),
                        ) {
                            self.jammed_deliveries += 1;
                            if tracing {
                                self.emit(TraceEvent::Jammed {
                                    round,
                                    index: tx_index as u64,
                                    receiver: rid.index() as u64,
                                    jammer: jammer.index() as u64,
                                });
                            }
                            continue;
                        }
                    }
                    if lossy && delivery_lost(&self.channel, round, tx_index, tx.sender, rid) {
                        self.lost_deliveries += 1;
                        if tracing {
                            self.emit(TraceEvent::Lost {
                                round,
                                index: tx_index as u64,
                                receiver: rid.index() as u64,
                            });
                        }
                        continue;
                    }
                    self.deliveries += 1;
                    self.emit(TraceEvent::Delivery {
                        round,
                        index: tx_index as u64,
                        receiver: rid.index() as u64,
                        claimed: tx.claimed.index() as u64,
                    });
                    if sparse {
                        self.delivered.set(rid.index());
                    }
                    self.with_ctx(rid, round, |proc, ctx| {
                        proc.on_message(ctx, tx.claimed, &tx.msg);
                    });
                }
            }
            // Round end. Sparse: gather the frontier (delivered ∪ wake,
            // minus crashed), sort it into TDMA rank order — the same
            // relative order the dense sweep visits — and run callbacks
            // only there. Dense: sweep every live node.
            if sparse {
                let mut frontier = std::mem::take(&mut self.frontier);
                frontier.clear();
                {
                    let delivered = &self.delivered;
                    let wake = &self.wake;
                    delivered.for_each_union(wake, |idx| frontier.push(NodeId(idx)));
                }
                {
                    // Crash-stop is permanent: drop crashed nodes from
                    // the frontier and retire their standing wakeups.
                    let crashes = &self.crashes;
                    let wake = &mut self.wake;
                    frontier.retain(|&id| {
                        if crashes.is_crashed(id, round) {
                            wake.clear(id.index());
                            false
                        } else {
                            true
                        }
                    });
                }
                // The union walk yields id order, which is rank order
                // unless a TDMA schedule permutes it.
                if let Some(ranks) = arena.ranks() {
                    frontier.sort_unstable_by_key(|id| ranks[id.index()]);
                }
                for &id in &frontier {
                    self.with_ctx(id, round, |proc, ctx| proc.on_round_end(ctx));
                    // Re-read the quiescence declaration now that the
                    // callback may have changed the process's state.
                    if self.process(id).needs_round_end() {
                        self.wake.set(id.index());
                    } else {
                        self.wake.clear(id.index());
                    }
                }
                self.frontier = frontier;
            } else {
                arena.for_each_in_order(|id| {
                    if !self.is_crashed(id, round) {
                        self.with_ctx(id, round, |proc, ctx| proc.on_round_end(ctx));
                    }
                });
            }
            let decided_after = self.scan_decisions(round);
            // Completion check, before the round-end fold so the event
            // can carry the freeze marker — but applied only *after*
            // folding, so the hash freezes at the same round whether or
            // not early termination is on and both modes hash
            // identically. O(1): the ledger's popcounts replace the old
            // zip scan over the whole mask.
            let frozen_after = self.hash_frozen
                || (self.lent.ledger.mask.is_some() && self.lent.ledger.mask_complete());
            self.emit(TraceEvent::RoundEnd {
                round,
                decided: decided_after,
                frozen: frozen_after,
            });
            self.hash_frozen = frozen_after;
            self.check_safety(round);
            self.check_decided_counter(round);
            self.history.push(RoundReport {
                round,
                transmissions: on_air.len() as u64,
                deliveries: self.deliveries - deliveries_before,
                decisions: decided_after - decided_before,
            });
            // Collect before the early-exit check so everything a
            // process emitted is classified and counted: per-kind
            // tallies sum to `messages_sent` in both termination modes.
            self.collect_transmissions(round, &mut on_air);
            if self.hash_frozen && self.early_termination {
                early_stopped = !on_air.is_empty();
                break;
            }
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }

        let stop_reason = if on_air.is_empty() {
            StopReason::Quiescent
        } else if early_stopped {
            StopReason::AllDecided
        } else if deadline.is_some_and(|b| round >= b) {
            StopReason::DeadlineExceeded
        } else {
            StopReason::RoundCap
        };
        self.on_air = on_air;
        RunStats {
            rounds: round,
            stop_reason,
            messages_sent: self.lent.messages_sent,
            deliveries: self.deliveries,
            lost_deliveries: self.lost_deliveries,
            jammed_deliveries: self.jammed_deliveries,
            jammed_transmissions: self.jammed_transmissions,
        }
    }

    /// True while a trace sink is installed. Sites that emit non-hashed
    /// events guard on this so the null sink costs one branch and no
    /// event construction.
    #[inline]
    fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// The single funnel for trace events: folds the event's hash
    /// contribution (unless the hash is frozen) and forwards it to the
    /// sink. Routing every fold through here is what keeps the FNV hash
    /// and the event stream structurally incapable of diverging.
    fn emit(&mut self, event: TraceEvent) {
        if !self.hash_frozen {
            event.fold_into(&mut self.trace_hash);
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&event);
        }
    }

    /// Drains the ledger's fresh-decision list and, while tracing, emits
    /// a [`TraceEvent::Decision`] for each — sorted into node-index
    /// order, exactly the order the old full scan discovered them in.
    /// Returns the (incrementally maintained) decided count; no O(n)
    /// scan in either mode.
    fn scan_decisions(&mut self, round: Round) -> u64 {
        let mut fresh = std::mem::take(&mut self.lent.ledger.fresh);
        if self.tracing() && !fresh.is_empty() {
            fresh.sort_unstable();
            for &idx in &fresh {
                let (value, _) =
                    self.lent.decisions[idx as usize].expect("ledger fresh entry has a decision");
                self.emit(TraceEvent::Decision {
                    round,
                    node: u64::from(idx),
                    value,
                });
            }
        }
        fresh.clear();
        self.lent.ledger.fresh = fresh;
        self.lent.ledger.decided_count
    }

    /// Satellite regression gate: the incremental decided counter must
    /// match a full scan of node states after every round (and the
    /// mask-restricted popcounts must match a recount). Compiled only
    /// under `debug-invariants`, which the determinism gate runs with.
    #[cfg(feature = "debug-invariants")]
    fn check_decided_counter(&self, round: Round) {
        let scanned = self.lent.decisions.iter().filter(|d| d.is_some()).count() as u64;
        assert_eq!(
            self.lent.ledger.decided_count, scanned,
            "incremental decided counter diverged from the full scan at round {round}",
        );
        if let Some(mask) = &self.lent.ledger.mask {
            assert_eq!(
                self.lent.ledger.masked_decided,
                mask.intersection_count(&self.lent.ledger.decided),
                "masked decided counter diverged from a recount at round {round}",
            );
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    fn check_decided_counter(&self, _round: Round) {}

    /// Installs a structured trace sink receiving every event of the
    /// next (and any later) [`Network::run`] — see [`crate::trace`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
        self.lent.notes.get_or_insert_with(Vec::new);
    }

    /// Greedy jammer assignment for one round: each jammer, in listed
    /// order, spends its remaining lifetime battery on not-yet-jammed
    /// transmissions it can disrupt (any transmission with at least one
    /// receiver in its range), earliest first.
    fn assign_jammers(&mut self, arena: &NeighborTable, on_air: &[Transmission<M>], round: Round) {
        // Reusable scratch owned by the network (the `PackScratch`
        // pattern): clear + resize instead of allocating a fresh table
        // every round of every run.
        self.jam_scratch.clear();
        self.jam_scratch.resize(on_air.len(), None);
        if self.channel.jam_budget == 0 || self.channel.jammers.is_empty() {
            return;
        }
        let torus = arena.torus();
        for (j, &jammer) in self.channel.jammers.iter().enumerate() {
            if self.is_crashed(jammer, round) {
                continue;
            }
            let jc = torus.coord(jammer);
            for (i, tx) in on_air.iter().enumerate() {
                if self.jam_remaining[j] == 0 {
                    break;
                }
                if self.jam_scratch[i].is_some() || tx.sender == jammer {
                    continue;
                }
                let reachable = arena
                    .neighbors(tx.sender)
                    .any(|rid| torus.within(jc, torus.coord(rid), arena.radius(), arena.metric()));
                if reachable {
                    self.jam_scratch[i] = Some(jammer);
                    self.jam_remaining[j] -= 1;
                    self.jammed_transmissions += 1;
                }
            }
        }
    }

    /// Order-sensitive digest of the run so far: every delivery
    /// (round, transmission index, receiver, claimed sender) and every
    /// per-round decision count, FNV-1a folded. Two runs of the same
    /// experiment with the same seed must agree on this hash; the
    /// `debug-invariants` feature makes the experiment harness re-run
    /// and assert exactly that.
    #[must_use]
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// Installs the T2 safety oracle: `truth` is the source's value and
    /// `faulty` the placed fault set. Under the `debug-invariants`
    /// feature every round then asserts that no *honest* node has
    /// committed a value other than `truth` (Theorem 2 safety); without
    /// the feature the oracle is stored but never consulted.
    pub fn set_safety_oracle(&mut self, truth: Value, faulty: &[NodeId]) {
        let mut mask = BitSet::new(self.arena.len());
        for f in faulty {
            mask.set(f.index());
        }
        self.oracle = Some(SafetyOracle {
            truth,
            faulty: mask,
        });
    }

    #[cfg(feature = "debug-invariants")]
    fn check_safety(&self, round: Round) {
        let Some(oracle) = &self.oracle else {
            return;
        };
        for (i, decision) in self.lent.decisions.iter().enumerate() {
            if oracle.faulty.get(i) {
                continue;
            }
            if let Some((v, at)) = *decision {
                assert!(
                    v == oracle.truth,
                    "T2 safety violated: honest node {i} committed {v} (truth: {}) \
                     at round {at}, observed at round {round}",
                    oracle.truth,
                );
            }
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    fn check_safety(&self, _round: Round) {}

    /// Per-round aggregate history of the last [`Network::run`] — the
    /// wavefront's raw data.
    #[must_use]
    pub fn history(&self) -> &[RoundReport] {
        &self.history
    }

    /// Installs a message classifier; transmissions are tallied per
    /// returned label (see [`Network::kind_counts`]).
    pub fn set_classifier(&mut self, classify: fn(&M) -> &'static str) {
        self.classifier = Some(classify);
    }

    /// Transmission counts per classifier label (empty without a
    /// classifier installed).
    #[must_use]
    pub fn kind_counts(&self) -> &std::collections::BTreeMap<&'static str, u64> {
        &self.kind_counts
    }

    /// The decisions of every node, indexed by node id.
    #[must_use]
    pub fn decisions(&self) -> Vec<Option<(Value, Round)>> {
        self.lent.decisions.clone()
    }

    /// One node's decision.
    #[must_use]
    pub fn decision(&self, id: NodeId) -> Option<(Value, Round)> {
        self.lent.decisions[id.index()]
    }

    /// The latest round at which any node in `ids` decided, or `None`
    /// when none of them has. This is the network's time-to-commit for
    /// the given cohort — the quantity the adversary search maximizes.
    #[must_use]
    pub fn latest_decision_round(&self, ids: &[NodeId]) -> Option<Round> {
        ids.iter()
            .filter_map(|&id| self.lent.decisions[id.index()].map(|(_, round)| round))
            .max()
    }

    /// Immutable access to a node's process (e.g. to inspect protocol
    /// state after a run).
    #[must_use]
    fn process(&self, id: NodeId) -> &P {
        &self.processes[id.index()]
    }

    fn with_ctx<F>(&mut self, id: NodeId, round: Round, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, M>),
    {
        // A node is its own slot.
        let mut ctx = self.lent.ctx(&self.arena, id, round, id.0);
        f(&mut self.processes[id.index()], &mut ctx);
        if let Some(mut notes) = self.lent.notes.take_if(|n| !n.is_empty()) {
            for (label, value) in notes.drain(..) {
                self.emit(TraceEvent::Note {
                    round,
                    node: id.index() as u64,
                    label,
                    value,
                });
            }
            self.lent.notes = Some(notes);
        }
    }

    /// Puts everything queued during `round` on the air: `on_air` takes
    /// the queue (and hands back its own drained allocation), senders
    /// crashed by `round` fall silent, forged identities are honoured
    /// only when the channel allows spoofing, and one stable sort by
    /// TDMA rank yields transmission order — callbacks pushed in call
    /// order, so equal ranks keep per-sender FIFO.
    fn collect_transmissions(&mut self, round: Round, on_air: &mut Vec<Transmission<M>>) {
        on_air.clear();
        std::mem::swap(on_air, &mut self.lent.queued);
        let crashes = &self.crashes;
        let spoofing = self.channel.spoofing;
        let classifier = self.classifier;
        let kind_counts = &mut self.kind_counts;
        on_air.retain_mut(|tx| {
            if crashes.is_crashed(tx.sender, round) {
                return false;
            }
            if !spoofing {
                tx.claimed = tx.sender;
            }
            if let Some(classify) = classifier {
                *kind_counts.entry(classify(&tx.msg)).or_insert(0) += 1;
            }
            true
        });
        match self.arena.ranks() {
            Some(ranks) => on_air.sort_by_key(|tx| ranks[tx.sender.index()]),
            None => on_air.sort_by_key(|tx| tx.sender),
        }
    }
}

impl<M, P> std::fmt::Debug for Network<M, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("arena", &self.arena)
            .field("messages_sent", &self.lent.messages_sent)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::Coord;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// Shared log of deliveries: (receiver, sender, payload), in order.
    type Log = Rc<RefCell<Vec<(NodeId, NodeId, u32)>>>;

    /// Test process: records everything heard into a shared log,
    /// optionally echoes once.
    struct Recorder {
        echo: bool,
        start_value: Option<u32>,
        log: Log,
        echoed: bool,
    }

    impl Process<u32> for Recorder {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let Some(v) = self.start_value {
                ctx.broadcast(v);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: &u32) {
            self.log.borrow_mut().push((ctx.id(), from, *msg));
            if self.echo && !self.echoed {
                self.echoed = true;
                ctx.broadcast(msg + 1);
            }
        }
    }

    fn recorder_net(start: &[(Coord, u32)], echo: bool) -> (Network<u32>, Torus, Log) {
        let torus = Torus::new(12, 12);
        let starts: BTreeMap<NodeId, u32> = start.iter().map(|&(c, v)| (torus.id(c), v)).collect();
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        let net = Network::new(torus.clone(), 2, Metric::Linf, move |id| {
            Box::new(Recorder {
                echo,
                start_value: starts.get(&id).copied(),
                log: log2.clone(),
                echoed: false,
            }) as Box<dyn Process<u32>>
        });
        (net, torus, log)
    }

    #[test]
    fn broadcast_reaches_exactly_the_neighborhood() {
        let (mut net, torus, log) = recorder_net(&[(Coord::new(5, 5), 7)], false);
        let stats = net.run(10);
        assert!(stats.quiescent());
        assert_eq!(stats.messages_sent, 1);
        // (2r+1)² − 1 = 24 receivers
        assert_eq!(stats.deliveries, 24);
        // exactly the L∞ neighborhood heard it
        let heard: std::collections::BTreeSet<NodeId> =
            log.borrow().iter().map(|&(rx, _, _)| rx).collect();
        let expect: std::collections::BTreeSet<NodeId> = torus
            .neighborhood(torus.id(Coord::new(5, 5)), 2, Metric::Linf)
            .collect();
        assert_eq!(heard, expect);
    }

    #[test]
    fn echo_cascade_counts() {
        let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 0)], true);
        let stats = net.run(30);
        assert!(stats.quiescent());
        // the echo wave washes over the whole torus: the initial
        // broadcast plus one echo from every node (the initiator echoes
        // too, once it hears its neighbors' echoes)
        assert_eq!(stats.messages_sent, 1 + 144);
    }

    #[test]
    fn crashed_node_is_silent_and_deaf() {
        let (mut net, torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        let victim = torus.id(Coord::new(6, 5));
        net.crash_at(victim, 0);
        let stats = net.run(30);
        // the victim never echoes; everyone else still does
        assert_eq!(stats.messages_sent, 1 + 143);
        assert!(stats.quiescent());
    }

    #[test]
    fn crash_at_later_round_allows_early_action() {
        let (mut net, torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], false);
        let victim = torus.id(Coord::new(6, 5));
        net.crash_at(victim, 2); // after delivery round 1
        let stats = net.run(10);
        assert_eq!(stats.deliveries, 24); // still heard it in round 1
        assert!(stats.quiescent());
    }

    #[test]
    fn crash_takes_minimum_round() {
        let torus = Torus::new(12, 12);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(torus.clone(), 2, Metric::Linf, |_| {
            Box::new(Recorder {
                echo: false,
                start_value: None,
                log: log.clone(),
                echoed: false,
            }) as Box<dyn Process<u32>>
        });
        let id = torus.id(Coord::new(3, 3));
        net.crash_at(id, 5);
        net.crash_at(id, 2);
        net.crash_at(id, 9);
        assert!(net.is_crashed(id, 2));
        assert!(!net.is_crashed(id, 1));
    }

    #[test]
    fn quiescence_with_no_messages() {
        let (mut net, _, _) = recorder_net(&[], false);
        let stats = net.run(10);
        assert_eq!(stats.rounds, 0);
        assert!(stats.quiescent());
        assert_eq!(stats.messages_sent, 0);
    }

    #[test]
    fn max_rounds_caps_runaway() {
        /// A babbler that rebroadcasts forever.
        struct Babbler;
        impl Process<u32> for Babbler {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.broadcast(0);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, m: &u32) {
                ctx.broadcast(m + 1);
            }
        }
        let torus = Torus::new(12, 12);
        let mut net = Network::new(torus, 1, Metric::Linf, |_| {
            Box::new(Babbler) as Box<dyn Process<u32>>
        });
        let stats = net.run(5);
        assert_eq!(stats.rounds, 5);
        assert!(!stats.quiescent());
    }

    #[test]
    #[should_panic(expected = "cannot faithfully host")]
    fn rejects_undersized_torus() {
        let torus = Torus::new(8, 8);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let _ = Network::new(torus, 2, Metric::Linf, |_| {
            Box::new(Recorder {
                echo: false,
                start_value: None,
                log: log.clone(),
                echoed: false,
            }) as Box<dyn Process<u32>>
        });
    }

    #[test]
    fn fifo_order_preserved_per_sender_and_identical_across_receivers() {
        // Two talkers each send a numbered burst; every receiver must see
        // each sender's burst in order, and any two receivers hearing the
        // same pair of transmissions must agree on their relative order.
        let torus = Torus::new(12, 12);
        let t1 = torus.id(Coord::new(5, 5));
        let t2 = torus.id(Coord::new(6, 5));
        let bursts: BTreeMap<NodeId, Vec<u32>> =
            [(t1, vec![1, 2, 3]), (t2, vec![10, 20, 30])].into();
        struct Burst {
            values: Vec<u32>,
            log: Log,
        }
        impl Process<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                for &v in &self.values {
                    ctx.broadcast(v);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, m: &u32) {
                self.log.borrow_mut().push((ctx.id(), from, *m));
            }
        }
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let log3 = log.clone();
        let mut net = Network::new(torus.clone(), 2, Metric::Linf, move |id| {
            Box::new(Burst {
                values: bursts.get(&id).cloned().unwrap_or_default(),
                log: log3.clone(),
            }) as Box<dyn Process<u32>>
        });
        net.run(10);
        // group deliveries per receiver, in arrival order
        let mut per_rx: BTreeMap<NodeId, Vec<(NodeId, u32)>> = BTreeMap::new();
        for &(rx, tx, v) in log.borrow().iter() {
            per_rx.entry(rx).or_default().push((tx, v));
        }
        for (rx, seq) in &per_rx {
            // per-sender FIFO
            for sender in [t1, t2] {
                let vals: Vec<u32> = seq
                    .iter()
                    .filter(|&&(tx, _)| tx == sender)
                    .map(|&(_, v)| v)
                    .collect();
                let mut sorted = vals.clone();
                sorted.sort_unstable();
                assert_eq!(vals, sorted, "receiver {rx} saw out-of-order burst");
            }
        }
        // identical interleaving across receivers that heard both talkers
        let both: Vec<&Vec<(NodeId, u32)>> = per_rx
            .values()
            .filter(|seq| {
                seq.iter().any(|&(tx, _)| tx == t1) && seq.iter().any(|&(tx, _)| tx == t2)
            })
            .collect();
        assert!(both.len() > 1);
        for w in both.windows(2) {
            assert_eq!(w[0], w[1], "receivers disagree on broadcast order");
        }
    }

    #[test]
    fn history_records_every_round() {
        let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        let stats = net.run(30);
        let history = net.history();
        assert_eq!(history.len() as u32, stats.rounds);
        assert_eq!(
            history.iter().map(|h| h.deliveries).sum::<u64>(),
            stats.deliveries
        );
        // rounds are numbered 1.. in order
        for (i, h) in history.iter().enumerate() {
            assert_eq!(h.round as usize, i + 1);
        }
        // the first round carries exactly the initial transmission
        assert_eq!(history[0].transmissions, 1);
    }

    #[test]
    fn spoofed_identities_corrected_unless_channel_allows() {
        struct Spoof;
        impl Process<u32> for Spoof {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                let fake = NodeId(0);
                ctx.broadcast_as(fake, 99);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
        }
        let run = |spoofing: bool| -> Vec<(NodeId, NodeId, u32)> {
            let torus = Torus::new(12, 12);
            let spoofer = torus.id(Coord::new(5, 5));
            let log: Log = Rc::new(RefCell::new(Vec::new()));
            let log2 = log.clone();
            let channel = if spoofing {
                crate::ChannelConfig::reliable().with_spoofing()
            } else {
                crate::ChannelConfig::reliable()
            };
            let mut net =
                Network::new_with_channel(torus.clone(), 2, Metric::Linf, channel, move |id| {
                    if id == spoofer {
                        Box::new(Spoof) as Box<dyn Process<u32>>
                    } else {
                        Box::new(Recorder {
                            echo: false,
                            start_value: None,
                            log: log2.clone(),
                            echoed: false,
                        })
                    }
                });
            net.run(5);
            let out = log.borrow().clone();
            out
        };
        let torus = Torus::new(12, 12);
        let true_sender = torus.id(Coord::new(5, 5));
        // baseline: receivers see the TRUE sender
        assert!(run(false).iter().all(|&(_, from, _)| from == true_sender));
        // spoofing-enabled: receivers see the forged identity
        assert!(run(true).iter().all(|&(_, from, _)| from == NodeId(0)));
    }

    #[test]
    fn lossy_channel_drops_expected_fraction() {
        let torus = Torus::new(12, 12);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        let talker = torus.id(Coord::new(5, 5));
        let mut net = Network::new_with_channel(
            torus.clone(),
            2,
            Metric::Linf,
            crate::ChannelConfig::lossy(0.5, 1, 99),
            move |id| {
                Box::new(Recorder {
                    echo: false,
                    start_value: (id == talker).then_some(1),
                    log: log2.clone(),
                    echoed: false,
                })
            },
        );
        let stats = net.run(5);
        assert_eq!(stats.deliveries + stats.lost_deliveries, 24);
        assert!(stats.lost_deliveries > 0, "no losses at 50%");
        assert!(stats.deliveries > 0, "everything lost at 50%");
    }

    #[test]
    fn bursty_channel_accounts_losses_and_replays_identically() {
        // Gilbert–Elliot losses obey the same invariants as the flat
        // coin: every non-delivery is accounted, and the same seed
        // replays byte-identically (trace hash and all counters).
        let burst = crate::BurstLoss::new(0.3, 0.3, 0.0, 1.0);
        let run = || {
            let torus = Torus::new(12, 12);
            let log: Log = Rc::new(RefCell::new(Vec::new()));
            let log2 = log.clone();
            let talker = torus.id(Coord::new(5, 5));
            let mut net = Network::new_with_channel(
                torus.clone(),
                2,
                Metric::Linf,
                crate::ChannelConfig::bursty(burst, 99),
                move |id| {
                    Box::new(Recorder {
                        echo: true,
                        start_value: (id == talker).then_some(1),
                        log: log2.clone(),
                        echoed: false,
                    })
                },
            );
            let stats = net.run(8);
            (stats, net.trace_hash())
        };
        let (a, hash_a) = run();
        let (b, hash_b) = run();
        assert_eq!(hash_a, hash_b, "same-seed burst runs must replay");
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.lost_deliveries, b.lost_deliveries);
        assert!(a.lost_deliveries > 0, "no burst losses at 50% bad time");
        assert!(a.deliveries > 0, "everything lost");
    }

    #[test]
    fn burst_losses_respect_jam_accounting() {
        // Jamming and burst loss compose: jammed deliveries are counted
        // as jammed (not lost), and the jam budget is still exact.
        let torus = Torus::new(12, 12);
        let jammer = torus.id(Coord::new(0, 0));
        let talker = torus.id(Coord::new(5, 5));
        let burst = crate::BurstLoss::new(0.2, 0.4, 0.0, 1.0);
        let channel = crate::ChannelConfig::bursty(burst, 3).with_jammers(vec![jammer], 1);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        let mut net =
            Network::new_with_channel(torus.clone(), 2, Metric::Linf, channel, move |id| {
                Box::new(Recorder {
                    echo: true,
                    start_value: (id == talker).then_some(1),
                    log: log2.clone(),
                    echoed: false,
                })
            });
        let stats = net.run(8);
        assert_eq!(
            stats.jammed_transmissions, 1,
            "the single-collision battery must be spent exactly once"
        );
        assert!(stats.lost_deliveries > 0, "burst chain never went bad");
    }

    #[test]
    fn classifier_tallies_kinds() {
        let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        net.set_classifier(|&m| if m == 7 { "seed" } else { "echo" });
        let stats = net.run(30);
        let counts = net.kind_counts();
        assert_eq!(counts.get("seed").copied(), Some(1));
        assert_eq!(
            counts.get("echo").copied().unwrap_or(0) + 1,
            stats.messages_sent
        );
    }

    #[test]
    fn decisions_are_recorded_once() {
        struct DecideTwice;
        impl Process<u32> for DecideTwice {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.decide(true);
                ctx.decide(false); // ignored
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
        }
        let torus = Torus::new(12, 12);
        let mut net = Network::new(torus.clone(), 2, Metric::Linf, |_| DecideTwice);
        net.run(5);
        let id = torus.id(Coord::new(0, 0));
        assert_eq!(net.decision(id), Some((true, 0)));
    }

    /// A talker that broadcasts one fresh message at the end of every
    /// round, forever (for watchdog and jamming tests that need
    /// sustained traffic).
    struct Chatter;
    impl Process<u32> for Chatter {
        fn on_start(&mut self, _: &mut Ctx<'_, u32>) {}
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
        fn on_round_end(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.broadcast(ctx.round());
        }
    }

    #[test]
    fn round_budget_trips_the_watchdog() {
        let torus = Torus::new(12, 12);
        let talker = torus.id(Coord::new(5, 5));
        let mut net = Network::new(torus, 2, Metric::Linf, |id| {
            if id == talker {
                Box::new(Chatter) as Box<dyn Process<u32>>
            } else {
                Box::new(Recorder {
                    echo: false,
                    start_value: None,
                    log: Rc::new(RefCell::new(Vec::new())),
                    echoed: false,
                })
            }
        });
        net.set_round_budget(Some(3));
        let stats = net.run(100);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.stop_reason, StopReason::DeadlineExceeded);
        assert!(!stats.quiescent());
    }

    #[test]
    fn round_budget_at_or_above_the_cap_never_binds() {
        let run_with = |budget: Option<Round>| {
            let torus = Torus::new(12, 12);
            let talker = torus.id(Coord::new(5, 5));
            let mut net = Network::new(torus, 2, Metric::Linf, |id| {
                if id == talker {
                    Box::new(Chatter) as Box<dyn Process<u32>>
                } else {
                    Box::new(Recorder {
                        echo: false,
                        start_value: None,
                        log: Rc::new(RefCell::new(Vec::new())),
                        echoed: false,
                    })
                }
            });
            net.set_round_budget(budget);
            let stats = net.run(5);
            (stats, net.trace_hash())
        };
        let (capped, capped_hash) = run_with(None);
        assert_eq!(capped.stop_reason, StopReason::RoundCap);
        // budget == cap and budget > cap: the cap wins, reason unchanged
        for budget in [5, 50] {
            let (stats, hash) = run_with(Some(budget));
            assert_eq!(stats, capped);
            assert_eq!(hash, capped_hash);
        }
    }

    #[test]
    fn generous_round_budget_changes_nothing() {
        let run_with = |budget: Option<Round>| {
            let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
            net.set_round_budget(budget);
            let stats = net.run(30);
            (stats, net.trace_hash())
        };
        let baseline = run_with(None);
        assert!(baseline.0.quiescent());
        assert_eq!(run_with(Some(25)), baseline);
    }

    #[test]
    fn jammed_transmissions_exactly_match_the_budget_spent() {
        // One jammer with a 2-collision battery against a talker that
        // broadcasts every round: the battery is exhausted mid-run, and
        // the delivery-destroyed counters must account for exactly the
        // budget spent — no more, no less.
        let torus = Torus::new(12, 12);
        let talker = torus.id(Coord::new(5, 5));
        let jammer = torus.id(Coord::new(6, 5));
        let budget = 2u32;
        let channel = ChannelConfig::reliable().with_jammers(vec![jammer], budget);
        let mut net = Network::new_with_channel(torus.clone(), 2, Metric::Linf, channel, |id| {
            if id == talker {
                Box::new(Chatter) as Box<dyn Process<u32>>
            } else {
                Box::new(Recorder {
                    echo: false,
                    start_value: None,
                    log: Rc::new(RefCell::new(Vec::new())),
                    echoed: false,
                })
            }
        });
        let rounds = 5u32;
        let stats = net.run(rounds);
        assert_eq!(stats.rounds, rounds);
        // One broadcast per round-end 0..=rounds; the final one is
        // collected but the cap stops the run before it is delivered.
        assert_eq!(stats.messages_sent, u64::from(rounds) + 1);
        let delivered_txs = u64::from(rounds);

        // Deliberate collisions: exactly the budget spent, since traffic
        // outlasted the battery.
        assert_eq!(stats.jammed_transmissions, u64::from(budget));

        // Each jammed transmission is destroyed at exactly the receivers
        // within BOTH the sender's and the jammer's range.
        let in_both = torus
            .node_ids()
            .filter(|&id| id != talker)
            .filter(|&id| {
                torus.within(torus.coord(talker), torus.coord(id), 2, Metric::Linf)
                    && torus.within(torus.coord(jammer), torus.coord(id), 2, Metric::Linf)
            })
            .count() as u64;
        assert!(in_both > 0);
        assert_eq!(stats.jammed_deliveries, u64::from(budget) * in_both);

        // Loss vs deliberate collision never double-count: the channel
        // is loss-free, so every non-jammed delivery arrived.
        assert_eq!(stats.lost_deliveries, 0);
        let receivers_per_tx = 24; // (2r+1)² − 1 on the reliable channel
        assert_eq!(
            stats.deliveries + stats.jammed_deliveries,
            delivered_txs * receivers_per_tx
        );
    }

    /// Test sink sharing its event log with the test body (the network
    /// owns the sink for the duration of the run).
    struct SharedSink(Rc<RefCell<Vec<crate::trace::TraceEvent>>>);
    impl crate::trace::TraceSink for SharedSink {
        fn record(&mut self, event: &crate::trace::TraceEvent) {
            self.0.borrow_mut().push(event.clone());
        }
    }

    #[test]
    fn second_run_starts_with_fresh_accounting() {
        // Regression: `run` used to accumulate `history` and every
        // per-run counter across calls, so a second run violated
        // `history.len() == stats.rounds`.
        let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        net.set_classifier(|&m| if m == 7 { "seed" } else { "echo" });
        let first = net.run(30);
        assert_eq!(net.history().len() as u32, first.rounds);

        // Processes keep their state (everyone has echoed already), so
        // the rerun is just the initiator's fresh broadcast.
        let second = net.run(30);
        assert_eq!(
            net.history().len() as u32,
            second.rounds,
            "stale history survived into the second run"
        );
        assert_eq!(second.messages_sent, 1);
        assert_eq!(second.deliveries, 24);
        assert!(second.quiescent());
        assert_eq!(
            net.history().iter().map(|h| h.deliveries).sum::<u64>(),
            second.deliveries
        );
        // Per-kind tallies restart too: they must sum to the run's own
        // message count, not the lifetime total.
        assert_eq!(
            net.kind_counts().values().sum::<u64>(),
            second.messages_sent
        );
    }

    #[test]
    fn second_run_rederives_a_fresh_trace_hash() {
        // Two networks, same inputs: one run twice, one run once. The
        // second run of the first must hash exactly like the single run
        // of the second (given identical process state at run start —
        // here no process mutates itself).
        let (mut twice, _t1, _l1) = recorder_net(&[(Coord::new(5, 5), 7)], false);
        twice.run(10);
        let h1 = twice.trace_hash();
        twice.run(10);
        assert_eq!(
            twice.trace_hash(),
            h1,
            "identical reruns must produce identical fresh hashes"
        );
        let (mut once, _t2, _l2) = recorder_net(&[(Coord::new(5, 5), 7)], false);
        once.run(10);
        assert_eq!(twice.trace_hash(), once.trace_hash());
    }

    #[test]
    fn capped_run_leaves_nothing_on_the_air_for_the_next() {
        // The on-air vector is reused across rounds and runs. A run the
        // cap stops ends with undelivered transmissions still in it; the
        // next run must start from its own round-0 outboxes alone.
        let rerun = || {
            let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
            let first = net.run(1);
            assert_eq!(first.stop_reason, StopReason::RoundCap);
            assert_eq!(first.messages_sent, 1 + 24, "24 echoes left on the air");
            let second = net.run(30);
            assert_eq!(net.history().len() as u32, second.rounds);
            assert_eq!(
                net.history()[0].transmissions,
                1,
                "the first run's undelivered echoes leaked into the second"
            );
            assert_eq!(second.deliveries, 24);
            (second, net.trace_hash())
        };
        assert_eq!(rerun(), rerun());
    }

    /// The per-node-outbox collector that `collect_transmissions`
    /// replaced, body verbatim, as its reference: walk a node list (the
    /// dense engine's whole schedule, or the sparse engine's rank-sorted
    /// frontier), silence crashed nodes, drain each outbox in FIFO order.
    struct OutboxCollector {
        outboxes: Vec<Vec<(NodeId, u32)>>,
        crashed_at: Vec<Round>,
        spoofing: bool,
        classifier: Option<fn(&u32) -> &'static str>,
        kind_counts: BTreeMap<&'static str, u64>,
    }

    impl OutboxCollector {
        fn is_crashed(&self, id: NodeId, round: Round) -> bool {
            self.crashed_at[id.index()] <= round
        }

        fn collect_transmissions(
            &mut self,
            order: &[NodeId],
            round: Round,
            out: &mut Vec<Transmission<u32>>,
        ) {
            out.clear();
            for &id in order {
                if self.is_crashed(id, round) {
                    self.outboxes[id.index()].clear();
                    continue;
                }
                for (claimed, msg) in self.outboxes[id.index()].drain(..) {
                    let claimed = if self.spoofing { claimed } else { id };
                    if let Some(classify) = self.classifier {
                        *self.kind_counts.entry(classify(&msg)).or_insert(0) += 1;
                    }
                    out.push(Transmission {
                        sender: id,
                        claimed,
                        msg,
                    });
                }
            }
        }
    }

    /// `(sender, claimed, payload)` broadcasts, in call order.
    type Pushes = Vec<(u32, u32, u32)>;

    /// Plays `rounds` of interleaved broadcasts through the real
    /// [`Ctx`] into the network's one queue and, side by side, into
    /// per-node outboxes; after every round the on-air vector must be
    /// what the outbox drain yields over the dense schedule *and* over
    /// a sparse frontier, and the per-kind tallies must agree.
    fn assert_collects_like_the_outbox_drain(
        rounds: &[Pushes],
        crashes: &[(u32, Round)],
        spoofing: bool,
    ) {
        struct Idle;
        impl Process<u32> for Idle {
            fn on_start(&mut self, _: &mut Ctx<'_, u32>) {}
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
        }
        fn classify(m: &u32) -> &'static str {
            ["fizz", "buzz", "plain"][*m as usize % 3]
        }
        // 15×15 at r = 2: the TDMA period divides the side, so rank
        // order is slot order, not id order.
        let channel = if spoofing {
            ChannelConfig::reliable().with_spoofing()
        } else {
            ChannelConfig::reliable()
        };
        let mut net =
            Network::new_with_channel(Torus::new(15, 15), 2, Metric::Linf, channel, |_| {
                Box::new(Idle) as Box<dyn Process<u32>>
            });
        net.set_classifier(classify);
        for &(node, round) in crashes {
            net.crash_at(NodeId(node), round);
        }
        let mut order = Vec::new();
        net.arena.for_each_in_order(|id| order.push(id));
        assert_ne!(order[1], NodeId(1), "TDMA must reorder the ids");
        let mut crashed_at = vec![Round::MAX; net.arena.len()];
        for &(node, round) in crashes {
            let at = &mut crashed_at[node as usize];
            *at = (*at).min(round);
        }
        let reference = || OutboxCollector {
            outboxes: vec![Vec::new(); net.arena.len()],
            crashed_at: crashed_at.clone(),
            spoofing,
            classifier: Some(classify),
            kind_counts: BTreeMap::new(),
        };
        let (mut dense, mut sparse) = (reference(), reference());

        let as_tuples = |txs: &[Transmission<u32>]| -> Pushes {
            txs.iter()
                .map(|tx| (tx.sender.0, tx.claimed.0, tx.msg))
                .collect()
        };
        let mut on_air = Vec::new();
        let (mut dense_air, mut sparse_air) = (Vec::new(), Vec::new());
        for (round, pushes) in rounds.iter().enumerate() {
            let round = round as Round;
            for &(sender, claimed, msg) in pushes {
                net.with_ctx(NodeId(sender), round, |_, ctx| {
                    ctx.broadcast_as(NodeId(claimed), msg);
                });
                dense.outboxes[sender as usize].push((NodeId(claimed), msg));
                sparse.outboxes[sender as usize].push((NodeId(claimed), msg));
            }
            net.collect_transmissions(round, &mut on_air);

            dense.collect_transmissions(&order, round, &mut dense_air);
            // The sparse frontier: every live node that ran a callback
            // (here: broadcast, plus a silent bystander), in rank order.
            let mut frontier: Vec<NodeId> = pushes.iter().map(|p| NodeId(p.0)).collect();
            frontier.push(NodeId(200));
            frontier.sort_unstable_by_key(|&id| net.arena.rank(id));
            frontier.dedup();
            frontier.retain(|&id| !net.is_crashed(id, round));
            sparse.collect_transmissions(&frontier, round, &mut sparse_air);

            assert_eq!(as_tuples(&on_air), as_tuples(&dense_air), "round {round}");
            assert_eq!(as_tuples(&on_air), as_tuples(&sparse_air), "round {round}");
        }
        assert_eq!(net.kind_counts, dense.kind_counts);
        assert_eq!(net.kind_counts, sparse.kind_counts);
        let sent: usize = rounds.iter().map(Vec::len).sum();
        assert_eq!(net.lent.messages_sent, sent as u64);
    }

    #[test]
    fn a_node_that_queues_and_crashes_in_one_round_stays_silent() {
        // Node 7 queues in round 2 and is crashed by round 2 — the old
        // `outbox.clear()` branch; node 9 crashes one round later, so
        // what it queued in round 2 still goes out.
        let rounds = [
            vec![(7, 7, 1)],
            vec![],
            vec![(3, 3, 10), (7, 7, 11), (9, 9, 12), (7, 7, 13), (3, 3, 14)],
            vec![(9, 9, 20), (3, 3, 21)],
        ];
        assert_collects_like_the_outbox_drain(&rounds, &[(7, 2), (9, 3)], false);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// One stable sort of the shared queue is the outbox drain: for
        /// any interleaving of broadcasts (a handful of senders, so each
        /// queues several per round, and enough per round that an
        /// unstable sort would leave its insertion-sort regime), any
        /// crash schedule, spoofing on or off.
        #[test]
        fn shared_queue_collects_what_the_outbox_drain_did(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u32..225, 0u32..1000), 0..160),
                1..5,
            ),
            crashes in proptest::collection::vec((0u32..24, 0u32..5), 0..5),
            spoofing in 0u8..2,
        ) {
            assert_collects_like_the_outbox_drain(&rounds, &crashes, spoofing == 1);
        }

        /// The crash bit and its sorted round list answer as one round
        /// per node did — for repeated, decreasing and past-the-run
        /// crash rounds — and under both engines a node runs no
        /// callback, hears nothing and sends nothing from the round it
        /// crashed in.
        #[test]
        fn crash_bits_answer_as_a_round_per_node(
            crashes in proptest::collection::vec((0u32..144, 0u32..12), 0..24),
        ) {
            /// Echoes once and logs every callback with its round.
            struct Tracker {
                seed: bool,
                echoed: bool,
                log: Rc<RefCell<Vec<(Round, NodeId)>>>,
            }
            impl Process<u32> for Tracker {
                fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                    self.log.borrow_mut().push((ctx.round(), ctx.id()));
                    if self.seed {
                        ctx.broadcast(0);
                    }
                }
                fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, m: &u32) {
                    self.log.borrow_mut().push((ctx.round(), ctx.id()));
                    if !self.echoed {
                        self.echoed = true;
                        ctx.broadcast(m + 1);
                    }
                }
                fn on_round_end(&mut self, ctx: &mut Ctx<'_, u32>) {
                    self.log.borrow_mut().push((ctx.round(), ctx.id()));
                }
            }
            let mut reference = vec![Round::MAX; 144];
            for &(node, round) in &crashes {
                let at = &mut reference[node as usize];
                *at = (*at).min(round);
            }
            let mut runs = Vec::new();
            for engine in [EngineKind::Sparse, EngineKind::Dense] {
                let torus = Torus::new(12, 12);
                let seed = torus.id(Coord::new(5, 5));
                let log = Rc::new(RefCell::new(Vec::new()));
                let mut net = Network::new(torus.clone(), 1, Metric::Linf, |id| Tracker {
                    seed: id == seed,
                    echoed: false,
                    log: Rc::clone(&log),
                });
                net.set_engine(engine);
                for &(node, round) in &crashes {
                    net.crash_at(NodeId(node), round);
                }
                for id in torus.node_ids() {
                    for round in 0..14 {
                        proptest::prop_assert_eq!(
                            net.is_crashed(id, round),
                            reference[id.index()] <= round,
                            "{} at round {}", id, round
                        );
                    }
                }
                let stats = net.run(10);
                let log = log.borrow().clone();
                for &(round, id) in &log {
                    proptest::prop_assert!(
                        round < reference[id.index()],
                        "{} ran a callback in round {} after crashing", id, round
                    );
                }
                // Every node alive at round 0 started.
                let started = log.iter().filter(|&&(round, _)| round == 0).count();
                let alive = reference.iter().filter(|&&at| at > 0).count();
                proptest::prop_assert_eq!(started, 2 * alive);
                runs.push((stats, net.trace_hash(), net.history().to_vec(), net.decisions()));
            }
            proptest::prop_assert_eq!(&runs[0], &runs[1]);
        }
    }

    #[test]
    fn recorded_jsonl_replays_to_the_network_hash() {
        // A real `JsonlSink` recording, on a torus whose node ids need
        // two bytes: the fold's zero-byte shortcut and its live-byte loop
        // are both on the path, live and replayed.
        struct SharedBuf(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let torus = Torus::new(20, 20);
        let talker = torus.id(Coord::new(5, 5));
        let mut net = Network::new(torus, 2, Metric::Linf, |id| {
            Box::new(Recorder {
                echo: true,
                start_value: (id == talker).then_some(1),
                log: Rc::new(RefCell::new(Vec::new())),
                echoed: false,
            }) as Box<dyn Process<u32>>
        });
        let bytes = Rc::new(RefCell::new(Vec::new()));
        net.set_trace_sink(Box::new(crate::trace::JsonlSink::new(SharedBuf(
            bytes.clone(),
        ))));
        let stats = net.run(30);
        assert_eq!(stats.messages_sent, 1 + 400);
        let jsonl = String::from_utf8(bytes.borrow().clone()).expect("trace is utf-8");
        assert!(jsonl.contains("\"receiver\":399"));
        assert_eq!(
            crate::trace::replay_hash(&jsonl).expect("well-formed"),
            net.trace_hash()
        );
    }

    #[test]
    fn trace_stream_rederives_the_legacy_hash() {
        use crate::trace::{replay_hash, replay_hash_events};
        let events = Rc::new(RefCell::new(Vec::new()));
        let (mut net, _torus, _log) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        net.set_trace_sink(Box::new(SharedSink(events.clone())));
        let stats = net.run(30);
        let events = events.borrow();
        assert!(!events.is_empty());
        assert_eq!(replay_hash_events(&events), net.trace_hash());
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(replay_hash(&jsonl).expect("well-formed"), net.trace_hash());
        // The stream's deliveries are exactly the counted ones.
        let delivered = events
            .iter()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Delivery { .. }))
            .count() as u64;
        assert_eq!(delivered, stats.deliveries);
    }

    #[test]
    fn tracing_does_not_perturb_the_hash_or_stats() {
        let (mut plain, _t1, _l1) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        let plain_stats = plain.run(30);
        let (mut traced, _t2, _l2) = recorder_net(&[(Coord::new(5, 5), 7)], true);
        traced.set_trace_sink(Box::new(SharedSink(Rc::new(RefCell::new(Vec::new())))));
        let traced_stats = traced.run(30);
        assert_eq!(plain_stats, traced_stats);
        assert_eq!(plain.trace_hash(), traced.trace_hash());
    }

    #[test]
    fn decisions_appear_once_in_the_stream_even_at_round_zero() {
        struct DecideAtStart;
        impl Process<u32> for DecideAtStart {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.decide(true);
                ctx.broadcast(1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
        }
        let torus = Torus::new(12, 12);
        let n = torus.len();
        let events = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(torus, 2, Metric::Linf, |_| {
            Box::new(DecideAtStart) as Box<dyn Process<u32>>
        });
        net.set_trace_sink(Box::new(SharedSink(events.clone())));
        net.run(5);
        let decisions: Vec<_> = events
            .borrow()
            .iter()
            .filter_map(|e| match *e {
                crate::trace::TraceEvent::Decision { round, node, value } => {
                    Some((round, node, value))
                }
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), n, "every node decides exactly once");
        assert!(decisions
            .iter()
            .all(|&(round, _, value)| round == 0 && value));
    }

    #[test]
    fn protocol_notes_reach_the_sink() {
        struct Noter;
        impl Process<u32> for Noter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.broadcast(1);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, m: &u32) {
                ctx.note("heard", u64::from(*m));
            }
        }
        let events = Rc::new(RefCell::new(Vec::new()));
        let torus = Torus::new(12, 12);
        let mut net = Network::new(torus, 2, Metric::Linf, |_| {
            Box::new(Noter) as Box<dyn Process<u32>>
        });
        net.set_trace_sink(Box::new(SharedSink(events.clone())));
        let stats = net.run(5);
        let notes = events
            .borrow()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    crate::trace::TraceEvent::Note {
                        label: "heard",
                        value: 1,
                        ..
                    }
                )
            })
            .count() as u64;
        // one note per delivery (every process notes every message)
        assert_eq!(notes, stats.deliveries);
    }

    #[test]
    fn dense_and_sparse_engines_are_byte_identical() {
        // An adversarial mix for the parity oracle: an echoing/deciding
        // wave, a Chatter that relies on the default needs_round_end()
        // polling, a mid-run crash, a jammer burning its battery, and a
        // lossy channel — traced, so the full event stream is compared.
        struct Decider {
            seed: bool,
            echoed: bool,
        }
        impl Process<u32> for Decider {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if self.seed {
                    ctx.decide(true);
                    ctx.broadcast(0);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, m: &u32) {
                ctx.decide(true);
                if !self.echoed {
                    self.echoed = true;
                    ctx.broadcast(m + 1);
                }
            }
        }
        let run = |engine: EngineKind| {
            let torus = Torus::new(12, 12);
            let seed = torus.id(Coord::new(5, 5));
            let talker = torus.id(Coord::new(0, 0));
            let jammer = torus.id(Coord::new(6, 5));
            let victim = torus.id(Coord::new(4, 4));
            let channel = crate::ChannelConfig::lossy(0.2, 1, 99).with_jammers(vec![jammer], 2);
            let events = Rc::new(RefCell::new(Vec::new()));
            let mut net =
                Network::new_with_channel(torus.clone(), 2, Metric::Linf, channel, |id| {
                    if id == talker {
                        Box::new(Chatter) as Box<dyn Process<u32>>
                    } else {
                        Box::new(Decider {
                            seed: id == seed,
                            echoed: false,
                        })
                    }
                });
            net.set_engine(engine);
            net.crash_at(victim, 2);
            net.set_classifier(|&m| if m == 0 { "seed" } else { "relay" });
            net.set_trace_sink(Box::new(SharedSink(events.clone())));
            let stats = net.run(8);
            let events = events.borrow().clone();
            (
                stats,
                net.trace_hash(),
                events,
                net.history().to_vec(),
                net.kind_counts().clone(),
                net.decisions(),
            )
        };
        let dense = run(EngineKind::Dense);
        let sparse = run(EngineKind::Sparse);
        assert_eq!(dense.0, sparse.0, "RunStats diverged");
        assert_eq!(dense.1, sparse.1, "trace hash diverged");
        assert_eq!(dense.2, sparse.2, "event stream diverged");
        assert_eq!(dense.3, sparse.3, "history diverged");
        assert_eq!(dense.4, sparse.4, "kind tallies diverged");
        assert_eq!(dense.5, sparse.5, "decisions diverged");
    }

    #[test]
    fn sparse_engine_skips_quiescent_round_ends() {
        // A process that counts its round-end callbacks and declares
        // quiescence: once the wave has passed a node, the sparse engine
        // must stop polling it while the dense oracle keeps sweeping.
        struct CountingEcho {
            seed: bool,
            echoed: bool,
            round_ends: Rc<RefCell<u64>>,
        }
        impl Process<u32> for CountingEcho {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if self.seed {
                    ctx.broadcast(0);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, m: &u32) {
                if !self.echoed {
                    self.echoed = true;
                    ctx.broadcast(m + 1);
                }
            }
            fn on_round_end(&mut self, _: &mut Ctx<'_, u32>) {
                *self.round_ends.borrow_mut() += 1;
            }
            fn needs_round_end(&self) -> bool {
                false
            }
        }
        let run = |engine: EngineKind| {
            let torus = Torus::new(12, 12);
            let seed = torus.id(Coord::new(5, 5));
            let round_ends = Rc::new(RefCell::new(0u64));
            let counter = round_ends.clone();
            let mut net = Network::new(torus, 2, Metric::Linf, move |id| {
                Box::new(CountingEcho {
                    seed: id == seed,
                    echoed: false,
                    round_ends: counter.clone(),
                }) as Box<dyn Process<u32>>
            });
            net.set_engine(engine);
            let stats = net.run(30);
            let ends = *round_ends.borrow();
            (stats, net.trace_hash(), ends)
        };
        let dense = run(EngineKind::Dense);
        let sparse = run(EngineKind::Sparse);
        assert_eq!(dense.0, sparse.0);
        assert_eq!(dense.1, sparse.1);
        // Dense polls all 144 nodes every round; sparse only the round-0
        // sweep plus actual delivery targets.
        assert!(
            sparse.2 < dense.2,
            "sparse ran {} round-ends, dense {} — no work was saved",
            sparse.2,
            dense.2
        );
        // ... but never fewer than the round-0 sweep over all 144 nodes.
        assert!(sparse.2 >= 144);
    }

    #[test]
    fn tdma_order_is_used_when_divisible() {
        // 15x15 torus with r=2 (period 5): transmissions must come out in
        // slot order, not id order.
        let torus = Torus::new(15, 15);
        let a = torus.id(Coord::new(0, 0)); // slot 0
        let b = torus.id(Coord::new(1, 0)); // slot 1
        struct Talker(bool);
        impl Process<u32> for Talker {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if self.0 {
                    ctx.broadcast(ctx.id().0);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32) {}
        }
        let mut net = Network::new(torus.clone(), 2, Metric::Linf, |id| {
            Box::new(Talker(id == a || id == b)) as Box<dyn Process<u32>>
        });
        let stats = net.run(3);
        assert_eq!(stats.messages_sent, 2);
    }
}
