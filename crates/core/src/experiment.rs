//! One-stop experiment harness: torus + protocol + placement + behaviour
//! → outcome.

use rbcast_adversary::{local_fault_bound_in, Placement};
use rbcast_grid::{ArenaError, Coord, Metric, NeighborTable, NodeId, Torus};
use rbcast_protocols::{
    attackers, Cpa, Flood, Indirect, IndirectConfig, Msg, PersistentFlood, ProtocolParams,
};
use rbcast_sim::{ChannelConfig, EngineKind, Network, Node, Process, RunStats, Value};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Which protocol the honest nodes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Crash-stop flooding (§VII).
    Flood,
    /// The simple protocol / Certified Propagation Algorithm (§IX).
    Cpa,
    /// The full indirect-report protocol (§VI): 4-hop reports, two-level
    /// rule.
    IndirectFull,
    /// Flooding with per-node re-transmissions (§X counter-measure to
    /// disruption and loss).
    PersistentFlood {
        /// Re-transmissions per node.
        repeats: u32,
    },
    /// The simplified protocol (§VI-B): 2-hop reports, one-level rule.
    IndirectSimplified,
    /// A custom indirect configuration (ablations).
    IndirectCustom(IndirectConfig),
}

impl ProtocolKind {
    /// `repeats` of the `persistent-flood` spelling.
    pub const DEFAULT_REPEATS: u32 = 3;

    /// Every protocol with a CLI spelling, in `USAGE` order
    /// (`IndirectCustom` has none; `PersistentFlood` at the default
    /// `repeats`).
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Flood,
        ProtocolKind::PersistentFlood {
            repeats: Self::DEFAULT_REPEATS,
        },
        ProtocolKind::Cpa,
        ProtocolKind::IndirectFull,
        ProtocolKind::IndirectSimplified,
    ];

    /// The protocol's one spelling: CLI value, table label, report name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Flood => "flood",
            ProtocolKind::PersistentFlood { .. } => "persistent-flood",
            ProtocolKind::Cpa => "cpa",
            ProtocolKind::IndirectFull => "indirect-full",
            ProtocolKind::IndirectSimplified => "indirect-simplified",
            ProtocolKind::IndirectCustom(_) => "indirect-custom",
        }
    }

    /// The inverse of [`ProtocolKind::name`] over [`ProtocolKind::ALL`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The largest `t` the protocol is proven to tolerate at radius `r`
    /// (Theorems 5, 6 and 1) — the default fault budget, and the
    /// threshold `rbcast attack` sweeps across.
    #[must_use]
    pub fn proven_t(&self, r: u32) -> usize {
        (match self {
            ProtocolKind::Flood | ProtocolKind::PersistentFlood { .. } => {
                crate::thresholds::crash_max_t(r)
            }
            ProtocolKind::Cpa => crate::thresholds::cpa_guaranteed_t(r),
            ProtocolKind::IndirectFull
            | ProtocolKind::IndirectSimplified
            | ProtocolKind::IndirectCustom(_) => crate::thresholds::byzantine_max_t(r),
        }) as usize
    }

    /// The one protocol table: hands `visitor` this protocol's process
    /// type and its constructor, so each caller is monomorphised per
    /// process type rather than matching on the kind itself.
    pub(crate) fn visit<V: ProtocolVisitor>(&self, visitor: V) -> V::Output {
        match *self {
            ProtocolKind::Flood => visitor.visit(&Flood::new),
            ProtocolKind::PersistentFlood { repeats } => {
                visitor.visit(&move |params| PersistentFlood::new(params, repeats))
            }
            ProtocolKind::Cpa => visitor.visit(&Cpa::new),
            ProtocolKind::IndirectFull => {
                visitor.visit(&|params| Indirect::new(params, IndirectConfig::full()))
            }
            ProtocolKind::IndirectSimplified => {
                visitor.visit(&|params| Indirect::new(params, IndirectConfig::simplified()))
            }
            ProtocolKind::IndirectCustom(cfg) => {
                visitor.visit(&move |params| Indirect::new(params, cfg))
            }
        }
    }

    /// Builds one honest node's process, boxed — for hosts that mix
    /// protocols in one table ([`rbcast_sim::InstanceHost`]).
    ///
    /// # Panics
    ///
    /// Panics on `PersistentFlood { repeats: 0 }`.
    #[must_use]
    pub fn spawn(&self, params: ProtocolParams) -> Box<dyn Process<Msg>> {
        struct Boxed(ProtocolParams);
        impl ProtocolVisitor for Boxed {
            type Output = Box<dyn Process<Msg>>;
            fn visit<P: Process<Msg> + 'static>(
                self,
                make: &dyn Fn(ProtocolParams) -> P,
            ) -> Self::Output {
                Box::new(make(self.0))
            }
        }
        self.visit(Boxed(params))
    }
}

/// Reserves `nodes × per_node` bytes — what a host keeps per node — or
/// returns the allocator's refusal; the caller drops the reservation
/// once it has built what must fit beside it.
///
/// # Errors
///
/// [`ArenaError::OutOfMemory`] naming the node table.
pub fn reserve_node_table(nodes: u64, per_node: usize) -> Result<Vec<u8>, ArenaError> {
    let bytes = nodes.saturating_mul(per_node as u64);
    let mut table = Vec::new();
    usize::try_from(bytes)
        .ok()
        .and_then(|len| table.try_reserve_exact(len).ok())
        .ok_or(ArenaError::OutOfMemory {
            nodes,
            what: "node table",
            bytes,
        })?;
    Ok(table)
}

/// What [`ProtocolKind::visit`] calls with the protocol's process type
/// `P` and its constructor.
pub(crate) trait ProtocolVisitor {
    /// What the visit returns, whatever `P` was.
    type Output;
    /// Runs with honest processes of type `P`, each built by `make`.
    fn visit<P: Process<Msg> + 'static>(self, make: &dyn Fn(ProtocolParams) -> P) -> Self::Output;
}

// A slot holds only what varies per node, no run constant. A CPA or
// indirect slot costs its protocol's bytes and not one more — the
// faulty variant's pointer lives in the protocol's niche; an 8-byte
// flood node sits beside it.
const fn slot_is_inline<P>(bytes: usize) -> bool {
    std::mem::size_of::<Node<P, Msg>>() == bytes && std::mem::size_of::<P>() == bytes
}
const _: () = assert!(std::mem::size_of::<Node<Flood, Msg>>() == 16);
const _: () = assert!(slot_is_inline::<Cpa>(48));
const _: () = assert!(slot_is_inline::<Indirect>(112));

/// How faulty nodes behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash-stop: the node never participates.
    CrashStop,
    /// Byzantine but mute (strictly weaker than crash for this model —
    /// kept separate for bookkeeping).
    Silent,
    /// Byzantine: pushes the wrong value and corrupts relayed chains.
    Liar,
    /// Byzantine: additionally fabricates indirect reports wholesale.
    Forger,
    /// Byzantine with the §X spoofing relaxation: impersonates honest
    /// neighbors (only effective on a spoofing-enabled channel).
    Spoofer,
    /// Each faulty node independently draws one of silent/liar/forger
    /// (deterministically from the seed) — a heterogeneous adversary.
    Mixed {
        /// Seed for the per-node behaviour draw.
        seed: u64,
    },
}

impl FaultKind {
    /// Every behaviour, in `USAGE` order (`Mixed` at seed 0; the CLI
    /// substitutes `--seed`).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::CrashStop,
        FaultKind::Silent,
        FaultKind::Liar,
        FaultKind::Forger,
        FaultKind::Spoofer,
        FaultKind::Mixed { seed: 0 },
    ];

    /// The behaviour's CLI spelling.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CrashStop => "crash",
            FaultKind::Silent => "silent",
            FaultKind::Liar => "liar",
            FaultKind::Forger => "forger",
            FaultKind::Spoofer => "spoofer",
            FaultKind::Mixed { .. } => "mixed",
        }
    }

    /// The inverse of [`FaultKind::name`] over [`FaultKind::ALL`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Builds faulty node `id`'s process; Byzantine behaviours push
    /// `wrong`.
    #[must_use]
    fn spawn(&self, wrong: Value, id: NodeId) -> Box<dyn Process<Msg>> {
        match *self {
            // the harness crashes crash-stop nodes at round 0
            // (`Network::crash_at`); a silent process stands in
            FaultKind::CrashStop | FaultKind::Silent => attackers::silent(),
            FaultKind::Liar => attackers::liar(wrong),
            FaultKind::Forger => attackers::forger(wrong),
            FaultKind::Spoofer => attackers::spoofer(wrong),
            FaultKind::Mixed { seed } => {
                // cheap deterministic per-node draw
                let mut x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(id.0));
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                match x % 3 {
                    0 => attackers::silent(),
                    1 => attackers::liar(wrong),
                    _ => attackers::forger(wrong),
                }
            }
        }
    }
}

/// Aggregate result of one broadcast experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Number of honest (non-faulty) nodes.
    pub honest: usize,
    /// Honest nodes that committed the source's value.
    pub committed_correct: usize,
    /// Honest nodes that committed the wrong value (must be 0 whenever
    /// the placement respects the protocol's `t` — the safety theorem).
    pub committed_wrong: usize,
    /// Honest nodes that never decided.
    pub undecided: usize,
    /// Number of faulty nodes placed.
    pub fault_count: usize,
    /// Audited local fault bound of the placement (max faults in any
    /// single neighborhood).
    pub audited_bound: usize,
    /// Simulator statistics.
    pub stats: RunStats,
    /// Transmission counts per message kind (SOURCE / COMMITTED / HEARD).
    pub message_kinds: Vec<(&'static str, u64)>,
    /// The latest round at which any honest node decided (`None` when no
    /// honest node decided at all) — the run's time-to-commit, and the
    /// tiebreaking term of the adversary-search objective.
    pub last_decision_round: Option<rbcast_sim::Round>,
}

impl Outcome {
    /// True iff every honest node committed the correct value —
    /// the paper's *reliable broadcast achieved*.
    #[must_use]
    pub fn all_honest_correct(&self) -> bool {
        self.committed_wrong == 0 && self.undecided == 0 && self.committed_correct == self.honest
    }

    /// True iff no honest node committed a wrong value (Theorem 2's
    /// safety property — holds under any placement within budget).
    #[must_use]
    pub fn safe(&self) -> bool {
        self.committed_wrong == 0
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} correct, {} wrong, {} undecided (faults: {}, bound: {}; {})",
            self.committed_correct,
            self.honest,
            self.committed_wrong,
            self.undecided,
            self.fault_count,
            self.audited_bound,
            self.stats
        )
    }
}

/// Builder for a single broadcast experiment.
///
/// Defaults: torus `4(2r+1)` square, L∞ metric, `t` = the protocol's
/// maximum tolerable budget, no faults, source value `true`,
/// 10 000-round cap.
#[derive(Debug, Clone)]
pub struct Experiment {
    r: u32,
    metric: Metric,
    torus: Option<Torus>,
    protocol: ProtocolKind,
    t: Option<usize>,
    placement: Option<Placement>,
    fault_kind: FaultKind,
    value: Value,
    max_rounds: u32,
    channel: ChannelConfig,
    shared_arena: bool,
    early_termination: bool,
    round_budget: Option<u32>,
    trace_path: Option<PathBuf>,
    engine: EngineKind,
}

impl Experiment {
    /// Starts an experiment description for radius `r` and `protocol`.
    #[must_use]
    pub fn new(r: u32, protocol: ProtocolKind) -> Self {
        Experiment {
            r,
            metric: Metric::Linf,
            torus: None,
            protocol,
            t: None,
            placement: None,
            fault_kind: FaultKind::CrashStop,
            value: true,
            max_rounds: 10_000,
            channel: ChannelConfig::reliable(),
            shared_arena: true,
            early_termination: true,
            round_budget: None,
            trace_path: None,
            engine: EngineKind::default(),
        }
    }

    /// Overrides the metric (default L∞).
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Overrides the arena (default `Torus::for_radius(r)`).
    #[must_use]
    pub fn with_torus(mut self, torus: Torus) -> Self {
        self.torus = Some(torus);
        self
    }

    /// Sets the protocol's fault budget `t`.
    #[must_use]
    pub fn with_t(mut self, t: usize) -> Self {
        self.t = Some(t);
        self
    }

    /// Sets the fault placement (default: none).
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Sets the faulty nodes' behaviour (default crash-stop).
    #[must_use]
    pub fn with_fault_kind(mut self, kind: FaultKind) -> Self {
        self.fault_kind = kind;
        self
    }

    /// Sets the source's value (default `true`).
    #[cfg(test)]
    fn with_value(mut self, value: Value) -> Self {
        self.value = value;
        self
    }

    /// Overrides the channel model (default: the paper's reliable local
    /// broadcast). When jammers are left empty on a jam-enabled channel,
    /// the faulty placement doubles as the jammer set.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.channel = channel;
        self
    }

    /// Whether to draw the neighbor table from the process-wide shared
    /// arena cache (default `true`). Tables are immutable and fully
    /// determined by `(torus, r, metric)`, so sharing cannot change any
    /// outcome or trace hash — disable only to measure the build cost or
    /// to cross-check determinism against private tables.
    #[must_use]
    pub fn with_shared_arena(mut self, shared: bool) -> Self {
        self.shared_arena = shared;
        self
    }

    /// Whether the simulator may stop as soon as every honest node has
    /// decided (default `true`). The delivery-trace hash is frozen at
    /// that point in *both* modes, so hashes stay byte-identical with
    /// the setting on or off; only round/message statistics for the
    /// post-decision tail differ.
    #[must_use]
    pub fn with_early_termination(mut self, on: bool) -> Self {
        self.early_termination = on;
        self
    }

    /// Arms the supervisor's cooperative watchdog (default: off). A
    /// budget strictly below `max_rounds` makes the simulator stop at
    /// the budget with [`rbcast_sim::StopReason::DeadlineExceeded`]
    /// instead of running to the cap; budgets at or above the cap never
    /// bind, so a generous budget is byte-identical to no budget.
    #[must_use]
    pub(crate) fn with_round_budget(mut self, budget: Option<u32>) -> Self {
        self.round_budget = budget;
        self
    }

    /// The configured watchdog budget, if any (the supervisor threads
    /// its default through experiments that did not set their own).
    #[must_use]
    pub(crate) fn round_budget(&self) -> Option<u32> {
        self.round_budget
    }

    /// Streams the run's structured trace events to `path` as JSONL
    /// (default: no trace). Event payloads are pure functions of
    /// simulation state, so the file is byte-identical for identical
    /// experiments regardless of thread count, and
    /// [`crate::obs::replay_hash`] re-derives the run's delivery-trace
    /// hash from it. Under `debug-invariants` only the first of the two
    /// determinism replicas writes the file.
    #[must_use]
    pub fn with_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Selects the simulator round loop (default:
    /// [`EngineKind::Sparse`]). The dense loop is the `--dense` escape
    /// hatch / parity oracle: both engines are byte-identical in every
    /// observable — trace hash, event stream, stats — which the
    /// determinism gate asserts on every torus it covers.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Runs the experiment.
    ///
    /// Under the `debug-invariants` feature the run executes twice and
    /// asserts both replicas produce the identical delivery-trace hash
    /// and outcome — the determinism half of the audit gates; the T2
    /// safety oracle (no honest node commits a wrong value) is asserted
    /// every round inside the simulator whenever the configuration is
    /// within the protocol's proven tolerance.
    ///
    /// # Panics
    ///
    /// Panics if the arena cannot host the radius (see
    /// [`Torus::supports_radius`]), if a configured trace file cannot be
    /// created, or — under `debug-invariants` — if a runtime invariant
    /// is violated.
    #[must_use]
    pub fn run(&self) -> Outcome {
        self.run_traced().0
    }

    /// [`Experiment::run`], additionally returning the simulator's
    /// order-sensitive delivery-trace hash — the determinism witness
    /// used by the parallel sweep tests (identical inputs must produce
    /// identical hashes at any thread count).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Experiment::run`].
    #[must_use]
    pub fn run_traced(&self) -> (Outcome, u64) {
        #[cfg(feature = "debug-invariants")]
        {
            // The two determinism runs are independent; execute them
            // concurrently on the deterministic engine (2 fixed tasks →
            // index-ordered results, so the comparison itself is stable).
            // Only replica 0 may write the trace file — the replay is a
            // shadow run, not a second observation.
            let mut runs = crate::engine::run_indexed(&[(), ()], 2, |i, ()| self.run_once(i == 0));
            let (replay, replay_hash) = runs.pop().expect("engine returned both replicas");
            let (outcome, hash) = runs.pop().expect("engine returned both replicas");
            assert_eq!(
                hash, replay_hash,
                "same-seed trace-hash determinism violated: two runs of one \
                 experiment diverged ({hash:#018x} vs {replay_hash:#018x})"
            );
            assert_eq!(
                outcome, replay,
                "same-seed determinism violated: identical trace hashes but \
                 diverging outcomes"
            );
            (outcome, hash)
        }
        #[cfg(not(feature = "debug-invariants"))]
        self.run_once(true)
    }

    /// Whether Theorem 2's safety guarantee is provably in force, i.e.
    /// whether the safety oracle may assert without false alarms: the
    /// channel delivers authentic identities, the placement's audited
    /// local bound is within the budget, and the protocol carries a
    /// Byzantine safety proof for the configured fault behaviour.
    /// `IndirectCustom` ablations may deliberately weaken the commit
    /// rule, so they are never audited.
    fn t2_oracle_applies(&self, audited_bound: usize, t: usize) -> bool {
        if self.channel.spoofing || audited_bound > t {
            return false;
        }
        match self.protocol {
            ProtocolKind::Cpa | ProtocolKind::IndirectFull | ProtocolKind::IndirectSimplified => {
                true
            }
            ProtocolKind::Flood | ProtocolKind::PersistentFlood { .. } => {
                matches!(self.fault_kind, FaultKind::CrashStop | FaultKind::Silent)
            }
            ProtocolKind::IndirectCustom(_) => false,
        }
    }

    /// The torus this experiment will run on (the override or the
    /// radius-derived default).
    fn resolve_torus(&self) -> Torus {
        self.torus
            .clone()
            .unwrap_or_else(|| Torus::for_radius(self.r))
    }

    /// A strong reference to this experiment's shared arena, building it
    /// if needed. The sweep engine calls this for every experiment
    /// *before* fanning out, so each distinct geometry is built exactly
    /// once per sweep and workers only ever clone `Arc`s; the CLI calls
    /// it before a run, so an arena that cannot be built is an error
    /// rather than an abort mid-run. Returns `None` when the experiment
    /// opted out of sharing.
    ///
    /// # Errors
    ///
    /// As [`NeighborTable::try_build`].
    pub(crate) fn arena_guard(&self) -> Result<Option<Arc<NeighborTable>>, ArenaError> {
        self.shared_arena
            .then(|| crate::arena_cache::shared(&self.resolve_torus(), self.r, self.metric))
            .transpose()
    }

    /// `Experiment::arena_guard` for a run about to start: the node
    /// table the network will keep — one process slot and one decision
    /// per node — is reserved first and held while the arena is built,
    /// so a geometry the host cannot run is an error before anything
    /// allocates infallibly.
    ///
    /// # Errors
    ///
    /// A torus past [`NeighborTable::MAX_NODES`], a node table the
    /// allocator refuses, or the arena's own errors.
    pub fn run_guard(&self) -> Result<Option<Arc<NeighborTable>>, ArenaError> {
        struct SlotBytes;
        impl ProtocolVisitor for SlotBytes {
            type Output = usize;
            fn visit<P: Process<Msg> + 'static>(self, _: &dyn Fn(ProtocolParams) -> P) -> usize {
                std::mem::size_of::<Node<P, Msg>>()
            }
        }
        let nodes = self.resolve_torus().len() as u64;
        NeighborTable::check_nodes(nodes)?;
        let per_node = self.protocol.visit(SlotBytes)
            + std::mem::size_of::<Option<(Value, rbcast_sim::Round)>>();
        let _nodes = reserve_node_table(nodes, per_node)?;
        self.arena_guard()
    }

    /// One full simulation, returning the outcome and the simulator's
    /// delivery-trace hash. `primary` is false for the `debug-invariants`
    /// shadow replica, which must not write the trace file.
    fn run_once(&self, primary: bool) -> (Outcome, u64) {
        struct Run<'a>(&'a Experiment, bool);
        impl ProtocolVisitor for Run<'_> {
            type Output = (Outcome, u64);
            fn visit<P: Process<Msg> + 'static>(
                self,
                make: &dyn Fn(ProtocolParams) -> P,
            ) -> Self::Output {
                let Run(exp, primary) = self;
                let (outcome, net) = exp.simulate(primary, make);
                let hash = net.trace_hash();
                let arena = Arc::clone(net.arena());
                drop(net);
                crate::arena_cache::release(arena);
                (outcome, hash)
            }
        }
        let _span = crate::obs::span("experiment/run");
        self.protocol.visit(Run(self, primary))
    }

    /// The run itself: honest nodes built by `make` and stored inline,
    /// faulty nodes in [`FaultKind::spawn`]'s box. Returns the outcome
    /// and the network it was read from.
    fn simulate<P: Process<Msg>>(
        &self,
        primary: bool,
        make: &dyn Fn(ProtocolParams) -> P,
    ) -> (Outcome, Network<Msg, Node<P, Msg>>) {
        let torus = self.resolve_torus();
        let arena = if self.shared_arena {
            crate::arena_cache::shared(&torus, self.r, self.metric).unwrap_or_else(|e| {
                // audit:allow(panic): `arena_guard` is the fallible path; a run cannot go on without its arena
                panic!("{e}")
            })
        } else {
            Arc::new(NeighborTable::build(&torus, self.r, self.metric))
        };
        let t = self.t.unwrap_or_else(|| self.protocol.proven_t(self.r));
        let source = torus.id(Coord::ORIGIN);
        let params = ProtocolParams {
            source,
            value: self.value,
            t,
        };
        let faults: Vec<NodeId> = self
            .placement
            .as_ref()
            .map(|p| p.place(&torus, self.r, self.metric))
            .unwrap_or_default();
        let audited_bound = local_fault_bound_in(&arena, &faults);
        let fault_set: HashSet<NodeId> = faults.iter().copied().collect();

        let wrong = !self.value;
        let mut channel = self.channel.clone();
        if channel.jam_budget > 0 && channel.jammers.is_empty() {
            channel.jammers = faults.clone();
        }
        let mut net = Network::with_arena(arena, channel, |id| {
            if fault_set.contains(&id) {
                Node::Faulty(Box::new(self.fault_kind.spawn(wrong, id)))
            } else {
                Node::Honest(make(params))
            }
        });
        net.set_classifier(Msg::kind);
        // The completion mask is installed unconditionally so the trace
        // hash freezes at the same round whether or not the run is
        // allowed to stop early — the two modes stay byte-identical.
        net.set_completion_mask_except(&faults);
        net.set_early_termination(self.early_termination);
        net.set_round_budget(self.round_budget);
        net.set_engine(self.engine);
        if self.t2_oracle_applies(audited_bound, t) {
            net.set_safety_oracle(self.value, &faults);
        }
        if matches!(self.fault_kind, FaultKind::CrashStop) {
            for &f in &faults {
                net.crash_at(f, 0);
            }
        }
        if primary {
            if let Some(path) = &self.trace_path {
                let file = std::fs::File::create(path).unwrap_or_else(|e| {
                    // audit:allow(panic): an unwritable trace path is caller misconfiguration
                    panic!("cannot create trace file {}: {e}", path.display())
                });
                net.set_trace_sink(Box::new(crate::obs::JsonlSink::new(
                    std::io::BufWriter::new(file),
                )));
            }
        }
        let stats = net.run(self.max_rounds);
        record_run_metrics(&stats);
        let message_kinds: Vec<(&'static str, u64)> =
            net.kind_counts().iter().map(|(&k, &v)| (k, v)).collect();

        let mut committed_correct = 0;
        let mut committed_wrong = 0;
        let mut undecided = 0;
        let mut honest = 0;
        let mut last_decision_round = None;
        for id in torus.node_ids() {
            if fault_set.contains(&id) {
                continue;
            }
            honest += 1;
            let Some((v, round)) = net.decision(id) else {
                undecided += 1;
                continue;
            };
            if v == self.value {
                committed_correct += 1;
            } else {
                committed_wrong += 1;
            }
            last_decision_round = last_decision_round.max(Some(round));
        }
        let outcome = Outcome {
            honest,
            committed_correct,
            committed_wrong,
            undecided,
            fault_count: faults.len(),
            audited_bound,
            stats,
            message_kinds,
            last_decision_round,
        };
        (outcome, net)
    }
}

/// Folds one run's simulator statistics into the process-wide metrics
/// registry (`sim/*` counters). Handles are resolved once so the
/// registry lock is not taken per run.
fn record_run_metrics(stats: &RunStats) {
    use std::sync::OnceLock;
    static SIM: OnceLock<[crate::obs::Counter; 6]> = OnceLock::new();
    let [runs, rounds, messages, deliveries, jammed, lost] = SIM.get_or_init(|| {
        [
            crate::obs::counter("sim/runs"),
            crate::obs::counter("sim/rounds"),
            crate::obs::counter("sim/messages"),
            crate::obs::counter("sim/deliveries"),
            crate::obs::counter("sim/jammed-deliveries"),
            crate::obs::counter("sim/lost-deliveries"),
        ]
    });
    runs.incr();
    rounds.add(u64::from(stats.rounds));
    messages.add(stats.messages_sent);
    deliveries.add(stats.deliveries);
    jammed.add(stats.jammed_deliveries);
    lost.add(stats.lost_deliveries);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_flood() {
        let o = Experiment::new(2, ProtocolKind::Flood).run();
        assert!(o.all_honest_correct());
        assert_eq!(o.fault_count, 0);
    }

    #[test]
    fn flood_below_crash_threshold_survives_strips_minus_one() {
        // random local placement at t = r(2r+1) − 1 cannot partition
        let t = crate::thresholds::crash_max_t(2) as usize;
        let o = Experiment::new(2, ProtocolKind::Flood)
            .with_t(t)
            .with_placement(Placement::RandomLocal {
                t,
                seed: 11,
                attempts: 60,
            })
            .run();
        assert!(o.audited_bound <= t);
        assert!(o.all_honest_correct(), "{o}");
    }

    #[test]
    fn flood_partitioned_by_double_strip() {
        // Theorem 4: t = r(2r+1) faults as a strip partition the torus.
        let o = Experiment::new(2, ProtocolKind::Flood)
            .with_t(10)
            .with_placement(Placement::DoubleStrip)
            .run();
        assert_eq!(o.audited_bound, 10);
        assert!(o.undecided > 0, "{o}");
        assert!(o.safe());
    }

    #[test]
    fn cpa_tolerates_its_guarantee_r2() {
        let t = crate::thresholds::cpa_guaranteed_t(2) as usize; // 2
        let o = Experiment::new(2, ProtocolKind::Cpa)
            .with_t(t)
            .with_placement(Placement::FrontierCluster { t })
            .with_fault_kind(FaultKind::Liar)
            .run();
        assert!(o.all_honest_correct(), "{o}");
    }

    #[test]
    fn indirect_simplified_tolerates_max_t_r2() {
        let t = crate::thresholds::byzantine_max_t(2) as usize; // 4
        let o = Experiment::new(2, ProtocolKind::IndirectSimplified)
            .with_t(t)
            .with_placement(Placement::FrontierCluster { t })
            .with_fault_kind(FaultKind::Silent)
            .run();
        assert!(o.all_honest_correct(), "{o}");
    }

    #[test]
    fn outcome_display_mentions_counts() {
        let o = Experiment::new(1, ProtocolKind::Flood).run();
        let s = o.to_string();
        assert!(s.contains("correct"));
        assert!(s.contains("faults: 0"));
    }

    #[test]
    fn proven_t_is_pinned_per_protocol() {
        // Computed at b93db76 from all three copies of the rule
        // (`Experiment::default_t`, `attack::protocol_threshold`,
        // `cli::default_t`), which agreed on every cell.
        let table: [(&str, [usize; 4]); 5] = [
            ("flood", [2, 9, 20, 35]),
            ("persistent-flood", [2, 9, 20, 35]),
            ("cpa", [0, 2, 6, 10]),
            ("indirect-full", [1, 4, 10, 17]),
            ("indirect-simplified", [1, 4, 10, 17]),
        ];
        for (name, want) in table {
            let kind = ProtocolKind::parse(name).expect(name);
            let got: Vec<usize> = (1..=4).map(|r| kind.proven_t(r)).collect();
            assert_eq!(got, want, "{name}");
        }
        let custom = ProtocolKind::IndirectCustom(IndirectConfig::full());
        assert_eq!(custom.proven_t(3), 10);
    }

    #[test]
    fn message_kind_breakdown_is_consistent() {
        let o = Experiment::new(1, ProtocolKind::IndirectSimplified).run();
        let total: u64 = o.message_kinds.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, o.stats.messages_sent);
        let kinds: Vec<&str> = o.message_kinds.iter().map(|&(k, _)| k).collect();
        assert!(kinds.contains(&"SOURCE"));
        assert!(kinds.contains(&"COMMITTED"));
        assert!(kinds.contains(&"HEARD"));
    }

    #[test]
    fn round_budget_cuts_a_run_short() {
        let o = Experiment::new(1, ProtocolKind::Flood)
            .with_round_budget(Some(1))
            .run();
        assert_eq!(
            o.stats.stop_reason,
            rbcast_sim::StopReason::DeadlineExceeded
        );
        assert!(o.undecided > 0, "{o}");
        // A budget at the cap never binds: byte-identical to no budget.
        let capped = Experiment::new(1, ProtocolKind::Flood)
            .with_round_budget(Some(10_000))
            .run_traced();
        let free = Experiment::new(1, ProtocolKind::Flood).run_traced();
        assert_eq!(capped, free);
        assert!(free.0.all_honest_correct());
    }

    #[test]
    fn trace_file_replays_to_the_run_hash() {
        let path = std::env::temp_dir().join("rbcast-test-experiment-trace.jsonl");
        let (outcome, hash) = Experiment::new(1, ProtocolKind::Flood)
            .with_trace_path(&path)
            .run_traced();
        let text = std::fs::read_to_string(&path).expect("trace file written");
        assert!(!text.is_empty());
        assert_eq!(
            crate::obs::replay_hash(&text),
            Ok(hash),
            "JSONL stream must re-derive the run's delivery-trace hash"
        );
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"ev\":\"delivery\""))
                .count() as u64,
            outcome.stats.deliveries,
            "one delivery event per counted delivery"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sim_metrics_accumulate_across_runs() {
        let deliveries = crate::obs::counter("sim/deliveries");
        let runs = crate::obs::counter("sim/runs");
        let (d0, r0) = (deliveries.get(), runs.get());
        let o = Experiment::new(1, ProtocolKind::Flood).run();
        assert!(runs.get() > r0);
        assert!(deliveries.get() >= d0 + o.stats.deliveries);
    }

    /// Everything a run shows beyond its outcome.
    #[derive(Debug, PartialEq)]
    struct Observed {
        hash: u64,
        stats: RunStats,
        decisions: Vec<Option<(Value, rbcast_sim::Round)>>,
        kinds: std::collections::BTreeMap<&'static str, u64>,
        events: String,
    }

    fn observe<P>(net: &Network<Msg, P>, stats: RunStats, trace: &std::path::Path) -> Observed
    where
        P: Process<Msg>,
    {
        Observed {
            hash: net.trace_hash(),
            stats,
            decisions: net.decisions(),
            kinds: net.kind_counts().clone(),
            events: std::fs::read_to_string(trace).expect("trace written"),
        }
    }

    /// `exp` through `Experiment`'s own typed path, with its trace
    /// stream written to `trace`.
    fn typed(exp: &Experiment, trace: &std::path::Path) -> Observed {
        struct Typed<'a>(&'a Experiment, &'a std::path::Path);
        impl ProtocolVisitor for Typed<'_> {
            type Output = Observed;
            fn visit<P: Process<Msg> + 'static>(
                self,
                make: &dyn Fn(ProtocolParams) -> P,
            ) -> Observed {
                let (outcome, net) = self.0.simulate(true, make);
                // The sink flushed when the run ended.
                let observed = observe(&net, outcome.stats, self.1);
                assert_eq!(self.0.run_traced(), (outcome, net.trace_hash()));
                observed
            }
        }
        let exp = exp.clone().with_trace_path(trace);
        exp.protocol.visit(Typed(&exp, trace))
    }

    /// The same inputs through a hand-built network that boxes every
    /// node, as `run_once` did before honest processes were stored
    /// inline.
    fn boxed(exp: &Experiment, trace: &std::path::Path) -> Observed {
        let torus = exp.resolve_torus();
        let t = exp.t.unwrap_or_else(|| exp.protocol.proven_t(exp.r));
        let params = ProtocolParams {
            source: torus.id(Coord::ORIGIN),
            value: exp.value,
            t,
        };
        let faults = exp
            .placement
            .as_ref()
            .map_or_else(Vec::new, |p| p.place(&torus, exp.r, exp.metric));
        let arena = Arc::new(NeighborTable::build(&torus, exp.r, exp.metric));
        let mut net: Network<Msg> = Network::with_arena(arena, exp.channel.clone(), |id| {
            if faults.contains(&id) {
                exp.fault_kind.spawn(!exp.value, id)
            } else {
                exp.protocol.spawn(params)
            }
        });
        net.set_classifier(Msg::kind);
        let honest: Vec<NodeId> = torus.node_ids().filter(|id| !faults.contains(id)).collect();
        net.set_completion_mask(&honest);
        net.set_early_termination(exp.early_termination);
        net.set_engine(exp.engine);
        if exp.fault_kind == FaultKind::CrashStop {
            for &f in &faults {
                net.crash_at(f, 0);
            }
        }
        let file = std::fs::File::create(trace).expect("trace file");
        net.set_trace_sink(Box::new(crate::obs::JsonlSink::new(
            std::io::BufWriter::new(file),
        )));
        let stats = net.run(exp.max_rounds);
        observe(&net, stats, trace)
    }

    #[test]
    fn typed_storage_runs_exactly_as_boxed() {
        let protocols = ProtocolKind::ALL
            .into_iter()
            .chain([ProtocolKind::IndirectCustom(IndirectConfig {
                max_relays: 2,
                ..IndirectConfig::full()
            })]);
        let faults = [
            FaultKind::CrashStop,
            FaultKind::Liar,
            FaultKind::Forger,
            FaultKind::Mixed { seed: 5 },
        ];
        let placement = Placement::RandomLocal {
            t: 1,
            seed: 3,
            attempts: 40,
        };
        let placed = placement
            .place(&Torus::for_radius(1), 1, Metric::Linf)
            .len();
        assert!(placed > 4, "{placed} faults");
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        for protocol in protocols {
            for fault in faults {
                for engine in [EngineKind::Sparse, EngineKind::Dense] {
                    let case = format!("{}-{}-{engine:?}", protocol.name(), fault.name());
                    let exp = Experiment::new(1, protocol)
                        .with_placement(placement.clone())
                        .with_fault_kind(fault)
                        .with_engine(engine);
                    let (a, b) = (
                        dir.join(format!("rbcast-typed-{pid}-{case}.jsonl")),
                        dir.join(format!("rbcast-boxed-{pid}-{case}.jsonl")),
                    );
                    let typed = typed(&exp, &a);
                    let boxed = boxed(&exp, &b);
                    let _ = (std::fs::remove_file(a), std::fs::remove_file(b));
                    assert!(typed.stats.deliveries > 0, "{case}");
                    assert_eq!(typed, boxed, "{case}");
                }
            }
        }
    }

    #[test]
    fn wrong_value_false_also_works() {
        let o = Experiment::new(1, ProtocolKind::IndirectFull)
            .with_value(false)
            .run();
        assert!(o.all_honest_correct());
    }
}
