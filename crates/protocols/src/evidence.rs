//! Commit-rule evidence evaluation for the indirect-report protocol.
//!
//! A node accumulates *report chains* about committers: hearing
//! `COMMITTED(i, v)` directly is the empty chain; a
//! `HEARD(k_m, …, k_1, i, v)` message is the chain `[k_1, …, k_m]`. The
//! commit rules of §VI / §VI-B evaluate this evidence:
//!
//! * [`CommitRule::TwoLevel`] — the paper's §VI rule. First, *reliable
//!   determination*: committer `i` is determined to have committed `v`
//!   when heard directly, or when `t+1` pairwise node-disjoint chains
//!   about `(i, v)` lie inside one neighborhood (at most `t` of them can
//!   contain a faulty relay, and an all-honest chain is a telescoping
//!   attestation that `i` really transmitted `COMMITTED(i, v)`). Second,
//!   *commitment*: commit to `v` once `t+1` determined committers of `v`
//!   lie inside one neighborhood (at most `t` faulty, and honest commits
//!   are correct by induction).
//! * [`CommitRule::OneLevel`] — the §VI-B-style collapsed rule: commit to
//!   `v` once `t+1` pairwise node-disjoint chains — *including their
//!   committers* in the disjointness — lie inside one neighborhood, all
//!   reporting `v`. One of them is then all-honest end to end.
//!
//! Both rules are *safe* for any fault placement within the local bound;
//! they differ in liveness/latency and in evaluation cost (benched in
//! `rbcast-bench`).

use rbcast_flow::{ChainPacker, PackScratch, MAX_CHAIN_KEYS};
use rbcast_grid::{Coord, LocalFrame, NeighborTable, NodeId};
use rbcast_sim::Value;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Which commit rule the indirect protocol evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitRule {
    /// The paper's §VI two-level rule (determine committers, then count
    /// determined committers per neighborhood).
    #[default]
    TwoLevel,
    /// The collapsed one-level rule (count disjoint chains per
    /// neighborhood directly), as in the §VI-B simplified protocol.
    OneLevel,
}

/// Network geometry needed by the evidence evaluation, backed by the
/// shared topology arena (so the per-round center scans read
/// precomputed stencils instead of re-deriving the commit geometry).
#[derive(Debug, Clone, Copy)]
pub struct Geometry<'a> {
    arena: &'a NeighborTable,
    me: Coord,
}

impl<'a> Geometry<'a> {
    /// Geometry for the evaluating node at coordinate `me`, over the
    /// network's topology arena.
    #[must_use]
    pub fn new(arena: &'a NeighborTable, me: Coord) -> Self {
        Geometry { arena, me }
    }

    /// Closed-ball membership: is `node` within `r` of `center`?
    fn covers(&self, center: Coord, node: Coord) -> bool {
        self.arena
            .torus()
            .within(center, node, self.arena.radius(), self.arena.metric())
    }

    /// Candidate neighborhood centers within distance `d` of `around`,
    /// streamed from the arena's precomputed closed-ball stencil — no
    /// per-call geometry scan (this runs per evaluation, per candidate
    /// center scan, on the simulator hot path).
    fn centers_within(self, around: Coord, d: u32) -> impl Iterator<Item = Coord> + 'a {
        let torus = self.arena.torus();
        self.arena
            .ball_offsets(d)
            .iter()
            .map(move |&off| torus.canonical(around + off))
    }
}

/// Accumulated report-chain evidence and rule evaluation for one node.
///
/// A store holds only what its rule reads: the one-level rule's two
/// packers sit inline and never allocate until a chain arrives; the
/// two-level rule's frame, slots and determinations sit behind one
/// allocation made in [`EvidenceStore::new`]. Once its node commits,
/// `EvidenceStore::retire` cuts it down to what the relay rule still
/// reads.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, NeighborTable, Torus};
/// use rbcast_protocols::{CommitRule, EvidenceStore, Geometry};
///
/// let torus = Torus::new(24, 24);
/// let table = NeighborTable::build(&torus, 2, Metric::Linf);
/// let me = Coord::new(10, 10);
/// let geo = Geometry::new(&table, me);
/// let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
/// ev.bind(&table, me); // the frame of committers `me` can use
/// // two committers in one neighborhood heard directly: t+1 = 2 → commit
/// ev.record_direct(torus.id(Coord::new(9, 9)), true);
/// ev.record_direct(torus.id(Coord::new(11, 9)), true);
/// assert_eq!(ev.evaluate(&geo), Some(true));
/// ```
#[derive(Debug)]
pub struct EvidenceStore {
    t: usize,
    state: RuleState,
}

/// The evidence one rule maintains.
#[derive(Debug)]
enum RuleState {
    OneLevel {
        /// Per-value chains with the committer prefixed — already
        /// dense: two packers, no keying at all.
        combined: [ChainPacker; 2],
        /// Set when a commit re-evaluation is warranted.
        commit_dirty: bool,
    },
    TwoLevel(Box<TwoLevel>),
    /// A committed node that can no longer forward any chain (at most
    /// one relay per report): nothing it records would ever be read.
    Retired,
}

/// Two-level evidence: chains per `(committer, value)` and the
/// determinations drawn from them.
#[derive(Debug, Default)]
struct TwoLevel {
    /// Ball-local committer frame (span `3r`), bound once per run by
    /// the protocol's `on_start` via [`EvidenceStore::bind`]. It is the
    /// store's only index: every committer a chain can be evidence
    /// about lies inside it, and a store that was never bound indexes
    /// nothing.
    frame: Option<LocalFrame>,
    /// One chain packer per (slot, value) pair, at `slots[2 * slot + value]`.
    slots: Vec<ChainPacker>,
    /// Pairs whose evidence changed since the last evaluation.
    /// Unsorted; drained sorted so the refresh order matches the old
    /// ordered-set drain exactly.
    dirty: Vec<(NodeId, Value)>,
    /// `dirty_mark[2 * slot + value]` is set while that pair sits in
    /// `dirty`, so a pair is listed once however many chains arrive
    /// between two evaluations. Sized in [`EvidenceStore::bind`] like
    /// `slots`.
    dirty_mark: Vec<bool>,
    /// Committers reliably determined (first value wins).
    determined: BTreeMap<NodeId, Value>,
    /// Set by [`EvidenceStore::retire`]: the refresh list, marks and
    /// determinations are gone, and a committer heard directly keeps
    /// nothing but that observation.
    retired: bool,
}

/// What [`EvidenceStore::determined`] returns under the one-level rule,
/// which determines nobody.
static NO_DETERMINATIONS: BTreeMap<NodeId, Value> = BTreeMap::new();

thread_local! {
    /// The packing-query buffers, one set per thread instead of one per
    /// node: an evaluation takes them out and puts them back, and
    /// scratch never changes an answer (see [`PackScratch`]), so which
    /// node's queries grew them is unobservable.
    static SCRATCH: Cell<PackScratch> = Cell::default();

    /// Tests only: hand every packing query fresh scratch — the
    /// reference the shared buffers are checked against.
    #[cfg(test)]
    static FRESH_SCRATCH_PER_QUERY: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's scratch. Moved out, not borrowed: nothing
/// is held while `f` runs, and a nested call would find empty buffers.
fn with_scratch<R>(f: impl FnOnce(&mut PackScratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let out = f(&mut scratch);
    SCRATCH.set(scratch);
    out
}

/// Does `packer` hold `need` pairwise disjoint chains inside the ball
/// around `center`?
fn packs_within(
    packer: &ChainPacker,
    scratch: &mut PackScratch,
    geo: &Geometry<'_>,
    center: Coord,
    need: u32,
) -> bool {
    #[cfg(test)]
    if FRESH_SCRATCH_PER_QUERY.get() {
        *scratch = PackScratch::default();
    }
    let admit = |k: u64| geo.covers(center, geo.arena.torus().coord(NodeId(k as u32)));
    packer.max_disjoint_reusing(scratch, admit, need) >= need
}

/// Inline key buffer for packer insertions: an optional committer
/// prefix followed by the relay keys, no heap.
struct KeyBuf {
    buf: [u64; MAX_CHAIN_KEYS],
    len: usize,
}

impl KeyBuf {
    /// Packs `prefix` (if any) followed by `relays`, or `None` when the
    /// combined chain exceeds [`MAX_CHAIN_KEYS`] — such a chain could
    /// never enter a packer anyway (`ChainPacker::insert` rejects
    /// over-length chains).
    fn pack(prefix: Option<NodeId>, relays: &[NodeId]) -> Option<KeyBuf> {
        if relays.len() + usize::from(prefix.is_some()) > MAX_CHAIN_KEYS {
            return None;
        }
        let mut buf = [0u64; MAX_CHAIN_KEYS];
        let mut len = 0;
        if let Some(p) = prefix {
            buf[0] = u64::from(p.0);
            len = 1;
        }
        for &k in relays {
            buf[len] = u64::from(k.0);
            len += 1;
        }
        Some(KeyBuf { buf, len })
    }

    fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len]
    }
}

impl EvidenceStore {
    /// Creates an empty store for fault budget `t` under `rule`.
    #[must_use]
    pub fn new(t: usize, rule: CommitRule) -> Self {
        let state = match rule {
            CommitRule::OneLevel => RuleState::OneLevel {
                combined: Default::default(),
                commit_dirty: false,
            },
            CommitRule::TwoLevel => RuleState::TwoLevel(Box::default()),
        };
        EvidenceStore { t, state }
    }

    /// Binds the store to the ball-local committer frame of the node at
    /// `me`. A chain is evidence only if it fits inside one radius-`r`
    /// ball, and its last relay is the receiver's neighbour, so its
    /// committer lies within L∞ distance `3r` of the receiver (at most
    /// `2r` from the last relay, which itself is within `r`): a
    /// span-`3r` frame indexes every committer a chain can be evidence
    /// about, and two-level evidence lives in its dense slot vectors.
    /// The one-level rule keys nothing by committer, so binding a
    /// one-level store does nothing and builds no frame.
    ///
    /// Call before recording any evidence (the protocol binds in
    /// `on_start`). A two-level store refuses a chain about a committer
    /// outside the frame, and a store that was never bound indexes
    /// nothing: recording into it is a bug in its host.
    pub fn bind(&mut self, arena: &NeighborTable, me: Coord) {
        debug_assert_eq!(self.chain_count(), 0, "bind() after evidence was recorded");
        if let RuleState::TwoLevel(two) = &mut self.state {
            // audit:allow(checked-threshold-arith): a frame span, and an arena's radius is far below u32::MAX / 3
            let frame = arena.local_frame(me, 3 * arena.radius());
            // audit:allow(checked-threshold-arith): slot-vector sizing, not bound arithmetic
            two.slots.resize_with(2 * frame.slots(), ChainPacker::new);
            two.dirty_mark.resize(two.slots.len(), false);
            two.frame = Some(frame);
        }
    }

    /// Drops, when the owning node commits, every chain its relay rule
    /// can no longer read. After the commit a node never evaluates again;
    /// the one thing a record still decides is whether a `HEARD` with
    /// fewer than `max_relays` relays, about a committer the node has not
    /// heard directly, is new and so forwarded. From here on the store
    /// answers exactly that question as before — for those queries only:
    ///
    /// * `max_relays ≤ 1`: a `HEARD` carries at least one relay, so no
    ///   such query exists. Everything goes, and nothing is recorded
    ///   again.
    /// * A query with `k` relays can only be dominated by a chain of at
    ///   most `k` relays (one-level keys: `k + 1`), so every chain with
    ///   `max_relays` relays goes.
    /// * Two-level keys are per committer, so a committer heard directly
    ///   keeps only that direct observation: it marks the committer, and
    ///   every later chain about it is ignored. A direct record after
    ///   this call cuts its committer down the same way. Refresh list,
    ///   marks and determinations are the commit rule's and go.
    /// * One-level keys carry the committer, so a stored chain about one
    ///   committer can dominate a report about another: the rest stays.
    pub(crate) fn retire(&mut self, max_relays: usize) {
        if max_relays <= 1 {
            self.state = RuleState::Retired;
            return;
        }
        match &mut self.state {
            RuleState::TwoLevel(two) => two.retire(max_relays),
            RuleState::OneLevel { combined, .. } => {
                for packer in combined {
                    packer.retain_shorter_than(max_relays + 1);
                }
            }
            RuleState::Retired => {}
        }
    }

    /// Records that the committer was heard announcing `v` directly.
    pub fn record_direct(&mut self, committer: NodeId, v: Value) {
        self.record_chain(committer, v, &[]);
    }

    /// Records a report chain (`relays` committer-side first, excluding
    /// the committer and the receiving node). Returns `true` if the chain
    /// was new and undominated (dominated chains can never matter — see
    /// `ChainPacker::insert`). A two-level store refuses, storing and
    /// marking nothing, a chain whose committer its frame does not
    /// index (see [`EvidenceStore::bind`]).
    pub fn record_chain(&mut self, committer: NodeId, v: Value, relays: &[NodeId]) -> bool {
        match &mut self.state {
            RuleState::TwoLevel(two) => two.record_chain(committer, v, relays),
            RuleState::OneLevel {
                combined,
                commit_dirty,
            } => {
                let Some(keys) = KeyBuf::pack(Some(committer), relays) else {
                    return false;
                };
                let new = combined[usize::from(v)].insert(keys.as_slice());
                *commit_dirty |= new;
                new
            }
            RuleState::Retired => false,
        }
    }

    /// Committers reliably determined so far (two-level rule, until
    /// `EvidenceStore::retire`; always empty under the one-level rule).
    #[must_use]
    pub fn determined(&self) -> &BTreeMap<NodeId, Value> {
        match &self.state {
            RuleState::TwoLevel(two) => &two.determined,
            RuleState::OneLevel { .. } | RuleState::Retired => &NO_DETERMINATIONS,
        }
    }

    /// Visits every packer with the key [`EvidenceStore::digest`] folds
    /// it under, in storage order: the frame's slots, or the two
    /// combined per-value packers.
    fn for_each_packer(&self, mut f: impl FnMut(u64, &ChainPacker)) {
        match &self.state {
            RuleState::TwoLevel(two) => {
                for (slot, p) in two.slots.iter().enumerate() {
                    f(slot as u64, p);
                }
            }
            RuleState::OneLevel { combined, .. } => {
                for (v, p) in combined.iter().enumerate() {
                    f(v as u64, p);
                }
            }
            RuleState::Retired => {}
        }
    }

    /// Total stored (undominated) chains across all committers and
    /// values.
    #[must_use]
    pub(crate) fn chain_count(&self) -> usize {
        let mut chains = 0;
        self.for_each_packer(|_, p| chains += p.len());
        chains
    }

    /// Deterministic FNV-1a fingerprint of every stored chain — traced
    /// alongside the chain count when a commit fires, so two runs can
    /// be compared on *what* evidence produced each decision, not just
    /// how much. Folds packers in storage order; empty packers
    /// contribute nothing, so the digest is independent of how many
    /// unused slots the frame reserved.
    #[must_use]
    pub(crate) fn digest(&self) -> u64 {
        use rbcast_sim::trace::{fold_words, FNV_OFFSET};
        let mut hash = FNV_OFFSET;
        self.for_each_packer(|key, p| {
            if p.is_empty() {
                return;
            }
            fold_words(&mut hash, &[key, u64::from(p.has_direct())]);
            for c in p.iter() {
                fold_words(&mut hash, &[c.relays().len() as u64]);
                for &relay in c.relays() {
                    fold_words(&mut hash, &[u64::from(relay)]);
                }
            }
        });
        hash
    }

    /// Evaluates the commit rule against the current evidence. Returns
    /// the value to commit to, if the rule fires.
    ///
    /// Called at round boundaries; incremental (only dirty evidence is
    /// re-examined).
    pub fn evaluate(&mut self, geo: &Geometry<'_>) -> Option<Value> {
        let need = (self.t + 1) as u32;
        match &mut self.state {
            RuleState::TwoLevel(two) => two.evaluate(geo, need),
            RuleState::OneLevel {
                combined,
                commit_dirty,
            } => {
                if !std::mem::take(commit_dirty) {
                    return None;
                }
                with_scratch(|scratch| {
                    for center in geo.centers_within(geo.me, geo.arena.radius() + 1) {
                        for v in [true, false] {
                            let packer = &combined[usize::from(v)];
                            if packer.len() >= need as usize
                                && packs_within(packer, scratch, geo, center, need)
                            {
                                return Some(v);
                            }
                        }
                    }
                    None
                })
            }
            RuleState::Retired => None,
        }
    }
}

impl TwoLevel {
    /// Index of `(committer, v)` in `slots` and `dirty_mark`, if the
    /// frame indexes `committer`.
    fn index(&self, committer: NodeId, v: Value) -> Option<usize> {
        debug_assert!(self.frame.is_some(), "two-level evidence before bind()");
        let slot = self.frame.as_ref()?.slot_of_id(committer)?;
        // audit:allow(checked-threshold-arith): dense slot indexing, not bound arithmetic
        Some(2 * slot + usize::from(v))
    }

    fn record_chain(&mut self, committer: NodeId, v: Value, relays: &[NodeId]) -> bool {
        let Some(keys) = KeyBuf::pack(None, relays) else {
            return false;
        };
        let Some(i) = self.index(committer, v) else {
            return false;
        };
        if self.retired && self.heard_directly(i) {
            return false;
        }
        let new = self.slots[i].insert(keys.as_slice());
        if self.retired {
            if relays.is_empty() {
                self.keep_only_direct(i);
            }
        } else if new {
            self.mark_dirty(i, committer, v);
        }
        new
    }

    /// Whether the committer at index `i` was heard directly, with
    /// either value (its pair sits at `i & !1` and `i | 1`).
    fn heard_directly(&self, i: usize) -> bool {
        self.slots[i & !1..=i | 1]
            .iter()
            .any(ChainPacker::has_direct)
    }

    /// Drops every chain but a direct observation about the committer
    /// at index `i`, under either value.
    fn keep_only_direct(&mut self, i: usize) {
        for packer in &mut self.slots[i & !1..=i | 1] {
            packer.retain_shorter_than(1);
        }
    }

    /// See [`EvidenceStore::retire`].
    fn retire(&mut self, max_relays: usize) {
        for pair in self.slots.chunks_exact_mut(2) {
            let keep = if pair.iter().any(ChainPacker::has_direct) {
                1
            } else {
                max_relays
            };
            for packer in pair {
                packer.retain_shorter_than(keep);
            }
        }
        self.dirty = Vec::new();
        self.dirty_mark = Vec::new();
        self.determined = BTreeMap::new();
        self.retired = true;
    }

    /// Lists `(committer, v)`, whose pair holds slot index `i`, for the
    /// next level-1 refresh, once: its mark stays set until the refresh.
    fn mark_dirty(&mut self, i: usize, committer: NodeId, v: Value) {
        if self.dirty_mark[i] || self.determined.contains_key(&committer) {
            return;
        }
        self.dirty_mark[i] = true;
        self.dirty.push((committer, v));
    }

    fn evaluate(&mut self, geo: &Geometry<'_>, need: u32) -> Option<Value> {
        // Level 1: refresh determinations for dirty (committer, value)
        // pairs. A pair failing now is re-marked dirty by the next chain
        // arrival for it.
        // Sorted drain: reproduces the (committer, value) iteration order
        // of the ordered set this list replaced, so refresh order is
        // identical on every run with the same seed. The marks already
        // list each pair once.
        if self.dirty.is_empty() {
            return None;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        self.dirty_mark.fill(false);
        dirty.sort_unstable();
        let mut newly = false;
        with_scratch(|scratch| {
            for (committer, v) in dirty {
                if self.determined.contains_key(&committer) {
                    continue;
                }
                if self.is_determined(geo, scratch, need, committer, v) {
                    self.determined.insert(committer, v);
                    newly = true;
                }
            }
        });
        // The commit threshold can only newly pass when a determination
        // was added.
        if !newly {
            return None;
        }

        // Level 2: a neighborhood holding t+1 determined committers of v.
        let commits: Vec<(Coord, Value)> = self
            .determined
            .iter()
            .map(|(&id, &v)| (geo.arena.torus().coord(id), v))
            .collect();
        for center in geo.centers_within(geo.me, geo.arena.radius() + 1) {
            let mut counts = [0u32; 2];
            for &(c, v) in &commits {
                if geo.covers(center, c) {
                    counts[usize::from(v)] += 1;
                }
            }
            for v in [false, true] {
                if counts[usize::from(v)] >= need {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Level-1 determination: direct observation, or `need = t+1`
    /// disjoint chains inside a single neighborhood covering the
    /// committer.
    fn is_determined(
        &self,
        geo: &Geometry<'_>,
        scratch: &mut PackScratch,
        need: u32,
        committer: NodeId,
        v: Value,
    ) -> bool {
        let Some(i) = self.index(committer, v) else {
            return false;
        };
        let packer = &self.slots[i];
        if packer.has_direct() {
            return true;
        }
        if packer.len() < need as usize {
            return false;
        }
        let committer_coord = geo.arena.torus().coord(committer);
        geo.centers_within(committer_coord, geo.arena.radius())
            .any(|center| packs_within(packer, scratch, geo, center, need))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rbcast_grid::{Metric, Torus};
    use std::collections::BTreeSet;

    fn table(torus: &Torus) -> NeighborTable {
        NeighborTable::build(torus, 2, Metric::Linf)
    }

    fn id(torus: &Torus, x: i64, y: i64) -> NodeId {
        torus.id(Coord::new(x, y))
    }

    /// A store for the node at (10, 10), the evaluator of every test,
    /// bound as `Indirect::on_start` binds it.
    fn store(t: usize, rule: CommitRule, table: &NeighborTable) -> EvidenceStore {
        let mut ev = EvidenceStore::new(t, rule);
        ev.bind(table, Coord::new(10, 10));
        ev
    }

    /// A two-level store's pending level-1 refresh list.
    fn dirty(ev: &EvidenceStore) -> &[(NodeId, Value)] {
        match &ev.state {
            RuleState::TwoLevel(two) => &two.dirty,
            RuleState::OneLevel { .. } | RuleState::Retired => {
                panic!("only a live two-level store keeps a dirty list")
            }
        }
    }

    #[test]
    fn direct_observations_determine_immediately() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(2, CommitRule::TwoLevel, &table);
        ev.record_direct(id(&torus, 9, 9), true);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().len(), 1);
    }

    #[test]
    fn two_level_commits_on_t_plus_1_determined_neighbors() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 2;
        let mut ev = store(t, CommitRule::TwoLevel, &table);
        // three committers inside one neighborhood of `me`, all heard
        // directly
        for x in 0..3 {
            ev.record_direct(id(&torus, 9 + x, 9), true);
        }
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    #[test]
    fn two_level_needs_strictly_more_than_t() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(2, CommitRule::TwoLevel, &table);
        ev.record_direct(id(&torus, 9, 9), true);
        ev.record_direct(id(&torus, 10, 9), true);
        assert_eq!(ev.evaluate(&geo), None);
    }

    #[test]
    fn determination_via_disjoint_chains() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 1;
        let mut ev = store(t, CommitRule::TwoLevel, &table);
        let committer = id(&torus, 12, 12); // not a direct neighbor of me
                                            // two disjoint chains through distinct relays near the committer
        ev.record_chain(committer, true, &[id(&torus, 11, 12)]);
        ev.record_chain(committer, true, &[id(&torus, 12, 11)]);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
    }

    #[test]
    fn conflicting_chains_do_not_determine() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        let committer = id(&torus, 12, 12);
        let shared_relay = id(&torus, 11, 12);
        ev.record_chain(committer, true, &[shared_relay]);
        ev.record_chain(committer, true, &[shared_relay, id(&torus, 11, 11)]);
        let _ = ev.evaluate(&geo);
        assert!(ev.determined().is_empty());
    }

    #[test]
    fn chains_outside_any_single_neighborhood_do_not_count() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        let committer = id(&torus, 12, 12);
        // relays too far apart to share a ball with the committer
        ev.record_chain(committer, true, &[id(&torus, 10, 12)]);
        ev.record_chain(committer, true, &[id(&torus, 14, 18)]);
        let _ = ev.evaluate(&geo);
        assert!(ev.determined().is_empty());
    }

    #[test]
    fn one_level_commits_on_disjoint_committer_chains() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 1;
        let mut ev = store(t, CommitRule::OneLevel, &table);
        // two chains with distinct committers and distinct relays, all
        // within the ball centered at (10, 10)
        ev.record_chain(id(&torus, 9, 9), true, &[id(&torus, 10, 9)]);
        ev.record_chain(id(&torus, 11, 11), true, &[id(&torus, 11, 10)]);
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    #[test]
    fn one_level_shared_committer_counts_once() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(1, CommitRule::OneLevel, &table);
        let committer = id(&torus, 9, 9);
        ev.record_chain(committer, true, &[id(&torus, 10, 9)]);
        ev.record_chain(committer, true, &[id(&torus, 9, 10)]);
        assert_eq!(ev.evaluate(&geo), None);
    }

    #[test]
    fn duplicate_chains_are_ignored() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        let committer = id(&torus, 12, 12);
        assert!(ev.record_chain(committer, true, &[id(&torus, 11, 12)]));
        assert!(!ev.record_chain(committer, true, &[id(&torus, 11, 12)]));
        assert_eq!(ev.chain_count(), 1);
    }

    #[test]
    fn evaluation_is_idempotent_when_clean() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(0, CommitRule::TwoLevel, &table);
        ev.record_direct(id(&torus, 9, 9), false);
        assert_eq!(ev.evaluate(&geo), Some(false));
        // no new evidence: second call must be cheap and return None
        assert_eq!(ev.evaluate(&geo), None);
    }

    #[test]
    fn values_kept_separate() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        ev.record_direct(id(&torus, 9, 9), true);
        ev.record_direct(id(&torus, 10, 9), false);
        // one vote each: neither reaches t+1 = 2
        assert_eq!(ev.evaluate(&geo), None);
        ev.record_direct(id(&torus, 11, 9), true);
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    #[test]
    fn coalition_of_t_forgers_cannot_fabricate_a_determination() {
        // t faulty nodes inside one neighborhood each fabricate one
        // report chain claiming an honest committer committed `false`.
        // Chains from distinct forgers are disjoint (each ends at its
        // own forger), but there are only t of them — one short of the
        // t+1 the rule demands.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 3;
        let mut ev = store(t, CommitRule::TwoLevel, &table);
        let victim = id(&torus, 12, 12);
        for k in 0..t {
            let forger = id(&torus, 11, 11 + k as i64 - 1);
            ev.record_chain(victim, false, &[forger]);
        }
        let _ = ev.evaluate(&geo);
        assert!(ev.determined().is_empty());
    }

    #[test]
    fn forged_deep_chains_share_their_forger_and_collapse() {
        // One forger fabricating many deep chains gains nothing: all its
        // chains end with its own (unforgeable) identifier, so any
        // disjoint family contains at most one of them.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        let victim = id(&torus, 12, 12);
        let forger = id(&torus, 11, 12);
        for k in 0..6i64 {
            ev.record_chain(victim, false, &[id(&torus, 12, 11 + (k % 2)), forger]);
        }
        let _ = ev.evaluate(&geo);
        assert!(ev.determined().is_empty());
    }

    #[test]
    fn one_honest_chain_tips_the_balance_for_the_truth() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 2;
        let mut ev = store(t, CommitRule::TwoLevel, &table);
        let committer = id(&torus, 12, 12);
        // t disjoint chains (possibly faulty relays) plus one more —
        // t+1 disjoint chains within one ball determine the value.
        for k in 0..=t {
            ev.record_chain(committer, true, &[id(&torus, 11, 11 + k as i64)]);
        }
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
    }

    #[test]
    fn level2_centers_reach_the_frontier_distance() {
        // A frontier node sits r+1 from the neighborhood center whose
        // committers it counts; the level-2 scan must find that center.
        let torus = Torus::new(24, 24);
        let t = 1;
        // me at (10, 10); committers clustered in the ball centered at
        // (10, 13) — distance r+1 = 3 from me (r = 2).
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(t, CommitRule::TwoLevel, &table);
        ev.record_direct(id(&torus, 10, 12), true);
        ev.record_direct(id(&torus, 9, 12), true);
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    proptest::prelude::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Theorem 2 safety, adversarially: under any locally-bounded
        /// fault set (at most `t` faults in total, hence at most `t` in
        /// every neighborhood), no stream of model-consistent evidence
        /// ever makes either commit rule fire for the wrong value, and
        /// the two-level rule never wrongly determines an honest
        /// committer.
        ///
        /// Model consistency is the one constraint the radio network
        /// enforces for free (identities are unforgeable, honest relays
        /// only attest what they heard): a `false` report about an
        /// *honest* committer must pass through at least one faulty
        /// relay. Everything else — chain shapes, committer choices,
        /// interleaving with truthful evidence — is adversarial.
        /// Committers are drawn from the frame the store binds, so no
        /// generated chain is refused.
        #[test]
        fn bounded_faults_never_produce_a_wrong_commit(
            t in 1usize..=3,
            fault_pts in proptest::collection::vec((0i64..24, 0i64..24), 0..4),
            truth_pts in proptest::collection::vec((4i64..=16, 4i64..=16), 0..6),
            chain_spec in proptest::collection::vec(
                ((4i64..=16, 4i64..=16), proptest::collection::vec((0i64..24, 0i64..24), 0..4)),
                0..32,
            ),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_ne};

            let torus = Torus::new(24, 24);
            let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
            let at = |&(x, y): &(i64, i64)| torus.id(Coord::new(x, y));
            // At most `t` faults in total, so every neighborhood holds at
            // most `t` of them: the placement is locally bounded by
            // construction.
            let faulty: BTreeSet<NodeId> = fault_pts.iter().take(t).map(at).collect();

            for rule in [CommitRule::TwoLevel, CommitRule::OneLevel] {
                let mut ev = store(t, rule, &table);
                // Truthful background: direct announcements of the true
                // value, which must never help a wrong commit.
                for p in &truth_pts {
                    ev.record_direct(at(p), true);
                    prop_assert_ne!(ev.evaluate(&geo), Some(false));
                }
                for (committer_pt, relay_pts) in &chain_spec {
                    let committer = at(committer_pt);
                    let mut relays: Vec<NodeId> = relay_pts.iter().map(at).collect();
                    if !faulty.contains(&committer)
                        && !relays.iter().any(|r| faulty.contains(r))
                    {
                        // Repair the chain to be model-consistent: route
                        // the fabrication through a faulty relay. With no
                        // faults at all, wrong reports cannot exist.
                        match faulty.iter().next() {
                            Some(&f) => relays.push(f),
                            None => continue,
                        }
                    }
                    ev.record_chain(committer, false, &relays);
                    prop_assert_ne!(
                        ev.evaluate(&geo),
                        Some(false),
                        "wrong commit under {:?} with t={}, faults={:?}",
                        rule, t, faulty
                    );
                }
                if rule == CommitRule::TwoLevel {
                    for (c, v) in ev.determined() {
                        prop_assert!(
                            faulty.contains(c) || *v,
                            "honest committer {:?} wrongly determined under t={}",
                            c, t
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_frame_committer_is_refused() {
        // A forged chain can name a committer far beyond the 3r frame a
        // bound store indexes (no *valid* chain can — 2r from the last
        // relay, which is within r of us — but a liar is not bound by
        // validity). Such a chain is refused: it stores and marks
        // nothing, so the store is exactly the in-frame stream's.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let me = Coord::new(10, 10);
        let geo = Geometry::new(&table, me);
        let t = 1;

        let near = id(&torus, 12, 12); // inside the frame
        let far = id(&torus, 22, 22); // wrap displacement (±12, ±12) > 3r = 6
        let frame = table.local_frame(me, 6);
        assert!(frame.slot_of_id(near).is_some(), "near committer indexed");
        assert!(frame.slot_of_id(far).is_none(), "forged committer outside");

        // An honestly determined in-frame committer, then forged chains
        // about the out-of-frame one (including an exact duplicate).
        let mut bound = store(t, CommitRule::TwoLevel, &table);
        let verdicts = [
            bound.record_chain(near, true, &[id(&torus, 11, 12)]),
            bound.record_chain(near, true, &[id(&torus, 12, 11)]),
            bound.record_chain(far, false, &[id(&torus, 11, 11)]),
            bound.record_chain(far, false, &[id(&torus, 11, 11)]),
            bound.record_chain(far, false, &[id(&torus, 13, 11)]),
        ];
        assert_eq!(verdicts, [true, true, false, false, false], "far refused");

        let mut clean = store(t, CommitRule::TwoLevel, &table);
        clean.record_chain(near, true, &[id(&torus, 11, 12)]);
        clean.record_chain(near, true, &[id(&torus, 12, 11)]);
        assert_eq!(dirty(&bound), dirty(&clean), "far marks nothing");
        assert_eq!(bound.chain_count(), clean.chain_count());
        assert_eq!(bound.digest(), clean.digest());

        // Only the honest in-frame committer is determined, and neither
        // store commits (one determination < t+1).
        assert_eq!(bound.evaluate(&geo), clean.evaluate(&geo));
        assert_eq!(bound.determined(), clean.determined());
        assert_eq!(bound.determined().get(&near), Some(&true));
        assert!(!bound.determined().contains_key(&far));
    }

    #[test]
    fn digest_is_pinned_for_a_fixed_two_level_stream() {
        // Dense slots, a direct observation and one refused committer.
        // The value was computed when chains stored `u64` relays and
        // `digest` folded them as a slice; it must not move with the
        // layout.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        let near = id(&torus, 12, 12);
        let other = id(&torus, 9, 8);
        let far = id(&torus, 22, 22);
        ev.record_direct(other, true);
        ev.record_chain(near, true, &[id(&torus, 11, 12)]);
        ev.record_chain(near, true, &[id(&torus, 12, 11), id(&torus, 11, 11)]);
        ev.record_chain(
            near,
            false,
            &[id(&torus, 13, 11), id(&torus, 12, 10), id(&torus, 11, 10)],
        );
        ev.record_chain(other, true, &[id(&torus, 9, 9)]);
        assert!(!ev.record_chain(far, false, &[id(&torus, 11, 11)]));
        assert!(!ev.record_chain(far, false, &[id(&torus, 13, 11), id(&torus, 11, 9)]));
        assert_eq!(ev.chain_count(), 5);
        assert_eq!(ev.digest(), 0x1514_fda2_84a8_5630);
    }

    /// The fixed one-level stream the digest below is pinned for; every
    /// `record_chain` verdict it produced.
    fn feed_one_level(ev: &mut EvidenceStore, torus: &Torus) -> Vec<bool> {
        let near = id(torus, 12, 12);
        let other = id(torus, 9, 8);
        let far = id(torus, 22, 22);
        vec![
            ev.record_chain(other, true, &[]),
            ev.record_chain(near, true, &[id(torus, 11, 12)]),
            ev.record_chain(near, true, &[id(torus, 12, 11), id(torus, 11, 11)]),
            ev.record_chain(
                near,
                false,
                &[id(torus, 13, 11), id(torus, 12, 10), id(torus, 11, 10)],
            ),
            ev.record_chain(other, true, &[id(torus, 9, 9)]),
            ev.record_chain(other, true, &[id(torus, 9, 9)]),
            ev.record_chain(far, false, &[id(torus, 11, 11)]),
            ev.record_chain(far, false, &[id(torus, 13, 11), id(torus, 11, 9)]),
            ev.record_chain(id(torus, 9, 12), true, &[id(torus, 10, 11)]),
        ]
    }

    #[test]
    fn digest_is_pinned_for_a_fixed_one_level_stream() {
        // Committer-prefixed chains in the two per-value packers: a
        // direct observation, a dominated repeat, a committer no frame
        // would index. The value was computed on the store that carried
        // every rule's fields at once; splitting it by rule must not
        // move it.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let mut ev = store(1, CommitRule::OneLevel, &table);
        let verdicts = feed_one_level(&mut ev, &torus);
        assert_eq!(
            verdicts,
            [true, true, true, true, false, false, true, true, true]
        );
        assert_eq!(ev.chain_count(), 7);
        assert_eq!(ev.digest(), 0xbe46_2d67_474a_25b5);
    }

    #[test]
    fn one_level_store_determines_nobody_and_ignores_bind() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let me = Coord::new(10, 10);
        let geo = Geometry::new(&table, me);
        let mut bound = EvidenceStore::new(1, CommitRule::OneLevel);
        bound.bind(&table, me);
        assert!(
            matches!(bound.state, RuleState::OneLevel { .. }),
            "a one-level store holds no two-level state, bound or not"
        );
        let mut unbound = EvidenceStore::new(1, CommitRule::OneLevel);
        assert_eq!(
            feed_one_level(&mut bound, &torus),
            feed_one_level(&mut unbound, &torus)
        );
        assert_eq!(bound.digest(), unbound.digest());
        assert_eq!(bound.chain_count(), unbound.chain_count());
        assert_eq!(bound.evaluate(&geo), Some(true));
        assert_eq!(unbound.evaluate(&geo), Some(true));
        assert!(bound.determined().is_empty());
        assert!(unbound.determined().is_empty());
    }

    proptest::prelude::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// "Scratch never changes an answer", as a property: a one-level
        /// and a two-level store fed one chain stream and evaluated
        /// alternately — so each query finds the thread's buffers as
        /// the *other* store's query left them — answer, call for call,
        /// what they answer when every packing query gets fresh scratch.
        /// Chains crowd the 5×5 ball around the evaluator so queries
        /// admit, conflict and reach the branch and bound.
        #[test]
        fn shared_scratch_answers_as_fresh_scratch_per_query(
            t in 1usize..=3,
            stream in proptest::collection::vec(
                (
                    (8i64..13, 8i64..13),
                    proptest::collection::vec((8i64..13, 8i64..13), 1..4),
                    0u8..16,
                ),
                1..128,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;

            let torus = Torus::new(24, 24);
            let table = table(&torus);
            let me = Coord::new(10, 10);
            let geo = Geometry::new(&table, me);
            let answers = |fresh: bool| {
                FRESH_SCRATCH_PER_QUERY.set(fresh);
                let mut one = store(t, CommitRule::OneLevel, &table);
                let mut two = store(t, CommitRule::TwoLevel, &table);
                let mut answers = Vec::new();
                for ((cx, cy), relay_pts, flags) in &stream {
                    let committer = id(&torus, *cx, *cy);
                    let mut relays: Vec<NodeId> =
                        relay_pts.iter().map(|&(x, y)| id(&torus, x, y)).collect();
                    // One chain in eight is a direct observation (which
                    // dominates its committer's other chains); seven in
                    // eight report `true`, so chains pile up in one packer.
                    if *flags >= 14 {
                        relays.clear();
                    }
                    let v = flags % 8 != 0;
                    one.record_chain(committer, v, &relays);
                    answers.push(one.evaluate(&geo));
                    two.record_chain(committer, v, &relays);
                    answers.push(two.evaluate(&geo));
                }
                FRESH_SCRATCH_PER_QUERY.set(false);
                (answers, two.determined().clone())
            };
            prop_assert_eq!(answers(false), answers(true));
        }
    }

    #[test]
    fn dirty_list_is_bounded_by_distinct_pairs() {
        // The dirty list must not grow with the chains that arrive
        // between two evaluations: 1 000 new chains about 3 committers
        // (both values) list at most 6 pairs.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let me = Coord::new(10, 10);
        let geo = Geometry::new(&table, me);
        let committers = [id(&torus, 12, 12), id(&torus, 9, 12), id(&torus, 12, 9)];
        // Feeds the chains, evaluating after each one when `each` is set;
        // returns how many were new and the first commit an evaluation
        // returned.
        let feed = |ev: &mut EvidenceStore, each: bool| {
            let (mut new, mut commit) = (0, None);
            for k in 0..1_000u32 {
                // k mod 6 picks the pair; within a pair the two-relay
                // chains are pairwise incomparable, so all of them stick
                let relays = [NodeId(k / 6), NodeId(200 + k / 6)];
                new +=
                    usize::from(ev.record_chain(committers[k as usize % 3], k % 2 == 0, &relays));
                if each {
                    assert!(dirty(ev).len() <= 1, "one chain lists one pair");
                    commit = commit.or(ev.evaluate(&geo));
                }
            }
            (new, commit)
        };
        let mut bound = store(1, CommitRule::TwoLevel, &table);
        assert_eq!(feed(&mut bound, false), (1_000, None));
        assert!(
            dirty(&bound).len() <= 6,
            "{} dirty entries",
            dirty(&bound).len()
        );

        // The marks only dedupe: the refresh answers as a store evaluated
        // after every chain does (its marks never meet a listed pair),
        // and listing starts afresh afterwards.
        let mut reference = store(1, CommitRule::TwoLevel, &table);
        let (new, commit) = feed(&mut reference, true);
        assert_eq!(new, 1_000);
        assert_eq!(bound.evaluate(&geo), commit);
        assert_eq!(bound.determined(), reference.determined());
        assert!(dirty(&bound).is_empty());
        assert!(bound.record_chain(committers[0], true, &[NodeId(500)]));
        assert_eq!(dirty(&bound), [(committers[0], true)]);
    }

    #[test]
    fn first_determination_wins_per_committer() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = store(0, CommitRule::TwoLevel, &table);
        let committer = id(&torus, 12, 12);
        ev.record_chain(committer, true, &[id(&torus, 11, 12)]);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
        // later contradictory evidence cannot flip it
        ev.record_chain(committer, false, &[id(&torus, 12, 11)]);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
    }

    #[test]
    fn retire_keeps_a_direct_observation_and_the_shorter_chains() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let (a, b, far) = (id(&torus, 12, 12), id(&torus, 9, 8), id(&torus, 22, 22));
        let relay = |x| id(&torus, 11, x);
        let mut ev = store(1, CommitRule::TwoLevel, &table);
        ev.record_direct(a, true);
        ev.record_chain(a, false, &[relay(8)]);
        ev.record_chain(b, true, &[relay(9)]);
        ev.record_chain(b, true, &[relay(10), relay(11), relay(12)]);
        assert!(!ev.record_chain(far, true, &[relay(9)]), "far is refused");
        assert!(!ev.record_chain(far, true, &[relay(10), relay(11), relay(12)]));
        assert_eq!(ev.chain_count(), 4);
        ev.retire(3);
        // a's direct observation, and the one-relay chain about b
        assert_eq!(ev.chain_count(), 2);
        assert!(ev.determined().is_empty() && dirty(&ev).is_empty());
        assert!(!ev.record_chain(a, false, &[relay(13)]), "a is settled");
        assert!(ev.record_chain(b, true, &[relay(10), relay(11)]));
        assert!(dirty(&ev).is_empty(), "a retired store lists nothing");
        // A late direct observation settles its committer.
        ev.record_direct(b, true);
        assert!(!ev.record_chain(b, true, &[relay(13)]));
        ev.record_direct(far, true);
        assert!(!ev.record_chain(far, true, &[relay(13)]), "far is refused");
        assert_eq!(ev.chain_count(), 2, "two direct observations");

        let mut one = store(1, CommitRule::OneLevel, &table);
        one.record_chain(a, true, &[relay(9)]);
        one.retire(1);
        assert_eq!(one.chain_count(), 0);
        assert!(!one.record_chain(a, true, &[]), "nothing is recorded again");
    }

    proptest::prelude::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A retired store gives the answers the protocol can still ask
        /// for, as a store that was never retired gives them. Two stores
        /// take one stream of chains, with committers and relays drawn
        /// from a few ids (two committers double as relays, so one-level
        /// keys of different committers overlap). One store is retired at
        /// a random point, the commit. After it, the protocol drops a
        /// chain with `max_relays` relays on arrival and forwards only a
        /// chain about a committer not yet heard directly. So only the
        /// verdicts on those forwardable chains must agree. As in the
        /// protocol, each committer is recorded directly at most once,
        /// and the stores are bound as the protocol binds them.
        #[test]
        fn retire_keeps_every_verdict_a_committed_node_reads(
            stream in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(0usize..5, 3), 0u8..32),
                1..96,
            ),
            commit_at in 0usize..96,
        ) {
            use proptest::prelude::prop_assert_eq;

            let torus = Torus::new(24, 24);
            let table = table(&torus);
            let committers =
                [(12, 12), (9, 8), (11, 10), (14, 6)].map(|(x, y)| id(&torus, x, y));
            let pool = [committers[1], committers[2], id(&torus, 10, 11), id(&torus, 11, 11), id(&torus, 9, 10)];
            for rule in [CommitRule::TwoLevel, CommitRule::OneLevel] {
                for max_relays in [1, 3] {
                    let mut kept = store(1, rule, &table);
                    let mut retired = store(1, rule, &table);
                    let mut heard = BTreeSet::new();
                    for (i, (c, picks, shape)) in stream.iter().enumerate() {
                        let committed = i >= commit_at % (stream.len() + 1);
                        if i == commit_at % (stream.len() + 1) {
                            retired.retire(max_relays);
                        }
                        let committer = committers[*c];
                        let v = shape % 5 != 0;
                        let len = if shape % 16 == 0 { 0 } else { 1 + usize::from(shape % 3) };
                        let mut relays = Vec::new();
                        for &k in picks {
                            if pool[k] != committer && !relays.contains(&pool[k]) {
                                relays.push(pool[k]);
                            }
                        }
                        relays.truncate(len.min(max_relays));
                        if relays.is_empty() && !heard.insert(committer) {
                            continue;
                        }
                        if committed && relays.len() >= max_relays {
                            continue;
                        }
                        let settled = heard.contains(&committer);
                        let before = kept.record_chain(committer, v, &relays);
                        let after = retired.record_chain(committer, v, &relays);
                        if committed && !settled {
                            prop_assert_eq!(
                                before, after,
                                "{:?} max_relays={} chain #{} {:?}",
                                rule, max_relays, i, relays
                            );
                        }
                    }
                }
            }
        }
    }
}
