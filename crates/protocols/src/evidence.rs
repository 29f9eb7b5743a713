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
//!
//! Evidence is receiver-local. A chain is evidence only if it fits in one
//! radius-`r` ball with its last relay, the receiver's neighbour, so every
//! member lies within L∞ `3r` of the receiver. The store therefore names
//! a member by its [`LocalFrame::key`] — its displacement from the
//! receiver in a `u16` — and a stored chain is 8 bytes whatever the size
//! of the network; ids come back only where a digest reads them.

use rbcast_flow::{ChainPacker, PackScratch, MAX_CHAIN_KEYS};
use rbcast_grid::{ArenaError, Coord, LocalFrame, NeighborTable, NodeId};
use rbcast_sim::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;

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

/// The evidence frame of the node at `me`: span `3r`, the reach of every
/// chain the node can use. A chain is evidence only if it fits inside
/// one radius-`r` ball, and its last relay is the receiver's neighbour,
/// so every member lies within L∞ distance `3r` of the receiver (at most
/// `2r` from the last relay, which itself is within `r`).
///
/// # Panics
///
/// Past r = 31, where a key cannot reach every relay that can count
/// ([`EvidenceStore::check_radius`], which a host's run guard calls
/// first).
fn evidence_frame(arena: &NeighborTable, me: Coord) -> LocalFrame {
    let r = arena.radius();
    assert!(
        EvidenceStore::check_radius(r).is_ok(),
        "r = {r}: a key cannot reach every relay that can count"
    );
    // audit:allow(checked-threshold-arith): a frame span, r ≤ 31 by the assert above
    arena.local_frame(me, 3 * r)
}

/// Accumulated report-chain evidence and rule evaluation for one node.
///
/// A store holds only what its rule reads, keyed in the evidence frame
/// of its node, which the first recorded chain sets. The one-level
/// rule's two packers and frame sit behind one box made at that chain,
/// so a node the wave has not reached holds none; the two-level rule's
/// store sits behind one allocation made in [`EvidenceStore::new`], and
/// grows one record per (committer, value) pair that holds a chain —
/// by what it holds, not by its frame. Once its node commits,
/// `EvidenceStore::retire` cuts it down to what the relay rule still
/// reads, and under the simplified protocol drops the box.
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
/// // two committers in one neighborhood heard directly: t+1 = 2 → commit
/// ev.record_direct(&table, torus.id(me), Coord::new(9, 9), true);
/// ev.record_direct(&table, torus.id(me), Coord::new(11, 9), true);
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
    /// Boxed at the first recorded chain.
    OneLevel(Option<Box<OneLevel>>),
    TwoLevel(Box<TwoLevel>),
    /// A committed node that can no longer forward any chain (at most
    /// one relay per report): nothing it records would ever be read.
    Retired,
}

/// One-level evidence.
#[derive(Debug)]
struct OneLevel {
    /// The frame the keys are relative to.
    frame: LocalFrame,
    /// Per-value chains with the committer prefixed — already dense:
    /// two packers, no keying at all.
    combined: [ChainPacker; 2],
    /// Set when a commit re-evaluation is warranted.
    commit_dirty: bool,
}

/// Two-level evidence: one record per `(committer, value)` pair that
/// holds a chain.
#[derive(Debug, Default)]
struct TwoLevel {
    /// The evidence frame (span `3r`): a committer outside it is
    /// refused, and chain members are keyed relative to its center. Set
    /// by the first chain; a store without one holds nothing.
    frame: Option<LocalFrame>,
    /// The records, sorted by [`Pair::key`]: a committer's two records
    /// sit side by side, `false` first, and committers in frame slot
    /// order.
    pairs: Vec<Pair>,
    /// Set when a record turned dirty since the last evaluation.
    stale: bool,
    /// Set by [`EvidenceStore::retire`]: no record is dirty or
    /// determined again, and a committer heard directly keeps nothing
    /// but that observation.
    retired: bool,
}

/// One `(committer, value)` pair of a two-level store.
#[derive(Debug)]
struct Pair {
    /// `2·key + value`, the committer named by its [`LocalFrame::key`].
    /// Keys and frame slots are both row-major in `(dy, dx)`, so key
    /// order is slot order.
    key: u32,
    chains: ChainPacker,
    /// It gained a chain since the last evaluation, while its committer
    /// was undetermined.
    dirty: bool,
    /// The pair's chains determined its committer (first value wins).
    determined: bool,
}

impl Pair {
    fn committer(&self) -> u32 {
        self.key >> 1
    }

    /// The committer's displacement from the receiver.
    fn offset(&self) -> Coord {
        LocalFrame::key_offset(self.committer() as u16)
    }

    fn value(&self) -> Value {
        self.key & 1 == 1
    }
}

/// The evaluation buffers of one thread, instead of one set per node: an
/// evaluation takes them out and puts them back, and scratch never
/// changes an answer (see [`PackScratch`]), so which node's queries grew
/// them is unobservable.
#[derive(Debug, Default)]
struct Scratch {
    /// The packing queries' buffers.
    pack: PackScratch,
    /// Per packer of a scan, the chains each candidate center admits, one
    /// block of [`CenterBox::cells`] counts a packer.
    admitted: Vec<u32>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();

    /// Tests only: hand every packing query fresh scratch — the
    /// reference the shared buffers are checked against.
    #[cfg(test)]
    static FRESH_SCRATCH_PER_QUERY: Cell<bool> = const { Cell::new(false) };

    /// Tests only: ask a packer at every candidate center, whatever it
    /// admits — the scan the admission filter is checked against.
    #[cfg(test)]
    static SCAN_EVERY_CENTER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's scratch. Moved out, not borrowed: nothing
/// is held while `f` runs, and a nested call would find empty buffers.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let out = f(&mut scratch);
    SCRATCH.set(scratch);
    out
}

/// Does `packer` hold `need` pairwise disjoint chains inside the ball
/// around `center`? A chain is admitted by its keys' offsets in `frame`,
/// with no id → coordinate division.
fn packs_within(
    packer: &ChainPacker,
    scratch: &mut PackScratch,
    geo: &Geometry<'_>,
    frame: &LocalFrame,
    center: Coord,
    need: u32,
) -> bool {
    #[cfg(test)]
    if FRESH_SCRATCH_PER_QUERY.get() {
        *scratch = PackScratch::default();
    }
    // Offsets from the receiver, wrapped once more to offsets from the
    // center: what `Torus::within` computes, without canonicalizing.
    let (torus, r, metric) = (geo.arena.torus(), geo.arena.radius(), geo.arena.metric());
    let center = frame.offset_of(center);
    let admit = |k: u64| {
        let d = torus.wrap(LocalFrame::key_offset(k as u16) - center);
        metric.within(Coord::ORIGIN, d, r)
    };
    packer.max_disjoint_reusing(scratch, admit, need) >= need
}

/// The candidate centers of one scan — the ball of radius `d` around the
/// node at offset `around` from the receiver — as cells of the square of
/// side `2d + 1` that holds them, row-major.
///
/// A chain fits the radius-`r` ball around a center only if each of its
/// keys lies within `r` of the center along each axis, the torus wrap
/// included. Under L∞ that is the ball itself: the test is separable, so
/// the centers a chain's keys admit are the product of the columns and
/// the rows they admit. Under L2 the ball lies inside that box, so the
/// product is a superset. Either way a center that admits fewer than
/// `need` chains cannot pack `need` of them, and its packing query is
/// a "no" known before it starts.
struct CenterBox {
    around: Coord,
    d: i64,
    r: i64,
    /// The torus's width and height.
    dims: Coord,
    /// `2d + 1`, at most 65 (`d ≤ r + 1`, r ≤ 31).
    side: usize,
    /// Every column (or row) of the square.
    all: u128,
}

impl CenterBox {
    fn new(geo: &Geometry<'_>, around: Coord, d: u32) -> CenterBox {
        let torus = geo.arena.torus();
        let side = 2 * u64::from(d) + 1;
        CenterBox {
            around,
            d: i64::from(d),
            r: i64::from(geo.arena.radius()),
            dims: Coord::new(i64::from(torus.width()), i64::from(torus.height())),
            side: side as usize,
            all: u128::MAX >> (128 - side),
        }
    }

    fn cells(&self) -> usize {
        // audit:allow(checked-threshold-arith): at most 65², side ≤ 65
        self.side * self.side
    }

    /// The cell of the center at offset `off` from `around`.
    fn cell(&self, off: Coord) -> usize {
        // audit:allow(checked-threshold-arith): a cell, below side² ≤ 65²
        (off.y + self.d) as usize * self.side + (off.x + self.d) as usize
    }

    /// The columns (or rows) `j` of the square whose centers lie within
    /// `r` of a key along one axis of length `dim`: `|wrap(k − c)| ≤ r`
    /// for `c = around − d + j`, `k` and `around` both offsets from the
    /// receiver along that axis. The `r`-run around the key, repeated
    /// every `dim`: since `|k − around| < dim` and `d ≤ r + 1`, one
    /// compare-and-add puts the key in `[0, dim)` from the square's
    /// first column, and the runs at `−dim`, `0` and `+dim` from there
    /// are all that can reach the square's `2d + 1 ≤ 2r + 3` columns.
    fn axis(&self, k: i64, around: i64, dim: i64) -> u128 {
        if 2 * self.r + 1 >= dim {
            // Every residue has a representative within `r`.
            return self.all;
        }
        let mut e = k - (around - self.d);
        if e < 0 {
            e += dim;
        } else if e >= dim {
            e -= dim;
        }
        debug_assert!((0..dim).contains(&e), "{k} is no offset near {around}");
        let run = (1u128 << (2 * self.r + 1)) - 1;
        let at = |start: i64| match u32::try_from(start) {
            Ok(s) => run.checked_shl(s).unwrap_or(0),
            Err(_) => u32::try_from(-start).map_or(0, |s| run.checked_shr(s).unwrap_or(0)),
        };
        let start = e - self.r;
        (at(start - dim) | at(start) | at(start + dim)) & self.all
    }

    /// Fills `counts`, one per cell, with the number of `packer`'s chains
    /// whose keys the cell's box admits (a direct observation, keyless,
    /// everywhere): at least the chains its ball admits, so at least
    /// what a packing query there can answer.
    fn count(&self, packer: &ChainPacker, counts: &mut [u32]) {
        counts.fill(0);
        for chain in packer.iter() {
            let (mut cols, mut rows) = (self.all, self.all);
            for &k in chain.relays() {
                let k = LocalFrame::key_offset(k);
                cols &= self.axis(k.x, self.around.x, self.dims.x);
                rows &= self.axis(k.y, self.around.y, self.dims.y);
            }
            for y in ones(rows) {
                // audit:allow(checked-threshold-arith): a row's first cell, below side² ≤ 65²
                let row = &mut counts[y * self.side..][..self.side];
                for x in ones(cols) {
                    row[x] += 1;
                }
            }
        }
    }
}

/// The positions of the set bits of `set`, lowest first.
fn ones(mut set: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let at = set.trailing_zeros() as usize;
        set &= set.wrapping_sub(1);
        (at < 128).then_some(at)
    })
}

/// The first candidate center of `bx`, in stencil order, and at it the
/// first of `packers`, whose ball holds `need` pairwise disjoint chains:
/// that packer's index. A packer is asked only at a center whose box
/// admits `need` of its chains ([`CenterBox`]), so the answer is the
/// one asking it everywhere gives, with the same queries where it
/// packs; under `debug-invariants` that scan runs too and must agree.
fn first_packing(
    geo: &Geometry<'_>,
    frame: &LocalFrame,
    bx: &CenterBox,
    packers: &[&ChainPacker],
    need: u32,
    scratch: &mut Scratch,
) -> Option<usize> {
    let Scratch { pack, admitted } = scratch;
    let cells = bx.cells();
    // audit:allow(checked-threshold-arith): at most two packers of 65² cells
    admitted.resize(packers.len() * cells, 0);
    for (counts, packer) in admitted.chunks_exact_mut(cells).zip(packers) {
        bx.count(packer, counts);
    }
    // The reference: every center, every packer holding `need` chains.
    #[cfg(any(test, feature = "debug-invariants"))]
    let holds = |_: usize, i: usize| packers[i].len() >= need as usize;
    #[cfg(test)]
    if SCAN_EVERY_CENTER.get() {
        return scan(geo, frame, bx, packers, need, pack, holds);
    }
    // audit:allow(checked-threshold-arith): a packer's cell, as above
    let fits = |cell: usize, i: usize| admitted[i * cells + cell] >= need;
    let found = scan(geo, frame, bx, packers, need, pack, fits);
    #[cfg(feature = "debug-invariants")]
    assert_eq!(
        found,
        scan(geo, frame, bx, packers, need, pack, holds),
        "the admission filter changed a verdict"
    );
    found
}

/// [`first_packing`]'s scan, asking a packer at a center only where
/// `worth(cell, i)` for the center's cell and the packer's index.
fn scan(
    geo: &Geometry<'_>,
    frame: &LocalFrame,
    bx: &CenterBox,
    packers: &[&ChainPacker],
    need: u32,
    pack: &mut PackScratch,
    worth: impl Fn(usize, usize) -> bool,
) -> Option<usize> {
    let torus = geo.arena.torus();
    let around = frame.coord_at(bx.around);
    geo.arena.ball_offsets(bx.d as u32).iter().find_map(|&off| {
        let cell = bx.cell(off);
        let center = torus.canonical(around + off);
        (0..packers.len())
            .find(|&i| worth(cell, i) && packs_within(packers[i], pack, geo, frame, center, need))
    })
}

/// Inline key buffer for packer insertions: an optional committer
/// prefix followed by the relay keys, no heap.
struct KeyBuf {
    buf: [u64; MAX_CHAIN_KEYS],
    len: usize,
}

impl KeyBuf {
    /// Packs the keys of `prefix` (if any) followed by those of `relays`,
    /// all given as offsets from the receiver; or `None` when the
    /// combined chain exceeds [`MAX_CHAIN_KEYS`] — such a chain could
    /// never enter a packer anyway (`ChainPacker::insert` rejects
    /// over-length chains) — or a member lies beyond a key's reach,
    /// where no chain the node can use has one.
    fn pack(prefix: Option<Coord>, relays: &[Coord]) -> Option<KeyBuf> {
        if relays.len() + usize::from(prefix.is_some()) > MAX_CHAIN_KEYS {
            return None;
        }
        let mut buf = [0u64; MAX_CHAIN_KEYS];
        let mut len = 0;
        for &d in prefix.iter().chain(relays) {
            buf[len] = u64::from(LocalFrame::key(d)?);
            len += 1;
        }
        Some(KeyBuf { buf, len })
    }

    fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len]
    }
}

/// Folds `packer` into `hash` under `key`, its chains' keys mapped back
/// to ids through `frame` — the words the id-keyed store folded. Empty
/// packers contribute nothing.
fn fold_packer(hash: &mut u64, key: u64, packer: &ChainPacker, frame: &LocalFrame) {
    use rbcast_sim::trace::fold_words;
    if packer.is_empty() {
        return;
    }
    fold_words(hash, &[key, u64::from(packer.has_direct())]);
    for c in packer.iter() {
        fold_words(hash, &[c.relays().len() as u64]);
        for &k in c.relays() {
            let id = frame.id_at(LocalFrame::key_offset(k));
            fold_words(hash, &[u64::from(id.0)]);
        }
    }
}

impl EvidenceStore {
    /// Creates an empty store for fault budget `t` under `rule`.
    #[must_use]
    pub fn new(t: usize, rule: CommitRule) -> Self {
        let state = match rule {
            CommitRule::OneLevel => RuleState::OneLevel(None),
            CommitRule::TwoLevel => RuleState::TwoLevel(Box::default()),
        };
        EvidenceStore { t, state }
    }

    /// Refuses a radius past a key's reach. Level 2 counts a committer
    /// only inside a radius-`r` ball around a center within `r + 1` of
    /// the receiver, so within `2r + 1` of it, and level 1 counts a
    /// relay only inside a radius-`r` ball holding its committer, so
    /// within `2r` of that: every relay that can count lies within
    /// `4r + 1` of the receiver, which a [`LocalFrame::key`] reaches
    /// ([`LocalFrame::MAX_SPAN`] = 127) up to r = 31.
    ///
    /// # Errors
    ///
    /// [`ArenaError::FrameTooWide`] past r = 31.
    pub fn check_radius(r: u32) -> Result<(), ArenaError> {
        LocalFrame::check_span(r, r.saturating_mul(4).saturating_add(1))
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
    ///   this call cuts its committer down the same way. The dirty and
    ///   determined bits are the commit rule's and go, and so does a
    ///   record left without chains.
    /// * One-level keys carry the committer, so a stored chain about one
    ///   committer can dominate a report about another: the rest stays.
    pub(crate) fn retire(&mut self, max_relays: usize) {
        if max_relays <= 1 {
            self.state = RuleState::Retired;
            return;
        }
        match &mut self.state {
            RuleState::TwoLevel(two) => two.retire(max_relays),
            RuleState::OneLevel(one) => {
                for packer in one.iter_mut().flat_map(|one| &mut one.combined) {
                    packer.retain_shorter_than(max_relays + 1);
                }
            }
            RuleState::Retired => {}
        }
    }

    /// Records, as the node `me` on `arena`, that the committer at
    /// `committer` was heard announcing `v` directly: the empty chain.
    pub fn record_direct(
        &mut self,
        arena: &NeighborTable,
        me: NodeId,
        committer: Coord,
        v: Value,
    ) -> bool {
        self.record_chain(arena, me, committer, v, &[])
    }

    /// Records, as the node `me` on `arena`, a report chain about the
    /// committer at `committer` through the relays at `relays`
    /// (committer-side first, excluding the committer and the receiving
    /// node; all canonical coordinates). Returns `true` if the chain was
    /// new and undominated (dominated chains can never matter — see
    /// `ChainPacker::insert`).
    ///
    /// The first chain sets the store's frame, the evidence frame of `me`
    /// (span `3r`); every later call must name the same `me`. A member is
    /// stored as its [`LocalFrame::key`], its displacement from `me`, so
    /// recording divides no id. Refused, storing and marking nothing:
    /// under the two-level rule a chain whose committer the frame does
    /// not index, a chain with a member past a key's reach, and every
    /// chain once a committed node's store holds nothing
    /// (`EvidenceStore::retire`).
    ///
    /// # Panics
    ///
    /// At the first chain, past r = 31 ([`EvidenceStore::check_radius`]).
    pub fn record_chain(
        &mut self,
        arena: &NeighborTable,
        me: NodeId,
        committer: Coord,
        v: Value,
        relays: &[Coord],
    ) -> bool {
        let Some(frame) = self.frame_at(arena, me) else {
            return false;
        };
        if relays.len() > MAX_CHAIN_KEYS {
            return false;
        }
        let mut at = [Coord::ORIGIN; MAX_CHAIN_KEYS];
        for (d, &c) in at.iter_mut().zip(relays) {
            *d = frame.offset_of(c);
        }
        let committer = frame.offset_of(committer);
        self.record(committer, v, &at[..relays.len()])
    }

    /// The frame of the node `me` on `arena`, set from them at the
    /// store's first chain — or `None` for a store that records nothing
    /// again.
    fn frame_at(&mut self, arena: &NeighborTable, me: NodeId) -> Option<&LocalFrame> {
        let frame = || evidence_frame(arena, arena.torus().coord(me));
        let frame = match &mut self.state {
            RuleState::TwoLevel(two) => two.frame.get_or_insert_with(frame),
            RuleState::OneLevel(one) => &one.get_or_insert_with(|| OneLevel::boxed(frame())).frame,
            RuleState::Retired => return None,
        };
        debug_assert_eq!(frame.id_at(Coord::ORIGIN), me, "one store serves one node");
        Some(frame)
    }

    /// Records a chain, its members given as offsets from the frame's
    /// center, into a store with a frame.
    fn record(&mut self, committer: Coord, v: Value, relays: &[Coord]) -> bool {
        match &mut self.state {
            RuleState::TwoLevel(two) => two.record_chain(committer, v, relays),
            RuleState::OneLevel(Some(one)) => {
                let Some(keys) = KeyBuf::pack(Some(committer), relays) else {
                    return false;
                };
                let new = one.combined[usize::from(v)].insert(keys.as_slice());
                one.commit_dirty |= new;
                new
            }
            RuleState::OneLevel(None) | RuleState::Retired => false,
        }
    }

    /// Committers reliably determined so far (two-level rule, until
    /// `EvidenceStore::retire`; always empty under the one-level rule),
    /// collected from the store's records on each call.
    #[must_use]
    pub fn determined(&self) -> BTreeMap<NodeId, Value> {
        match &self.state {
            RuleState::TwoLevel(two) => {
                let Some(frame) = &two.frame else {
                    return BTreeMap::new();
                };
                let determined = two.pairs.iter().filter(|p| p.determined);
                determined
                    .map(|p| (frame.id_at(p.offset()), p.value()))
                    .collect()
            }
            RuleState::OneLevel(_) | RuleState::Retired => BTreeMap::new(),
        }
    }

    /// Total stored (undominated) chains across all committers and
    /// values.
    #[must_use]
    pub(crate) fn chain_count(&self) -> usize {
        match &self.state {
            RuleState::TwoLevel(two) => two.pairs.iter().map(|p| p.chains.len()).sum(),
            RuleState::OneLevel(one) => one
                .iter()
                .flat_map(|one| &one.combined)
                .map(ChainPacker::len)
                .sum(),
            RuleState::Retired => 0,
        }
    }

    /// Deterministic FNV-1a fingerprint of every stored chain — traced
    /// alongside the chain count when a commit fires, so two runs can
    /// be compared on *what* evidence produced each decision, not just
    /// how much. Folds each packer under its pair index `2·slot + value`
    /// (two-level, in frame slot order, which is key order) or its value
    /// (one-level), its keys mapped back to node ids: the digest the
    /// id-keyed store gave, independent of how evidence is keyed or how
    /// many pairs the frame could hold.
    #[must_use]
    pub(crate) fn digest(&self) -> u64 {
        let mut hash = rbcast_sim::trace::FNV_OFFSET;
        match &self.state {
            RuleState::TwoLevel(two) => {
                if let Some(frame) = &two.frame {
                    for p in &two.pairs {
                        let slot = frame.slot_of_offset(p.offset());
                        let slot = slot.expect("a stored committer lies in the frame");
                        let i = 2 * slot as u64 + u64::from(p.value());
                        fold_packer(&mut hash, i, &p.chains, frame);
                    }
                }
            }
            RuleState::OneLevel(Some(one)) => {
                for (v, packer) in one.combined.iter().enumerate() {
                    fold_packer(&mut hash, v as u64, packer, &one.frame);
                }
            }
            RuleState::OneLevel(None) | RuleState::Retired => {}
        }
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
            RuleState::OneLevel(one) => {
                let one = one.as_deref_mut()?;
                if !std::mem::take(&mut one.commit_dirty) {
                    return None;
                }
                // Centers within `r + 1` of the receiver, `true` before
                // `false` at each.
                let bx = CenterBox::new(geo, Coord::ORIGIN, geo.arena.radius() + 1);
                let [no, yes] = &one.combined;
                let found = with_scratch(|scratch| {
                    first_packing(geo, &one.frame, &bx, &[yes, no], need, scratch)
                });
                found.map(|i| i == 0)
            }
            RuleState::Retired => None,
        }
    }
}

impl OneLevel {
    fn boxed(frame: LocalFrame) -> Box<OneLevel> {
        Box::new(OneLevel {
            frame,
            combined: Default::default(),
            commit_dirty: false,
        })
    }
}

/// The positions in `pairs`, sorted by [`Pair::key`], of the records of
/// the committer keyed `c`: at most two, side by side. The search walks
/// from `near`, a position close to them, through neighbouring records —
/// memory the prefetcher streams, where halving misses a line a step —
/// and halves only past 32 steps.
fn of_committer(pairs: &[Pair], c: u32, near: usize) -> Range<usize> {
    let (mut at, mut steps) = (near.min(pairs.len()), 0);
    while steps < 32 && at > 0 && pairs[at - 1].committer() >= c {
        (at, steps) = (at - 1, steps + 1);
    }
    while steps < 32 && at < pairs.len() && pairs[at].committer() < c {
        (at, steps) = (at + 1, steps + 1);
    }
    if steps == 32 {
        at = pairs.partition_point(|p| p.committer() < c);
    }
    let held = pairs[at..]
        .iter()
        .take(2)
        .take_while(|p| p.committer() == c);
    at..at + held.count()
}

impl TwoLevel {
    fn record_chain(&mut self, committer: Coord, v: Value, relays: &[Coord]) -> bool {
        let frame = self
            .frame
            .as_ref()
            .expect("a store records only once its frame is set");
        let Some(keys) = KeyBuf::pack(None, relays) else {
            return false;
        };
        // A committer in the frame is within `3r` ≤ 93 of the receiver,
        // so within a key's reach.
        let Some((slot, c)) = frame
            .slot_of_offset(committer)
            .zip(LocalFrame::key(committer))
        else {
            return false;
        };
        let c = u32::from(c);
        // audit:allow(checked-threshold-arith): a pair key, at most 2·0xFEFE + 1
        let key = 2 * c + u32::from(v);
        // Key order is slot order, so records spread evenly over the
        // frame would put the committer's at `near`.
        // audit:allow(checked-threshold-arith): at most 2·slots² < 2³², r ≤ 31
        let near = self.pairs.len() * slot / frame.slots();
        let mine = of_committer(&self.pairs, c, near);
        let records = &self.pairs[mine.clone()];
        if self.retired && records.iter().any(|p| p.chains.has_direct()) {
            return false;
        }
        let settled = records.iter().any(|p| p.determined);
        let i = mine.start + records.iter().take_while(|p| p.key < key).count();
        let new = match self.pairs.get_mut(i).filter(|p| p.key == key) {
            Some(p) => p.chains.insert(keys.as_slice()),
            None => {
                // A pair opens at its first stored chain.
                let mut chains = ChainPacker::new();
                let new = chains.insert(keys.as_slice());
                if new {
                    let pair = Pair {
                        key,
                        chains,
                        dirty: false,
                        determined: false,
                    };
                    self.pairs.insert(i, pair);
                }
                new
            }
        };
        if self.retired {
            if relays.is_empty() {
                let mine = of_committer(&self.pairs, c, i);
                for p in &mut self.pairs[mine] {
                    p.chains.retain_shorter_than(1);
                }
            }
        } else if new && !settled {
            self.pairs[i].dirty = true;
            self.stale = true;
        }
        new
    }

    /// See [`EvidenceStore::retire`]. A record left without chains goes.
    fn retire(&mut self, max_relays: usize) {
        let same = |a: &Pair, b: &Pair| a.committer() == b.committer();
        for records in self.pairs.chunk_by_mut(same) {
            let direct = records.iter().any(|p| p.chains.has_direct());
            let keep = if direct { 1 } else { max_relays };
            for p in records {
                p.chains.retain_shorter_than(keep);
                (p.dirty, p.determined) = (false, false);
            }
        }
        self.pairs.retain(|p| !p.chains.is_empty());
        self.stale = false;
        self.retired = true;
    }

    fn evaluate(&mut self, geo: &Geometry<'_>, need: u32) -> Option<Value> {
        // Level 1: refresh determinations for dirty (committer, value)
        // pairs. A pair failing now is marked dirty again by its next
        // new chain. Records are walked in key order: committers in slot
        // order, `false` before `true` within one, so first-value-wins
        // ties resolve as an ordered `(committer, value)` drain does.
        if !std::mem::take(&mut self.stale) {
            return None;
        }
        let TwoLevel { frame, pairs, .. } = self;
        let frame = frame
            .as_ref()
            .expect("a dirty pair was recorded in the frame");
        let mut newly = false;
        with_scratch(|scratch| {
            for i in 0..pairs.len() {
                if !std::mem::take(&mut pairs[i].dirty) {
                    continue;
                }
                let mine = of_committer(pairs, pairs[i].committer(), i);
                if pairs[mine].iter().any(|p| p.determined) {
                    continue;
                }
                if is_determined(geo, scratch, need, frame, &pairs[i]) {
                    pairs[i].determined = true;
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
        for center in geo.centers_within(geo.me, geo.arena.radius() + 1) {
            let mut counts = [0u32; 2];
            for p in pairs.iter().filter(|p| p.determined) {
                if geo.covers(center, frame.coord_at(p.offset())) {
                    counts[usize::from(p.value())] += 1;
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
}

/// Level-1 determination: direct observation, or `need = t+1` disjoint
/// chains inside a single neighborhood covering the committer.
fn is_determined(
    geo: &Geometry<'_>,
    scratch: &mut Scratch,
    need: u32,
    frame: &LocalFrame,
    pair: &Pair,
) -> bool {
    let chains = &pair.chains;
    if chains.has_direct() {
        return true;
    }
    if chains.len() < need as usize {
        return false;
    }
    let bx = CenterBox::new(geo, pair.offset(), geo.arena.radius());
    first_packing(geo, frame, &bx, &[chains], need, scratch).is_some()
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

    /// [`EvidenceStore::record_chain`] as the node at `me`, members named
    /// by id.
    fn record_as(
        ev: &mut EvidenceStore,
        table: &NeighborTable,
        me: Coord,
        committer: NodeId,
        v: Value,
        relays: &[NodeId],
    ) -> bool {
        let torus = table.torus();
        let relays: Vec<Coord> = relays.iter().map(|&k| torus.coord(k)).collect();
        ev.record_chain(table, torus.id(me), torus.coord(committer), v, &relays)
    }

    /// [`EvidenceStore::record_chain`] as the node at (10, 10), the
    /// evaluator of every test unless it says otherwise.
    fn record(
        ev: &mut EvidenceStore,
        table: &NeighborTable,
        committer: NodeId,
        v: Value,
        relays: &[NodeId],
    ) -> bool {
        record_as(ev, table, Coord::new(10, 10), committer, v, relays)
    }

    /// [`EvidenceStore::record_direct`] as the node at (10, 10).
    fn direct(ev: &mut EvidenceStore, table: &NeighborTable, committer: NodeId, v: Value) -> bool {
        let torus = table.torus();
        ev.record_direct(
            table,
            torus.id(Coord::new(10, 10)),
            torus.coord(committer),
            v,
        )
    }

    /// A two-level store's pairs pending a level-1 refresh, in key order.
    fn dirty(ev: &EvidenceStore) -> Vec<(NodeId, Value)> {
        let RuleState::TwoLevel(two) = &ev.state else {
            panic!("only a two-level store marks pairs dirty")
        };
        let Some(frame) = &two.frame else {
            return Vec::new();
        };
        let dirty = two.pairs.iter().filter(|p| p.dirty);
        dirty
            .map(|p| (frame.id_at(p.offset()), p.value()))
            .collect()
    }

    #[test]
    fn direct_observations_determine_immediately() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(2, CommitRule::TwoLevel);
        direct(&mut ev, &table, id(&torus, 9, 9), true);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().len(), 1);
    }

    #[test]
    fn two_level_commits_on_t_plus_1_determined_neighbors() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 2;
        let mut ev = EvidenceStore::new(t, CommitRule::TwoLevel);
        // three committers inside one neighborhood of `me`, all heard
        // directly
        for x in 0..3 {
            direct(&mut ev, &table, id(&torus, 9 + x, 9), true);
        }
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    #[test]
    fn two_level_needs_strictly_more_than_t() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(2, CommitRule::TwoLevel);
        direct(&mut ev, &table, id(&torus, 9, 9), true);
        direct(&mut ev, &table, id(&torus, 10, 9), true);
        assert_eq!(ev.evaluate(&geo), None);
    }

    #[test]
    fn determination_via_disjoint_chains() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 1;
        let mut ev = EvidenceStore::new(t, CommitRule::TwoLevel);
        let committer = id(&torus, 12, 12); // not a direct neighbor of me
                                            // two disjoint chains through distinct relays near the committer
        record(&mut ev, &table, committer, true, &[id(&torus, 11, 12)]);
        record(&mut ev, &table, committer, true, &[id(&torus, 12, 11)]);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
    }

    #[test]
    fn conflicting_chains_do_not_determine() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        let committer = id(&torus, 12, 12);
        let shared_relay = id(&torus, 11, 12);
        record(&mut ev, &table, committer, true, &[shared_relay]);
        record(
            &mut ev,
            &table,
            committer,
            true,
            &[shared_relay, id(&torus, 11, 11)],
        );
        let _ = ev.evaluate(&geo);
        assert!(ev.determined().is_empty());
    }

    #[test]
    fn chains_outside_any_single_neighborhood_do_not_count() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        let committer = id(&torus, 12, 12);
        // relays too far apart to share a ball with the committer
        record(&mut ev, &table, committer, true, &[id(&torus, 10, 12)]);
        record(&mut ev, &table, committer, true, &[id(&torus, 14, 18)]);
        let _ = ev.evaluate(&geo);
        assert!(ev.determined().is_empty());
    }

    #[test]
    fn one_level_commits_on_disjoint_committer_chains() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let t = 1;
        let mut ev = EvidenceStore::new(t, CommitRule::OneLevel);
        // two chains with distinct committers and distinct relays, all
        // within the ball centered at (10, 10)
        record(
            &mut ev,
            &table,
            id(&torus, 9, 9),
            true,
            &[id(&torus, 10, 9)],
        );
        record(
            &mut ev,
            &table,
            id(&torus, 11, 11),
            true,
            &[id(&torus, 11, 10)],
        );
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    #[test]
    fn one_level_shared_committer_counts_once() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(1, CommitRule::OneLevel);
        let committer = id(&torus, 9, 9);
        record(&mut ev, &table, committer, true, &[id(&torus, 10, 9)]);
        record(&mut ev, &table, committer, true, &[id(&torus, 9, 10)]);
        assert_eq!(ev.evaluate(&geo), None);
    }

    #[test]
    fn duplicate_chains_are_ignored() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        let committer = id(&torus, 12, 12);
        assert!(record(
            &mut ev,
            &table,
            committer,
            true,
            &[id(&torus, 11, 12)]
        ));
        assert!(!record(
            &mut ev,
            &table,
            committer,
            true,
            &[id(&torus, 11, 12)]
        ));
        assert_eq!(ev.chain_count(), 1);
    }

    #[test]
    fn evaluation_is_idempotent_when_clean() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(0, CommitRule::TwoLevel);
        direct(&mut ev, &table, id(&torus, 9, 9), false);
        assert_eq!(ev.evaluate(&geo), Some(false));
        // no new evidence: second call must be cheap and return None
        assert_eq!(ev.evaluate(&geo), None);
    }

    #[test]
    fn values_kept_separate() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        direct(&mut ev, &table, id(&torus, 9, 9), true);
        direct(&mut ev, &table, id(&torus, 10, 9), false);
        // one vote each: neither reaches t+1 = 2
        assert_eq!(ev.evaluate(&geo), None);
        direct(&mut ev, &table, id(&torus, 11, 9), true);
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
        let mut ev = EvidenceStore::new(t, CommitRule::TwoLevel);
        let victim = id(&torus, 12, 12);
        for k in 0..t {
            let forger = id(&torus, 11, 11 + k as i64 - 1);
            record(&mut ev, &table, victim, false, &[forger]);
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
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        let victim = id(&torus, 12, 12);
        let forger = id(&torus, 11, 12);
        for k in 0..6i64 {
            record(
                &mut ev,
                &table,
                victim,
                false,
                &[id(&torus, 12, 11 + (k % 2)), forger],
            );
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
        let mut ev = EvidenceStore::new(t, CommitRule::TwoLevel);
        let committer = id(&torus, 12, 12);
        // t disjoint chains (possibly faulty relays) plus one more —
        // t+1 disjoint chains within one ball determine the value.
        for k in 0..=t {
            record(
                &mut ev,
                &table,
                committer,
                true,
                &[id(&torus, 11, 11 + k as i64)],
            );
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
        let mut ev = EvidenceStore::new(t, CommitRule::TwoLevel);
        direct(&mut ev, &table, id(&torus, 10, 12), true);
        direct(&mut ev, &table, id(&torus, 9, 12), true);
        assert_eq!(ev.evaluate(&geo), Some(true));
    }

    #[test]
    fn one_level_packers_live_from_the_first_chain_to_retire() {
        // The protocol's path: no box before the first chain, the frame
        // with it, nothing after a commit at one relay.
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let me = id(&torus, 10, 10);
        let mut ev = EvidenceStore::new(1, CommitRule::OneLevel);
        assert!(matches!(ev.state, RuleState::OneLevel(None)));
        assert!(ev.record_direct(&table, me, Coord::new(11, 10), true));
        assert!(
            matches!(&ev.state, RuleState::OneLevel(Some(one)) if one.frame.slots() == 13 * 13)
        );
        ev.retire(1);
        assert!(matches!(ev.state, RuleState::Retired));
        assert!(!ev.record_chain(&table, me, Coord::new(9, 10), true, &[]));
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
        /// Committers are drawn from the frame the store indexes, so no
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
                let mut ev = EvidenceStore::new(t, rule);
                // Truthful background: direct announcements of the true
                // value, which must never help a wrong commit.
                for p in &truth_pts {
                    direct(&mut ev, &table, at(p), true);
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
                    record(&mut ev, &table, committer, false, &relays);
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
                            faulty.contains(&c) || v,
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
        // store indexes (no *valid* chain can — 2r from the last
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
        let mut bound = EvidenceStore::new(t, CommitRule::TwoLevel);
        let verdicts = [
            record(&mut bound, &table, near, true, &[id(&torus, 11, 12)]),
            record(&mut bound, &table, near, true, &[id(&torus, 12, 11)]),
            record(&mut bound, &table, far, false, &[id(&torus, 11, 11)]),
            record(&mut bound, &table, far, false, &[id(&torus, 11, 11)]),
            record(&mut bound, &table, far, false, &[id(&torus, 13, 11)]),
        ];
        assert_eq!(verdicts, [true, true, false, false, false], "far refused");

        let mut clean = EvidenceStore::new(t, CommitRule::TwoLevel);
        record(&mut clean, &table, near, true, &[id(&torus, 11, 12)]);
        record(&mut clean, &table, near, true, &[id(&torus, 12, 11)]);
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
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        let near = id(&torus, 12, 12);
        let other = id(&torus, 9, 8);
        let far = id(&torus, 22, 22);
        direct(&mut ev, &table, other, true);
        record(&mut ev, &table, near, true, &[id(&torus, 11, 12)]);
        record(
            &mut ev,
            &table,
            near,
            true,
            &[id(&torus, 12, 11), id(&torus, 11, 11)],
        );
        record(
            &mut ev,
            &table,
            near,
            false,
            &[id(&torus, 13, 11), id(&torus, 12, 10), id(&torus, 11, 10)],
        );
        record(&mut ev, &table, other, true, &[id(&torus, 9, 9)]);
        assert!(!record(&mut ev, &table, far, false, &[id(&torus, 11, 11)]));
        assert!(!record(
            &mut ev,
            &table,
            far,
            false,
            &[id(&torus, 13, 11), id(&torus, 11, 9)]
        ));
        assert_eq!(ev.chain_count(), 5);
        assert_eq!(ev.digest(), 0x1514_fda2_84a8_5630);
    }

    /// The fixed one-level stream the digest below is pinned for; every
    /// `record_chain` verdict it produced.
    fn feed_one_level(ev: &mut EvidenceStore, table: &NeighborTable) -> Vec<bool> {
        let torus = table.torus();
        let id = |x, y| id(torus, x, y);
        let (near, other, far) = (id(12, 12), id(9, 8), id(22, 22));
        vec![
            record(ev, table, other, true, &[]),
            record(ev, table, near, true, &[id(11, 12)]),
            record(ev, table, near, true, &[id(12, 11), id(11, 11)]),
            record(
                ev,
                table,
                near,
                false,
                &[id(13, 11), id(12, 10), id(11, 10)],
            ),
            record(ev, table, other, true, &[id(9, 9)]),
            record(ev, table, other, true, &[id(9, 9)]),
            record(ev, table, far, false, &[id(11, 11)]),
            record(ev, table, far, false, &[id(13, 11), id(11, 9)]),
            record(ev, table, id(9, 12), true, &[id(10, 11)]),
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
        let mut ev = EvidenceStore::new(1, CommitRule::OneLevel);
        let verdicts = feed_one_level(&mut ev, &table);
        assert_eq!(
            verdicts,
            [true, true, true, true, false, false, true, true, true]
        );
        assert_eq!(ev.chain_count(), 7);
        assert_eq!(ev.digest(), 0xbe46_2d67_474a_25b5);
    }

    #[test]
    fn one_level_store_determines_nobody() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(1, CommitRule::OneLevel);
        assert!(matches!(ev.state, RuleState::OneLevel(None)));
        feed_one_level(&mut ev, &table);
        assert_eq!(ev.evaluate(&geo), Some(true));
        assert!(ev.determined().is_empty());
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
                let mut one = EvidenceStore::new(t, CommitRule::OneLevel);
                let mut two = EvidenceStore::new(t, CommitRule::TwoLevel);
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
                    record(&mut one, &table, committer, v, &relays);
                    answers.push(one.evaluate(&geo));
                    record(&mut two, &table, committer, v, &relays);
                    answers.push(two.evaluate(&geo));
                }
                FRESH_SCRATCH_PER_QUERY.set(false);
                (answers, two.determined())
            };
            prop_assert_eq!(answers(false), answers(true));
        }

        /// The admission filter answers as asking a packer at every
        /// candidate center: two stores fed one chain stream, one of
        /// them scanning every center, commit and determine call for
        /// call alike — under both rules, at r = 1 and 2, under L∞
        /// (where the filter is exact) and L2 (where it is a superset),
        /// on the experiment torus for `r` and the smallest torus that
        /// hosts it (7×7, 11×11), for a receiver anywhere on it. Each
        /// chain crowds the box of side `2r + 1` around an anchor up to
        /// `2r + 2` from the receiver, so on the small tori a committer's
        /// candidate centers and its chains' keys meet across the seam
        /// and the wrap decides what a center admits.
        #[test]
        fn the_admission_filter_answers_as_scanning_every_center(
            r in 1u32..=2,
            minimal in 0u8..2,
            l2 in 0u8..2,
            t in 0usize..3,
            me in (0i64..20, 0i64..20),
            stream in proptest::collection::vec(
                (
                    (-6i64..=6, -6i64..=6),
                    proptest::collection::vec((-2i64..=2, -2i64..=2), 1..5),
                    0u8..8,
                ),
                1..96,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;

            let side = if minimal == 1 { 4 * r + 3 } else { 4 * (2 * r + 1) };
            let torus = Torus::new(side, side);
            let metric = if l2 == 1 { Metric::L2 } else { Metric::Linf };
            let arena = NeighborTable::build(&torus, r, metric);
            let me = torus.canonical(Coord::new(me.0, me.1));
            let geo = Geometry::new(&arena, me);
            let (reach, ri) = (2 * i64::from(r) + 2, i64::from(r));
            let near = |(dx, dy): (i64, i64), anchor: Coord| {
                let d = Coord::new(dx.clamp(-ri, ri), dy.clamp(-ri, ri));
                torus.id(torus.canonical(me + anchor + d))
            };
            for rule in [CommitRule::TwoLevel, CommitRule::OneLevel] {
                let answers = |every: bool| {
                    SCAN_EVERY_CENTER.set(every);
                    let mut ev = EvidenceStore::new(t, rule);
                    let mut answers = Vec::new();
                    for ((ax, ay), members, flags) in &stream {
                        let anchor = Coord::new((*ax).clamp(-reach, reach), (*ay).clamp(-reach, reach));
                        let committer = near(members[0], anchor);
                        let relays: Vec<NodeId> =
                            members[1..].iter().map(|&d| near(d, anchor)).collect();
                        let v = flags % 4 != 0;
                        record_as(&mut ev, &arena, me, committer, v, &relays);
                        if flags % 2 == 0 {
                            answers.push(ev.evaluate(&geo));
                        }
                    }
                    answers.push(ev.evaluate(&geo));
                    SCAN_EVERY_CENTER.set(false);
                    (answers, ev.determined())
                };
                prop_assert_eq!(answers(false), answers(true), "{:?}", rule);
            }
        }
    }

    #[test]
    fn dirty_pairs_are_bounded_by_distinct_pairs() {
        // The pending refresh must not grow with the chains that arrive
        // between two evaluations: 1 000 new chains about 3 committers
        // (both values) mark at most 6 pairs, each once.
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
                let committer = committers[k as usize % 3];
                new += usize::from(record(ev, &table, committer, k % 2 == 0, &relays));
                if each {
                    assert!(dirty(ev).len() <= 1, "one chain lists one pair");
                    commit = commit.or(ev.evaluate(&geo));
                }
            }
            (new, commit)
        };
        let mut bound = EvidenceStore::new(1, CommitRule::TwoLevel);
        assert_eq!(feed(&mut bound, false), (1_000, None));
        assert!(
            dirty(&bound).len() <= 6,
            "{} dirty entries",
            dirty(&bound).len()
        );

        // A pair marked many times is refreshed once: the refresh answers
        // as a store evaluated after every chain does (it never meets a
        // pair marked twice), and marking starts afresh afterwards.
        let mut reference = EvidenceStore::new(1, CommitRule::TwoLevel);
        let (new, commit) = feed(&mut reference, true);
        assert_eq!(new, 1_000);
        assert_eq!(bound.evaluate(&geo), commit);
        assert_eq!(bound.determined(), reference.determined());
        assert!(dirty(&bound).is_empty());
        assert!(record(
            &mut bound,
            &table,
            committers[0],
            true,
            &[NodeId(500)]
        ));
        assert_eq!(dirty(&bound), [(committers[0], true)]);
    }

    #[test]
    fn first_determination_wins_per_committer() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let geo = Geometry::new(&table, Coord::new(10, 10));
        let mut ev = EvidenceStore::new(0, CommitRule::TwoLevel);
        let committer = id(&torus, 12, 12);
        record(&mut ev, &table, committer, true, &[id(&torus, 11, 12)]);
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
        // later contradictory evidence cannot flip it, nor mark its pair
        // for a refresh
        record(&mut ev, &table, committer, false, &[id(&torus, 12, 11)]);
        assert!(dirty(&ev).is_empty());
        let _ = ev.evaluate(&geo);
        assert_eq!(ev.determined().get(&committer), Some(&true));
    }

    #[test]
    fn retire_keeps_a_direct_observation_and_the_shorter_chains() {
        let torus = Torus::new(24, 24);
        let table = table(&torus);
        let (a, b, far) = (id(&torus, 12, 12), id(&torus, 9, 8), id(&torus, 22, 22));
        let relay = |x| id(&torus, 11, x);
        let mut ev = EvidenceStore::new(1, CommitRule::TwoLevel);
        direct(&mut ev, &table, a, true);
        record(&mut ev, &table, a, false, &[relay(8)]);
        record(&mut ev, &table, b, true, &[relay(9)]);
        record(&mut ev, &table, b, true, &[relay(10), relay(11), relay(12)]);
        assert!(
            !record(&mut ev, &table, far, true, &[relay(9)]),
            "far is refused"
        );
        assert!(!record(
            &mut ev,
            &table,
            far,
            true,
            &[relay(10), relay(11), relay(12)]
        ));
        assert_eq!(ev.chain_count(), 4);
        ev.retire(3);
        // a's direct observation, and the one-relay chain about b
        assert_eq!(ev.chain_count(), 2);
        assert!(ev.determined().is_empty() && dirty(&ev).is_empty());
        assert!(
            !record(&mut ev, &table, a, false, &[relay(13)]),
            "a is settled"
        );
        assert!(record(&mut ev, &table, b, true, &[relay(10), relay(11)]));
        assert!(dirty(&ev).is_empty(), "a retired store lists nothing");
        // A late direct observation settles its committer.
        direct(&mut ev, &table, b, true);
        assert!(!record(&mut ev, &table, b, true, &[relay(13)]));
        direct(&mut ev, &table, far, true);
        assert!(
            !record(&mut ev, &table, far, true, &[relay(13)]),
            "far is refused"
        );
        assert_eq!(ev.chain_count(), 2, "two direct observations");

        let mut one = EvidenceStore::new(1, CommitRule::OneLevel);
        record(&mut one, &table, a, true, &[relay(9)]);
        one.retire(1);
        assert_eq!(one.chain_count(), 0);
        assert!(
            !record(&mut one, &table, a, true, &[]),
            "nothing is recorded again"
        );
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
        /// and the stores record as the protocol records.
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
                    let mut kept = EvidenceStore::new(1, rule);
                    let mut retired = EvidenceStore::new(1, rule);
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
                        let before = record(&mut kept, &table, committer, v, &relays);
                        let after = record(&mut retired, &table, committer, v, &relays);
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

    /// The store keyed by global ids that the slot-keyed store replaced,
    /// kept as the reference the differential property checks it
    /// against: two-level pairs indexed by the committer's span-`3r`
    /// frame slot, one-level chains in two packers, every chain member a
    /// node id, chains admitted by the id → coordinate lookup. It serves
    /// only tori of fewer than `0xFFFF` nodes, whose ids a packer takes.
    struct IdKeyed {
        need: u32,
        rule: CommitRule,
        frame: LocalFrame,
        slots: Vec<ChainPacker>,
        dirty: Vec<(NodeId, Value)>,
        dirty_mark: Vec<bool>,
        determined: BTreeMap<NodeId, Value>,
        combined: [ChainPacker; 2],
        commit_dirty: bool,
    }

    impl IdKeyed {
        fn new(t: usize, rule: CommitRule, arena: &NeighborTable, me: Coord) -> Self {
            let frame = arena.local_frame(me, 3 * arena.radius());
            IdKeyed {
                need: t as u32 + 1,
                rule,
                slots: vec![ChainPacker::new(); 2 * frame.slots()],
                dirty_mark: vec![false; 2 * frame.slots()],
                frame,
                dirty: Vec::new(),
                determined: BTreeMap::new(),
                combined: Default::default(),
                commit_dirty: false,
            }
        }

        fn record_chain(&mut self, committer: NodeId, v: Value, relays: &[NodeId]) -> bool {
            let ids: Vec<u64> = relays.iter().map(|k| u64::from(k.0)).collect();
            if self.rule == CommitRule::OneLevel {
                let keys: Vec<u64> = std::iter::once(u64::from(committer.0)).chain(ids).collect();
                let new = self.combined[usize::from(v)].insert(&keys);
                self.commit_dirty |= new;
                return new;
            }
            let Some(slot) = self.frame.slot_of_id(committer) else {
                return false;
            };
            let i = 2 * slot + usize::from(v);
            let new = self.slots[i].insert(&ids);
            if new && !self.dirty_mark[i] && !self.determined.contains_key(&committer) {
                self.dirty_mark[i] = true;
                self.dirty.push((committer, v));
            }
            new
        }

        fn packs(&self, packer: &ChainPacker, geo: &Geometry<'_>, center: Coord) -> bool {
            let torus = geo.arena.torus();
            let admit = |k: u64| geo.covers(center, torus.coord(NodeId(k as u32)));
            packer.max_disjoint(admit, self.need) >= self.need
        }

        fn evaluate(&mut self, geo: &Geometry<'_>) -> Option<Value> {
            let (need, r) = (self.need, geo.arena.radius());
            if self.rule == CommitRule::OneLevel {
                if !std::mem::take(&mut self.commit_dirty) {
                    return None;
                }
                for center in geo.centers_within(geo.me, r + 1) {
                    for v in [true, false] {
                        let p = &self.combined[usize::from(v)];
                        if p.len() >= need as usize && self.packs(p, geo, center) {
                            return Some(v);
                        }
                    }
                }
                return None;
            }
            if self.dirty.is_empty() {
                return None;
            }
            let mut dirty = std::mem::take(&mut self.dirty);
            self.dirty_mark.fill(false);
            dirty.sort_unstable();
            let mut newly = false;
            for (c, v) in dirty {
                if self.determined.contains_key(&c) {
                    continue;
                }
                let p = &self.slots[2 * self.frame.slot_of_id(c).unwrap() + usize::from(v)];
                let at = geo.arena.torus().coord(c);
                if p.has_direct()
                    || p.len() >= need as usize
                        && geo.centers_within(at, r).any(|z| self.packs(p, geo, z))
                {
                    self.determined.insert(c, v);
                    newly = true;
                }
            }
            if !newly {
                return None;
            }
            for center in geo.centers_within(geo.me, r + 1) {
                let mut counts = [0u32; 2];
                for (&c, &v) in &self.determined {
                    if geo.covers(center, geo.arena.torus().coord(c)) {
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

        fn chain_count(&self) -> usize {
            self.slots
                .iter()
                .chain(&self.combined)
                .map(ChainPacker::len)
                .sum()
        }

        fn digest(&self) -> u64 {
            use rbcast_sim::trace::{fold_words, FNV_OFFSET};
            let packers = match self.rule {
                CommitRule::TwoLevel => &self.slots[..],
                CommitRule::OneLevel => &self.combined[..],
            };
            let mut hash = FNV_OFFSET;
            for (key, p) in packers.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
                fold_words(&mut hash, &[key as u64, u64::from(p.has_direct())]);
                for c in p.iter() {
                    fold_words(&mut hash, &[c.relays().len() as u64]);
                    for &k in c.relays() {
                        fold_words(&mut hash, &[u64::from(k)]);
                    }
                }
            }
            hash
        }
    }

    proptest::prelude::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The slot-keyed store answers as the id-keyed one it replaced:
        /// the same verdict per recorded chain, the same commit per
        /// evaluation, and at the end the same determinations, chain
        /// count and digest — under both rules, at r = 1 and 2, under L∞
        /// and L2, for a receiver at the center of the torus and one on
        /// its seam, on the experiment tori for r = 1 and 2 and the
        /// cluster's wrapping 3×3. Members are drawn within L∞ `3r + 1`
        /// of the receiver, so committers both inside and just outside
        /// the two-level frame occur, and chains crowd enough balls to
        /// determine and commit.
        #[test]
        fn slot_keys_answer_as_id_keys(
            which in 0usize..3,
            l2 in 0u8..2,
            seam in 0u8..2,
            t in 0usize..3,
            stream in proptest::collection::vec(
                (
                    (-7i64..=7, -7i64..=7),
                    proptest::collection::vec((-7i64..=7, -7i64..=7), 0..4),
                    0u8..8,
                ),
                1..96,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;

            let (torus, r) = match which {
                0 => (Torus::for_radius(1), 1),
                1 => (Torus::for_radius(2), 2),
                _ => (Torus::new(3, 3), 1),
            };
            let metric = if l2 == 1 { Metric::L2 } else { Metric::Linf };
            let arena = NeighborTable::build_wrapping(&torus, r, metric);
            let side = i64::from(torus.width());
            let me = if seam == 1 {
                Coord::new(side - 1, 0)
            } else {
                Coord::new(side / 2, side / 2)
            };
            let geo = Geometry::new(&arena, me);
            let reach = 3 * i64::from(r) + 1;
            let at = |(dx, dy): (i64, i64)| {
                torus.id(me + Coord::new(dx.clamp(-reach, reach), dy.clamp(-reach, reach)))
            };
            for rule in [CommitRule::TwoLevel, CommitRule::OneLevel] {
                let mut slots = EvidenceStore::new(t, rule);
                let mut ids = IdKeyed::new(t, rule, &arena, me);
                for (step, (committer, relays, flags)) in stream.iter().enumerate() {
                    let committer = at(*committer);
                    let relays: Vec<NodeId> = relays.iter().map(|&d| at(d)).collect();
                    let v = flags % 4 != 0;
                    prop_assert_eq!(
                        record_as(&mut slots, &arena, me, committer, v, &relays),
                        ids.record_chain(committer, v, &relays),
                        "{:?} step {} committer {} relays {:?}", rule, step, committer, relays
                    );
                    if flags % 2 == 0 {
                        prop_assert_eq!(slots.evaluate(&geo), ids.evaluate(&geo), "{:?} step {}", rule, step);
                    }
                }
                prop_assert_eq!(&slots.determined(), &ids.determined);
                prop_assert_eq!(slots.chain_count(), ids.chain_count());
                prop_assert_eq!(slots.digest(), ids.digest());
            }
        }
    }
}
