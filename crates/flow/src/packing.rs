//! Maximum sets of pairwise node-disjoint reported relay chains.
//!
//! A node executing the §VI protocol "reliably determines" that committer
//! `i` committed value `v` once it holds `t + 1` reported relay chains
//! from `i`, *pairwise node-disjoint*, all lying within one neighborhood.
//! A chain is the relay sequence of a `HEARD(k_m, …, k_1, i, v)` message;
//! two chains are disjoint when their relay sets do not intersect (the
//! shared committer endpoint is allowed).
//!
//! Chain evidence is *nested attestation*: the receiver is only certain of
//! the outermost transmission; each deeper hop is vouched for by the next
//! relay's honesty. Consequently evidence units are whole chains — a
//! max-flow over the union of chain edges would accept spliced
//! prefix/suffix "paths" no honest node ever attested. Maximum disjoint
//! chain selection is therefore a set-packing (equivalently, a maximum
//! independent set over the chain conflict graph), which this module
//! solves exactly with a budgeted branch-and-bound plus greedy seeding.
//! Exceeding the budget only *under*-reports (delaying a commit, never
//! causing a wrong one), so protocol safety is unaffected.

/// Maximum keys one stored chain can carry: a committer prefix (one-level
/// rule) plus the three relays of the full §VI protocol — the longest
/// chain any in-repo producer builds. Longer sequences are rejected by
/// [`ChainPacker::insert`] — they can never arise from bounded-hop
/// reports, and rejecting only under-counts (never commits wrongly).
pub const MAX_CHAIN_KEYS: usize = 4;

/// Marks an unused key slot. Keys are node ids, far below this; a key
/// that large is rejected like an over-length chain.
const EMPTY: u32 = u32::MAX;

/// A reported relay chain: the ordered relays between a committer and the
/// observing node (committer and observer excluded). An empty chain is a
/// direct observation of the committer's `COMMITTED` broadcast.
///
/// Relays are stored inline as `u32` keys, unused slots holding a
/// sentinel, next to a 32-bit *signature* of the relay set (one hashed
/// bit per key). The signature answers most subset and intersection
/// questions without touching the keys: a set bit of `a` missing from `b`
/// proves `a ⊄ b`, and disjoint signatures prove disjoint relay sets.
/// Hash collisions only make the signature test pass when the exact test
/// would fail, so every positive falls through to the key comparison.
///
/// A `Chain` is `Copy` and 20 bytes, so a packer's chain list is one flat
/// allocation — no per-chain heap traffic on the simulator's delivery
/// path. The signature is a function of the keys, which keeps the derived
/// `Eq`/`Hash`/`Ord` consistent with the logical relay sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Chain {
    keys: [u32; MAX_CHAIN_KEYS],
    sig: u32,
}

const _: () = assert!(std::mem::size_of::<Chain>() == 20);

/// The signature bit of one key (multiplicative hash, top five bits).
fn sig_bit(key: u32) -> u32 {
    1 << (key.wrapping_mul(0x9E37_79B1) >> 27)
}

impl Chain {
    /// Creates a chain from its relay sequence (committer side first).
    ///
    /// # Panics
    ///
    /// Panics if `relays` does not fit (see [`Chain::try_new`]).
    #[cfg(test)]
    fn new(relays: &[u64]) -> Self {
        Chain::try_new(relays).expect("chain exceeds MAX_CHAIN_KEYS or the u32 key range")
    }

    /// Creates a chain from its relay sequence, or `None` if it exceeds
    /// [`MAX_CHAIN_KEYS`] or holds a key that is not below `u32::MAX`.
    #[must_use]
    fn try_new(relays: &[u64]) -> Option<Self> {
        if relays.len() > MAX_CHAIN_KEYS {
            return None;
        }
        let mut chain = Chain {
            keys: [EMPTY; MAX_CHAIN_KEYS],
            sig: 0,
        };
        for (slot, &relay) in chain.keys.iter_mut().zip(relays) {
            let key = u32::try_from(relay).ok().filter(|&k| k != EMPTY)?;
            *slot = key;
            chain.sig |= sig_bit(key);
        }
        Some(chain)
    }

    /// The relay sequence.
    #[inline]
    #[must_use]
    pub fn relays(&self) -> &[u32] {
        let len = self
            .keys
            .iter()
            .position(|&k| k == EMPTY)
            .unwrap_or(MAX_CHAIN_KEYS);
        &self.keys[..len]
    }

    /// True iff this chain is a direct observation (no relays).
    #[inline]
    #[must_use]
    fn is_direct(&self) -> bool {
        self.keys[0] == EMPTY
    }

    /// True iff the chain repeats a relay (degenerate; only a faulty relay
    /// fabricates these, and they are discarded on arrival).
    #[must_use]
    fn has_repeats(&self) -> bool {
        // relay chains are short (≤ 3 in the paper's protocol): quadratic
        // scan beats hashing
        let relays = self.relays();
        relays
            .iter()
            .enumerate()
            .any(|(i, r)| relays[i + 1..].contains(r))
    }

    /// True iff `key` (never the sentinel) is one of this chain's relays.
    fn contains(&self, key: u32) -> bool {
        self.keys.contains(&key)
    }

    /// True iff `self` *dominates* `other`: `self` is non-direct and
    /// every relay of `self` also appears in `other`. Any filter
    /// admitting `other` then admits `self`, and — because a non-empty
    /// subset always conflicts with its superset — any packing using
    /// `other` can swap in `self`, so `other` is redundant. The direct
    /// (empty) chain is deliberately excluded: it conflicts with nothing
    /// and can share a packing with its supersets.
    #[inline]
    #[must_use]
    fn dominates(&self, other: &Chain) -> bool {
        !self.is_direct()
            && self.sig & !other.sig == 0
            && self.relays().iter().all(|&r| other.contains(r))
    }

    /// True iff the two chains share a relay.
    #[inline]
    #[must_use]
    fn conflicts_with(&self, other: &Chain) -> bool {
        self.sig & other.sig != 0 && self.relays().iter().any(|&r| other.contains(r))
    }
}

/// Accumulates reported chains for one `(committer, value)` pair and
/// answers maximum-disjoint-subset queries.
///
/// # Example
///
/// ```
/// use rbcast_flow::ChainPacker;
///
/// let mut packer = ChainPacker::new();
/// packer.insert(&[1, 2]);   // i -> 1 -> 2 -> me
/// packer.insert(&[3]);      // i -> 3 -> me
/// packer.insert(&[2, 4]);   // conflicts with the first chain on relay 2
/// // Best disjoint set: {[1,2], [3]} or {[2,4], [3]} — size 2.
/// assert_eq!(packer.max_disjoint(|_| true, 5), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChainPacker {
    chains: Vec<Chain>,
    has_direct: bool,
}

/// Branch-and-bound node budget of every [`ChainPacker::max_disjoint`]
/// query.
const BB_BUDGET: u64 = 200_000;

/// Instances larger than this many (reduced) chains are truncated to the
/// shortest chains before packing; this only under-counts, never
/// over-counts.
const MAX_PACKING_INSTANCE: usize = 2_048;

impl ChainPacker {
    /// Creates an empty packer.
    #[must_use]
    pub fn new() -> Self {
        ChainPacker::default()
    }

    /// Records a reported chain. Returns `true` if the chain was new and
    /// undominated.
    ///
    /// Rejected outright: chains that do not fit (beyond
    /// [`MAX_CHAIN_KEYS`], or a key outside the `u32` id range),
    /// duplicates, degenerate (repeated-relay) chains, and chains
    /// *dominated* by an already-stored chain (one whose relay set is a
    /// subset of the new chain's) — the stored chain is at least as good
    /// under every admissibility filter, so the newcomer can never
    /// matter. Conversely, stored chains dominated by the newcomer are
    /// evicted. This keeps the packer an antichain, which is what bounds
    /// memory when report traffic is combinatorial.
    ///
    /// The antichain invariant doubles as the duplicate filter, so no
    /// seen-set is kept: a duplicate direct chain short-circuits on
    /// `has_direct`, and any non-direct repeat — stored, rejected, or
    /// since evicted — is dominated by a stored chain (dominance is
    /// transitive through evictions) and bounces off the same check.
    ///
    /// One pass over the stored chains decides both directions: it stops
    /// at the first dominator, and notes from the signatures alone
    /// whether any stored chain could be a superset of the newcomer.
    /// Evictions are rare (report chains mostly arrive shortest first),
    /// so the eviction sweep runs only when that note is set.
    pub fn insert(&mut self, relays: &[u64]) -> bool {
        let Some(chain) = Chain::try_new(relays) else {
            return false;
        };
        if chain.has_repeats() {
            return false;
        }
        if chain.is_direct() {
            if self.has_direct {
                return false;
            }
            self.has_direct = true;
            self.chains.push(chain);
            return true;
        }
        let mut may_evict = false;
        for c in &self.chains {
            if c.dominates(&chain) {
                return false;
            }
            may_evict |= chain.sig & !c.sig == 0;
        }
        if may_evict {
            self.chains.retain(|c| !chain.dominates(c));
        }
        self.chains.push(chain);
        true
    }

    /// Number of distinct recorded chains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    /// True iff no chains are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// True iff the committer was observed directly.
    #[must_use]
    pub fn has_direct(&self) -> bool {
        self.has_direct
    }

    /// Iterates over the recorded chains.
    pub fn iter(&self) -> impl Iterator<Item = &Chain> {
        self.chains.iter()
    }

    /// Drops every chain with `keys` or more keys and returns the freed
    /// capacity to the allocator. What stays is still an antichain, so
    /// [`ChainPacker::insert`] keeps answering exactly as before for any
    /// chain with fewer than `keys` keys: only a chain at most as long as
    /// the newcomer can dominate it. Longer newcomers lose that
    /// guarantee — a repeat of a dropped chain is accepted as new.
    pub fn retain_shorter_than(&mut self, keys: usize) {
        self.chains.retain(|c| c.relays().len() < keys);
        self.chains.shrink_to_fit();
        self.has_direct &= keys > 0;
    }

    /// Size of the largest set of pairwise disjoint chains whose relays
    /// all satisfy `admit`, stopping early once `target` chains are
    /// found.
    ///
    /// Returns `min(target, true maximum)` when the search completes
    /// within budget; may under-report on pathological instances (never
    /// over-reports).
    #[must_use]
    pub fn max_disjoint<F>(&self, admit: F, target: u32) -> u32
    where
        F: Fn(u64) -> bool,
    {
        self.max_disjoint_reusing(&mut PackScratch::default(), admit, target)
    }

    /// [`ChainPacker::max_disjoint`] reusing caller-owned scratch
    /// buffers. The packing query sits inside the commit-rule evaluation
    /// called every round per node, per candidate neighborhood center;
    /// threading one [`PackScratch`] through those calls removes every
    /// per-query allocation (chain filters, conflict bitsets, and the
    /// branch-and-bound candidate stacks are all reused).
    #[must_use]
    pub fn max_disjoint_reusing<F>(&self, scratch: &mut PackScratch, admit: F, target: u32) -> u32
    where
        F: Fn(u64) -> bool,
    {
        if target == 0 {
            return 0;
        }
        let chains = &self.chains;
        let kept = &mut scratch.kept;

        // Admitted chains only (already an antichain by insert-time
        // dominance pruning, so no reduction pass is needed here).
        kept.clear();
        kept.extend(
            (0..chains.len()).filter(|&i| chains[i].relays().iter().all(|&r| admit(u64::from(r)))),
        );

        // A direct observation conflicts with nothing: count it separately.
        let direct_bonus = u32::from(kept.iter().any(|&i| chains[i].is_direct()));
        kept.retain(|&i| !chains[i].is_direct());

        // Bound instance size (shortest chains kept — they conflict least).
        if kept.len() > MAX_PACKING_INSTANCE {
            kept.sort_unstable_by_key(|&i| (chains[i].relays().len(), i));
            kept.truncate(MAX_PACKING_INSTANCE);
        }

        let need = target.saturating_sub(direct_bonus);
        if need == 0 {
            return target.min(direct_bonus);
        }

        let packed = max_disjoint_sets(chains, scratch, need);
        (direct_bonus + packed).min(target)
    }
}

/// Reusable scratch buffers for [`ChainPacker::max_disjoint_reusing`].
///
/// One instance per thread suffices, whichever packers it serves;
/// buffers grow to the high-water mark of the queries they serve and
/// are reused verbatim afterwards. Holding scratch never changes a query's answer — it only
/// removes the per-query allocations.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// Admitted chain indices (the packing instance).
    kept: Vec<usize>,
    /// Greedy processing order (indices into the packer's chains).
    order: Vec<usize>,
    /// Relays already used by the greedy packing.
    taken_relays: Vec<u32>,
    /// Flattened conflict bitsets (`n × words`).
    conflict: Vec<u64>,
    /// Flattened clique bitsets (`n × words`): row `a` holds every
    /// candidate containing the last key of candidate `a` (itself
    /// included) — pairwise conflicting, since they all share that key.
    clique: Vec<u64>,
    /// The all-candidates bitset.
    full: Vec<u64>,
    /// Candidates not yet covered while the clique-cover bound runs.
    uncovered: Vec<u64>,
    /// Per-depth candidate bitsets for the branch-and-bound include
    /// branch (the exclude branch mutates in place and needs none).
    pool: Vec<Vec<u64>>,
}

/// Maximum independent set over the chain conflict graph, early-exiting at
/// `target`, within [`BB_BUDGET`] recursion nodes. `scratch.kept` holds the
/// instance's chain indices; the other buffers are reused scratch.
fn max_disjoint_sets(chains: &[Chain], scratch: &mut PackScratch, target: u32) -> u32 {
    let PackScratch {
        kept,
        order,
        taken_relays,
        conflict,
        clique,
        full,
        uncovered,
        pool,
    } = scratch;
    let n = kept.len();
    if n == 0 || target == 0 {
        return 0;
    }

    // Cheap greedy first: shortest chains first (ties in stored order),
    // take whenever disjoint from everything taken. Chains are ≤ 3
    // relays, so the conflict test against the taken set is a handful of
    // comparisons. In benign runs this finds `target` immediately and the
    // exact search never builds.
    order.clear();
    order.extend_from_slice(kept);
    order.sort_unstable_by_key(|&i| (chains[i].relays().len(), i));
    taken_relays.clear();
    let mut greedy = 0u32;
    for &i in order.iter() {
        if chains[i].relays().iter().all(|r| !taken_relays.contains(r)) {
            taken_relays.extend_from_slice(chains[i].relays());
            greedy += 1;
            if greedy >= target {
                return target;
            }
        }
    }

    // Exact branch and bound on the conflict graph (bitsets), only when
    // the greedy answer leaves room for improvement.
    if greedy as usize >= n {
        return greedy;
    }
    let words = n.div_ceil(64);
    conflict.clear();
    conflict.resize(n * words, 0);
    clique.clear();
    clique.resize(n * words, 0);
    let set = |rows: &mut [u64], a: usize, b: usize| rows[a * words + b / 64] |= 1 << (b % 64);
    let holds_last_of = |c: &Chain, of: &Chain| of.relays().last().is_some_and(|&k| c.contains(k));
    for a in 0..n {
        let ca = &chains[kept[a]];
        set(clique, a, a);
        for b in (a + 1)..n {
            let cb = &chains[kept[b]];
            if !ca.conflicts_with(cb) {
                continue;
            }
            set(conflict, a, b);
            set(conflict, b, a);
            if holds_last_of(cb, ca) {
                set(clique, a, b);
            }
            if holds_last_of(ca, cb) {
                set(clique, b, a);
            }
        }
    }
    full.clear();
    full.extend((0..words).map(|w| {
        let hi = (n - w * 64).min(64);
        if hi == 64 {
            u64::MAX
        } else {
            (1u64 << hi) - 1
        }
    }));
    let mut search = Search {
        conflict,
        clique,
        words,
        uncovered,
        pool,
        target,
        best: greedy,
        nodes_left: BB_BUDGET,
    };
    search.bb(0, full, 0);
    search.best.min(target)
}

/// Index of the lowest set bit of a bitset, if any.
fn first_set(set: &[u64]) -> Option<usize> {
    set.iter()
        .enumerate()
        .find(|(_, &word)| word != 0)
        .map(|(w, &word)| w * 64 + word.trailing_zeros() as usize)
}

/// The state one branch-and-bound search shares across its recursion.
struct Search<'a> {
    conflict: &'a [u64],
    clique: &'a [u64],
    words: usize,
    uncovered: &'a mut Vec<u64>,
    pool: &'a mut Vec<Vec<u64>>,
    target: u32,
    best: u32,
    nodes_left: u64,
}

#[cfg(test)]
thread_local! {
    /// Branch-and-bound nodes expanded on this thread (tests only).
    static BB_NODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Search<'_> {
    /// True iff a greedy clique cover of `candidates` needs more than
    /// `room` cliques. Candidates sharing a key conflict pairwise, so an
    /// independent set takes at most one from each clique: the cover size
    /// is an upper bound on what `candidates` can still add, and the
    /// search may drop a branch the cover fits into `room` without ever
    /// missing the maximum. Each clique is "every uncovered candidate
    /// containing the first uncovered chain's last key" — the last key is
    /// the transmitter, which is what a liar's many chains share.
    fn cover_exceeds(&mut self, candidates: &[u64], room: u32) -> bool {
        let uncovered = &mut *self.uncovered;
        uncovered.clear();
        uncovered.extend_from_slice(candidates);
        let mut cover = 0u32;
        while let Some(v) = first_set(uncovered) {
            cover += 1;
            if cover > room {
                return true;
            }
            let row = &self.clique[v * self.words..][..self.words];
            for (word, &clique) in uncovered.iter_mut().zip(row) {
                *word &= !clique;
            }
        }
        false
    }

    /// Branch and bound over the candidate bitset. The exclude branch
    /// iterates in place (clearing one vertex per pass); the include
    /// branch recurses onto a per-depth buffer borrowed from `pool`, so
    /// steady-state search performs no allocation at all.
    fn bb(&mut self, depth: usize, candidates: &mut [u64], current: u32) {
        loop {
            if self.best >= self.target || self.nodes_left == 0 {
                return;
            }
            self.nodes_left -= 1;
            #[cfg(test)]
            BB_NODES.with(|nodes| nodes.set(nodes.get() + 1));
            if current > self.best {
                self.best = current;
            }
            if !self.cover_exceeds(candidates, self.best - current) {
                return; // cannot improve
            }
            // first alive vertex
            let Some(v) = first_set(candidates) else {
                return;
            };
            // Neither branch keeps v as a candidate.
            candidates[v / 64] &= !(1 << (v % 64));

            // Branch 1: include v (recurse on the pooled buffer).
            if depth >= self.pool.len() {
                self.pool.push(Vec::new());
            }
            let mut with_v = std::mem::take(&mut self.pool[depth]);
            with_v.clear();
            with_v.extend_from_slice(candidates);
            let row = &self.conflict[v * self.words..][..self.words];
            for (word, &conflict) in with_v.iter_mut().zip(row) {
                *word &= !conflict;
            }
            self.bb(depth + 1, &mut with_v, current + 1);
            self.pool[depth] = with_v;

            // Branch 2: exclude v — continue this loop on the same buffer.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn direct_chain_is_free() {
        let mut p = ChainPacker::new();
        p.insert(&[]);
        assert!(p.has_direct());
        assert_eq!(p.max_disjoint(|_| true, 3), 1);
    }

    #[test]
    fn duplicates_ignored() {
        let mut p = ChainPacker::new();
        assert!(p.insert(&[1, 2]));
        assert!(!p.insert(&[1, 2]));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn retain_shorter_than_keeps_the_verdicts_of_short_chains() {
        let mut p = ChainPacker::new();
        p.insert(&[]);
        p.insert(&[1, 2]);
        p.insert(&[3, 4, 5]);
        p.retain_shorter_than(3);
        assert_eq!(p.len(), 2);
        assert!(!p.insert(&[2, 1]), "a kept chain still dominates");
        assert!(p.insert(&[3, 4]), "a dropped chain dominates nothing");
        assert!(!p.insert(&[]), "the direct observation stays");
        p.retain_shorter_than(0);
        assert!(p.is_empty() && !p.has_direct());
        assert!(p.insert(&[]));
    }

    #[test]
    fn degenerate_chains_rejected() {
        let mut p = ChainPacker::new();
        assert!(!p.insert(&[1, 1]));
        assert!(p.is_empty());
    }

    #[test]
    fn disjoint_singletons_all_count() {
        let mut p = ChainPacker::new();
        for k in 0..5u64 {
            p.insert(&[k]);
        }
        assert_eq!(p.max_disjoint(|_| true, 10), 5);
        assert_eq!(p.max_disjoint(|_| true, 3), 3); // early exit at target
    }

    #[test]
    fn conflicting_singletons_count_once() {
        let mut p = ChainPacker::new();
        p.insert(&[7]);
        p.insert(&[7, 8]); // dominated by [7] anyway
        assert_eq!(p.max_disjoint(|_| true, 10), 1);
    }

    #[test]
    fn admit_filter_excludes_chains() {
        let mut p = ChainPacker::new();
        p.insert(&[1]);
        p.insert(&[2]);
        p.insert(&[3]);
        // only relays < 3 admitted (e.g. inside the neighborhood)
        assert_eq!(p.max_disjoint(|r| r < 3, 10), 2);
    }

    #[test]
    fn packing_requires_exact_search() {
        // Chains: {1,2}, {2,3}, {3,4}, {1,4}: a 4-cycle conflict graph;
        // max independent set = 2 ({1,2},{3,4}).
        let mut p = ChainPacker::new();
        p.insert(&[1, 2]);
        p.insert(&[2, 3]);
        p.insert(&[3, 4]);
        p.insert(&[1, 4]);
        assert_eq!(p.max_disjoint(|_| true, 10), 2);
    }

    #[test]
    fn greedy_trap_solved_exactly() {
        // A star chain conflicting with everything plus independent pairs:
        // exact answer must skip the star.
        let mut p = ChainPacker::new();
        p.insert(&[1, 2, 3]); // conflicts with all below
        p.insert(&[1, 10]);
        p.insert(&[2, 11]);
        p.insert(&[3, 12]);
        assert_eq!(p.max_disjoint(|_| true, 10), 3);
    }

    #[test]
    fn mixed_direct_and_relayed() {
        let mut p = ChainPacker::new();
        p.insert(&[]);
        p.insert(&[1]);
        p.insert(&[2, 3]);
        assert_eq!(p.max_disjoint(|_| true, 10), 3);
    }

    #[test]
    fn dominance_superset_dropped() {
        let mut p = ChainPacker::new();
        p.insert(&[5]);
        p.insert(&[5, 6]); // superset of {5}: dominated
        p.insert(&[6, 7]);
        // optimal: {5} + {6,7}
        assert_eq!(p.max_disjoint(|_| true, 10), 2);
    }

    #[test]
    fn duplicate_direct_chains_rejected_without_a_seen_set() {
        let mut p = ChainPacker::new();
        assert!(p.insert(&[]));
        assert!(!p.insert(&[]));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn evicted_chain_reoffered_still_rejected() {
        // [5,6] stored, then evicted by its dominator [5]; re-offering
        // [5,6] must still return false (dominance survives eviction).
        let mut p = ChainPacker::new();
        assert!(p.insert(&[5, 6]));
        assert!(p.insert(&[5]));
        assert_eq!(p.len(), 1);
        assert!(!p.insert(&[5, 6]));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn chains_that_do_not_fit_are_rejected() {
        let mut p = ChainPacker::new();
        let long: Vec<u64> = (0..=MAX_CHAIN_KEYS as u64).collect();
        assert!(!p.insert(&long));
        // A key at or beyond the empty-slot sentinel has no u32 slot.
        assert!(!p.insert(&[u64::from(u32::MAX)]));
        assert!(!p.insert(&[7, u64::from(u32::MAX) + 1]));
        assert!(!p.insert(&[u64::MAX]));
        assert!(p.is_empty());
        let max: Vec<u64> = (0..MAX_CHAIN_KEYS as u64).collect();
        assert!(p.insert(&max));
        assert!(p.insert(&[u64::from(u32::MAX) - 1]));
    }

    #[test]
    fn chains_are_copy_and_unused_slots_are_not_relays() {
        let a = Chain::new(&[1, 2]);
        let b = Chain::new(&[1, 2]);
        assert_eq!(a, b);
        assert_eq!(a.relays(), &[1, 2]);
        let c = a; // Copy
        assert_eq!(c, b);
        // Key 0 is an ordinary relay, not padding.
        assert_eq!(Chain::new(&[0]).relays(), &[0]);
        assert_ne!(Chain::new(&[0]), Chain::new(&[]));
        assert!(Chain::new(&[0, 0]).has_repeats());
        assert!(!Chain::new(&[1]).conflicts_with(&Chain::new(&[2, 3])));
    }

    #[test]
    fn signature_collisions_fall_through_to_the_exact_test() {
        // Two distinct keys hashing to one signature bit: the signature
        // says "maybe subset / maybe overlapping", the keys say no.
        let a = 1u32;
        let b = (2u32..)
            .find(|&k| sig_bit(k) == sig_bit(a))
            .expect("32 buckets: a collision exists");
        let (ca, cb) = (Chain::new(&[u64::from(a)]), Chain::new(&[u64::from(b)]));
        assert_eq!(ca.sig, cb.sig);
        assert!(!ca.dominates(&cb) && !cb.dominates(&ca));
        assert!(!ca.conflicts_with(&cb));
        let mut p = ChainPacker::new();
        assert!(p.insert(&[u64::from(a)]));
        assert!(p.insert(&[u64::from(b)]));
        assert!(p.insert(&[u64::from(a) + 1_000, u64::from(b) + 1_000]));
        assert_eq!(p.len(), 3);
        assert_eq!(p.max_disjoint(|_| true, 9), 3);
    }

    #[test]
    fn target_zero_is_zero() {
        let mut p = ChainPacker::new();
        p.insert(&[1]);
        assert_eq!(p.max_disjoint(|_| true, 0), 0);
    }

    #[test]
    fn paper_worst_case_shape() {
        // Simulate the r=2 construction: 10 disjoint chains of ≤3 relays
        // plus 4 adversarial chains overlapping each of the first 4.
        let mut p = ChainPacker::new();
        for k in 0..10u64 {
            p.insert(&[100 + 3 * k, 101 + 3 * k, 102 + 3 * k]);
        }
        for k in 0..4u64 {
            p.insert(&[100 + 3 * k, 900 + k]); // conflicts with chain k
        }
        assert_eq!(p.max_disjoint(|_| true, 10), 10);
    }

    #[test]
    fn r2_liar_shape_is_settled_far_inside_the_budget() {
        // The r=2 storm: 10 disjoint 3-relay chains, and 4 liars each
        // affixing itself to a relay of every one of them. At most 3 liar
        // chains fit on one honest chain, so the 4 liar cliques cost two
        // honest chains: 4 + 8. Proving that 12 is the maximum is what the
        // clique-cover bound is for — no pinned run may lean on the budget
        // cutting a search short, or a tighter bound would move its answer.
        let mut p = ChainPacker::new();
        for k in 0..10u64 {
            p.insert(&[100 + 3 * k, 101 + 3 * k, 102 + 3 * k]);
        }
        for liar in 0..4u64 {
            for k in 0..10u64 {
                p.insert(&[100 + 3 * k + liar % 3, 900 + liar]);
            }
        }
        assert_eq!(p.len(), 50);
        BB_NODES.with(|nodes| nodes.set(0));
        assert_eq!(p.max_disjoint(|_| true, 32), 12);
        let nodes = BB_NODES.with(std::cell::Cell::get);
        assert!(nodes > 0, "greedy alone cannot prove a maximum");
        assert!(nodes < BB_BUDGET / 100, "{nodes} branch-and-bound nodes");
    }

    /// The packer this module replaced — two full passes per insert over
    /// heap chains — kept verbatim as the reference its successor must
    /// agree with, verdict for verdict and chain for chain.
    #[derive(Default)]
    struct ReferencePacker {
        chains: Vec<Vec<u64>>,
        has_direct: bool,
    }

    fn ref_dominates(a: &[u64], b: &[u64]) -> bool {
        !a.is_empty() && a.iter().all(|r| b.contains(r))
    }

    fn ref_conflicts_with(a: &[u64], b: &[u64]) -> bool {
        a.iter().any(|r| b.contains(r))
    }

    impl ReferencePacker {
        fn insert(&mut self, relays: &[u64]) -> bool {
            if relays.len() > MAX_CHAIN_KEYS {
                return false;
            }
            if relays
                .iter()
                .enumerate()
                .any(|(i, r)| relays[i + 1..].contains(r))
            {
                return false;
            }
            if relays.is_empty() {
                if self.has_direct {
                    return false;
                }
                self.has_direct = true;
                self.chains.push(Vec::new());
                return true;
            }
            if self.chains.iter().any(|c| ref_dominates(c, relays)) {
                return false;
            }
            self.chains.retain(|c| !ref_dominates(relays, c));
            self.chains.push(relays.to_vec());
            true
        }
    }

    /// Largest pairwise non-conflicting subset, by enumeration.
    fn brute_force_max(chains: &[&[u64]]) -> u32 {
        let n = chains.len();
        let conflicts: Vec<u32> = (0..n)
            .map(|a| {
                (0..n)
                    .filter(|&b| b != a && ref_conflicts_with(chains[a], chains[b]))
                    .fold(0, |mask, b| mask | 1 << b)
            })
            .collect();
        (0u32..1 << n)
            .filter(|&sel| (0..n).all(|a| sel & 1 << a == 0 || sel & conflicts[a] == 0))
            .map(u32::count_ones)
            .max()
            .unwrap_or(0)
    }

    proptest! {
        /// Same verdict per insert, same stored chains in the same order,
        /// same packing answer under any admit mask and target — on a key
        /// range small enough that chains overlap, nest and evict, and
        /// that signature bits collide.
        #[test]
        fn agrees_with_the_reference_packer(
            chains in proptest::collection::vec(
                proptest::collection::vec(0u64..12, 0..6), 1..15),
            queries in proptest::collection::vec((0u32..1 << 12, 1u32..8), 1..4),
        ) {
            let mut packer = ChainPacker::new();
            let mut reference = ReferencePacker::default();
            for c in &chains {
                prop_assert_eq!(packer.insert(c), reference.insert(c), "verdict on {:?}", c);
            }
            let stored: Vec<Vec<u64>> = packer
                .iter()
                .map(|c| c.relays().iter().map(|&r| u64::from(r)).collect())
                .collect();
            prop_assert_eq!(&stored, &reference.chains);
            prop_assert_eq!(packer.has_direct(), reference.has_direct);
            for &(mask, target) in &queries {
                let admit = |r: u64| mask & 1 << r != 0;
                let admitted: Vec<&[u64]> = reference
                    .chains
                    .iter()
                    .map(Vec::as_slice)
                    .filter(|c| c.iter().all(|&r| admit(r)))
                    .collect();
                // brute force counts the direct chain too: it conflicts
                // with nothing
                let expect = brute_force_max(&admitted).min(target);
                prop_assert_eq!(packer.max_disjoint(admit, target), expect);
            }
        }
    }

    proptest! {
        /// Exact result is at least as large as any greedy pick, and is a
        /// valid packing size (cross-checked by brute force on small
        /// instances).
        #[test]
        fn matches_brute_force(
            chains in proptest::collection::vec(
                proptest::collection::vec(0u64..10, 1..4), 1..15)
        ) {
            let mut p = ChainPacker::new();
            for c in &chains {
                p.insert(c);
            }
            let got = p.max_disjoint(|_| true, 32);

            // brute force over all subsets of distinct non-degenerate chains
            let distinct: Vec<Chain> = {
                let mut s = std::collections::BTreeSet::new();
                for c in &chains {
                    let ch = Chain::new(c);
                    if !ch.has_repeats() {
                        s.insert(ch);
                    }
                }
                s.into_iter().collect()
            };
            let relays: Vec<Vec<u64>> = distinct
                .iter()
                .map(|c| c.relays().iter().map(|&r| u64::from(r)).collect())
                .collect();
            let relays: Vec<&[u64]> = relays.iter().map(Vec::as_slice).collect();
            let best = brute_force_max(&relays);
            prop_assert_eq!(got, best);
        }
    }
}
