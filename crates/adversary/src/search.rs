//! Deterministic adversary search: greedy cut seeding + simulated
//! annealing.
//!
//! The search looks for the locally-bounded fault placement that does
//! the most damage to a broadcast run (see
//! [`AttackScore`](crate::AttackScore) for the objective ordering). It
//! is built from two stages:
//!
//! 1. **Greedy cut seeding** ([`greedy_cut_seed`]): run the
//!    `rbcast-flow` minimum-vertex-cut machinery *the other way round* —
//!    instead of certifying that enough disjoint paths exist, extract a
//!    smallest vertex set separating the source from the farthest node
//!    and greedily keep as much of it as the local bound `t` admits.
//!    Maurer–Tixeuil's observation that connectivity-cut structure (not
//!    fault count) is what breaks broadcast makes this a strong start.
//! 2. **Simulated annealing** ([`anneal`]): refine by add / remove /
//!    relocate moves. Every random draw is a pure function of
//!    `(seed, step)` via a splitmix64 mix ([`mix`]), so the proposal
//!    chain is exactly reproducible: re-running from a checkpointed
//!    [`AnnealState`] replays the identical tail, which is what makes
//!    `--journal` / `--resume` byte-identical to a straight-through run.
//!
//! The evaluation function is injected by the caller (the simulation
//! driver lives above this crate), so the search itself stays pure and
//! unit-testable.

use crate::objective::AttackScore;
use rbcast_flow::try_min_vertex_cut;
use rbcast_grid::plumbing::splitmix64_step;
use rbcast_grid::{Coord, Metric, NodeId, Torus};

/// Configuration of one search cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Broadcast radius of the target geometry.
    pub r: u32,
    /// Distance metric of the target geometry.
    pub metric: Metric,
    /// Local fault bound the placement must respect.
    pub t: usize,
    /// Master seed; every proposal draw derives from `(seed, step)`.
    pub seed: u64,
    /// Total annealing steps for the cell.
    pub steps: u32,
}

/// Resumable annealing state. Everything the tail of a search depends
/// on lives here — checkpointing this struct and calling [`anneal`]
/// again reproduces the straight-through result exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnealState {
    /// Next step to execute (steps `0..step` are already done).
    pub step: u32,
    /// The placement the chain currently sits on (sorted, deduped).
    pub current: Vec<NodeId>,
    /// Score of `current`.
    pub current_score: AttackScore,
    /// Best placement seen so far (sorted, deduped).
    pub best: Vec<NodeId>,
    /// Score of `best`.
    pub best_score: AttackScore,
    /// Full-simulation evaluations performed (valid proposals only).
    pub evaluations: u64,
    /// Proposals accepted by the annealing rule.
    pub accepted: u64,
}

/// One pseudo-random word, pure in `(seed, step, salt)`.
///
/// This is the search's entire source of randomness: no RNG object is
/// threaded through the chain, so any step's draws can be regenerated
/// in isolation — the property that makes checkpoint/resume exact.
#[must_use]
pub fn mix(seed: u64, step: u64, salt: u64) -> u64 {
    splitmix64_step(splitmix64_step(splitmix64_step(seed).wrapping_add(step)).wrapping_add(salt))
}

/// Incremental local-bound bookkeeping, shared by the annealer, the
/// greedy cut seed and `Placement::RandomLocal`.
///
/// `counts[c]` is the number of placed faults inside the closed ball
/// centred at `c`; a candidate is admissible iff every centre covering
/// it stays strictly below `t`.
pub(crate) struct BoundTracker<'a> {
    torus: &'a Torus,
    r: u32,
    metric: Metric,
    t: usize,
    counts: Vec<usize>,
}

impl<'a> BoundTracker<'a> {
    pub(crate) fn new(
        torus: &'a Torus,
        r: u32,
        metric: Metric,
        t: usize,
        faults: &[NodeId],
    ) -> Self {
        let mut tracker = BoundTracker {
            torus,
            r,
            metric,
            t,
            counts: vec![0; torus.len()],
        };
        for &f in faults {
            tracker.apply(f, 1);
        }
        tracker
    }

    /// Ball centres covering `id`: itself plus its neighborhood (ball
    /// membership is symmetric under both metrics). Runs once per
    /// proposal, before any run builds an arena for the geometry.
    fn covering(&self, id: NodeId) -> Vec<NodeId> {
        std::iter::once(id)
            .chain(self.torus.neighborhood(id, self.r, self.metric)) // audit:allow(adhoc-neighborhood)
            .collect()
    }

    fn can_add(&self, id: NodeId) -> bool {
        self.covering(id)
            .iter()
            .all(|c| self.counts[c.index()] < self.t)
    }

    /// Places `id` if [`Self::can_add`] admits it, from one scan of its
    /// covering centres; returns whether it did.
    pub(crate) fn try_add(&mut self, id: NodeId) -> bool {
        let covering = self.covering(id);
        let admissible = covering.iter().all(|c| self.counts[c.index()] < self.t);
        if admissible {
            for c in covering {
                self.counts[c.index()] += 1;
            }
        }
        admissible
    }

    fn apply(&mut self, id: NodeId, delta: isize) {
        for c in self.covering(id) {
            let slot = &mut self.counts[c.index()];
            *slot = slot
                .checked_add_signed(delta)
                .expect("bound tracker count under/overflow");
        }
    }
}

/// Greedy cut-based seed placement.
///
/// Extracts a minimum vertex cut between the source (origin) and the
/// farthest node of the torus, then keeps cut vertices (ascending id)
/// as long as the local bound `t` admits them. Returns the empty
/// placement when `t == 0`, when the terminals are adjacent (tiny
/// tori), or when the geometry is degenerate — the annealing stage
/// still searches from scratch in that case.
#[must_use]
pub fn greedy_cut_seed(torus: &Torus, r: u32, metric: Metric, t: usize) -> Vec<NodeId> {
    if t == 0 || torus.len() < 2 {
        return Vec::new();
    }
    let source = torus.id(Coord::ORIGIN);
    let sink = torus
        .node_ids()
        .filter(|&id| id != source)
        .max_by_key(|&id| {
            (
                torus.dist(Coord::ORIGIN, torus.coord(id), metric),
                std::cmp::Reverse(id),
            )
        })
        .expect("torus has at least two nodes");
    let adj: Vec<Vec<usize>> = torus
        .node_ids()
        .map(|id| {
            torus
                .neighborhood(id, r, metric) // audit:allow(adhoc-neighborhood)
                .map(|n| n.index())
                .collect()
        })
        .collect();
    let cut = match try_min_vertex_cut(&adj, source.index(), sink.index()) {
        Ok(Some(cut)) => cut,
        // Adjacent terminals (no cut exists) or a degenerate geometry:
        // fall back to the empty seed.
        Ok(None) | Err(_) => return Vec::new(),
    };
    let mut tracker = BoundTracker::new(torus, r, metric, t, &[]);
    let mut seed = Vec::new();
    for v in cut {
        let id = NodeId(u32::try_from(v).expect("torus indices fit in u32"));
        if id != source && tracker.try_add(id) {
            seed.push(id);
        }
    }
    seed.sort_unstable();
    seed
}

/// Builds the step-0 state: greedy seed, evaluated once.
pub fn initial_state<F>(torus: &Torus, cfg: &SearchConfig, eval: &mut F) -> AnnealState
where
    F: FnMut(&[NodeId]) -> AttackScore,
{
    let seed_placement = greedy_cut_seed(torus, cfg.r, cfg.metric, cfg.t);
    let score = eval(&seed_placement);
    AnnealState {
        step: 0,
        current: seed_placement.clone(),
        current_score: score,
        best: seed_placement,
        best_score: score,
        evaluations: 1,
        accepted: 0,
    }
}

/// A proposed move, with enough information to undo it on rejection.
enum Move {
    Add(NodeId),
    Remove(NodeId),
    Relocate { out: NodeId, in_: NodeId },
}

/// Runs the annealing chain from `state.step` to `cfg.steps`.
///
/// Each step derives its move kind, operands, and acceptance draw from
/// [`mix`]`(cfg.seed, step, salt)` alone, so a resumed run replays the
/// identical chain. `checkpoint` is invoked after every
/// `checkpoint_every` completed steps (and once more at the end when
/// the last step is not on a checkpoint boundary); pass `0` to disable
/// periodic checkpoints (the final call still happens).
///
/// Acceptance is *threshold annealing*: improving or equal proposals
/// are always accepted; worsening proposals are accepted with a
/// probability that cools linearly from 25% to 0 over the schedule.
/// Scores are compared by `Ord` only — no numeric temperature enters,
/// so the chain is exactly reproducible across platforms.
pub fn anneal<F, C>(
    torus: &Torus,
    cfg: &SearchConfig,
    state: &mut AnnealState,
    eval: &mut F,
    checkpoint_every: u32,
    checkpoint: &mut C,
) where
    F: FnMut(&[NodeId]) -> AttackScore,
    C: FnMut(&AnnealState),
{
    let source = torus.id(Coord::ORIGIN);
    let mut tracker = BoundTracker::new(torus, cfg.r, cfg.metric, cfg.t, &state.current);
    let n = torus.len() as u64;
    let window = 4 * u64::from(cfg.steps.max(1));
    while state.step < cfg.steps {
        let s = state.step;
        let step64 = u64::from(s);
        let proposal = propose(cfg, state, &tracker, source, n, step64);
        if let Some(mv) = proposal {
            // Apply, evaluate, then keep or undo.
            let trial = apply_move(&state.current, &mv);
            match mv {
                Move::Add(id) => tracker.apply(id, 1),
                Move::Remove(id) => tracker.apply(id, -1),
                Move::Relocate { out, in_ } => {
                    tracker.apply(out, -1);
                    tracker.apply(in_, 1);
                }
            }
            let score = eval(&trial);
            state.evaluations += 1;
            let cool = u64::from(cfg.steps - s);
            let accept =
                score >= state.current_score || mix(cfg.seed, step64, SALT_ACCEPT) % window < cool;
            if accept {
                state.accepted += 1;
                state.current = trial;
                state.current_score = score;
                if score > state.best_score {
                    state.best = state.current.clone();
                    state.best_score = score;
                }
            } else {
                match mv {
                    Move::Add(id) => tracker.apply(id, -1),
                    Move::Remove(id) => tracker.apply(id, 1),
                    Move::Relocate { out, in_ } => {
                        tracker.apply(in_, -1);
                        tracker.apply(out, 1);
                    }
                }
            }
        }
        state.step += 1;
        if checkpoint_every > 0 && state.step.is_multiple_of(checkpoint_every) {
            checkpoint(state);
        }
    }
    if checkpoint_every == 0 || !state.step.is_multiple_of(checkpoint_every) {
        checkpoint(state);
    }
    debug_assert!(crate::respects_bound(
        torus,
        cfg.r,
        cfg.metric,
        &state.current,
        cfg.t
    ));
}

const SALT_KIND: u64 = 0;
const SALT_PRIMARY: u64 = 1;
const SALT_SECONDARY: u64 = 2;
const SALT_ACCEPT: u64 = 3;

/// Derives step `step64`'s move, or `None` when the drawn move is
/// inadmissible (occupied candidate, bound violation, empty set…) — an
/// inadmissible draw burns the step without an evaluation.
fn propose(
    cfg: &SearchConfig,
    state: &AnnealState,
    tracker: &BoundTracker<'_>,
    source: NodeId,
    n: u64,
    step64: u64,
) -> Option<Move> {
    let kind = mix(cfg.seed, step64, SALT_KIND) % 3;
    match kind {
        0 => {
            let id = NodeId((mix(cfg.seed, step64, SALT_PRIMARY) % n) as u32);
            (id != source && state.current.binary_search(&id).is_err() && tracker.can_add(id))
                .then_some(Move::Add(id))
        }
        1 => {
            if state.current.is_empty() {
                return None;
            }
            let idx = (mix(cfg.seed, step64, SALT_PRIMARY) % state.current.len() as u64) as usize;
            Some(Move::Remove(state.current[idx]))
        }
        _ => {
            if state.current.is_empty() {
                return None;
            }
            let idx = (mix(cfg.seed, step64, SALT_PRIMARY) % state.current.len() as u64) as usize;
            let out = state.current[idx];
            let in_ = NodeId((mix(cfg.seed, step64, SALT_SECONDARY) % n) as u32);
            if in_ == source || in_ == out || state.current.binary_search(&in_).is_ok() {
                return None;
            }
            // Admissibility of the incoming node is checked with the
            // outgoing one still counted — strictly conservative (a
            // placement passing this check also passes after the
            // removal), and it keeps the check side-effect free.
            tracker.can_add(in_).then_some(Move::Relocate { out, in_ })
        }
    }
}

/// The placement after `mv`, sorted and deduped.
fn apply_move(current: &[NodeId], mv: &Move) -> Vec<NodeId> {
    let mut next: Vec<NodeId> = match *mv {
        Move::Add(id) => {
            let mut v = current.to_vec();
            v.push(id);
            v
        }
        Move::Remove(id) => current.iter().copied().filter(|&x| x != id).collect(),
        Move::Relocate { out, in_ } => {
            let mut v: Vec<NodeId> = current.iter().copied().filter(|&x| x != out).collect();
            v.push(in_);
            v
        }
    };
    next.sort_unstable();
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::respects_bound;

    /// Computed at the commit before `splitmix64` moved to
    /// `rbcast_grid::plumbing`: every proposal draw hangs off this.
    #[test]
    fn mix_is_pinned() {
        assert_eq!(mix(1, 2, 3), 0x6ae5_15c1_c0ac_7e37);
    }

    fn torus() -> Torus {
        Torus::new(12, 12)
    }

    fn cfg(t: usize, seed: u64, steps: u32) -> SearchConfig {
        SearchConfig {
            r: 1,
            metric: Metric::Linf,
            t,
            seed,
            steps,
        }
    }

    /// A cheap deterministic stand-in for the simulation: more faults
    /// and larger ids score higher.
    fn toy_eval(placement: &[NodeId]) -> AttackScore {
        AttackScore {
            wrong: 0,
            undecided: 0,
            last_round: placement.iter().map(|id| id.0).sum::<u32>() % 1000
                + 10 * placement.len() as u32,
        }
    }

    #[test]
    fn mix_is_pure_and_salt_sensitive() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 3));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn greedy_seed_respects_bound_and_is_nonempty() {
        let torus = torus();
        for t in 1..=3usize {
            let seed = greedy_cut_seed(&torus, 1, Metric::Linf, t);
            assert!(!seed.is_empty(), "t={t}");
            assert!(respects_bound(&torus, 1, Metric::Linf, &seed, t), "t={t}");
            let mut sorted = seed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(seed, sorted);
            assert!(!seed.contains(&torus.id(Coord::ORIGIN)));
        }
    }

    #[test]
    fn greedy_seed_zero_budget_is_empty() {
        assert!(greedy_cut_seed(&torus(), 1, Metric::Linf, 0).is_empty());
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let torus = torus();
        let cfg = cfg(2, 42, 80);
        let run = || {
            let mut eval = toy_eval;
            let mut state = initial_state(&torus, &cfg, &mut eval);
            anneal(&torus, &cfg, &mut state, &mut eval, 0, &mut |_| {});
            state
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.evaluations > 1, "no proposals were evaluated");
        assert!(a.accepted > 0, "no proposals were accepted");
    }

    #[test]
    fn different_seeds_diverge() {
        let torus = torus();
        let run = |seed| {
            let cfg = cfg(2, seed, 80);
            let mut eval = toy_eval;
            let mut state = initial_state(&torus, &cfg, &mut eval);
            anneal(&torus, &cfg, &mut state, &mut eval, 0, &mut |_| {});
            state
        };
        // Identical initial seeds, but the chains diverge.
        assert_ne!(run(7).current, run(8).current);
    }

    #[test]
    fn anneal_preserves_local_bound() {
        let torus = torus();
        for seed in 0..4u64 {
            let cfg = cfg(2, seed, 120);
            let mut eval = toy_eval;
            let mut state = initial_state(&torus, &cfg, &mut eval);
            anneal(&torus, &cfg, &mut state, &mut eval, 0, &mut |_| {});
            assert!(respects_bound(
                &torus,
                cfg.r,
                cfg.metric,
                &state.current,
                cfg.t
            ));
            assert!(respects_bound(
                &torus,
                cfg.r,
                cfg.metric,
                &state.best,
                cfg.t
            ));
            assert!(state.best_score >= state.current_score.min(state.best_score));
        }
    }

    #[test]
    fn resume_from_checkpoint_matches_straight_run() {
        let torus = torus();
        let cfg = cfg(2, 1234, 100);

        // Straight-through run, capturing the step-40 checkpoint.
        let mut eval = toy_eval;
        let mut straight = initial_state(&torus, &cfg, &mut eval);
        let mut snapshot: Option<AnnealState> = None;
        anneal(&torus, &cfg, &mut straight, &mut eval, 40, &mut |s| {
            if s.step == 40 {
                snapshot = Some(s.clone());
            }
        });

        // Resume from the snapshot; the tail must replay identically.
        let mut resumed = snapshot.expect("checkpoint at step 40 fired");
        // Evaluation/acceptance counters continue from the checkpoint.
        anneal(&torus, &cfg, &mut resumed, &mut eval, 0, &mut |_| {});
        assert_eq!(resumed, straight);
    }

    #[test]
    fn best_never_regresses() {
        let torus = torus();
        let cfg = cfg(3, 99, 150);
        let mut eval = toy_eval;
        let mut state = initial_state(&torus, &cfg, &mut eval);
        let mut last_best = state.best_score;
        anneal(&torus, &cfg, &mut state, &mut eval, 10, &mut |s| {
            assert!(s.best_score >= last_best);
            last_best = s.best_score;
        });
        assert!(state.best_score >= state.current_score || state.best_score >= last_best);
    }
}
