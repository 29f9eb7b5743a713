//! Channel imperfection models (§X of the paper, and the §II remark on
//! probabilistic local broadcast).
//!
//! The baseline model assumes *reliable local broadcast*: every
//! transmission reaches every neighbor, senders cannot be spoofed, and a
//! TDMA schedule rules out collisions. §X discusses what breaks when
//! these assumptions are relaxed; [`ChannelConfig`] makes each relaxation
//! available to experiments:
//!
//! * **Loss** — each delivery independently fails with probability
//!   `loss`; `redundancy` models the probabilistic local broadcast
//!   primitive built from `redundancy` link-layer retransmissions
//!   (delivery succeeds unless all attempts are lost, i.e. with
//!   probability `1 − loss^redundancy`).
//! * **Spoofing** — when enabled, a transmission may carry a forged
//!   sender identity (honest protocols never use this; Byzantine
//!   processes may, via [`crate::Ctx::broadcast_as`]).
//! * **Jamming** — each faulty node may destroy up to `jam_budget`
//!   transmissions *in total* by deliberate collision (§X considers the
//!   bounded-collisions regime; with an unbounded budget broadcast is
//!   impossible outright). A jammed transmission is lost at exactly the
//!   receivers within the jammer's range (receivers out of range still
//!   hear it).
//! * **Burst loss** — a per-edge Gilbert–Elliot two-state Markov chain
//!   ([`BurstLoss`]) replaces the independent per-delivery coin: each
//!   directed edge is in a *good* or *bad* state, transitions once per
//!   round, and drops deliveries at the state's loss rate. Draws are a
//!   pure function of `(seed, edge, round)`, so runs replay exactly;
//!   the networked runtime's chaos shim shares the same chain via
//!   [`BurstChain`].

use crate::Round;
use rbcast_grid::plumbing::splitmix64;
use rbcast_grid::NodeId;

/// Parameters of the Gilbert–Elliot two-state burst-loss chain.
///
/// Each directed edge `(sender, receiver)` carries an independent chain
/// that starts *good* at round 0 and makes one transition per round;
/// deliveries are then lost at the current state's loss rate. All draws
/// are pure in `(seed, edge, round)` — no chain state is stored, so two
/// runs over the same seed see byte-identical losses regardless of
/// engine, thread count, or query order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-round probability of a good edge turning bad.
    pub p_good_to_bad: f64,
    /// Per-round probability of a bad edge recovering (mean burst
    /// length is `1 / p_bad_to_good` rounds).
    pub p_bad_to_good: f64,
    /// Per-attempt loss probability while the edge is good.
    pub loss_good: f64,
    /// Per-attempt loss probability while the edge is bad.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// A burst model with a loss-free good state.
    ///
    /// # Panics
    ///
    /// Panics unless all probabilities lie in `[0, 1]` (and
    /// `loss_bad < 1` is *not* required — a fully opaque bad state is
    /// the classic Gilbert model).
    #[must_use]
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1]");
        }
        BurstLoss {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
        }
    }

    /// Chain state of `edge` after `step` transitions (true = bad),
    /// computed by walking the chain from its good start — a pure
    /// function of `(seed, edge, step)`.
    #[must_use]
    fn state_at(&self, seed: u64, edge: (u32, u32), step: u64) -> bool {
        let mut bad = false;
        for s in 1..=step {
            bad = self.next_state(bad, seed, edge, s);
        }
        bad
    }

    /// One transition of the chain: the state at `step` given the state
    /// at `step − 1`.
    fn next_state(&self, bad: bool, seed: u64, edge: (u32, u32), step: u64) -> bool {
        let draw = mix_unit(
            seed ^ STREAM_TRANSITION,
            u64::from(edge.0),
            u64::from(edge.1),
            step,
        );
        if bad {
            draw >= self.p_bad_to_good
        } else {
            draw < self.p_good_to_bad
        }
    }

    /// The per-attempt loss probability in the given state.
    #[must_use]
    pub fn loss_prob(&self, bad: bool) -> f64 {
        if bad {
            self.loss_bad
        } else {
            self.loss_good
        }
    }

    /// Stationary probability of the bad state,
    /// `p_gb / (p_gb + p_bg)` — handy for sizing experiments.
    #[cfg(test)]
    fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }
}

/// Incrementally advanced Gilbert–Elliot chain for one directed edge.
///
/// `BurstLoss::state_at` walks from round 0 on every query — exact but
/// O(step). A long-lived consumer tracking one edge (the networked
/// chaos shim, which queries per datagram) keeps a `BurstChain` and
/// advances it monotonically instead; the state sequence is identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstChain {
    step: u64,
    bad: bool,
}

impl BurstChain {
    /// Advances the chain to `step` (monotonic) and returns its state
    /// there (true = bad). Matches `BurstLoss::state_at` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `step` is behind a previously queried step — the chain
    /// only moves forward.
    pub fn bad_at(&mut self, model: &BurstLoss, seed: u64, edge: (u32, u32), step: u64) -> bool {
        assert!(
            step >= self.step,
            "burst chain queried backwards ({} after {})",
            step,
            self.step
        );
        while self.step < step {
            self.step += 1;
            self.bad = model.next_state(self.bad, seed, edge, self.step);
        }
        self.bad
    }
}

/// Configuration of the (possibly imperfect) broadcast channel.
///
/// [`ChannelConfig::default`] is the paper's baseline: perfectly
/// reliable, unspoofable, collision-free.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Per-attempt, per-receiver independent loss probability.
    pub loss: f64,
    /// Link-layer retransmissions backing each local broadcast (≥ 1).
    /// A delivery is lost only if all `redundancy` attempts are lost.
    pub redundancy: u32,
    /// Whether forged sender identities are honoured by the channel.
    pub spoofing: bool,
    /// Total deliberate collisions each faulty node may cause over the
    /// whole run (its collision "battery").
    pub jam_budget: u32,
    /// Nodes acting as jammers (normally the Byzantine placement).
    pub jammers: Vec<NodeId>,
    /// RNG seed for loss draws.
    pub seed: u64,
    /// Gilbert–Elliot burst-loss chain; `None` keeps the independent
    /// per-delivery coin of `loss`.
    pub burst: Option<BurstLoss>,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            loss: 0.0,
            redundancy: 1,
            spoofing: false,
            jam_budget: 0,
            jammers: Vec::new(),
            seed: 0,
            burst: None,
        }
    }
}

impl ChannelConfig {
    /// The paper's baseline reliable channel.
    #[must_use]
    pub fn reliable() -> Self {
        ChannelConfig::default()
    }

    /// A lossy channel with the probabilistic local broadcast primitive:
    /// per-receiver loss probability `loss`, masked by `redundancy`
    /// link-layer retransmissions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss < 1` and `redundancy ≥ 1`.
    #[must_use]
    pub fn lossy(loss: f64, redundancy: u32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        assert!(redundancy >= 1, "redundancy must be at least 1");
        ChannelConfig {
            loss,
            redundancy,
            seed,
            ..ChannelConfig::default()
        }
    }

    /// A bursty channel: the deterministic Gilbert–Elliot extension of
    /// [`ChannelConfig::lossy`]. Per-edge chains replace the independent
    /// coin; `redundancy` retransmissions still mask individual losses
    /// (but not a bad state with `loss_bad = 1`, which is exactly the
    /// point of modelling bursts).
    #[cfg(test)]
    pub(crate) fn bursty(burst: BurstLoss, seed: u64) -> Self {
        ChannelConfig {
            burst: Some(burst),
            seed,
            ..ChannelConfig::default()
        }
    }

    /// Enables forged sender identities (the §X spoofing relaxation).
    #[must_use]
    pub fn with_spoofing(mut self) -> Self {
        self.spoofing = true;
        self
    }

    /// Arms `jammers` with a lifetime battery of `budget` deliberate
    /// collisions each.
    #[must_use]
    pub fn with_jammers(mut self, jammers: Vec<NodeId>, budget: u32) -> Self {
        self.jammers = jammers;
        self.jam_budget = budget;
        self
    }
}

/// Stream separator for burst-chain transition draws (vs loss draws),
/// so the two per-edge random sequences never correlate.
const STREAM_TRANSITION: u64 = 0x5851_F42D_4C95_7F2D;
/// Stream separator for burst-mode per-attempt loss draws.
const STREAM_BURST_LOSS: u64 = 0x1405_7B7E_F767_814F;

/// A uniform draw in `[0, 1)`, pure in `(seed, a, b, c)` — the same
/// splitmix-style mix the independent-loss path uses.
fn mix_unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(b)
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(c)
        .wrapping_mul(0x2545_F491_4F6C_DD1D);
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic per-delivery loss decision.
///
/// Derives an independent pseudo-random draw from
/// `(seed, round, transmission index, receiver)` with a splitmix-style
/// mix, so runs are reproducible without storing RNG state per edge.
/// Under a [`BurstLoss`] model the per-attempt loss probability is the
/// `(sender, receiver)` edge's current chain state's rate instead of
/// the flat `loss`.
#[must_use]
pub(crate) fn delivery_lost(
    cfg: &ChannelConfig,
    round: Round,
    tx_index: usize,
    sender: NodeId,
    receiver: NodeId,
) -> bool {
    if let Some(burst) = &cfg.burst {
        let bad = burst.state_at(cfg.seed, (sender.0, receiver.0), u64::from(round));
        let p = burst.loss_prob(bad);
        if p <= 0.0 {
            return false;
        }
        for attempt in 0..cfg.redundancy {
            let draw = mix_unit(
                cfg.seed ^ STREAM_BURST_LOSS,
                u64::from(round)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(tx_index as u64),
                u64::from(receiver.0),
                u64::from(attempt),
            );
            if draw >= p {
                return false;
            }
        }
        return true;
    }
    if cfg.loss == 0.0 {
        return false;
    }
    let mut lost = true;
    for attempt in 0..cfg.redundancy {
        let x = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(round))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(tx_index as u64)
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(u64::from(receiver.0))
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(u64::from(attempt));
        let draw = (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= cfg.loss {
            lost = false;
            break;
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reliable() {
        let cfg = ChannelConfig::default();
        assert!(!delivery_lost(&cfg, 0, 0, NodeId(1), NodeId(0)));
    }

    #[test]
    fn lossy_rates_are_plausible() {
        let cfg = ChannelConfig::lossy(0.3, 1, 42);
        let n = 20_000;
        let lost = (0..n)
            .filter(|&i| delivery_lost(&cfg, 1, i, NodeId(1), NodeId(7)))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn redundancy_masks_losses() {
        let cfg = ChannelConfig::lossy(0.5, 4, 42);
        let n = 20_000;
        let lost = (0..n)
            .filter(|&i| delivery_lost(&cfg, 1, i, NodeId(1), NodeId(7)))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.0625).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn draws_are_deterministic() {
        let cfg = ChannelConfig::lossy(0.4, 2, 9);
        for i in 0..100 {
            assert_eq!(
                delivery_lost(&cfg, 3, i, NodeId(1), NodeId(11)),
                delivery_lost(&cfg, 3, i, NodeId(1), NodeId(11))
            );
        }
    }

    #[test]
    fn draws_vary_across_receivers_and_rounds() {
        let cfg = ChannelConfig::lossy(0.5, 1, 1);
        let a: Vec<bool> = (0..64)
            .map(|i| delivery_lost(&cfg, 1, i, NodeId(0), NodeId(1)))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| delivery_lost(&cfg, 1, i, NodeId(0), NodeId(2)))
            .collect();
        let c: Vec<bool> = (0..64)
            .map(|i| delivery_lost(&cfg, 2, i, NodeId(0), NodeId(1)))
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn rejects_certain_loss() {
        let _ = ChannelConfig::lossy(1.0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "redundancy")]
    fn rejects_zero_redundancy() {
        let _ = ChannelConfig::lossy(0.1, 0, 0);
    }

    #[test]
    fn builder_composes() {
        let cfg = ChannelConfig::lossy(0.1, 2, 5)
            .with_spoofing()
            .with_jammers(vec![NodeId(3)], 2);
        assert!(cfg.spoofing);
        assert_eq!(cfg.jam_budget, 2);
    }

    fn gilbert() -> BurstLoss {
        BurstLoss::new(0.05, 0.2, 0.0, 1.0)
    }

    #[test]
    fn bursty_channel_is_not_reliable() {
        let cfg = ChannelConfig::bursty(gilbert(), 7);
        assert!(cfg.burst.is_some());
        // The flat independent coin stays off; losses come from the chain.
        assert!((cfg.loss - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn burst_states_match_the_stationary_distribution() {
        let model = gilbert();
        let expected = model.stationary_bad();
        assert!((expected - 0.2).abs() < 1e-12);
        let mut bad = 0u64;
        let steps = 4_000u64;
        let edges = 16u32;
        for e in 0..edges {
            for s in 1..=steps {
                if model.state_at(42, (e, e + 1), s) {
                    bad += 1;
                }
            }
        }
        let rate = bad as f64 / (steps * u64::from(edges)) as f64;
        assert!((rate - expected).abs() < 0.03, "bad-state rate {rate}");
    }

    #[test]
    fn burst_losses_come_in_runs() {
        // Mean bad-burst length must track 1/p_bad_to_good — the whole
        // point of the Gilbert–Elliot model vs an independent coin.
        let model = gilbert();
        let mut runs = 0u64;
        let mut bad_steps = 0u64;
        for e in 0..16u32 {
            let mut prev = false;
            for s in 1..=4_000u64 {
                let bad = model.state_at(9, (e, 0), s);
                if bad {
                    bad_steps += 1;
                    if !prev {
                        runs += 1;
                    }
                }
                prev = bad;
            }
        }
        assert!(runs > 0);
        let mean_len = bad_steps as f64 / runs as f64;
        assert!(
            (mean_len - 5.0).abs() < 1.0,
            "mean burst length {mean_len}, expected ≈ 5"
        );
    }

    #[test]
    fn incremental_chain_matches_pure_walk() {
        let model = BurstLoss::new(0.1, 0.3, 0.02, 0.9);
        let edge = (3u32, 8u32);
        let mut chain = BurstChain::default();
        for step in [0u64, 1, 2, 5, 6, 40, 41, 100] {
            assert_eq!(
                chain.bad_at(&model, 77, edge, step),
                model.state_at(77, edge, step),
                "step {step}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "queried backwards")]
    fn incremental_chain_rejects_rewind() {
        let model = gilbert();
        let mut chain = BurstChain::default();
        let _ = chain.bad_at(&model, 1, (0, 1), 10);
        let _ = chain.bad_at(&model, 1, (0, 1), 9);
    }

    #[test]
    fn burst_draws_are_deterministic_and_edge_keyed() {
        let cfg = ChannelConfig::bursty(BurstLoss::new(0.3, 0.3, 0.05, 0.95), 5);
        let a: Vec<bool> = (0..200)
            .map(|i| delivery_lost(&cfg, (i % 40) as Round, i, NodeId(1), NodeId(2)))
            .collect();
        let b: Vec<bool> = (0..200)
            .map(|i| delivery_lost(&cfg, (i % 40) as Round, i, NodeId(1), NodeId(2)))
            .collect();
        let c: Vec<bool> = (0..200)
            .map(|i| delivery_lost(&cfg, (i % 40) as Round, i, NodeId(3), NodeId(2)))
            .collect();
        assert_eq!(a, b, "same inputs must draw identically");
        assert_ne!(a, c, "a different sender keys a different chain");
    }

    #[test]
    fn opaque_bad_state_loses_everything_while_bad() {
        // loss_bad = 1, loss_good = 0: a delivery is lost iff the edge's
        // chain is bad at that round, independent of redundancy.
        let model = gilbert();
        let mut cfg = ChannelConfig::bursty(model, 11);
        cfg.redundancy = 3;
        for round in 1..200u32 {
            let bad = model.state_at(11, (4, 9), u64::from(round));
            assert_eq!(
                delivery_lost(&cfg, round, 0, NodeId(4), NodeId(9)),
                bad,
                "round {round}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "p_bad_to_good must be in")]
    fn burst_rejects_out_of_range_probability() {
        let _ = BurstLoss::new(0.1, 1.5, 0.0, 1.0);
    }
}
