//! Deterministic chaos injection between the link layer and the wire.
//!
//! [`ChaosTransport`] wraps any [`Datagram`] transport and perturbs the
//! *outbound* path: seeded Gilbert–Elliott burst loss (the same
//! [`BurstLoss`] model the simulator's channel uses, so sim experiments
//! and cluster runs share one loss process), duplication, reordering
//! (as a one-tick hold-back), and fixed delay. Every decision derives
//! from `(seed, directed edge, per-edge send counter)` via splitmix
//! mixing — a chaotic run replays exactly given the same seed and send
//! schedule, which is what lets the chaos smoke test assert byte-level
//! parity against the reliable oracle.
//!
//! Process kill/stall chaos is *not* here: those are orchestrated at
//! the cluster layer (dropping or freezing a whole node), composing
//! with the journal-based recovery path.

use crate::transport::Datagram;
use rbcast_grid::plumbing::splitmix64_step;
use rbcast_sim::{BurstChain, BurstLoss};
use std::collections::BTreeMap;

/// Per-node chaos parameters. Rates are parts-per-million of sends so
/// integer configs stay exact across serialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for every stochastic decision in this shim.
    pub seed: u64,
    /// Gilbert–Elliott burst-loss model, if any.
    pub burst: Option<BurstLoss>,
    /// Probability (ppm) of duplicating a datagram.
    pub dup_ppm: u32,
    /// Probability (ppm) of holding a datagram back one tick, letting
    /// later sends overtake it (reordering).
    pub reorder_ppm: u32,
    /// Probability (ppm) of delaying a datagram by [`ChaosConfig::delay_ticks`].
    pub delay_ppm: u32,
    /// Delay length for delayed datagrams, in transport ticks.
    pub delay_ticks: u64,
}

impl ChaosConfig {
    /// No chaos at all: the shim becomes a transparent pass-through.
    #[cfg(test)]
    fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            burst: None,
            dup_ppm: 0,
            reorder_ppm: 0,
            delay_ppm: 0,
            delay_ticks: 0,
        }
    }

    /// The cluster smoke-test profile: bursty loss plus light
    /// duplication and reordering.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        ChaosConfig {
            seed,
            burst: Some(BurstLoss::new(0.05, 0.25, 0.01, 0.9)),
            dup_ppm: 20_000, // 2%
            reorder_ppm: 20_000,
            delay_ppm: 10_000, // 1%
            delay_ticks: 3,
        }
    }
}

// Distinct mixing streams so loss, duplication, reordering, and delay
// decisions are independent draws.
const STREAM_DROP: u64 = 0x9E6C_63D0_876A_3F6B;
const STREAM_DUP: u64 = 0xB8AC_F2C6_2F4E_6D57;
const STREAM_REORDER: u64 = 0xD6E8_FEB8_6659_FD93;
const STREAM_DELAY: u64 = 0x8F51_7312_86E6_D1C5;

/// Uniform draw in `[0, 1_000_000)` for stream/edge/counter.
fn draw_ppm(seed: u64, stream: u64, to: u32, counter: u64) -> u32 {
    let mixed = splitmix64_step(
        seed ^ stream ^ (u64::from(to) << 32) ^ counter.wrapping_mul(0x2545_F491_4F6C_DD1D),
    );
    (mixed % 1_000_000) as u32
}

#[derive(Debug, Default)]
struct EdgeState {
    sends: u64,
    chain: BurstChain,
}

/// A [`Datagram`] wrapper injecting seeded faults on the send path.
pub struct ChaosTransport<T> {
    me: u32,
    inner: T,
    cfg: ChaosConfig,
    edges: BTreeMap<u32, EdgeState>,
    held: Vec<(u64, u32, Vec<u8>)>, // (release tick, to, bytes)
    now: u64,
    /// Fault counters, for reporting.
    pub stats: ChaosStats,
}

/// What the shim did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Datagrams dropped by burst loss.
    pub dropped: u64,
    /// Datagrams duplicated.
    pub duplicated: u64,
    /// Datagrams held back for reordering or delay.
    pub delayed: u64,
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChaosTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTransport")
            .field("me", &self.me)
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<T: Datagram> ChaosTransport<T> {
    /// Wraps `inner` for node `me` under `cfg`.
    pub fn new(me: u32, inner: T, cfg: ChaosConfig) -> Self {
        ChaosTransport {
            me,
            inner,
            cfg,
            edges: BTreeMap::new(),
            held: Vec::new(),
            now: 0,
            stats: ChaosStats::default(),
        }
    }

    fn release_due(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= now {
                let (_, to, bytes) = self.held.swap_remove(i);
                self.inner.send(to, &bytes);
            } else {
                i += 1;
            }
        }
    }
}

impl<T: Datagram> Datagram for ChaosTransport<T> {
    fn send(&mut self, to: u32, bytes: &[u8]) {
        let edge = self.edges.entry(to).or_default();
        let counter = edge.sends;
        edge.sends += 1;
        // Gilbert–Elliott loss: the per-edge chain steps once per send,
        // so burst lengths are measured in transmissions (retransmits
        // advance the chain — a stuck-bad edge recovers as the link
        // retries, matching how the sim's redundancy primitive masks
        // bursts with repeated sends).
        if let Some(model) = self.cfg.burst {
            let bad = edge
                .chain
                .bad_at(&model, self.cfg.seed, (self.me, to), counter);
            let p = model.loss_prob(bad);
            if p > 0.0 {
                let roll = f64::from(draw_ppm(self.cfg.seed, STREAM_DROP, to, counter)) / 1.0e6;
                if roll < p {
                    self.stats.dropped += 1;
                    return;
                }
            }
        }
        if draw_ppm(self.cfg.seed, STREAM_DELAY, to, counter) < self.cfg.delay_ppm {
            self.stats.delayed += 1;
            self.held
                .push((self.now + self.cfg.delay_ticks, to, bytes.to_vec()));
            return;
        }
        if draw_ppm(self.cfg.seed, STREAM_REORDER, to, counter) < self.cfg.reorder_ppm {
            // Hold one tick: datagrams sent later this tick (and next)
            // overtake it.
            self.stats.delayed += 1;
            self.held.push((self.now + 1, to, bytes.to_vec()));
            return;
        }
        self.inner.send(to, bytes);
        if draw_ppm(self.cfg.seed, STREAM_DUP, to, counter) < self.cfg.dup_ppm {
            self.stats.duplicated += 1;
            self.inner.send(to, bytes);
        }
    }

    fn poll(&mut self) -> Option<Vec<u8>> {
        self.inner.poll()
    }

    fn tick(&mut self, now: u64) {
        self.now = now;
        self.release_due();
        self.inner.tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackHub;

    /// Values computed at the commit before `splitmix` moved to
    /// `rbcast_grid::plumbing`: a changed draw would still converge and
    /// pass parity, so it is pinned here.
    #[test]
    fn draws_are_pinned() {
        assert_eq!(draw_ppm(7, STREAM_DROP, 3, 11), 519_827);
        assert_eq!(draw_ppm(0xDEAD_BEEF, STREAM_DELAY, 40, 1 << 33), 478_887);
    }

    fn drain(port: &mut impl Datagram) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| port.poll()).collect()
    }

    #[test]
    fn quiet_config_is_transparent() {
        let hub = LoopbackHub::new();
        let mut tx = ChaosTransport::new(0, hub.attach(0), ChaosConfig::quiet(7));
        let mut rx = hub.attach(1);
        for i in 0..100u8 {
            tx.send(1, &[i]);
        }
        let got = drain(&mut rx);
        assert_eq!(got.len(), 100);
        assert!(got.iter().enumerate().all(|(i, b)| b == &[i as u8]));
        assert_eq!(tx.stats, ChaosStats::default());
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let hub = LoopbackHub::new();
            let mut tx = ChaosTransport::new(0, hub.attach(0), ChaosConfig::smoke(seed));
            let mut rx = hub.attach(1);
            for tick in 0..50u64 {
                tx.tick(tick);
                for i in 0..4u8 {
                    tx.send(1, &[tick as u8, i]);
                }
            }
            tx.tick(100); // release all held datagrams
            (drain(&mut rx), tx.stats)
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should perturb differently");
    }

    #[test]
    fn burst_loss_drops_and_recovers() {
        let hub = LoopbackHub::new();
        let cfg = ChaosConfig {
            seed: 1,
            burst: Some(BurstLoss::new(0.3, 0.3, 0.0, 1.0)),
            dup_ppm: 0,
            reorder_ppm: 0,
            delay_ppm: 0,
            delay_ticks: 0,
        };
        let mut tx = ChaosTransport::new(0, hub.attach(0), cfg);
        let mut rx = hub.attach(1);
        for i in 0..500u16 {
            tx.send(1, &i.to_le_bytes());
        }
        let got = drain(&mut rx);
        assert!(tx.stats.dropped > 0, "bad states must drop");
        assert!(!got.is_empty(), "chain must leave the bad state");
        assert_eq!(got.len() + tx.stats.dropped as usize, 500);
    }

    #[test]
    fn delay_holds_until_tick() {
        let hub = LoopbackHub::new();
        let cfg = ChaosConfig {
            delay_ppm: 1_000_000, // delay everything
            delay_ticks: 10,
            ..ChaosConfig::quiet(5)
        };
        let mut tx = ChaosTransport::new(0, hub.attach(0), cfg);
        let mut rx = hub.attach(1);
        tx.tick(0);
        tx.send(1, b"late");
        assert!(rx.poll().is_none());
        tx.tick(5);
        assert!(rx.poll().is_none(), "still held at tick 5");
        tx.tick(10);
        assert_eq!(rx.poll().as_deref(), Some(&b"late"[..]));
    }

    #[test]
    fn duplication_double_sends() {
        let hub = LoopbackHub::new();
        let cfg = ChaosConfig {
            dup_ppm: 1_000_000,
            ..ChaosConfig::quiet(9)
        };
        let mut tx = ChaosTransport::new(0, hub.attach(0), cfg);
        let mut rx = hub.attach(1);
        tx.send(1, b"x");
        assert_eq!(drain(&mut rx).len(), 2);
        assert_eq!(tx.stats.duplicated, 1);
    }
}
