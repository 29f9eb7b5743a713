//! Runtime invariant gates: same-seed trace-hash determinism and the T2
//! safety oracle. The interesting assertions live *inside* the simulator
//! and experiment harness behind the `debug-invariants` feature; these
//! tests drive configurations through them and additionally prove the
//! oracle is not a no-op (it fires on a fabricated unsafe process).
//!
//! Run with: `cargo test -q --features debug-invariants`.

use rbcast::core::{Experiment, FaultKind, ProtocolKind};
use rbcast::grid::Metric;
use rbcast::sim::Network;
use rbcast_adversary::Placement;
use rbcast_grid::Torus;

/// Two constructions of the same experiment agree exactly. Under
/// `debug-invariants`, each `.run()` additionally replays itself and
/// asserts identical trace hashes internally.
#[test]
fn same_seed_experiments_agree() {
    let build = || {
        Experiment::new(2, ProtocolKind::IndirectSimplified)
            .with_t(4)
            .with_placement(Placement::RandomLocal {
                t: 4,
                seed: 7,
                attempts: 40,
            })
            .with_fault_kind(FaultKind::Liar)
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(
        a, b,
        "same-seed experiments must produce identical outcomes"
    );
}

/// Trace hashes at the `Network` level: identical runs agree, and the
/// hash is sensitive to the configuration (a different crash set gives a
/// different delivery trace).
#[test]
fn trace_hash_distinguishes_configurations() {
    let torus = Torus::for_radius(1);
    let run = |crash_first: bool| {
        let mut net = Network::new(torus.clone(), 1, Metric::Linf, |id| {
            if id.index() == 0 {
                rbcast::protocols::attackers::liar(false)
            } else {
                Box::new(rbcast::protocols::Flood::new(
                    rbcast::protocols::ProtocolParams {
                        source: torus.id(rbcast::grid::Coord::ORIGIN),
                        value: true,
                        t: 0,
                    },
                ))
            }
        });
        if crash_first {
            net.crash_at(torus.id(rbcast::grid::Coord::new(2, 2)), 1);
        }
        net.run(64);
        net.trace_hash()
    };
    assert_eq!(
        run(false),
        run(false),
        "identical runs must hash identically"
    );
    assert_ne!(
        run(false),
        run(true),
        "a crashed node changes deliveries, so the trace hash must move"
    );
}

/// The oracle accepts every in-tolerance protocol/fault combination the
/// harness gates it on (these runs would panic under `debug-invariants`
/// if the T2 assertion were wrong).
#[test]
fn oracle_accepts_in_tolerance_runs() {
    for (protocol, kind) in [
        (ProtocolKind::Cpa, FaultKind::Liar),
        (ProtocolKind::IndirectSimplified, FaultKind::Forger),
        (ProtocolKind::Flood, FaultKind::CrashStop),
    ] {
        let t = match protocol {
            ProtocolKind::Cpa => 2usize,
            ProtocolKind::IndirectSimplified => 4,
            _ => 10,
        };
        let o = Experiment::new(2, protocol)
            .with_t(t)
            .with_placement(Placement::FrontierCluster { t })
            .with_fault_kind(kind)
            .run();
        assert!(o.safe(), "{} must stay T2-safe: {o}", protocol.name());
    }
}

/// The oracle is live: an honest-labelled process that commits the wrong
/// value trips the in-simulator T2 assertion. Only meaningful with the
/// feature on — without it the oracle is stored but never consulted.
#[cfg(feature = "debug-invariants")]
#[test]
#[should_panic(expected = "T2 safety violated")]
fn oracle_fires_on_wrong_commit() {
    use rbcast::sim::{Ctx, Process};
    use rbcast_grid::NodeId;

    /// Commits `false` in round 1, on the first message it hears.
    struct WrongCommitter;
    impl Process<()> for WrongCommitter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.broadcast(());
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: &()) {
            ctx.decide(false);
        }
    }

    let torus = Torus::for_radius(1);
    let mut net = Network::new(torus, 1, Metric::Linf, |_| Box::new(WrongCommitter));
    // Ground truth is `true` and nobody is faulty, so the first wrong
    // commit must trip the oracle.
    net.set_safety_oracle(true, &[]);
    net.run(8);
}
