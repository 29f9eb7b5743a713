//! Model-fidelity integration tests: determinism, channel guarantees and
//! TDMA structure as observed through whole protocol runs.

use rbcast::adversary::Placement;
use rbcast::core::{Experiment, FaultKind, ProtocolKind};
use rbcast::grid::{Coord, Metric, TdmaSchedule, Torus};

#[test]
fn identical_experiments_are_bit_identical() {
    let run = || {
        Experiment::new(1, ProtocolKind::IndirectFull)
            .with_t(1)
            .with_placement(Placement::RandomLocal {
                t: 1,
                seed: 99,
                attempts: 30,
            })
            .with_fault_kind(FaultKind::Forger)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn experiment_outcome_accounts_for_every_node() {
    let o = Experiment::new(2, ProtocolKind::Flood)
        .with_t(5)
        .with_placement(Placement::RandomLocal {
            t: 5,
            seed: 5,
            attempts: 40,
        })
        .run();
    let torus = Torus::for_radius(2);
    assert_eq!(
        o.honest + o.fault_count,
        torus.len(),
        "honest + faulty must partition the torus"
    );
    assert_eq!(
        o.committed_correct + o.committed_wrong + o.undecided,
        o.honest
    );
}

#[test]
fn tdma_coloring_is_conflict_free_on_experiment_arenas() {
    for r in 1..=3 {
        let torus = Torus::for_radius(r);
        let tdma = TdmaSchedule::new(&torus, r).expect("for_radius tori are schedulable");
        assert!(tdma.verify_conflict_free(&torus), "r={r}");
    }
}

#[test]
fn message_counts_scale_with_protocol_richness() {
    // flood < cpa ≤ simplified < full, on the same fault-free arena
    let count = |kind| Experiment::new(1, kind).with_t(1).run().stats.messages_sent;
    let flood = count(ProtocolKind::Flood);
    let cpa = count(ProtocolKind::Cpa);
    let simplified = count(ProtocolKind::IndirectSimplified);
    let full = count(ProtocolKind::IndirectFull);
    assert!(flood <= cpa, "{flood} > {cpa}");
    assert!(cpa < simplified, "{cpa} >= {simplified}");
    assert!(simplified < full, "{simplified} >= {full}");
}

#[test]
fn l2_and_linf_neighborhoods_differ_in_run_shape() {
    // same radius, different metric ⇒ different delivery counts
    let linf = Experiment::new(2, ProtocolKind::Flood).run();
    let l2 = Experiment::new(2, ProtocolKind::Flood)
        .with_metric(Metric::L2)
        .run();
    assert!(l2.stats.deliveries < linf.stats.deliveries);
    assert!(linf.all_honest_correct() && l2.all_honest_correct());
}

#[test]
fn larger_and_rectangular_arenas_behave_identically() {
    use rbcast::grid::Torus;
    // bigger square torus
    let big = Experiment::new(1, ProtocolKind::IndirectSimplified)
        .with_torus(Torus::new(18, 18))
        .with_t(1)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Liar)
        .run();
    assert!(big.all_honest_correct(), "{big}");
    // rectangular torus
    let rect = Experiment::new(1, ProtocolKind::IndirectSimplified)
        .with_torus(Torus::new(24, 9))
        .with_t(1)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Forger)
        .run();
    assert!(rect.all_honest_correct(), "{rect}");
}

#[test]
fn wavefront_history_accounts_for_all_decisions() {
    use rbcast::grid::{Coord, Metric, Torus};
    use rbcast::protocols::{Flood, Msg, ProtocolParams};
    use rbcast::sim::trace::{MemorySink, TraceEvent, TraceSink};
    use rbcast::sim::{Network, Process};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The network owns its sink; the test reads the stream through this.
    struct Shared(Rc<RefCell<MemorySink>>);
    impl TraceSink for Shared {
        fn record(&mut self, event: &TraceEvent) {
            self.0.borrow_mut().record(event);
        }
    }

    let torus = Torus::for_radius(2);
    let params = ProtocolParams {
        source: torus.id(Coord::ORIGIN),
        value: true,
        t: 0,
    };
    let mut net = Network::new(torus.clone(), 2, Metric::Linf, |_| {
        Box::new(Flood::new(params)) as Box<dyn Process<Msg>>
    });
    let sink = Rc::new(RefCell::new(MemorySink::default()));
    net.set_trace_sink(Box::new(Shared(Rc::clone(&sink))));
    let stats = net.run(1_000);
    assert!(stats.quiescent());
    let events = &sink.borrow().events;
    // the source decides in round 0 (before any round opens), everyone
    // else during a delivery round
    let in_rounds = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Decision { round, .. } if *round > 0))
        .count();
    assert_eq!(in_rounds + 1, torus.len());
    let decided: Vec<u64> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::RoundEnd { decided, .. } => Some(decided),
            _ => None,
        })
        .collect();
    assert_eq!(decided.len() as u32, stats.rounds);
    assert_eq!(decided.last().copied(), Some(torus.len() as u64));
    // every round of the wavefront has something on the air
    assert!(events
        .iter()
        .all(|e| !matches!(e, TraceEvent::RoundStart { on_air: 0, .. })));
}

#[test]
fn source_is_at_the_origin_and_decides_first() {
    let o = Experiment::new(1, ProtocolKind::Cpa).run();
    assert!(o.all_honest_correct());
    let torus = Torus::for_radius(1);
    let _source = torus.id(Coord::ORIGIN);
    // the origin's decision round is 0 (it decides on start)
    // (checked indirectly: a full run where everyone decides implies the
    // source seeded it; direct decision-round checks live in the sim
    // crate's unit tests)
}
