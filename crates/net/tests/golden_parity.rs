//! Golden parity: the networked runtime over in-process loopback must
//! produce decisions — values *and* decision rounds — byte-identical
//! (by commit digest) to the verified simulator running the same
//! configuration, for the paper's protocols at 1, 2, and 8 concurrent
//! broadcast instances.

use rbcast_core::ProtocolKind;
use rbcast_grid::Metric;
use rbcast_net::{ClusterSpec, LoopbackCluster, NodeReport, RuntimeConfig};

fn spec(protocol: ProtocolKind, instances: u32) -> ClusterSpec {
    ClusterSpec {
        width: 5,
        height: 5,
        radius: 1,
        metric: Metric::Linf,
        protocol,
        t: 1,
        instances,
        rounds: 24,
    }
}

fn assert_parity(spec: ClusterSpec) {
    let oracle = spec.sim_oracle();
    assert!(
        !oracle.decisions.is_empty(),
        "oracle must decide something for {spec:?}"
    );
    let mut cluster = LoopbackCluster::new(spec, RuntimeConfig::default(), None);
    assert!(cluster.run(200_000), "cluster wedged for {spec:?}");
    let report = cluster.report();
    assert!(
        report.nodes.iter().all(NodeReport::healthy),
        "no node may degrade on a reliable transport: {spec:?}"
    );
    // Exact decision-set equality, then the digest both sides publish.
    let mut got = report.decisions.clone();
    let mut want = oracle.decisions.clone();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "decision sets diverge for {spec:?}");
    assert_eq!(report.digest, oracle.digest, "digests diverge for {spec:?}");
}

#[test]
fn indirect_full_matches_oracle_across_instance_counts() {
    for instances in [1, 2, 8] {
        assert_parity(spec(ProtocolKind::IndirectFull, instances));
    }
}

#[test]
fn indirect_simplified_matches_oracle() {
    assert_parity(spec(ProtocolKind::IndirectSimplified, 2));
}

#[test]
fn cpa_matches_oracle_across_instance_counts() {
    for instances in [1, 2, 8] {
        assert_parity(spec(ProtocolKind::Cpa, instances));
    }
}

#[test]
fn persistent_flood_matches_oracle_through_the_standing_wakeup() {
    // The only honest protocol whose `needs_round_end` is ever true:
    // every node keeps a wakeup armed for `repeats` rounds after it
    // decides, which the barrier runtime must honour round for round.
    let protocol = ProtocolKind::parse("persistent-flood").expect("a CLI protocol");
    for instances in [1, 2] {
        assert_parity(spec(protocol, instances));
    }
}

#[test]
fn parity_holds_on_the_wrapping_3x3_torus() {
    // The smoke-test topology: 3×3 at r = 1 only hosts via the
    // wrapping neighbor builder (every node hears all eight others).
    let spec = ClusterSpec {
        width: 3,
        height: 3,
        radius: 1,
        metric: Metric::Linf,
        protocol: ProtocolKind::Cpa,
        t: 1,
        instances: 4,
        rounds: 16,
    };
    assert_parity(spec);
}
