//! Crash-restart recovery: a node killed mid-run and restarted from its
//! journal must re-join the lockstep barrier and the cluster must still
//! commit exactly what the sim oracle commits — under a reliable
//! transport and under seeded chaos.

use rbcast_core::ProtocolKind;
use rbcast_grid::Metric;
use rbcast_net::{ChaosConfig, ClusterSpec, LoopbackCluster, NodeReport, RuntimeConfig};

fn spec(protocol: ProtocolKind) -> ClusterSpec {
    ClusterSpec {
        width: 3,
        height: 3,
        radius: 1,
        metric: Metric::Linf,
        protocol,
        t: 1,
        instances: 4,
        rounds: 16,
    }
}

/// Kill `victim` after `kill_after` cluster steps, restart it
/// `outage` steps later, then run to completion and compare digests.
fn kill_restart_run(
    spec: ClusterSpec,
    chaos: Option<ChaosConfig>,
    victim: u32,
    kill_after: u64,
    outage: u64,
) {
    let oracle = spec.sim_oracle();
    let mut cluster = LoopbackCluster::new(spec, RuntimeConfig::default(), chaos);
    for _ in 0..kill_after {
        if cluster.step() {
            break;
        }
    }
    cluster.kill(victim);
    for _ in 0..outage {
        cluster.step();
    }
    assert!(cluster.restart(victim), "intact journal must boot");
    assert!(cluster.run(400_000), "cluster wedged after restart");
    let report = cluster.report();
    assert!(
        report.nodes.iter().all(NodeReport::healthy),
        "patience outlasts the outage, so nobody should be suspected"
    );
    let restarted = report
        .nodes
        .iter()
        .find(|n| n.node.0 == victim)
        .expect("victim reports");
    assert!(
        restarted.epoch >= 2,
        "restart must bump the boot epoch (got {})",
        restarted.epoch
    );
    assert_eq!(
        report.digest, oracle.digest,
        "recovery must reproduce the oracle's commits exactly"
    );
}

#[test]
fn cpa_survives_kill_and_restart() {
    kill_restart_run(spec(ProtocolKind::Cpa), None, 4, 6, 40);
}

#[test]
fn indirect_survives_kill_and_restart() {
    kill_restart_run(spec(ProtocolKind::IndirectFull), None, 0, 9, 25);
}

#[test]
fn recovery_composes_with_seeded_chaos() {
    // Burst loss + duplication + reordering on every link, plus a
    // mid-run crash: the ARQ links and the journal must still deliver
    // oracle-exact commits (chaos perturbs timing, never outcomes).
    kill_restart_run(
        spec(ProtocolKind::Cpa),
        Some(ChaosConfig::smoke(0xC0FFEE)),
        7,
        12,
        30,
    );
}

#[test]
fn double_restart_of_the_same_node_recovers() {
    let spec = spec(ProtocolKind::Cpa);
    let oracle = spec.sim_oracle();
    let mut cluster = LoopbackCluster::new(spec, RuntimeConfig::default(), None);
    for kill in 0..2 {
        for _ in 0..(5 + kill * 7) {
            if cluster.step() {
                break;
            }
        }
        cluster.kill(2);
        for _ in 0..15 {
            cluster.step();
        }
        assert!(cluster.restart(2), "intact journal must boot");
    }
    assert!(cluster.run(400_000));
    let report = cluster.report();
    let twice = report
        .nodes
        .iter()
        .find(|n| n.node.0 == 2)
        .expect("node 2 reports");
    assert_eq!(twice.epoch, 3, "two restarts = epoch 3");
    assert_eq!(report.digest, oracle.digest);
}

#[test]
fn unrecovered_crash_degrades_but_does_not_wedge() {
    // A node that never comes back: with finite patience the survivors
    // suspect it, quarantine the barrier slot, and still finish.
    let spec = spec(ProtocolKind::Cpa);
    let cfg = RuntimeConfig {
        patience: 400,
        ..RuntimeConfig::default()
    };
    let mut cluster = LoopbackCluster::new(spec, cfg, None);
    for _ in 0..6 {
        cluster.step();
    }
    cluster.kill(8);
    assert!(
        cluster.run(400_000),
        "survivors must finish without the dead node"
    );
    let report = cluster.report();
    assert_eq!(report.nodes.len(), 8, "the dead node does not report");
    let degraded = report
        .nodes
        .iter()
        .filter(|n| n.suspects.contains(&8))
        .count();
    assert!(
        degraded > 0,
        "neighbors of the dead node must quarantine it"
    );
}
