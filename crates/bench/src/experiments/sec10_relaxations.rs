//! SEC10 — relaxing the model assumptions (§X): address spoofing,
//! deliberate collisions (jamming), and lossy channels with the
//! probabilistic local broadcast primitive.
//!
//! The paper argues: (a) with spoofing, reliable broadcast is extremely
//! difficult — a malicious node can impersonate honest ones; (b) with
//! unbounded collisions it is impossible; when collisions merely disrupt,
//! re-transmission defeats them; (c) the reliable-local-broadcast
//! assumption can be replaced by a probabilistic primitive. Each claim is
//! exercised here.

use crate::{header, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_sim::ChannelConfig;

pub fn run(v: &mut Verdicts, _: Size) {
    let r = 2u32;
    let t = thresholds::byzantine_max_t(r) as usize;

    // (a) Spoofing. One spoofer, within the Byzantine budget, on the
    // baseline channel: harmless (identities corrected). On a
    // spoofing-enabled channel: honest nodes are deceived even though the
    // placement respects t.
    header("§X(a) — address spoofing");
    let base = Experiment::new(r, ProtocolKind::IndirectSimplified)
        .with_t(t)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Spoofer)
        .run();
    println!("baseline channel, 1 spoofer: {base}");
    v.check(
        "without channel spoofing the impersonation attack is harmless",
        base.all_honest_correct(),
    );

    let spoofed = Experiment::new(r, ProtocolKind::IndirectSimplified)
        .with_t(t)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Spoofer)
        .with_channel(ChannelConfig::reliable().with_spoofing())
        .run();
    println!("spoofing-enabled channel, 1 spoofer: {spoofed}");
    v.check(
        "with spoofing enabled a single impersonator defeats reliable broadcast",
        !spoofed.all_honest_correct(),
    );

    // (b) Jamming. A jammer with a bounded lifetime collision battery
    // (§X's bounded-collisions regime): a large battery silences every
    // single-shot transmission near it, but persistent flooding outlasts
    // it ("trivially solved by re-transmitting").
    header("§X(b) — deliberate collisions");
    let jam_budget = 150;
    let jammed_flood = Experiment::new(r, ProtocolKind::Flood)
        .with_t(0)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Silent)
        .with_channel(ChannelConfig::reliable().with_jammers(vec![], jam_budget))
        .run();
    println!("single-shot flood vs jammer (battery {jam_budget}): {jammed_flood}");
    v.check(
        "bounded jamming starves single-shot flooding",
        jammed_flood.undecided > 0 && jammed_flood.stats.jammed_deliveries > 0,
    );

    let persistent = Experiment::new(r, ProtocolKind::PersistentFlood { repeats: 12 })
        .with_t(0)
        .with_placement(Placement::FrontierCluster { t: 1 })
        .with_fault_kind(FaultKind::Silent)
        .with_channel(ChannelConfig::reliable().with_jammers(vec![], jam_budget))
        .run();
    println!("persistent flood (12 repeats) vs the same jammer: {persistent}");
    v.check(
        "re-transmission defeats the bounded jammer",
        persistent.all_honest_correct(),
    );

    // (c) Lossy channel + probabilistic primitive. Single-shot flooding
    // over a 30%-loss channel strands nodes; the redundancy-4 primitive
    // (per-delivery success 1 − 0.3⁴ ≈ 0.992) restores full coverage in
    // most runs, and the Byzantine protocol survives at its threshold.
    header("§X(c)/§II — lossy channel and the probabilistic primitive");
    let mut bare_failures = 0;
    let mut primitive_failures = 0;
    let trials = 10u64;
    for seed in 0..trials {
        // r = 1 and 60% loss: a node misses all 8 informants with
        // probability 0.6⁸ ≈ 1.7%, so bare single-shot runs usually
        // strand someone on a 143-node torus.
        let bare = Experiment::new(1, ProtocolKind::Flood)
            .with_t(0)
            .with_channel(ChannelConfig::lossy(0.6, 1, seed))
            .run();
        bare_failures += u64::from(!bare.all_honest_correct());
        let primitive = Experiment::new(1, ProtocolKind::PersistentFlood { repeats: 3 })
            .with_t(0)
            .with_channel(ChannelConfig::lossy(0.6, 4, seed))
            .run();
        primitive_failures += u64::from(!primitive.all_honest_correct());
    }
    println!(
        "loss 0.6 (r=1): bare flood failed {bare_failures}/{trials}, primitive (redundancy 4 + 3 repeats) failed {primitive_failures}/{trials}"
    );
    v.check(
        "the probabilistic primitive masks losses the bare channel cannot",
        primitive_failures == 0 && bare_failures > 0,
    );

    let byz = Experiment::new(r, ProtocolKind::IndirectSimplified)
        .with_t(t)
        .with_placement(Placement::FrontierCluster { t })
        .with_fault_kind(FaultKind::Liar)
        .with_channel(ChannelConfig::lossy(0.2, 6, 7))
        .run();
    println!("indirect-simplified at t_max over the lossy primitive: {byz}");
    v.check(
        "the Byzantine protocol still completes at t_max over the probabilistic primitive",
        byz.all_honest_correct(),
    );
}
