//! ABLATION — the design choices called out in DESIGN.md:
//!
//! 1. commit rule: two-level (§VI) vs one-level (§VI-B style);
//! 2. report depth: 4-hop (3 relays) vs 2-hop (1 relay);
//!
//! crossed over the same arena, budget and adversary, comparing
//! completion, rounds and message volume. (The full 3-relay/one-level and
//! 1-relay/two-level hybrids are not analysed in the paper — their
//! empirical behaviour is a finding of this reproduction.)

use crate::{header, rule, Size, Verdicts};
use rbcast_adversary::Placement;
use rbcast_core::{thresholds, Experiment, FaultKind, ProtocolKind};
use rbcast_protocols::{CommitRule, IndirectConfig};

pub(crate) fn run(v: &mut Verdicts, _: Size) {
    let r = 2u32;
    let t = thresholds::byzantine_max_t(r) as usize;
    header(&format!(
        "Commit-rule / report-depth ablation (r = {r}, t = {t}, liar cluster)"
    ));
    println!(
        "{:<10} {:<10} {:>9} {:>7} {:>10} {:>12} {:>8}",
        "relays", "rule", "correct", "wrong", "undecided", "broadcasts", "rounds"
    );
    rule(72);

    let mut results = Vec::new();
    for max_relays in [1usize, 3] {
        for (rule_kind, rule_name) in [
            (CommitRule::TwoLevel, "two-level"),
            (CommitRule::OneLevel, "one-level"),
        ] {
            let cfg = IndirectConfig {
                max_relays,
                rule: rule_kind,
            };
            let o = Experiment::new(r, ProtocolKind::IndirectCustom(cfg))
                .with_t(t)
                .with_placement(Placement::FrontierCluster { t })
                .with_fault_kind(FaultKind::Liar)
                .run();
            println!(
                "{:<10} {:<10} {:>9} {:>7} {:>10} {:>12} {:>8}",
                max_relays,
                rule_name,
                o.committed_correct,
                o.committed_wrong,
                o.undecided,
                o.stats.messages_sent,
                o.stats.rounds
            );
            results.push((max_relays, rule_kind, o));
        }
    }

    // Safety must hold in every configuration.
    v.check(
        "every configuration is safe (no wrong commits) at t_max",
        results.iter().all(|(_, _, o)| o.safe()),
    );
    // The paper's two configurations complete.
    let complete = |mr: usize, rk: CommitRule| {
        results
            .iter()
            .find(|(m, k, _)| *m == mr && *k == rk)
            .is_some_and(|(_, _, o)| o.all_honest_correct())
    };
    v.check(
        "§VI (3 relays, two-level) completes",
        complete(3, CommitRule::TwoLevel),
    );
    v.check(
        "§VI-B (1 relay, one-level) completes",
        complete(1, CommitRule::OneLevel),
    );
    // One-level with deep reports is at least as live as two-level.
    v.check(
        "one-level with 3 relays completes (strictly more evidence admitted)",
        complete(3, CommitRule::OneLevel),
    );
    // Message-volume ordering: 1-relay configurations are far cheaper.
    let msgs = |mr: usize, rk: CommitRule| {
        results
            .iter()
            .find(|(m, k, _)| *m == mr && *k == rk)
            .map(|(_, _, o)| o.stats.messages_sent)
            .unwrap_or(0)
    };
    v.check(
        "2-hop reports cost an order of magnitude less traffic than 4-hop",
        msgs(1, CommitRule::OneLevel) * 5 <= msgs(3, CommitRule::TwoLevel),
    );

    // Report the hybrid finding either way (no pass/fail semantics: the
    // paper makes no claim).
    let hybrid = results
        .iter()
        .find(|(m, k, _)| *m == 1 && *k == CommitRule::TwoLevel)
        .map(|(_, _, o)| o.all_honest_correct())
        .unwrap_or(false);
    println!();
    println!(
        "finding: the 1-relay/two-level hybrid {} at t_max on this arena",
        if hybrid {
            "completes"
        } else {
            "does NOT complete"
        }
    );
}
