//! Cross-checks between the static constructions (rbcast-construct) and
//! the dynamic protocol machinery (rbcast-protocols): the proof's
//! explicit relay paths must be exactly the kind of evidence the commit
//! rule accepts.

use rbcast::construct::{paths_u, r_2r_plus_1, worst_case_p};
use rbcast::flow::ChainPacker;
use rbcast::grid::{Coord, Metric, NeighborTable, Torus};
use rbcast::protocols::{CommitRule, EvidenceStore, Geometry};

/// Feed the Fig. 5 construction's chains for one committer into the
/// evidence store: determination must fire with t+1 = r(2r+1)/2 + 1
/// available disjoint chains.
#[test]
fn constructed_chains_determine_committer() {
    let r = 2u32;
    let torus = Torus::new(40, 40);
    // embed the construction at an offset away from the seam
    let offset = Coord::new(20, 20);
    let committer_rel = Coord::new(1, 2); // region U (p=1, q=2)
    let paths = paths_u::build(r, 1, 2);
    assert_eq!(paths.len(), r_2r_plus_1(r));

    let t = 4usize; // t_max for r = 2
    let me = worst_case_p(r) + offset;
    let arena = NeighborTable::build(&torus, r, Metric::Linf);
    let mut ev = EvidenceStore::new(t, CommitRule::TwoLevel);
    ev.bind(&arena, me);
    let committer = torus.id(committer_rel + offset);
    for path in &paths {
        // path = [N, relays..., P]; the receiving node is P itself.
        let relays: Vec<_> = path[1..path.len() - 1]
            .iter()
            .map(|&c| torus.id(c + offset))
            .collect();
        ev.record_chain(committer, true, &relays);
    }
    let geo = Geometry::new(&arena, me);
    let _ = ev.evaluate(&geo);
    assert_eq!(ev.determined().get(&committer), Some(&true));
}

/// The same chains survive t adversarial corruptions: drop any t of the
/// r(2r+1) disjoint chains and determination still fires.
#[test]
fn construction_tolerates_t_chain_losses() {
    let r = 2u32;
    let t = 4usize;
    let paths = paths_u::build(r, 1, 2);
    // Pack relays directly (abstract keys = coordinates hashed to ids).
    let key = |c: Coord| ((c.x + 100) * 1000 + (c.y + 100)) as u64;
    for dropped_start in 0..paths.len() - t {
        let mut packer = ChainPacker::new();
        for (i, path) in paths.iter().enumerate() {
            if i >= dropped_start && i < dropped_start + t {
                continue; // adversary suppressed these t chains
            }
            let relays: Vec<u64> = path[1..path.len() - 1].iter().map(|&c| key(c)).collect();
            packer.insert(&relays);
        }
        assert!(
            packer.max_disjoint(|_| true, (t + 1) as u32) >= (t + 1) as u32,
            "losing chains {dropped_start}.. broke determination"
        );
    }
}

/// Region M covers every committer the frontier node needs: its size is
/// at least 2t+1 at the exact threshold.
#[test]
fn region_m_is_a_2t_plus_1_quorum() {
    use rbcast::core::thresholds;
    for r in 1..=10u32 {
        let m = rbcast::construct::corner::region_m(r).len() as u64;
        let t = thresholds::byzantine_max_t(r);
        assert!(m > 2 * t, "r={r}: |M|={m} < 2t+1={}", 2 * t + 1);
    }
}

/// The simplified-protocol witness feeds the one-level rule: r(2r+1)
/// collectively disjoint ≤1-relay chains commit the frontier node.
#[test]
fn simplified_witness_commits_via_one_level_rule() {
    let r = 2u32;
    let t = 4usize;
    let torus = Torus::new(40, 40);
    let offset = Coord::new(20, 20);
    let mut ev = EvidenceStore::new(t, CommitRule::OneLevel);
    for path in rbcast::construct::simplified::witness_paths(r) {
        let committer = torus.id(path[0] + offset);
        let relays: Vec<_> = path[1..path.len() - 1]
            .iter()
            .map(|&c| torus.id(c + offset))
            .collect();
        ev.record_chain(committer, true, &relays);
    }
    let arena = NeighborTable::build(&torus, r, Metric::Linf);
    let geo = Geometry::new(&arena, worst_case_p(r) + offset);
    assert_eq!(ev.evaluate(&geo), Some(true));
}
