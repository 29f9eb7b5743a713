//! Criterion bench: ChainPacker insertion (with dominance pruning) and
//! max-disjoint queries on benign and adversarial chain populations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rbcast_flow::ChainPacker;

/// The benign shape: the construction's parallel disjoint chains.
fn benign_packer(chains: u64) -> ChainPacker {
    let mut p = ChainPacker::new();
    for k in 0..chains {
        p.insert(&[3 * k, 3 * k + 1, 3 * k + 2]);
    }
    p
}

/// The adversarial shape: heavily overlapping chains (a clique-ish
/// conflict graph with a planted disjoint family).
fn adversarial_packer(chains: u64) -> ChainPacker {
    let mut p = ChainPacker::new();
    for k in 0..chains {
        // all share relay 0 pairwise-ish: k vs k+1 overlap
        p.insert(&[k, k + 1, 1_000 + k]);
    }
    for k in 0..10 {
        p.insert(&[10_000 + 3 * k, 10_001 + 3 * k, 10_002 + 3 * k]);
    }
    p
}

/// The r=2 Byzantine storm as one uncommitted node holds it: 10
/// disjoint 3-relay chains, and 4 liars each affixing itself to a relay
/// of every one of them — the shape `byz_full_r2` packs thousands of
/// times a run, where proving the maximum needs the exact search.
fn r2_liar_packer() -> ChainPacker {
    let mut p = ChainPacker::new();
    for k in 0..10u64 {
        p.insert(&[100 + 3 * k, 101 + 3 * k, 102 + 3 * k]);
    }
    for liar in 0..4u64 {
        for k in 0..10u64 {
            p.insert(&[100 + 3 * k + liar % 3, 900 + liar]);
        }
    }
    p
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("packer_insert");
    for n in [100u64, 1_000] {
        group.bench_with_input(BenchmarkId::new("benign", n), &n, |b, &n| {
            b.iter(|| benign_packer(std::hint::black_box(n)));
        });
        // dominated insertions: one short chain dominates all extensions
        group.bench_with_input(BenchmarkId::new("dominated", n), &n, |b, &n| {
            b.iter(|| {
                let mut p = ChainPacker::new();
                p.insert(&[1]);
                for k in 0..n {
                    p.insert(&[1, 100 + k]);
                }
                p
            });
        });
    }
    group.bench_function("r2_liars", |b| b.iter(r2_liar_packer));
    group.finish();
}

fn bench_max_disjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("packer_max_disjoint");
    for n in [50u64, 500] {
        let benign = benign_packer(n);
        group.bench_with_input(BenchmarkId::new("benign", n), &n, |b, _| {
            b.iter(|| benign.max_disjoint(|_| true, 11));
        });
        let adv = adversarial_packer(n);
        group.bench_with_input(BenchmarkId::new("adversarial", n), &n, |b, _| {
            b.iter(|| adv.max_disjoint(|_| true, 11));
        });
    }
    let liars = r2_liar_packer();
    // 12 is the maximum, so a target of 13 makes the search prove it.
    group.bench_function("r2_liars", |b| {
        b.iter(|| liars.max_disjoint(|_| true, 13));
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_max_disjoint);
criterion_main!(benches);
