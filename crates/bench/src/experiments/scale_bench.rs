//! SCALE — throughput of the sparse wavefront engine at 10⁴, 10⁵ and
//! 10⁶ nodes (fault-free flood, CPA and simplified indirect-report at
//! r = 1), then the paper's own §VI protocol (`indirect-full`) at 10⁴
//! and 10⁵, written to `BENCH_scale.json` at the workspace root.
//!
//! The sparse engine only touches frontier nodes each round, so a
//! single broadcast wave over an `n`-node torus costs O(total
//! deliveries), not O(n · rounds); this bin is the gate that keeps it
//! that way. Each cell is one run on a `side × side` torus timed with
//! the sanctioned [`rbcast_core::obs`] stopwatch, reporting nodes/sec
//! (population over wall time — the headline scaling number) and
//! rounds/sec.
//!
//! Each full-mode cell runs in a child process of its own — this
//! binary again, as `rbcast-bench scale_bench <protocol>@<side>` — so its
//! `peak_rss_kb`, the process high-water mark, is its own whatever ran
//! before it. The child prints its cell and its [`obs`] counters on
//! stdout; the parent sums the counters into the file.
//!
//! `--smoke` (run by `ci.sh`) executes only the 10⁴ cells, in one
//! process, reruns each on the dense oracle engine, and fails unless the
//! trace hashes are byte-identical, every sparse run lands under the
//! wall budget and the sparse indirect-report cells stay under their
//! peak-RSS ceilings (each larger than every cell before it, so its
//! mark is its own). No JSON is written in smoke mode. Everything this
//! experiment measures is wall time, so its per-cell lines go to stderr
//! and it is the one id without a golden under `results/`.

use crate::perf::{self, ObsTotals, ScaleCell};
use crate::{Size, Verdicts};
use rbcast_core::{obs, EngineKind, Experiment, ProtocolKind};
use rbcast_grid::Torus;
use std::path::Path;
use std::process::{Command, Stdio};

/// The protocol axis, fault-free at each protocol's default `t`.
/// `IndirectSimplified` stands in for the indirect-report family at every
/// size; the full protocol's report traffic is quadratic in the
/// neighborhood, so it has cells of its own at the two smaller sizes
/// ([`FULL_SIDES`]).
const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Flood,
    ProtocolKind::Cpa,
    ProtocolKind::IndirectSimplified,
];

/// The size axis: torus sides giving ~10⁴, ~10⁵ and 10⁶ nodes.
const SIDES: [u32; 3] = [100, 316, 1000];

/// The sides of the §VI (`indirect-full`) cells, ~10⁴ and ~10⁵ nodes:
/// its store is sized for the 10⁵ cell, not yet the 10⁶ one.
const FULL_SIDES: [u32; 2] = [100, 316];

/// Per-cell wall budget for the smoke gate, milliseconds. A 10⁴-node
/// release-build run completes in well under a second on one core; the
/// budget is generous so CI noise cannot flake the gate, while still
/// catching an accidental return to O(n · rounds) scanning (which
/// multiplies the 10⁴ cell several-fold).
const SMOKE_BUDGET_MS: f64 = 30_000.0;

/// Throughput floor for the indirect-report 10⁴ smoke cell, nodes/sec.
/// With the packed chains, the delivery fast path, the 20-byte evidence
/// chains and one transmission queue per network the cell runs at
/// 300k–330k nodes/s in release on one (shared, noisy) core, and read
/// 160k on the slowest host it was recorded on before the queue; the
/// pre-packing implementation managed ~30k. The floor sits under half
/// of every one of those readings so machine noise cannot flake CI, yet
/// a return to per-delivery chain allocation (which costs a multiple,
/// not a few percent) still trips it.
const INDIRECT_SMOKE_FLOOR_NODES_PER_SEC: f64 = 80_000.0;

/// Peak-RSS ceiling for the sparse indirect-report 10⁴ smoke cell, kB —
/// the process high-water mark once that cell has run (the flood and
/// CPA cells before it are smaller). RSS repeats to within 1 % wherever
/// it was measured, so unlike the wall gates this one sits close. The
/// cell reads 3 800–3 920 kB at 48 bytes an indirect node (a frame
/// bitset, one-level packers boxed while the wave passes), 4 670–4 890
/// kB at 112 bytes a node (a sorted id list, inline packers),
/// 5 010–5 200 kB while the arena stored every row (36 B a
/// node at r = 1), ≈ 5 540 kB when every network and every slot kept
/// its own TDMA order and run constants, 7 400–7 500 kB when every node
/// kept its chains to the end of the run; a per-node outbox and an
/// evidence store carrying both rules' fields read 13 400–13 800 kB.
/// Bytes per node are what bound the 10⁶ cell.
const INDIRECT_SMOKE_RSS_CEILING_KB: u64 = 4_100;

/// Peak-RSS ceiling for the sparse §VI (`indirect-full`) 10⁴ smoke cell,
/// kB — run after the three smaller cells, so the mark is its own. It
/// reads 57 436–57 524 kB with one key-sorted record per (committer,
/// value) pair that holds a chain; a `u16` per (slot, value) pair of
/// the frame, planted back into every store for its life, reads
/// 59 904–60 020 kB.
const FULL_SMOKE_RSS_CEILING_KB: u64 = 58_800;

/// One fault-free broadcast on a `side × side` torus under `engine`.
fn experiment(kind: ProtocolKind, side: u32, engine: EngineKind) -> Experiment {
    Experiment::new(1, kind)
        .with_torus(Torus::new(side, side))
        .with_engine(engine)
}

/// Runs one cell, times it and checks it reached every node. Returns
/// the cell plus the trace hash so the smoke gate can compare engines.
fn run_cell(
    v: &mut Verdicts,
    kind: ProtocolKind,
    side: u32,
    engine: EngineKind,
) -> (ScaleCell, u64) {
    let label = kind.name();
    let exp = experiment(kind, side, engine);
    let t0 = obs::Stopwatch::start();
    let (outcome, hash) = exp.run_traced();
    let wall_ms = t0.elapsed_ms();
    let nodes = (side as usize) * (side as usize);
    v.check(
        &format!("{label}@{side} ({engine:?}): fault-free broadcast reaches every node"),
        outcome.all_honest_correct(),
    );
    let cell = ScaleCell {
        protocol: label.to_string(),
        side: side as usize,
        nodes,
        rounds: outcome.stats.rounds,
        deliveries: outcome.stats.deliveries,
        messages: outcome.stats.messages_sent,
        wall_ms,
        peak_rss_kb: perf::peak_rss_kb(),
    };
    let rss = match cell.peak_rss_kb {
        Some(kb) => format!(", peak rss {} MB", kb / 1024),
        None => String::new(),
    };
    eprintln!(
        "{label:>19} side {side:>4} ({nodes:>7} nodes): {} rounds, {} deliveries \
         in {:.1} ms ({:.0} nodes/s, {:.0} rounds/s{rss})",
        cell.rounds,
        cell.deliveries,
        cell.wall_ms,
        cell.nodes_per_sec(),
        cell.rounds_per_sec()
    );
    (cell, hash)
}

/// The CI gate: 10⁴-node cells only, each checked against the dense
/// oracle for byte-identical trace hashes and against the wall budget.
fn smoke(v: &mut Verdicts) {
    for kind in PROTOCOLS.into_iter().chain([ProtocolKind::IndirectFull]) {
        let label = kind.name();
        let (cell, sparse_hash) = run_cell(v, kind, 100, EngineKind::Sparse);
        let (_, dense_hash) = run_cell(v, kind, 100, EngineKind::Dense);
        v.check(
            &format!(
                "{label}@100: sparse trace hash {sparse_hash:#018x} equals the dense oracle's \
                 {dense_hash:#018x}"
            ),
            sparse_hash == dense_hash,
        );
        v.check(
            &format!("{label}@100: under the {SMOKE_BUDGET_MS:.0} ms wall budget"),
            cell.wall_ms <= SMOKE_BUDGET_MS,
        );
        if kind == ProtocolKind::IndirectSimplified {
            v.check(
                &format!("{label}@100: at least {INDIRECT_SMOKE_FLOOR_NODES_PER_SEC:.0} nodes/s"),
                cell.nodes_per_sec() >= INDIRECT_SMOKE_FLOOR_NODES_PER_SEC,
            );
        }
        let ceiling = match kind {
            ProtocolKind::IndirectSimplified => INDIRECT_SMOKE_RSS_CEILING_KB,
            ProtocolKind::IndirectFull => FULL_SMOKE_RSS_CEILING_KB,
            _ => continue,
        };
        // No probe (no procfs), no gate.
        if let Some(kb) = cell.peak_rss_kb {
            v.check(
                &format!("{label}@100: peak RSS {kb} kB within {ceiling} kB"),
                kb <= ceiling,
            );
        }
    }
}

/// Every full-mode cell, smallest size first: the three protocols at
/// each size, then §VI at the sizes it has cells for.
fn full_cells() -> impl Iterator<Item = (ProtocolKind, u32)> {
    SIDES.into_iter().flat_map(|side| {
        let full = FULL_SIDES
            .contains(&side)
            .then_some(ProtocolKind::IndirectFull);
        PROTOCOLS
            .into_iter()
            .chain(full)
            .map(move |kind| (kind, side))
    })
}

/// Runs the cell `kind` at `side` in a child process and adds the
/// child's counters to `totals`; `None` if the child failed or reported
/// no cell.
fn run_in_child(
    v: &mut Verdicts,
    kind: ProtocolKind,
    side: u32,
    totals: &mut ObsTotals,
) -> Option<ScaleCell> {
    let spec = format!("{}@{side}", kind.name());
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["scale_bench", &spec])
            .stderr(Stdio::inherit())
            .output()
    });
    let mut cell = None;
    if let Ok(out) = &out {
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            cell = cell.or_else(|| ScaleCell::parse_line(line));
            totals.add_line(line);
        }
    }
    let ok = out.is_ok_and(|out| out.status.success());
    v.check(
        &format!("{spec}: ran in a process of its own and reported its cell"),
        ok && cell.is_some(),
    );
    cell
}

/// `rbcast-bench scale_bench <protocol>@<side>`, the child side of a
/// full run: runs the one cell `spec` names and prints it and this
/// process's counters on stdout. `false` if `spec` names no cell.
pub fn run_one(v: &mut Verdicts, spec: &str) -> bool {
    let cell = spec.split_once('@').and_then(|(kind, side)| {
        let side: u32 = side.parse().ok()?;
        let kind = ProtocolKind::parse(kind)?;
        full_cells().find(|&cell| cell == (kind, side))
    });
    let Some((kind, side)) = cell else {
        return false;
    };
    let (cell, _) = run_cell(v, kind, side, EngineKind::Sparse);
    println!("{}", cell.to_line());
    print!("{}", ObsTotals::of_this_process().to_lines());
    true
}

pub(crate) fn run(v: &mut Verdicts, size: Size) {
    if size == Size::Smoke {
        return smoke(v);
    }
    let mut totals = ObsTotals::default();
    let cells: Vec<ScaleCell> = full_cells()
        .filter_map(|(kind, side)| run_in_child(v, kind, side, &mut totals))
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    perf::write_scale_json(&root.join("BENCH_scale.json"), "sparse", &cells, &totals);
}
