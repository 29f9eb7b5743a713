//! One workload, one process, one pass: set-up, timed repetitions,
//! correctness checks, metrics.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs::{self, Usage};
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{obs_span_seconds, RepOutput, Spec, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// How long the timed repetitions may take in total.
    pub seconds: f64,
    pub trace: bool,
    /// `--check` sizes: seconds of work become milliseconds.
    pub toy: bool,
    /// Where the detail file and the span file go.
    pub out: PathBuf,
}

/// Fresh processes that repeat the set-up so `setup_s` is a median of
/// cold starts, not one sample (the measuring process itself is the
/// third).
const SETUP_PROBES: usize = 2;
/// Fewest timed repetitions the untraced pass picks its fastest from.
const MIN_REPS: usize = 3;

/// Attempted and failed operations over every repetition of a pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts `out`'s operations; a repetition that differs from the
    /// reference fails all of them.
    fn add(&mut self, what: &str, out: &RepOutput, reference: &RepOutput) {
        self.attempted += out.ops;
        if out == reference {
            self.failed += out.failed;
        } else {
            self.failed += out.ops;
            self.problems.push(format!(
                "{what} differs from the first repetition: {out:?} vs {reference:?}"
            ));
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

struct Prepared {
    workload: Box<dyn Workload>,
    /// The first, cold repetition: warm-up and the reference every later
    /// repetition must reproduce.
    reference: RepOutput,
    first_rep_s: f64,
    /// Peak memory right after the reference repetition: what one run
    /// of the program reaches. Read here, not at exit, so it does not
    /// depend on how many repetitions the time budget happened to fit.
    peak_rss_mb: f64,
    tally: Tally,
}

/// Everything before the first timed repetition: input generation (and
/// the sim oracle, for clusters), the cold reference repetition, the
/// golden pins.
fn prepare(args: &RunArgs) -> Prepared {
    let workload = (args.spec.build)(args.seed, args.toy);
    let start = Instant::now();
    let reference = workload.run();
    let first_rep_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut tally = Tally::default();
    tally.add("reference", &reference, &reference);
    if reference.failed > 0 {
        tally.problems.push(format!(
            "{} of {} operations failed their correctness check",
            reference.failed, reference.ops
        ));
    }
    if (args.seed == DEFAULT_SEED || !args.spec.seeded) && !args.toy {
        if let Err(why) = crate::golden::check(args.spec.name, &reference) {
            tally.fail(reference.ops - reference.failed, why);
        }
    }
    Prepared {
        workload,
        reference,
        first_rep_s,
        peak_rss_mb,
        tally,
    }
}

/// `--setup-probe`: do the set-up and print how long it took.
pub fn setup_probe(args: &RunArgs, t0: Instant) -> i32 {
    prepare(args);
    println!("{}", t0.elapsed().as_secs_f64());
    0
}

fn spawn_probe(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--setup-probe")
        .args(["--workload", args.spec.name])
        .args(["--seed", &args.seed.to_string()]);
    if args.toy {
        cmd.arg("--toy");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().map_err(|e| e.to_string())?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("setup probe printed no time: {e}"))
}

struct Rep {
    wall_s: f64,
    cpu_s: f64,
    usage: Usage,
}

fn timed_rep(workload: &dyn Workload) -> (Rep, RepOutput) {
    let before = Usage::now();
    let cpu_before = procfs::process_cpu_s();
    let start = Instant::now();
    let out = workload.run();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu_before;
    let usage = Usage::now().since(&before);
    (
        Rep {
            wall_s,
            cpu_s,
            usage,
        },
        out,
    )
}

/// Untraced repetitions until `budget_s` is spent (never fewer than
/// `min_reps`; a repetition that would overshoot is not started).
fn timed_reps(prepared: &mut Prepared, budget_s: f64, min_reps: usize) -> Vec<Rep> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let (rep, out) = timed_rep(prepared.workload.as_ref());
        prepared.tally.add(
            &format!("repetition {}", reps.len() + 1),
            &out,
            &prepared.reference,
        );
        reps.push(rep);
        let typical = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if reps.len() >= min_reps && started.elapsed().as_secs_f64() + typical > budget_s {
            return reps;
        }
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Prints the metrics by name, writes the detail file, and prints the
/// contract's result object as the last line of stdout.
fn finish(
    args: &RunArgs,
    tally: &Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(&'static str, Json)>,
) -> i32 {
    let pass = if args.trace { "traced" } else { "untraced" };
    println!(
        "# {} seed={} {pass} (throughput unit: {}/s)",
        args.spec.name, args.seed, args.spec.unit
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} fraction ({} of {})",
        tally.failed, tally.attempted
    );
    for p in &tally.problems {
        eprintln!("FAILED {}: {p}", args.spec.name);
    }
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(n, v, u)| (n, metric(v, u)))),
        ),
    ]);
    let mut file = vec![
        ("workload", Json::str(args.spec.name)),
        ("unit", Json::Str(format!("{}/s", args.spec.unit))),
        ("seed", Json::Num(args.seed as f64)),
        ("pass", Json::str(pass)),
        ("failed_frac", Json::Num(failed_frac)),
        (
            "problems",
            Json::Arr(tally.problems.iter().map(Json::str).collect()),
        ),
        ("result", result.clone()),
    ];
    file.extend(detail);
    let path = args.out.join(format!("{}.{pass}.json", args.spec.name));
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, Json::obj(file).pretty()))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{}", result.line());
    0
}

/// The quickest repetition. Whatever else the shared host is doing can
/// only add time to a repetition, never take any away, so the minimum
/// repeats far better from run to run than the median does (measured:
/// README, "Steadiness") and is still the cost of the code.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_untraced(args: &RunArgs, t0: Instant) -> i32 {
    let mut prepared = prepare(args);
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    // One probe is enough to smoke-test the path at toy size.
    for _ in 0..if args.toy { 1 } else { SETUP_PROBES } {
        match spawn_probe(args) {
            Ok(s) => setups.push(s),
            Err(why) => eprintln!("warning: setup probe failed: {why}"),
        }
    }
    let min_reps = if args.toy { 1 } else { MIN_REPS };
    let reps = timed_reps(&mut prepared, args.seconds, min_reps);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let work = prepared.reference.work as f64;
    let throughputs: Vec<f64> = walls.iter().map(|w| work / w).collect();
    let values = [
        median(&setups),
        work / fastest(&walls),
        fastest(&cpus),
        prepared.peak_rss_mb,
        prepared.reference.rounds_to_commit as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let detail = vec![
        ("reps", Json::Num(reps.len() as f64)),
        (
            "samples",
            Json::obj([
                ("setup_s", samples(&setups)),
                ("throughput", samples(&throughputs)),
                ("cpu_s", samples(&cpus)),
                ("wall_s", samples(&walls)),
            ]),
        ),
        ("output", crate::golden::pins(&prepared.reference)),
    ];
    finish(args, &prepared.tally, metrics, detail)
}

/// The flow crate's two monotone counters: augmenting paths, min-cuts.
fn flow_totals() -> (u64, u64) {
    (
        rbcast_flow::stats::augmentations_total(),
        rbcast_flow::stats::min_cuts_total(),
    )
}

/// `flow.dinic.kernel_ns`: vertex-disjoint paths between opposite
/// corners of the closed r = 2 ball (25 nodes, neighbours within
/// distance 2) — the graph the paper's chain arguments live on.
fn dinic_kernel_ns() -> f64 {
    let side = 5i64;
    let adj: Vec<Vec<usize>> = (0..side * side)
        .map(|a| {
            (0..side * side)
                .filter(|&b| {
                    a != b && (a % side - b % side).abs().max((a / side - b / side).abs()) <= 2
                })
                .map(|b| b as usize)
                .collect()
        })
        .collect();
    let n = 2_000;
    let start = Instant::now();
    let mut paths = 0u64;
    for _ in 0..n {
        paths += u64::from(
            rbcast_flow::try_vertex_disjoint_count(std::hint::black_box(&adj), 0, 24, None)
                .unwrap_or(0),
        );
    }
    std::hint::black_box(paths);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

/// `--trace 1`: the per-layer metrics. Untraced and traced repetitions
/// alternate, so the process-level counters and the baseline the tracing
/// overhead is measured against see the same host weather as the traced
/// repetitions do; the kernels run last.
pub fn run_traced(args: &RunArgs) -> i32 {
    let mut prepared = prepare(args);
    let min_pairs = if args.toy { 1 } else { 2 };

    let mut untraced: Vec<Rep> = Vec::new();
    let mut flow_deltas: Vec<(u64, u64)> = Vec::new();
    // Seconds inside the program's own `experiment/run` spans, untraced
    // repetitions only.
    let mut experiment_s = 0.0;
    let mut trace = Trace::default();
    let mut rep_counts: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    let mut rep_values: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // Seconds of each traced repetition that the untraced call
    // corresponds to.
    let mut traced_walls: Vec<f64> = Vec::new();
    let started = Instant::now();
    loop {
        let pair_started = Instant::now();
        let flow_before = flow_totals();
        let experiment_before = obs_span_seconds("experiment/run");
        let (rep, out) = timed_rep(prepared.workload.as_ref());
        experiment_s += obs_span_seconds("experiment/run") - experiment_before;
        let flow_after = flow_totals();
        flow_deltas.push((flow_after.0 - flow_before.0, flow_after.1 - flow_before.1));
        prepared.tally.add(
            &format!("repetition {}", untraced.len() + 1),
            &out,
            &prepared.reference,
        );
        untraced.push(rep);

        let root = trace.open("rep");
        let start = Instant::now();
        let out = prepared.workload.run_traced(&mut trace);
        let wall_s = start.elapsed().as_secs_f64();
        trace.close(root);
        prepared.tally.add(
            &format!("traced repetition {}", rep_counts.len() + 1),
            &out,
            &prepared.reference,
        );
        trace.value("trace.span_coverage_frac", trace.coverage(root));
        let (counts, values, comparable_s) = trace.finish_rep();
        traced_walls.push(comparable_s.unwrap_or(wall_s));
        rep_counts.push(counts);
        rep_values.push(values);

        let pair_s = pair_started.elapsed().as_secs_f64();
        if rep_counts.len() >= min_pairs
            && (args.toy || started.elapsed().as_secs_f64() + pair_s > args.seconds)
        {
            break;
        }
    }
    experiment_s /= untraced.len() as f64;
    if flow_deltas.windows(2).any(|w| w[0] != w[1]) {
        prepared.tally.fail(
            prepared.reference.ops,
            format!("flow counters differ between repetitions: {flow_deltas:?}"),
        );
    }
    let untraced_wall = fastest(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    if rep_counts.windows(2).any(|w| w[0] != w[1]) {
        prepared.tally.fail(
            prepared.reference.ops,
            "per-layer counts differ between traced repetitions".into(),
        );
    }

    prepared.workload.kernels(&mut trace);
    let flow = flow_deltas.first().copied().unwrap_or((0, 0));
    if flow.0 > 0 {
        trace.value("flow.dinic.kernel_ns", dinic_kernel_ns());
    }
    let (_, kernel_values, _) = trace.finish_rep();

    // Assemble the ledger: counts as counted, times as the median over
    // the traced repetitions, process figures from the untraced ones.
    let mut ledger: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (&name, &n) in &rep_counts[0] {
        ledger.insert(name, n as f64);
    }
    let names: Vec<&'static str> = rep_values.iter().flat_map(|v| v.keys().copied()).collect();
    for name in names {
        let xs: Vec<f64> = rep_values
            .iter()
            .filter_map(|v| v.get(name).copied())
            .collect();
        ledger.insert(name, median(&xs));
    }
    ledger.extend(kernel_values);
    let over = |f: fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    ledger.insert("proc.cpu_user_s", over(|r| r.usage.user_s));
    ledger.insert("proc.cpu_sys_s", over(|r| r.usage.sys_s));
    ledger.insert("proc.minor_faults", over(|r| r.usage.minor_faults as f64));
    ledger.insert(
        "proc.invol_ctx_switches",
        over(|r| r.usage.invol_ctx_switches as f64),
    );
    ledger.insert("proc.first_rep_s", prepared.first_rep_s);
    ledger.insert("flow.augmentations", flow.0 as f64);
    ledger.insert("flow.min_cuts", flow.1 as f64);
    ledger.insert("core.experiment.run_s", experiment_s);
    ledger.insert(
        "trace.overhead_frac",
        (fastest(&traced_walls) - untraced_wall) / untraced_wall,
    );

    for name in ledger.keys() {
        if !PER_LAYER.iter().any(|m| m.name == *name) {
            prepared
                .tally
                .fail(1, format!("undeclared per-layer metric {name}"));
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, ledger.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();

    let span_path = args.out.join(format!("{}.trace.json", args.spec.name));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(
            &span_path,
            trace.to_json(args.spec.name, args.seed).line() + "\n",
        )
    }) {
        eprintln!("warning: cannot write {}: {e}", span_path.display());
    }
    let detail = vec![
        ("untraced_reps", Json::Num(untraced.len() as f64)),
        ("traced_reps", Json::Num(rep_counts.len() as f64)),
        ("untraced_wall_fastest_s", Json::Num(untraced_wall)),
    ];
    finish(args, &prepared.tally, metrics, detail)
}
