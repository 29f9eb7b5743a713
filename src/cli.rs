//! Command-line interface of the `rbcast` binary.
//!
//! Subcommands:
//!
//! * `thresholds [--r-max N]` — print the paper's bound curves;
//! * `run …` — run one broadcast experiment and print the outcome;
//! * `sweep …` — sweep `t` from 0 to `--t-max` and report completion;
//! * `audit …` — materialise a placement and audit its local bound.
//!
//! Parsing is deliberately dependency-free; see [`parse`] for the
//! grammar and `rbcast help` for usage.

use crate::adversary::{local_fault_bound, Placement};
use crate::core::supervisor::{
    self, Checkpoint, JournalFailure, JournalHeader, SupervisorConfig, TaskReport,
};
use crate::core::{engine, obs, thresholds, EngineKind, Experiment, FaultKind, ProtocolKind};
use crate::grid::{Metric, NeighborTable, NodeId, Torus};
use crate::sim::ChannelConfig;
use std::path::PathBuf;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Print the bound curves up to `r_max`.
    Thresholds {
        /// Largest radius tabulated.
        r_max: u32,
    },
    /// Run one experiment.
    Run(RunSpec),
    /// Sweep the fault budget.
    Sweep {
        /// The experiment template (its `t` is the sweep's start).
        spec: RunSpec,
        /// Inclusive sweep end.
        t_max: usize,
        /// Supervision options (threads, journal, resume, retries…).
        opts: SweepOpts,
    },
    /// Audit a placement's local fault bound.
    Audit {
        /// Radius.
        r: u32,
        /// The placement to audit.
        placement: Placement,
        /// Metric.
        metric: Metric,
    },
    /// Search for worst-case fault placements (seeded annealing).
    Attack(crate::cli_attack::AttackSpec),
    /// Run one networked node over UDP (a cluster child process).
    Serve(crate::cli_net::ServeSpec),
    /// Run a whole networked cluster and check sim parity.
    Cluster {
        /// Shared per-node configuration.
        spec: crate::cli_net::NetSpec,
        /// Orchestration options (transport, kill injection, scratch dir).
        opts: crate::cli_net::ClusterOpts,
    },
}

/// Sweep-only supervision knobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepOpts {
    /// Worker threads (`None` = `RBCAST_THREADS` or all cores).
    pub threads: Option<usize>,
    /// Checkpoint journal to start (`--journal`) or resume (`--resume`:
    /// completed tasks are skipped and their stored rows reprinted;
    /// failures re-run; new completions append to the same file, so
    /// repeated resumes converge). No default: the sweep journals only
    /// when asked to.
    pub checkpoint: Option<Checkpoint>,
    /// Attempts per task (`--retries`; `None` = `RBCAST_RETRIES` or 2).
    pub retries: Option<u32>,
    /// Per-task round budget (`--round-budget`; `None` =
    /// `RBCAST_ROUND_BUDGET` or unbounded).
    pub round_budget: Option<u32>,
    /// Directory for per-task trace streams (`--trace-dir`): task `i`
    /// writes `task-<i>.jsonl`. Trace payloads are pure functions of
    /// simulation state, so the files are byte-identical at any thread
    /// count.
    pub trace_dir: Option<PathBuf>,
    /// Print the per-phase wall-clock timing table after the sweep
    /// (`--timings`). Timing is diagnostics only — it never feeds the
    /// journal, the rows, or the exit code.
    pub timings: bool,
}

/// Everything needed to run one experiment from the CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Transmission radius.
    pub r: u32,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Fault budget (`None` = the protocol's proven maximum).
    pub t: Option<usize>,
    /// Distance metric.
    pub metric: Metric,
    /// Fault placement (`None` = fault-free).
    pub placement: Option<Placement>,
    /// Faulty-node behaviour.
    pub behavior: FaultKind,
    /// Channel model.
    pub channel: ChannelConfig,
    /// Whether the run may stop once every honest node has decided
    /// (default true; `--no-early-term` disables it to measure the full
    /// tail until quiescence).
    pub early_termination: bool,
    /// Stream the run's structured trace events to this file as JSONL
    /// (`--trace`).
    pub trace: Option<PathBuf>,
    /// Simulator round loop (`--dense` selects the dense oracle; the
    /// sparse wavefront engine is the default).
    pub engine: EngineKind,
}

/// Usage text.
pub const USAGE: &str = "\
rbcast — reliable broadcast in a grid radio network (Bhandari & Vaidya, PODC 2005)

USAGE:
  rbcast thresholds [--r-max N]
  rbcast run   [--protocol P] [--r N>=1] [--t N] [--metric M] [--placement PL]
               [--behavior B] [--seed N] [--prob F in [0,1]] [--repeats N>=1]
               [--loss F in [0,1)] [--redundancy N>=1] [--spoofing] [--jam N]
               [--no-early-term] [--trace FILE] [--dense]
  rbcast sweep --t-max N>=t [--threads N>=1] [--journal FILE | --resume FILE]
               [--retries N>=1] [--round-budget N]
               [--trace-dir DIR] [--timings] [run options]
  rbcast audit --placement PL [--r N>=1] [--t N] [--seed N] [--metric M]
  rbcast attack [--seed N] [--steps N] [--threads N>=1] [--r N>=1]...
               [--protocol P] [--behavior B] [--metric M] [--gate]
               [--journal FILE | --resume FILE] [--checkpoint-every N]
               [--out DIR] [--timings]
  rbcast serve --node I [net options] [--journal FILE] [--out FILE]
  rbcast cluster [net options] [--transport udp|loopback] [--kill I]
               [--dir DIR]
  rbcast help

  P  = flood | persistent-flood | cpa | indirect-full | indirect-simplified
  M  = linf | l2
  PL = cluster | random | double-strip | checker-strips | column-strips
       | bernoulli | file:PATH
  B  = crash | silent | liar | forger | spoofer | mixed

  P, M and B mean the same wherever a subcommand takes them. A missing
  or malformed value, a value outside the range stated beside its flag,
  an unknown name, or a file:PATH id outside the torus is one `error:`
  line and exit 2. persistent-flood re-broadcasts --repeats times
  (default 3; serve, cluster and attack always use the default); mixed
  draws each faulty node's behaviour from --seed.

  Sweeps fan out over worker threads through the deterministic engine:
  output is byte-identical for every thread count. --threads overrides
  the RBCAST_THREADS environment variable; the default is all cores.

  Sweeps run supervised: a panicking or deadline-blown run is retried
  (--retries attempts per task, default 2) and then quarantined — its
  row is reported as such while every healthy row prints normally, and
  the process exits 2. --round-budget arms a per-run watchdog.
  --journal FILE appends one JSON line per completed or failed task;
  --resume FILE reloads such a journal, reprints the completed rows
  without re-running them, re-runs only the failures, and appends new
  completions to the same file, so repeated resumes converge.

  Runs stop as soon as every honest node has decided (the delivery-trace
  hash is frozen at that round either way, so determinism gates are
  unaffected). --no-early-term lets the run idle to quiescence instead,
  which is what message-complexity measurements need.

  The simulator's default round loop is the sparse wavefront engine:
  only nodes on the active frontier (heard something, or declared a
  pending wakeup) do per-round work. --dense falls back to the original
  every-node-every-round loop — byte-identical output, torus-area cost —
  which the determinism gate keeps as a parity oracle.

  --trace FILE streams the run's structured events (rounds,
  transmissions, deliveries, jams, losses, decisions, protocol notes) as
  one JSON object per line; the simulator's delivery-trace hash is
  derivable from the stream, and the file is byte-identical for the same
  experiment at any thread count. --trace-dir DIR does the same per
  sweep task (task-<i>.jsonl). --timings prints a wall-clock per-phase
  table after the sweep; timing never feeds anything deterministic.

  A sweep or attack journal starts with a header fingerprinting the
  run. --resume continues that file and refuses (exit 2, file
  untouched) a missing journal, a headerless one, or one whose
  fingerprint differs, since its task indices would alias unrelated
  experiments. --journal and --resume together are an error.

  `attack` searches for worst-case fault placements: for each radius it
  sweeps the local bound t across the protocol's proven threshold (half,
  at, and just past it), seeds each cell from a minimum vertex cut
  between the source and the far side of the torus, and refines it by
  seeded annealing — every accept decision derives from (seed, step), so
  results are byte-identical at any --threads and a --resume replays the
  interrupted tail exactly. Each cell reports the worst placement found
  against the best admissible hand-built strategy; --gate exits nonzero
  unless the search beats that library somewhere, and --out DIR writes
  each placement as a file `run --placement file:PATH` can replay.
  `--placement file:PATH` (run/sweep/audit) loads such a file: one node
  id per line.

  The networked runtime runs the same verified protocols over real
  datagrams. Net options (shared by serve and cluster): --width N>=1
  --height N>=1 --r N>=1 --metric M --protocol P --t N --instances N>=1
  --rounds N --base-port N --chaos-seed N --patience N --max-ticks N.
  `cluster --transport udp` (the default) spawns one `rbcast serve`
  process per torus node on loopback UDP ports, with per-node JSONL
  journals under --dir; --kill I crashes node I mid-run and restarts it
  from its journal. `--transport loopback` runs the cluster in-process.
  Either way the run's commit digest is checked against the verified
  simulator on the identical configuration; exit 0 iff they match.
  --chaos-seed arms the deterministic fault shim (Gilbert–Elliott burst
  loss, duplication, reordering, delay) on every node.
";

/// Parses a command line (excluding the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown subcommands, unknown
/// flags, or malformed values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "thresholds" => {
            let mut r_max = 8u32;
            let mut f = Flags::new(rest);
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--r-max" => r_max = f.value()?,
                    other => return Err(format!("unknown flag for thresholds: {other}")),
                }
            }
            Ok(Command::Thresholds { r_max })
        }
        "run" => Ok(Command::Run(parse_run(rest)?.0)),
        "sweep" => {
            let (spec, t_max, opts) = parse_run(rest)?;
            let t_max = t_max.ok_or("sweep requires --t-max")?;
            if let Some(t) = spec.t.filter(|&t| t_max < t) {
                return Err(format!("--t-max must be at least --t ({t}): {t_max}"));
            }
            if spec.trace.is_some() {
                return Err("sweep traces per task: use --trace-dir DIR, not --trace".to_string());
            }
            Ok(Command::Sweep { spec, t_max, opts })
        }
        "audit" => {
            let (spec, _, _) = parse_run(rest)?;
            let placement = spec.placement.ok_or("audit requires --placement")?;
            Ok(Command::Audit {
                r: spec.r,
                placement,
                metric: spec.metric,
            })
        }
        "attack" => Ok(Command::Attack(crate::cli_attack::parse_attack(rest)?)),
        "serve" => Ok(Command::Serve(crate::cli_net::parse_serve(rest)?)),
        "cluster" => {
            let (spec, opts) = crate::cli_net::parse_cluster(rest)?;
            Ok(Command::Cluster { spec, opts })
        }
        other => Err(format!("unknown subcommand: {other}")),
    }
}

/// Cursor over one subcommand's arguments — the only place a flag's
/// value is fetched, parsed and range-checked, so every flag loop
/// reports a missing, malformed or out-of-range value the same way and
/// before any constructor `assert!` can see it.
pub(crate) struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        Flags {
            rest: args.iter(),
            flag: "",
        }
    }

    /// Advances to the next flag; the getters below read *its* value.
    pub(crate) fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value, verbatim.
    pub(crate) fn raw(&mut self) -> Result<&'a str, String> {
        match self.rest.next() {
            Some(raw) => Ok(raw),
            None => Err(format!("{} needs a value", self.flag)),
        }
    }

    pub(crate) fn path(&mut self) -> Result<PathBuf, String> {
        self.raw().map(PathBuf::from)
    }

    /// `--journal FILE` (start) or `--resume FILE` (continue) into the
    /// one checkpoint a run keeps: a second is an error, so no run
    /// writes one journal while resuming from another.
    pub(crate) fn checkpoint(&mut self, slot: &mut Option<Checkpoint>) -> Result<(), String> {
        let path = self.path()?;
        if let Some(prior) = slot {
            let (flag, prior) = match prior {
                Checkpoint::Fresh(p) => ("--journal", p),
                Checkpoint::Resume(p) => ("--resume", p),
            };
            return Err(format!(
                "{} {} conflicts with {flag} {}: a run keeps one journal \
                 (--journal FILE starts it, --resume FILE continues it)",
                self.flag,
                path.display(),
                prior.display()
            ));
        }
        *slot = Some(if self.flag == "--resume" {
            Checkpoint::Resume(path)
        } else {
            Checkpoint::Fresh(path)
        });
        Ok(())
    }

    pub(crate) fn value<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let raw = self.raw()?;
        raw.parse()
            .map_err(|_| format!("invalid value for {}: {raw}", self.flag))
    }

    pub(crate) fn at_least<T>(&mut self, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let v: T = self.value()?;
        if v >= min {
            Ok(v)
        } else {
            Err(format!("{} must be at least {min}: {v}", self.flag))
        }
    }

    /// A probability in `[0, 1]` — in `[0, 1)` when `below_one`.
    pub(crate) fn probability(&mut self, below_one: bool) -> Result<f64, String> {
        let p: f64 = self.value()?;
        let (ok, close) = if below_one {
            ((0.0..1.0).contains(&p), ')')
        } else {
            ((0.0..=1.0).contains(&p), ']')
        };
        if ok {
            Ok(p)
        } else {
            Err(format!("{} must be in [0, 1{close}: {p}", self.flag))
        }
    }

    /// `--r`: at radius 0 nobody hears anybody.
    pub(crate) fn radius(&mut self) -> Result<u32, String> {
        self.at_least(1)
    }

    pub(crate) fn protocol(&mut self) -> Result<ProtocolKind, String> {
        self.word(ProtocolKind::parse, &ProtocolKind::ALL.map(|k| k.name()))
    }

    pub(crate) fn behavior(&mut self) -> Result<FaultKind, String> {
        self.word(FaultKind::parse, &FaultKind::ALL.map(|k| k.name()))
    }

    pub(crate) fn metric(&mut self) -> Result<Metric, String> {
        self.word(Metric::parse, &Metric::ALL.map(Metric::name))
    }

    /// One of `names`, as the vocabulary the flag is named after parses it.
    fn word<T>(&mut self, parse: fn(&str) -> Option<T>, names: &[&str]) -> Result<T, String> {
        let what = self.flag.trim_start_matches('-');
        let raw = self.raw()?;
        parse(raw).ok_or_else(|| format!("unknown {what}: {raw} ({})", names.join(" | ")))
    }
}

/// The geometry check a subcommand runs after its flag loop (so flag
/// order is irrelevant): node ids are `u32`, so a torus names at most
/// 2³² nodes. What fits the ids but not the host is the run guard's
/// `error:` line ([`arenas`]).
pub(crate) fn arena_fits(flags: &str, nodes: u64) -> Result<(), String> {
    NeighborTable::check_nodes(nodes).map_err(|e| format!("{flags}: {e}"))
}

/// [`arena_fits`] on the `Torus::for_radius(r)` that `run`, `sweep`,
/// `audit` and `attack` build, sized here in `u64` because a radius
/// this check exists to refuse overflows the torus's own `u32` side.
pub(crate) fn experiment_arena_fits(r: u32) -> Result<(), String> {
    let side = 4 * (2 * u64::from(r) + 1);
    arena_fits("--r", side.saturating_mul(side))
}

#[allow(clippy::too_many_lines)]
fn parse_run(args: &[String]) -> Result<(RunSpec, Option<usize>, SweepOpts), String> {
    let mut r = 2u32;
    let mut protocol = ProtocolKind::IndirectSimplified;
    let mut t: Option<usize> = None;
    let mut t_max: Option<usize> = None;
    let mut opts = SweepOpts::default();
    let mut metric = Metric::Linf;
    let mut placement_name: Option<&str> = None;
    let mut behavior = FaultKind::Silent;
    let mut seed = 0u64;
    let mut prob = 0.1f64;
    let mut repeats = ProtocolKind::DEFAULT_REPEATS;
    let mut loss = 0.0f64;
    let mut redundancy = 1u32;
    let mut spoofing = false;
    let mut jam = 0u32;
    let mut early_termination = true;
    let mut trace: Option<PathBuf> = None;
    let mut engine = EngineKind::default();

    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--r" => r = f.radius()?,
            "--protocol" => protocol = f.protocol()?,
            "--t" => t = Some(f.value()?),
            "--t-max" => t_max = Some(f.value()?),
            "--threads" => opts.threads = Some(f.at_least(1)?),
            "--journal" | "--resume" => f.checkpoint(&mut opts.checkpoint)?,
            "--retries" => opts.retries = Some(f.at_least(1)?),
            "--round-budget" => opts.round_budget = Some(f.value()?),
            "--trace" => trace = Some(f.path()?),
            "--trace-dir" => opts.trace_dir = Some(f.path()?),
            "--timings" => opts.timings = true,
            "--metric" => metric = f.metric()?,
            "--placement" => placement_name = Some(f.raw()?),
            "--behavior" => behavior = f.behavior()?,
            "--seed" => seed = f.value()?,
            "--prob" => prob = f.probability(false)?,
            "--repeats" => repeats = f.at_least(1)?,
            "--loss" => loss = f.probability(true)?,
            "--redundancy" => redundancy = f.at_least(1)?,
            "--spoofing" => spoofing = true,
            "--jam" => jam = f.value()?,
            "--no-early-term" => early_termination = false,
            "--dense" => engine = EngineKind::Dense,
            other => return Err(format!("unknown flag: {other}")),
        }
    }

    experiment_arena_fits(r)?;
    // resolved after the loop so `--seed` and `--repeats` order is irrelevant
    if let FaultKind::Mixed { seed: draw } = &mut behavior {
        *draw = seed;
    }
    if let ProtocolKind::PersistentFlood { repeats: n } = &mut protocol {
        *n = repeats;
    }

    // The effective budget for placements that need one now.
    let effective_t = t.unwrap_or_else(|| protocol.proven_t(r));
    let placement = match placement_name {
        None | Some("none") => None,
        Some("cluster") => Some(Placement::FrontierCluster { t: effective_t }),
        Some("random") => Some(Placement::RandomLocal {
            t: effective_t,
            seed,
            attempts: 60,
        }),
        Some("double-strip") => Some(Placement::DoubleStrip),
        Some("checker-strips") => Some(Placement::CheckerStrips),
        Some("column-strips") => Some(Placement::ColumnStrips),
        Some("bernoulli") => Some(Placement::Bernoulli { p: prob, seed }),
        Some(other) => match other.strip_prefix("file:") {
            Some(path) => Some(load_placement_file(
                std::path::Path::new(path),
                Torus::for_radius(r).len(),
            )?),
            None => return Err(format!("unknown placement: {other}")),
        },
    };

    let mut channel = if loss > 0.0 {
        ChannelConfig::lossy(loss, redundancy, seed)
    } else {
        ChannelConfig::reliable()
    };
    if spoofing {
        channel = channel.with_spoofing();
    }
    if jam > 0 {
        channel = channel.with_jammers(Vec::new(), jam);
    }

    Ok((
        RunSpec {
            r,
            protocol,
            t,
            metric,
            placement,
            behavior,
            channel,
            early_termination,
            trace,
            engine,
        },
        t_max,
        opts,
    ))
}

/// Loads an explicit fault set (`--placement file:PATH`): node ids
/// separated by newlines or commas, as written by `rbcast attack --out`,
/// each below `nodes` (the placement would silently drop the others).
fn load_placement_file(path: &std::path::Path, nodes: usize) -> Result<Placement, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read placement file {}: {e}", path.display()))?;
    let mut faults = Vec::new();
    for token in text.split_whitespace().flat_map(|w| w.split(',')) {
        if token.is_empty() {
            continue;
        }
        let id: u32 = token
            .parse()
            .map_err(|_| format!("invalid node id in {}: {token}", path.display()))?;
        if id as usize >= nodes {
            return Err(format!(
                "node id {id} in {} is outside the {nodes}-node torus (ids 0..{nodes})",
                path.display()
            ));
        }
        faults.push(NodeId(id));
    }
    Ok(Placement::Explicit { faults })
}

fn build(spec: &RunSpec, t_override: Option<usize>) -> Experiment {
    let mut e = Experiment::new(spec.r, spec.protocol)
        .with_metric(spec.metric)
        .with_fault_kind(spec.behavior)
        .with_channel(spec.channel.clone())
        .with_early_termination(spec.early_termination)
        .with_engine(spec.engine);
    if let Some(t) = t_override.or(spec.t) {
        e = e.with_t(t);
    }
    if let Some(p) = &spec.placement {
        e = e.with_placement(p.clone());
    }
    if let Some(path) = &spec.trace {
        e = e.with_trace_path(path.clone());
    }
    e
}

/// Executes a parsed command, printing results to stdout. Returns the
/// process exit code.
#[must_use]
pub fn execute(cmd: &Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::Thresholds { r_max } => {
            println!(
                "{:>4} {:>12} {:>12} {:>12} {:>14}",
                "r", "byz t_max", "crash t_max", "cpa ⌊⅔r²⌋", "Koo CPA bound"
            );
            for r in 1..=*r_max {
                println!(
                    "{:>4} {:>12} {:>12} {:>12} {:>14.2}",
                    r,
                    thresholds::byzantine_max_t(r),
                    thresholds::crash_max_t(r),
                    thresholds::cpa_guaranteed_t(r),
                    thresholds::koo_cpa_bound(r),
                );
            }
            0
        }
        Command::Run(spec) => {
            let experiment = build(spec, None);
            if let Err(code) = check_runs(std::slice::from_ref(&experiment)) {
                return code;
            }
            let outcome = experiment.run();
            println!("{outcome}");
            i32::from(!outcome.all_honest_correct())
        }
        Command::Sweep { spec, t_max, opts } => execute_sweep(spec, *t_max, opts),
        Command::Audit {
            r,
            placement,
            metric,
        } => {
            let torus = Torus::for_radius(*r);
            let faults = placement.place(&torus, *r, *metric);
            let bound = local_fault_bound(&torus, *r, *metric, &faults);
            println!(
                "{}: {} faults on {torus}, local bound = {bound}",
                placement.name(),
                faults.len()
            );
            0
        }
        Command::Attack(spec) => crate::cli_attack::execute_attack(spec),
        Command::Serve(spec) => crate::cli_net::execute_serve(spec),
        Command::Cluster { spec, opts } => crate::cli_net::execute_cluster(spec, opts),
    }
}

/// Checks that this host can hold each run of `experiments`, its arena
/// and its node table ([`Experiment::run_guard`]): a geometry it cannot
/// allocate is one `error:` line and exit 2 before anything runs, not an
/// allocator abort in the middle of one.
pub(crate) fn check_runs(experiments: &[Experiment]) -> Result<(), i32> {
    experiments
        .iter()
        .try_for_each(Experiment::run_guard)
        .map_err(|e| {
            eprintln!("error: cannot build the network: {e}");
            2
        })
}

/// How `rbcast sweep` and `rbcast attack` end once their output is
/// printed: with `code`, or — when the checkpoint journal lost a write —
/// with its one `error:` line and exit 2.
pub(crate) fn journal_exit(code: i32, failure: Option<&JournalFailure>) -> i32 {
    match failure {
        Some(failure) => {
            eprintln!("error: {failure}");
            2
        }
        None => code,
    }
}

/// Builds the supervisor policy for a sweep: the environment knobs
/// (`RBCAST_CHAOS`, `RBCAST_RETRIES`, `RBCAST_ROUND_BUDGET`) overridden
/// by the explicit flags, and the checkpoint journal opened under
/// `header`, the sweep's fingerprint.
fn sweep_config(opts: &SweepOpts, header: JournalHeader) -> Result<SupervisorConfig, String> {
    let mut config = SupervisorConfig::from_env()?;
    if let Some(n) = opts.retries {
        config = config.with_max_attempts(n);
    }
    if opts.round_budget.is_some() {
        config = config.with_round_budget(opts.round_budget);
    }
    match &opts.checkpoint {
        Some(checkpoint) => config
            .with_checkpoint(checkpoint, header)
            .map_err(|e| e.to_string()),
        None => Ok(config),
    }
}

/// The supervised sweep: one row per `t`, recomputed, resumed, or
/// quarantined in place. Exit codes: 0 — every row completed with all
/// honest nodes correct; 1 — some completed row has wrong or undecided
/// honest nodes; 2 — at least one task was quarantined, the checkpoint
/// journal lost a write, or the supervision config or arena is unusable.
fn execute_sweep(spec: &RunSpec, t_max: usize, opts: &SweepOpts) -> i32 {
    let ts: Vec<usize> = (spec.t.unwrap_or(0)..=t_max).collect();
    let mut experiments: Vec<Experiment> = ts
        .iter()
        .map(|&t| {
            // re-derive the placement at this t for budgeted kinds
            let mut spec_t = spec.clone();
            if let Some(Placement::FrontierCluster { .. }) = spec_t.placement {
                spec_t.placement = Some(Placement::FrontierCluster { t });
            }
            if let Some(Placement::RandomLocal { seed, attempts, .. }) = spec_t.placement {
                spec_t.placement = Some(Placement::RandomLocal { t, seed, attempts });
            }
            build(&spec_t, Some(t))
        })
        .collect();

    // The fingerprint covers the sweep specification, not where its
    // traces go — computed before trace paths are attached, so a resume
    // may redirect --trace-dir without being refused.
    let header = JournalHeader {
        fingerprint: supervisor::sweep_fingerprint(&experiments),
        tasks: experiments.len(),
    };
    if let Err(code) = check_runs(&experiments) {
        return code;
    }
    let config = match sweep_config(opts, header) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(dir) = &opts.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create trace dir {}: {e}", dir.display());
            return 2;
        }
        for (i, e) in experiments.iter_mut().enumerate() {
            *e = e
                .clone()
                .with_trace_path(dir.join(format!("task-{i}.jsonl")));
        }
    }

    println!(
        "{:>4} {:>9} {:>7} {:>10} {:>12}",
        "t", "correct", "wrong", "undecided", "broadcasts"
    );
    // Supervised deterministic fan-out: rows print in t order and are
    // byte-identical for every thread count; a quarantined row never
    // withholds the healthy ones.
    let threads = engine::thread_count(opts.threads);
    let report =
        crate::core::supervisor::run_experiments_supervised(&experiments, threads, &config);
    let mut worst = 0;
    for (t, task) in ts.iter().zip(&report.tasks) {
        if let TaskReport::Failed { error, .. } = task {
            println!("{t:>4} (quarantined: {error})");
        } else {
            // Done rows summarise their outcome; Resumed rows reprint
            // the journal's stored summary byte-identically.
            let Some(s) = task.summary() else { continue };
            println!(
                "{:>4} {:>9} {:>7} {:>10} {:>12}",
                t, s.correct, s.wrong, s.undecided, s.messages
            );
            if s.wrong > 0 || s.undecided > 0 {
                worst = 1;
            }
        }
    }
    let quarantined = report.quarantined();
    if !quarantined.is_empty() {
        eprintln!(
            "quarantined {} of {} tasks:",
            quarantined.len(),
            report.tasks.len()
        );
        for (i, error) in &quarantined {
            eprintln!("  t={}: {error}", ts[*i]);
        }
        worst = 2;
    }
    if opts.timings {
        println!();
        println!(
            "{:<24} {:>8} {:>12} {:>10}",
            "phase", "count", "total ms", "mean ms"
        );
        for (name, stat) in obs::timings_snapshot() {
            println!(
                "{:<24} {:>8} {:>12.2} {:>10.3}",
                name,
                stat.count,
                stat.total_ms(),
                stat.mean_ms()
            );
        }
    }
    journal_exit(worst, report.journal_error.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&argv("help")), Ok(Command::Help));
    }

    #[test]
    fn thresholds_default_and_custom() {
        assert_eq!(
            parse(&argv("thresholds")),
            Ok(Command::Thresholds { r_max: 8 })
        );
        assert_eq!(
            parse(&argv("thresholds --r-max 3")),
            Ok(Command::Thresholds { r_max: 3 })
        );
    }

    #[test]
    fn run_defaults() {
        let Command::Run(spec) = parse(&argv("run")).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(spec.r, 2);
        assert_eq!(spec.protocol, ProtocolKind::IndirectSimplified);
        assert_eq!(spec.placement, None);
        assert_eq!(spec.metric, Metric::Linf);
    }

    #[test]
    fn run_full_flags() {
        let Command::Run(spec) = parse(&argv(
            "run --protocol cpa --r 3 --t 5 --metric l2 --placement cluster --behavior liar",
        ))
        .unwrap() else {
            panic!("not a run");
        };
        assert_eq!(spec.protocol, ProtocolKind::Cpa);
        assert_eq!(spec.r, 3);
        assert_eq!(spec.t, Some(5));
        assert_eq!(spec.metric, Metric::L2);
        assert_eq!(spec.placement, Some(Placement::FrontierCluster { t: 5 }));
        assert_eq!(spec.behavior, FaultKind::Liar);
    }

    #[test]
    fn channel_flags() {
        let Command::Run(spec) = parse(&argv(
            "run --loss 0.3 --redundancy 4 --spoofing --jam 7 --seed 9",
        ))
        .unwrap() else {
            panic!("not a run");
        };
        assert!((spec.channel.loss - 0.3).abs() < 1e-12);
        assert_eq!(spec.channel.redundancy, 4);
        assert!(spec.channel.spoofing);
        assert_eq!(spec.channel.jam_budget, 7);
        assert_eq!(spec.channel.seed, 9);
    }

    #[test]
    fn early_termination_defaults_on_and_flag_disables_it() {
        let Command::Run(spec) = parse(&argv("run --r 2")).unwrap() else {
            panic!("not a run");
        };
        assert!(spec.early_termination);
        let Command::Run(spec) = parse(&argv("run --r 2 --no-early-term")).unwrap() else {
            panic!("not a run");
        };
        assert!(!spec.early_termination);
    }

    #[test]
    fn sweep_requires_t_max() {
        assert!(parse(&argv("sweep")).is_err());
        let Command::Sweep { t_max, .. } =
            parse(&argv("sweep --t-max 4 --placement cluster")).unwrap()
        else {
            panic!("not a sweep");
        };
        assert_eq!(t_max, 4);
    }

    #[test]
    fn sweep_parses_threads() {
        let Command::Sweep { opts, .. } =
            parse(&argv("sweep --t-max 2 --threads 3 --placement cluster")).unwrap()
        else {
            panic!("not a sweep");
        };
        assert_eq!(opts.threads, Some(3));
    }

    #[test]
    fn sweep_parses_supervision_flags() {
        let Command::Sweep { opts, .. } = parse(&argv(
            "sweep --t-max 2 --resume b.jsonl --retries 3 --round-budget 40",
        ))
        .unwrap() else {
            panic!("not a sweep");
        };
        assert_eq!(
            opts.checkpoint,
            Some(Checkpoint::Resume(PathBuf::from("b.jsonl")))
        );
        assert_eq!(opts.retries, Some(3));
        assert_eq!(opts.round_budget, Some(40));
        assert!(parse(&argv("sweep --t-max 2 --retries many")).is_err());
        assert!(parse(&argv("sweep --t-max 2 --round-budget -1")).is_err());
    }

    #[test]
    fn execute_sweep_is_thread_count_invariant() {
        // the printed rows come from engine outcomes collected by input
        // index: the exit code (and rows) match the serial sweep
        let base = "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
                    --behavior crash";
        let serial = parse(&argv(&format!("{base} --threads 1"))).unwrap();
        let parallel = parse(&argv(&format!("{base} --threads 4"))).unwrap();
        assert_eq!(execute(&serial), execute(&parallel));
    }

    #[test]
    fn audit_requires_placement() {
        assert!(parse(&argv("audit")).is_err());
        let Command::Audit { placement, .. } =
            parse(&argv("audit --placement double-strip --r 2")).unwrap()
        else {
            panic!("not an audit");
        };
        assert_eq!(placement, Placement::DoubleStrip);
    }

    #[test]
    fn placement_file_loads_explicit_faults() {
        let path = std::env::temp_dir().join("rbcast_cli_placement.txt");
        std::fs::write(&path, "3\n7\n11,12\n").unwrap();
        let Command::Run(spec) =
            parse(&argv(&format!("run --placement file:{}", path.display()))).unwrap()
        else {
            panic!("not a run");
        };
        assert_eq!(
            spec.placement,
            Some(Placement::Explicit {
                faults: vec![NodeId(3), NodeId(7), NodeId(11), NodeId(12)],
            })
        );
        std::fs::write(&path, "3\nseven\n").unwrap();
        assert!(parse(&argv(&format!("run --placement file:{}", path.display()))).is_err());
        let _ = std::fs::remove_file(&path);
        assert!(parse(&argv("run --placement file:/no/such/file")).is_err());
    }

    #[test]
    fn attack_subcommand_parses() {
        let Command::Attack(spec) = parse(&argv("attack --seed 7 --steps 10 --gate")).unwrap()
        else {
            panic!("not an attack");
        };
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.steps, 10);
        assert!(spec.gate);
        assert!(parse(&argv("attack --bogus")).is_err());
    }

    #[test]
    fn unknown_inputs_error() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --protocol warp")).is_err());
        assert!(parse(&argv("run --metric l7")).is_err());
        assert!(parse(&argv("run --behavior angelic")).is_err());
        assert!(parse(&argv("run --placement lattice")).is_err());
        assert!(parse(&argv("run --r")).is_err());
        assert!(parse(&argv("run --r NaN")).is_err());
    }

    #[test]
    fn bad_invocations_are_parse_errors_naming_the_flag() {
        // Every row used to reach `execute` (a constructor `assert!`, a
        // NaN rate, a silently empty run) or is a missing / malformed /
        // unknown flag; `main` prints the `Err` as one `error:` line and
        // exits 2 without executing anything.
        let table = [
            ("run --loss 1.5", "--loss must be in [0, 1): 1.5"),
            ("run --loss 1", "--loss"),
            ("run --loss NaN", "--loss"),
            (
                "run --loss 0.5 --redundancy 0",
                "--redundancy must be at least 1",
            ),
            ("run --protocol persistent-flood --repeats 0", "--repeats"),
            ("run --r 0", "--r must be at least 1: 0"),
            (
                "run --placement bernoulli --prob 2",
                "--prob must be in [0, 1]",
            ),
            ("run --placement bernoulli --prob -0.1", "--prob"),
            ("audit --placement cluster --r 0", "--r"),
            ("attack --r 1 --r 0", "--r"),
            ("serve --node 0 --r 0", "--r"),
            ("cluster --width 0 --height 3", "--width"),
            ("cluster --height 0", "--height"),
            ("cluster --instances 0", "--instances"),
            ("cluster --kill 9", "--kill"),
            ("cluster --kill 12 --width 4", "--kill"),
            (
                "run --r 1000000",
                "--r: 64000064000016 nodes exceeds the 2³² a u32 node id can name",
            ),
            (
                "run --r 8192 --metric l2",
                "--r: 4295491600 nodes exceeds the 2³²",
            ),
            ("sweep --t-max 1 --r 4000000000", "nodes exceeds the 2³²"),
            ("attack --r 1 --r 1000000", "--r"),
            (
                "cluster --width 100000 --height 100000",
                "--width/--height: 10000000000 nodes exceeds",
            ),
            (
                "serve --node 0 --width 65536 --height 65537",
                "--width/--height: 4295032832 nodes exceeds",
            ),
            (
                "cluster --protocol indirect",
                "indirect-full | indirect-simplified",
            ),
            ("thresholds --r-max x", "--r-max"),
            ("thresholds --r-max", "--r-max"),
            ("thresholds --bogus", "--bogus"),
            ("run --t x", "--t"),
            ("run --t", "--t"),
            ("run --bogus", "--bogus"),
            ("sweep --t-max 2 --t x", "--t"),
            ("sweep --t-max", "--t-max"),
            ("sweep --t-max 2 --bogus", "--bogus"),
            (
                "sweep --protocol flood --r 1 --t 5 --t-max 2",
                "--t-max must be at least --t (5): 2",
            ),
            (
                "sweep --t-max 2 --threads 0",
                "--threads must be at least 1",
            ),
            (
                "sweep --t-max 2 --retries 0",
                "--retries must be at least 1",
            ),
            ("attack --threads 0", "--threads must be at least 1"),
            (
                "sweep --t-max 2 --journal a --resume b",
                "--resume b conflicts with --journal a",
            ),
            ("attack --journal a --resume b", "--resume b conflicts"),
            ("attack --resume a --journal a", "--journal a conflicts"),
            ("audit --placement cluster --t x", "--t"),
            ("audit --placement", "--placement"),
            ("audit --placement cluster --bogus", "--bogus"),
            ("attack --steps x", "--steps"),
            ("attack --steps", "--steps"),
            ("attack --bogus", "--bogus"),
            ("serve --node 0 --t x", "--t"),
            ("serve --node", "--node"),
            ("serve --node 0 --bogus", "--bogus"),
            ("cluster --t x", "--t"),
            ("cluster --kill", "--kill"),
            ("cluster --bogus", "--bogus"),
        ];
        for (line, needle) in table {
            let err = parse(&argv(line)).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
        // r = 2 runs on a 20×20 torus: id 400 is one past the end
        let path = std::env::temp_dir().join("rbcast_cli_placement_range.txt");
        std::fs::write(&path, "3\n400\n").unwrap();
        let err = parse(&argv(&format!("run --placement file:{}", path.display()))).unwrap_err();
        assert!(err.contains("400") && err.contains("rbcast_cli_placement_range.txt"));
        std::fs::write(&path, "3\n399\n").unwrap();
        assert!(parse(&argv(&format!("run --placement file:{}", path.display()))).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_name_round_trips_and_usage_lists_parse_everywhere() {
        for k in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(k.name()), Some(k));
        }
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
        }
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        // USAGE's `X  = a | b | c` line, as the spellings it promises
        let listed = |tag: &str| -> Vec<&str> {
            let prefix = format!("  {tag:<2} = ");
            let line = USAGE.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
            line.expect(tag).split(" | ").collect()
        };
        let takers = [
            (
                "P",
                "--protocol",
                &["run", "attack", "serve --node 0", "cluster"][..],
            ),
            (
                "M",
                "--metric",
                &["run", "attack", "serve --node 0", "cluster"][..],
            ),
            ("B", "--behavior", &["run", "attack"][..]),
        ];
        for (tag, flag, subcommands) in takers {
            let names = listed(tag);
            assert!(names.len() >= 2, "{tag}: {names:?}");
            for name in names {
                for sub in subcommands {
                    let line = format!("{sub} {flag} {name}");
                    assert!(parse(&argv(&line)).is_ok(), "USAGE promises `{line}`");
                }
            }
        }
        assert_eq!(listed("P").len(), ProtocolKind::ALL.len());
        assert_eq!(listed("B").len(), FaultKind::ALL.len());
        assert_eq!(listed("M").len(), Metric::ALL.len());
    }

    #[test]
    fn seed_and_repeats_reach_the_parsed_vocabulary_in_any_order() {
        let Command::Run(spec) = parse(&argv(
            "run --behavior mixed --protocol persistent-flood --seed 9 --repeats 5",
        ))
        .unwrap() else {
            panic!("not a run");
        };
        assert_eq!(spec.behavior, FaultKind::Mixed { seed: 9 });
        assert_eq!(spec.protocol, ProtocolKind::PersistentFlood { repeats: 5 });
        let Command::Attack(spec) = parse(&argv("attack --behavior mixed --seed 7")).unwrap()
        else {
            panic!("not an attack");
        };
        assert_eq!(spec.config.fault_kind, FaultKind::Mixed { seed: 7 });
    }

    #[test]
    fn execute_help_and_thresholds() {
        assert_eq!(execute(&Command::Help), 0);
        assert_eq!(execute(&Command::Thresholds { r_max: 2 }), 0);
    }

    #[test]
    fn execute_small_run() {
        let Command::Run(spec) = parse(&argv("run --protocol flood --r 1 --t 0")).unwrap() else {
            panic!()
        };
        assert_eq!(execute(&Command::Run(spec)), 0);
    }

    #[test]
    fn execute_sweep_over_flood() {
        let cmd = parse(&argv(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster --behavior crash",
        ))
        .unwrap();
        // all t ≤ crash_max are coverable by the cluster: exit 0
        assert_eq!(execute(&cmd), 0);
    }

    #[test]
    fn execute_run_reports_failure_exit_code() {
        // double strips at the crash bound strand nodes: nonzero exit
        let cmd = parse(&argv(
            "run --protocol flood --r 1 --placement double-strip --behavior crash",
        ))
        .unwrap();
        assert_eq!(execute(&cmd), 1);
    }

    #[test]
    fn execute_audit() {
        let cmd = parse(&argv("audit --placement checker-strips --r 1")).unwrap();
        assert_eq!(execute(&cmd), 0);
    }

    #[test]
    fn execute_sweep_quarantines_on_an_impossible_round_budget() {
        // A one-round budget trips the watchdog on every t: each task is
        // quarantined (after the default retry) and the sweep exits 2.
        let cmd = parse(&argv(
            "sweep --protocol flood --r 1 --t 0 --t-max 1 --placement cluster \
             --behavior crash --round-budget 1 --threads 1",
        ))
        .unwrap();
        assert_eq!(execute(&cmd), 2);
    }

    /// A sweep journal's entries, last line per task winning, after
    /// checking that its first line is the fingerprint header.
    fn journal_entries(
        path: &std::path::Path,
    ) -> std::collections::BTreeMap<usize, supervisor::JournalEntry> {
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines = text.lines();
        assert!(JournalHeader::from_line(lines.next().unwrap()).is_ok());
        lines
            .map(|line| supervisor::JournalEntry::from_line(line).unwrap())
            .map(|e| (e.task, e))
            .collect()
    }

    #[test]
    fn execute_sweep_journals_and_resumes_without_recomputing() {
        let path = std::env::temp_dir().join("rbcast_cli_sweep_journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let base = format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
             --behavior crash --threads 1 --journal {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&base)).unwrap()), 0);
        let entries = journal_entries(&path);
        assert_eq!(entries.len(), 3);
        assert!(entries.values().all(|e| e.ok));

        // Resuming reprints every row from the journal; nothing is
        // recomputed, so nothing new is appended either.
        let before = std::fs::read_to_string(&path).unwrap();
        let resume = format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
             --behavior crash --threads 1 --resume {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&resume)).unwrap()), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_flags_parse() {
        let Command::Run(spec) = parse(&argv("run --trace out.jsonl")).unwrap() else {
            panic!("not a run");
        };
        assert_eq!(spec.trace, Some(PathBuf::from("out.jsonl")));
        let Command::Sweep { opts, .. } = parse(&argv(
            "sweep --t-max 2 --trace-dir traces --timings --placement cluster",
        ))
        .unwrap() else {
            panic!("not a sweep");
        };
        assert_eq!(opts.trace_dir, Some(PathBuf::from("traces")));
        assert!(opts.timings);
        // sweep rejects the single-file flag: tasks would clobber it
        assert!(parse(&argv("sweep --t-max 2 --trace out.jsonl")).is_err());
    }

    #[test]
    fn execute_run_with_trace_writes_wellformed_jsonl() {
        let path = std::env::temp_dir().join("rbcast_cli_run_trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let cmd = parse(&argv(&format!(
            "run --protocol flood --r 1 --t 0 --trace {}",
            path.display()
        )))
        .unwrap();
        assert_eq!(execute(&cmd), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        // Every line is one JSON object with an "ev" tag, and the
        // stream re-derives a delivery-trace hash.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"ev\":\""), "{line}");
        }
        assert!(obs::replay_hash(&text).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn execute_sweep_trace_dir_writes_one_stream_per_task() {
        let dir = std::env::temp_dir().join("rbcast_cli_sweep_traces");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = parse(&argv(&format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
             --behavior crash --threads 2 --trace-dir {}",
            dir.display()
        )))
        .unwrap();
        assert_eq!(execute(&cmd), 0);
        for i in 0..3 {
            let text = std::fs::read_to_string(dir.join(format!("task-{i}.jsonl")))
                .unwrap_or_else(|e| panic!("task-{i}.jsonl: {e}"));
            assert!(obs::replay_hash(&text).is_ok(), "task {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_sweep_refuses_a_resume_journal_from_another_sweep() {
        let path = std::env::temp_dir().join("rbcast_cli_sweep_mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let journal = format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
             --behavior crash --threads 1 --journal {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&journal)).unwrap()), 0);
        // Same journal, different sweep spec (t-max 1 → 2 tasks): the
        // header cross-check must refuse with exit 2.
        let resume = format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 1 --placement cluster \
             --behavior crash --threads 1 --resume {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&resume)).unwrap()), 2);
        // The matching spec still resumes cleanly.
        let matching = format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
             --behavior crash --threads 1 --resume {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&matching)).unwrap()), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn execute_sweep_resume_converges_on_a_partial_journal() {
        // Seed the journal with its header and only t=1 completed: the
        // resume run must compute t=0 and t=2, append them, and end
        // fully healthy.
        let path = std::env::temp_dir().join("rbcast_cli_sweep_partial.jsonl");
        let sweep = format!(
            "sweep --protocol flood --r 1 --t 0 --t-max 2 --placement cluster \
             --behavior crash --threads 1 --journal {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&sweep)).unwrap()), 0);
        let header = std::fs::read_to_string(&path).unwrap();
        let header = header.lines().next().unwrap();
        std::fs::write(
            &path,
            format!(
                "{header}\n{{\"task\":1,\"status\":\"ok\",\"attempts\":1,\
                 \"correct\":7,\"wrong\":0,\"undecided\":0,\"messages\":9}}\n"
            ),
        )
        .unwrap();
        let resume = sweep.replace("--journal", "--resume");
        assert_eq!(execute(&parse(&argv(&resume)).unwrap()), 0);
        let entries = journal_entries(&path);
        assert_eq!(entries.len(), 3);
        assert!(entries.values().all(|e| e.ok));
        // the seeded row was trusted verbatim, not recomputed
        assert_eq!(entries[&1].summary.unwrap().correct, 7);
        let _ = std::fs::remove_file(&path);
    }

    /// The splice reproduced at d1bb6c8: `--journal A --resume B` (B a
    /// CPA sweep's journal cut to its header) appended the CPA rows
    /// under flood journal A's header, and the flood sweep resumed from
    /// A then printed the CPA broadcast counts, 152 and 174, where it
    /// computes 143 and 142.
    #[test]
    fn a_journal_and_a_resume_together_are_refused_not_spliced() {
        let dir = std::env::temp_dir().join(format!("rbcast_cli_splice_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let flood = "sweep --protocol flood --r 1 --t-max 2 --placement cluster --behavior crash \
                     --threads 1";
        let cpa = "sweep --protocol cpa --r 1 --t-max 2 --placement cluster --behavior liar \
                   --threads 1";
        let run = |line: String| execute(&parse(&argv(&line)).unwrap());
        assert_eq!(run(format!("{flood} --journal {}", a.display())), 0);
        assert_eq!(run(format!("{cpa} --journal {}", b.display())), 0);
        let b_header = std::fs::read_to_string(&b).unwrap();
        std::fs::write(&b, format!("{}\n", b_header.lines().next().unwrap())).unwrap();
        let flood_journal = std::fs::read_to_string(&a).unwrap();

        let spliced = parse(&argv(&format!(
            "{cpa} --journal {} --resume {}",
            a.display(),
            b.display()
        )));
        if let Ok(cmd) = &spliced {
            let _ = execute(cmd); // what a parse that let the pair through ran
        }
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            flood_journal,
            "A was spliced"
        );
        let err = spliced.expect_err("--journal A --resume B must not parse");
        assert!(
            err.contains("conflicts with") && !err.contains('\n'),
            "{err}"
        );

        assert_eq!(run(format!("{flood} --resume {}", a.display())), 0);
        let broadcasts: Vec<u64> = journal_entries(&a)
            .values()
            .map(|e| e.summary.unwrap().messages)
            .collect();
        assert_eq!(broadcasts, [144, 143, 142], "not the CPA sweep's 152/174");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_resume_refuses_a_headerless_journal_and_leaves_it_untouched() {
        let path = std::env::temp_dir().join(format!(
            "rbcast_cli_headerless_{}.jsonl",
            std::process::id()
        ));
        let line = "{\"task\":0,\"status\":\"ok\",\"attempts\":1,\
                    \"correct\":1,\"wrong\":0,\"undecided\":0,\"messages\":1}\n";
        std::fs::write(&path, line).unwrap();
        let resume = format!(
            "sweep --protocol flood --r 1 --t-max 0 --placement cluster --behavior crash \
             --threads 1 --resume {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&resume)).unwrap()), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), line);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attack_resume_refuses_a_missing_journal() {
        let path = std::env::temp_dir().join(format!(
            "rbcast_cli_attack_missing_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let resume = format!(
            "attack --seed 5 --steps 4 --r 1 --resume {}",
            path.display()
        );
        assert_eq!(execute(&parse(&argv(&resume)).unwrap()), 2);
        assert!(!path.exists(), "a refused resume creates nothing");
    }
}
