//! The repo's one benchmark. See `benchmark/README.md`; run through
//! `benchmark/run.sh`, which builds this package in release mode first.
//!
//! ```text
//! run.sh [--seed N] [--out DIR] [--seconds S]       every workload, both passes
//! run.sh --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! run.sh compare A.json B.json                      regression verdicts
//! run.sh --check                                    toy-size smoke of everything
//! run.sh golden                                     re-pin golden.json (default seed)
//! run.sh manifest                                   print BENCHMARK.json
//! ```

mod check;
mod compare;
mod golden;
mod json;
mod metrics;
mod procfs;
mod report;
mod runner;
mod shim;
mod stats;
mod trace;
mod wl_attack;
mod wl_cluster;
mod wl_sim;
mod wl_sweep;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's own directory (`golden.json`, `out/`, `baseline/`).
/// `run.sh` exports it; a bare `cargo run` from the repo root finds it
/// by its relative path.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("RBCAST_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// A per-process directory under `benchmark/out` for the files the
/// workloads themselves write (sweep journal, kernel journals). Inside
/// the checkout by construction; removed by [`main`] on the way out.
pub fn scratch_dir() -> PathBuf {
    let dir = scratch_path();
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

fn scratch_path() -> PathBuf {
    bench_dir()
        .join("out")
        .join(format!("tmp-{}", std::process::id()))
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    toy: bool,
    out: Option<PathBuf>,
    setup_probe: bool,
    check: bool,
    positional: Vec<String>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: None,
        trace: false,
        toy: false,
        out: None,
        setup_probe: false,
        check: false,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(arg)?),
            "--seed" => {
                cli.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = Some(
                    value(arg)?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or("--seconds wants a non-negative number")?,
                );
            }
            "--trace" => {
                cli.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value(arg)?)),
            "--toy" => cli.toy = true,
            "--setup-probe" => cli.setup_probe = true,
            "--check" => cli.check = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn dispatch(cli: Cli, t0: Instant) -> Result<i32, String> {
    let out = cli.out.clone().unwrap_or_else(|| bench_dir().join("out"));
    if cli.check {
        return Ok(check::main());
    }
    match cli.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = cli.positional.as_slice() else {
                return Err("usage: run.sh compare A.json B.json".into());
            };
            return compare::main(a.as_ref(), b.as_ref());
        }
        Some("golden") => return report::write_golden(&out),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            return Ok(0);
        }
        Some(other) => return Err(format!("unknown command {other}")),
        None => {}
    }
    let Some(name) = cli.workload else {
        return report::all(cli.seed, cli.seconds, &out);
    };
    let spec = workload::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let args = runner::RunArgs {
        spec,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(report::RUN_SECONDS),
        trace: cli.trace,
        toy: cli.toy,
        out,
    };
    Ok(if cli.setup_probe {
        runner::setup_probe(&args, t0)
    } else if args.trace {
        runner::run_traced(&args)
    } else {
        runner::run_untraced(&args, t0)
    })
}

fn main() {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_cli(&argv).and_then(|cli| dispatch(cli, t0)) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("error: {why}");
            2
        }
    };
    let _ = std::fs::remove_dir_all(
        bench_dir()
            .join("out")
            .join(format!("tmp-{}", std::process::id())),
    );
    std::process::exit(code);
}
