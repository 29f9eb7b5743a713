//! `rbcast-bench <id> [--smoke]` runs one row of the experiment table
//! and exits nonzero if any of its checks failed, 2 if a sweep's
//! checkpoint journal lost a write; `rbcast-bench --list` prints the
//! ids.

use rbcast_bench::experiments::EXPERIMENTS;
use rbcast_bench::{Size, Verdicts};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: rbcast-bench <id> [--smoke] | rbcast-bench --list");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut size = Size::Full;
    let mut id = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => {
                for (id, _) in EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--smoke" => size = Size::Smoke,
            _ if id.is_none() && !arg.starts_with('-') => id = Some(arg),
            _ => return usage(),
        }
    }
    let Some(&(_, run)) = EXPERIMENTS
        .iter()
        .find(|(name, _)| Some(*name) == id.as_deref())
    else {
        return usage();
    };
    let mut v = Verdicts::new();
    run(&mut v, size);
    let passed = v.finish();
    if let Some(failure) = rbcast_bench::perf::journal_error() {
        eprintln!("error: {failure}");
        return ExitCode::from(2);
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
