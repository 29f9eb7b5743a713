//! `rbcast-bench <id> [--smoke]` runs one row of the experiment table
//! and exits nonzero if any of its checks failed, 2 if a sweep's
//! checkpoint journal lost a write; `rbcast-bench --list` prints the
//! ids. `rbcast-bench scale_bench <protocol>@<side>` runs one cell of
//! `scale_bench`, as a full `scale_bench` runs each of its cells.

use rbcast_bench::experiments::{scale_bench_cell, EXPERIMENTS};
use rbcast_bench::{Size, Verdicts};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rbcast-bench <id> [--smoke] | rbcast-bench scale_bench <protocol>@<side> \
         | rbcast-bench --list"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut size = Size::Full;
    let (mut id, mut cell) = (None, None);
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
            _ if id.as_deref() == Some("scale_bench") && cell.is_none() => cell = Some(arg),
            _ => return usage(),
        }
    }
    let mut v = Verdicts::new();
    if let Some(cell) = cell {
        if size == Size::Smoke || !scale_bench_cell(&mut v, &cell) {
            return usage();
        }
    } else {
        let Some(&(_, run)) = EXPERIMENTS
            .iter()
            .find(|(name, _)| Some(*name) == id.as_deref())
        else {
            return usage();
        };
        run(&mut v, size);
    }
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
