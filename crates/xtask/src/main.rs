//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `audit` — run the invariant audit over the workspace.
//!   * `--root DIR` audit a different tree (used by the self-test)
//!   * `--rule ID` run a single rule (meta ids `stale-allow` and
//!     `unknown-allow` are selectable too)
//!   * `--list` print the rule inventory
//!   * `--format json` emit the SARIF-lite report on stdout
//!   * `--self-test` check every rule fires on its fixture
//!
//! Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/IO
//! error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::rules::{
    all_rules, Violation, STALE_ALLOW, STALE_ALLOW_FIX, UNKNOWN_ALLOW, UNKNOWN_ALLOW_FIX,
};
use xtask::{render_json, run_audit, self_test, workspace_root};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask audit [--root DIR] [--rule ID] [--list] \
         [--format json] [--self-test]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => audit(&args[1..]),
        _ => usage(),
    }
}

fn print_list() {
    println!("{:<26} summary", "rule");
    for rule in all_rules() {
        println!("{:<26} {}", rule.id, rule.summary);
    }
    println!("{STALE_ALLOW:<26} {STALE_ALLOW_FIX}");
    println!("{UNKNOWN_ALLOW:<26} {UNKNOWN_ALLOW_FIX}");
}

fn print_text(violations: &[Violation]) {
    for v in violations {
        println!(
            "{}:{}:{}: [{}] {}",
            v.path, v.line, v.col, v.rule, v.message
        );
        println!("    fix: {}", v.fix);
    }
    if violations.is_empty() {
        println!("audit: clean");
    } else {
        println!("audit: {} finding(s)", violations.len());
    }
}

fn run_fixture_self_test() -> ExitCode {
    let fixtures = workspace_root().join("crates/xtask/fixtures");
    match self_test(&fixtures) {
        Ok(reports) => {
            let mut ok = true;
            for r in &reports {
                println!(
                    "{} {:<26} {}",
                    if r.ok { "ok  " } else { "FAIL" },
                    r.name,
                    r.detail
                );
                ok &= r.ok;
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("audit self-test error: {e}");
            ExitCode::from(2)
        }
    }
}

fn audit(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut format_json = false;
    let mut list = false;
    let mut fixture_self_test = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--rule" => match it.next() {
                Some(v) => rule = Some(v.clone()),
                None => return usage(),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => return usage(),
            },
            "--list" => list = true,
            "--self-test" => fixture_self_test = true,
            _ => return usage(),
        }
    }

    if list {
        print_list();
        return ExitCode::SUCCESS;
    }
    if fixture_self_test {
        return run_fixture_self_test();
    }

    let root = root.unwrap_or_else(workspace_root);
    let violations = match run_audit(&root, rule.as_deref()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("audit error: {e}");
            return ExitCode::from(2);
        }
    };

    if format_json {
        print!("{}", render_json(&violations));
    } else {
        print_text(&violations);
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
