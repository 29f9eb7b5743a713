//! A checkpoint journal that stops taking writes mid-run: `rbcast sweep`
//! and `rbcast attack` keep computing, print their normal stdout, and
//! exit 2 with one `error:` line naming the journal, the first task
//! whose record was lost and the OS cause — and the cut journal resumes
//! to the straight-through output.
//!
//! The fault is the kernel's: the run is spawned under a one-block
//! file-size limit (`ulimit -f 1`) with `SIGXFSZ` ignored, so the write
//! that crosses the limit is short and the next one fails with `EFBIG`.
//! Stdout and stderr are pipes, which the limit does not cover.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SWEEP: &[&str] = &[
    "sweep",
    "--protocol",
    "flood",
    "--r",
    "1",
    "--t-max",
    "8",
    "--placement",
    "cluster",
    "--behavior",
    "crash",
    "--threads",
    "1",
];

const ATTACK: &[&str] = &[
    "attack",
    "--seed",
    "10976964",
    "--steps",
    "60",
    "--r",
    "1",
    "--checkpoint-every",
    "8",
    "--threads",
    "1",
];

/// Runs `rbcast args… flag journal`, under the file-size limit when
/// `limited`.
fn rbcast(args: &[&str], flag: &str, journal: &Path, limited: bool) -> Output {
    let mut cmd = if limited {
        let mut sh = Command::new("sh");
        sh.args(["-c", "trap '' XFSZ; ulimit -f 1; exec \"$@\"", "sh"])
            .arg(env!("CARGO_BIN_EXE_rbcast"));
        sh
    } else {
        Command::new(env!("CARGO_BIN_EXE_rbcast"))
    };
    cmd.args(args)
        .arg(flag)
        .arg(journal)
        .output()
        .expect("rbcast spawns")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbcast-journal-write-failure-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir.join(name)
}

fn check(name: &str, args: &[&str]) {
    let (full, cut) = (
        scratch(&format!("{name}-full.jsonl")),
        scratch(&format!("{name}-cut.jsonl")),
    );
    let straight = rbcast(args, "--journal", &full, false);
    assert_eq!(straight.status.code(), Some(0), "{name}: straight run");

    let limited = rbcast(args, "--journal", &cut, true);
    let stderr = String::from_utf8_lossy(&limited.stderr);
    assert_eq!(
        limited.status.code(),
        Some(2),
        "{name}: a lost journal write must exit 2; stderr: {stderr}"
    );
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{name}: one error: line, got {stderr}");
    assert!(
        errors[0].contains(&cut.display().to_string()) && errors[0].contains(" at task "),
        "{name}: the error names the journal and a task: {}",
        errors[0]
    );
    assert_eq!(
        String::from_utf8_lossy(&limited.stdout),
        String::from_utf8_lossy(&straight.stdout),
        "{name}: stdout must not depend on the journal"
    );
    let kept = std::fs::metadata(&cut).expect("cut journal exists").len();
    let whole = std::fs::metadata(&full).expect("journal exists").len();
    assert!(kept < whole, "{name}: the limit must cut the journal");

    let resumed = rbcast(args, "--resume", &cut, false);
    assert_eq!(resumed.status.code(), Some(0), "{name}: resume");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&straight.stdout),
        "{name}: the cut journal must resume to the straight-through output"
    );
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&cut).ok();
}

#[test]
fn a_sweep_that_loses_a_journal_write_finishes_and_exits_2() {
    check("sweep", SWEEP);
}

#[test]
fn an_attack_that_loses_a_journal_write_finishes_and_exits_2() {
    check("attack", ATTACK);
}
