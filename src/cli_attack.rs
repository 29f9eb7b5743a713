//! The `rbcast attack` subcommand: seeded adversary search for
//! worst-case fault placements (see `rbcast_core::attack`).

use crate::cli::Flags;
use crate::core::attack::{ids_to_field, run_attack, AttackConfig, AttackReport};
use crate::core::{obs, Experiment, FaultKind};
use std::path::PathBuf;

/// Parsed `rbcast attack` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// The search configuration handed to the driver.
    pub config: AttackConfig,
    /// Fail (exit 1) unless the search beats the best hand-built
    /// strategy on at least one cell (`--gate`).
    pub gate: bool,
    /// Write one replayable placement file per cell (`--out DIR`).
    pub out_dir: Option<PathBuf>,
    /// Print the per-phase wall-clock table after the search
    /// (`--timings`; diagnostics only, never part of gated output).
    pub timings: bool,
}

/// Parses the arguments of `rbcast attack`.
///
/// # Errors
///
/// Human-readable messages for unknown flags or malformed values.
pub(crate) fn parse_attack(args: &[String]) -> Result<AttackSpec, String> {
    let mut config = AttackConfig::new(0);
    let mut rs: Vec<u32> = Vec::new();
    let mut gate = false;
    let mut out_dir = None;
    let mut timings = false;
    let mut f = Flags::new(args);
    while let Some(flag) = f.next_flag() {
        match flag {
            "--seed" => config.seed = f.value()?,
            "--steps" => config.steps = f.value()?,
            "--threads" => config.threads = f.at_least(1)?,
            "--checkpoint-every" => config.checkpoint_every = f.value()?,
            "--r" => rs.push(f.radius()?),
            "--journal" | "--resume" => f.checkpoint(&mut config.checkpoint)?,
            "--gate" => gate = true,
            "--timings" => timings = true,
            "--out" => out_dir = Some(f.path()?),
            "--protocol" => config.protocol = f.protocol()?,
            "--behavior" => config.fault_kind = f.behavior()?,
            "--metric" => config.metric = f.metric()?,
            other => return Err(format!("unknown flag for attack: {other}")),
        }
    }
    if !rs.is_empty() {
        config.rs = rs;
    }
    for &r in &config.rs {
        crate::cli::experiment_arena_fits(r)?;
    }
    // resolved after the loop so `--seed` order is irrelevant
    if let FaultKind::Mixed { seed } = &mut config.fault_kind {
        *seed = config.seed;
    }
    Ok(AttackSpec {
        config,
        gate,
        out_dir,
        timings,
    })
}

/// Prints the margin-to-threshold table for a finished search.
fn print_report(spec: &AttackSpec, report: &AttackReport) {
    let cfg = &spec.config;
    println!(
        "attack: protocol {}, behavior {:?}, metric {:?}, seed {}, steps {} per cell",
        cfg.protocol.name(),
        cfg.fault_kind,
        cfg.metric,
        cfg.seed,
        cfg.steps
    );
    for cell in &report.cells {
        let margin = cell.cell.t as i64 - cell.cell.threshold as i64;
        let verdict = if cell.beats_baseline() {
            "BEATS"
        } else if cell.found_score == cell.baseline_score {
            "ties"
        } else {
            "behind"
        };
        println!(
            "  r={} t={} thr={} margin={margin:+} | found ({} faults): {} | best hand-built ({}): {} | {verdict}",
            cell.cell.r,
            cell.cell.t,
            cell.cell.threshold,
            cell.found.len(),
            cell.found_score,
            cell.baseline_name,
            cell.baseline_score,
        );
        println!(
            "    placement: {} (evaluations {}, accepted {})",
            ids_to_field(&cell.found),
            cell.evaluations,
            cell.accepted
        );
    }
}

/// Runs a parsed attack. Exit codes: 0 — search completed (and, with
/// `--gate`, beat the hand-built library); 1 — `--gate` set and no cell
/// beat its baseline; 2 — the search itself failed, or its checkpoint
/// journal lost a write.
#[must_use]
pub(crate) fn execute_attack(spec: &AttackSpec) -> i32 {
    let cfg = &spec.config;
    // A cell's arena is its radius's default torus (`attack_torus`).
    let radii: Vec<Experiment> = cfg
        .rs
        .iter()
        .map(|&r| Experiment::new(r, cfg.protocol).with_metric(cfg.metric))
        .collect();
    let _arenas = match crate::cli::arenas(&radii) {
        Ok(arenas) => arenas,
        Err(code) => return code,
    };
    let report = match run_attack(cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    print_report(spec, &report);
    if let Some(dir) = &spec.out_dir {
        if let Err(e) = write_placements(dir, &report) {
            eprintln!("error: cannot write placements to {}: {e}", dir.display());
            return 2;
        }
        println!("placements written to {}", dir.display());
    }
    let gate_passed = report.gate_passed();
    let mut code = 0;
    if spec.gate {
        println!("gate: {}", if gate_passed { "PASS" } else { "FAIL" });
        code = i32::from(!gate_passed);
    } else if spec.timings {
        println!();
        for (name, stat) in obs::timings_snapshot() {
            if name.starts_with("attack/") {
                println!(
                    "{:<24} {:>8} {:>12.2} {:>10.3}",
                    name,
                    stat.count,
                    stat.total_ms(),
                    stat.mean_ms()
                );
            }
        }
    }
    crate::cli::journal_exit(code, report.journal_error.as_ref())
}

/// Writes each cell's found placement as `attack-r<r>-t<t>.txt` (one
/// node id per line) — the format `--placement file:PATH` replays.
fn write_placements(dir: &std::path::Path, report: &AttackReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for cell in &report.cells {
        let path = dir.join(format!("attack-r{}-t{}.txt", cell.cell.r, cell.cell.t));
        let mut body = String::new();
        for id in &cell.found {
            body.push_str(&id.0.to_string());
            body.push('\n');
        }
        std::fs::write(path, body)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::supervisor::Checkpoint;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_defaults_and_flags() {
        let spec = parse_attack(&argv("--seed 9 --steps 40 --r 1 --r 2 --gate")).unwrap();
        assert_eq!(spec.config.seed, 9);
        assert_eq!(spec.config.steps, 40);
        assert_eq!(spec.config.rs, vec![1, 2]);
        assert!(spec.gate);
        assert_eq!(spec.config.checkpoint, None);
    }

    #[test]
    fn resume_implies_journal() {
        let spec = parse_attack(&argv("--resume search.jsonl")).unwrap();
        assert_eq!(
            spec.config.checkpoint,
            Some(Checkpoint::Resume(PathBuf::from("search.jsonl")))
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse_attack(&argv("--bogus 1")).is_err());
        assert!(parse_attack(&argv("--seed")).is_err());
        assert!(parse_attack(&argv("--protocol nonsense")).is_err());
    }

    #[test]
    fn tiny_attack_executes_and_is_deterministic() {
        let mut spec = parse_attack(&argv("--seed 5 --steps 4 --r 1")).unwrap();
        spec.config.checkpoint_every = 0;
        assert_eq!(execute_attack(&spec), 0);
        let a = run_attack(&spec.config).expect("attack runs");
        let b = run_attack(&spec.config).expect("attack runs");
        assert_eq!(a, b);
    }
}
