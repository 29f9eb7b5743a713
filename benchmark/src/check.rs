//! `run.sh --check`: every workload at toy size through both passes,
//! validating what a consumer of the benchmark relies on — the shape of
//! the result line, the names, that every declared metric is emitted for
//! every workload, and that `BENCHMARK.json` declares the same lists.

use crate::json::{self, Json};
use crate::metrics::{valid_name, END_TO_END, PER_LAYER};
use crate::workload::SPECS;
use std::time::Instant;

fn check_result_line(stdout: &str, declared: &[(&str, &str)]) -> Result<(), String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = json::parse(last)?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("correct is not true".into());
    }
    let attempted = doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    if attempted < 1 || doc.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err("attempted < 1 or failed != 0".into());
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    for (name, m) in metrics {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let unit = m.get("unit").and_then(Json::as_str);
        let want = declared.iter().find(|(n, _)| n == name).map(|&(_, u)| u);
        if want.is_none() || unit != want {
            return Err(format!("{name}: unit {unit:?}, declared {want:?}"));
        }
        if !m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Err(format!("{name}: value is not a finite number"));
        }
    }
    for (name, _) in declared {
        if !metrics.iter().any(|(n, _)| n == name) {
            return Err(format!("declared metric {name} was not emitted"));
        }
    }
    Ok(())
}

/// The checked-in `BENCHMARK.json` must be what the declared lists
/// generate (`run.sh manifest`).
fn check_manifest() -> Result<(), String> {
    let path = crate::bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if json::parse(&text)? == crate::metrics::manifest() {
        Ok(())
    } else {
        Err("differs from `run.sh manifest`".into())
    }
}

pub fn main() -> i32 {
    let started = Instant::now();
    let out = crate::bench_dir().join("out").join("check");
    let mut failures = 0;
    let mut report = |what: &str, result: Result<(), String>| match result {
        Ok(()) => println!("ok     {what}"),
        Err(why) => {
            failures += 1;
            println!("FAILED {what}: {why}");
        }
    };
    report(
        "BENCHMARK.json matches the declared lists",
        check_manifest(),
    );
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for spec in &SPECS {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = std::env::current_exe()
                .map_err(|e| e.to_string())
                .and_then(|exe| {
                    std::process::Command::new(exe)
                        .args(["--workload", spec.name, "--toy", "--seconds", "0"])
                        .args(["--seed", "7", "--trace", trace])
                        .arg("--out")
                        .arg(&out)
                        .output()
                        .map_err(|e| e.to_string())
                })
                .and_then(|o| {
                    if o.status.success() {
                        check_result_line(&String::from_utf8_lossy(&o.stdout), declared)
                    } else {
                        Err(format!(
                            "exited with {}: {}",
                            o.status,
                            String::from_utf8_lossy(&o.stderr).trim()
                        ))
                    }
                });
            report(&format!("{} --trace {trace}", spec.name), result);
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    println!(
        "# check: {failures} failed, {:.1} s",
        started.elapsed().as_secs_f64()
    );
    i32::from(failures > 0)
}
