//! `run.sh` with no workload named: every workload, each pass in its own
//! fresh process, one after another, stamped and folded into one results
//! file.

use crate::json::{self, Json};
use crate::procfs;
use crate::stats::median;
use crate::workload::{DEFAULT_SEED, SPECS};
use std::path::Path;

/// Seconds of timed repetitions per pass; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
pub const RUN_SECONDS: f64 = 10.0;

/// Runs one pass of one workload in a child process, echoing its
/// metric lines (not the machine-readable result line), and returns the
/// detail file it wrote.
fn run_pass(name: &str, seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    for line in lines.iter().take(lines.len().saturating_sub(1)) {
        println!("{line}");
    }
    if !child.status.success() {
        return Err(format!("{name} exited with {}", child.status));
    }
    let pass = if trace { "traced" } else { "untraced" };
    let path = out.join(format!("{name}.{pass}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text)
}

fn result_metrics(detail: &Json) -> &[(String, Json)] {
    detail
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .unwrap_or(&[])
}

fn result_count(detail: &Json, key: &str) -> f64 {
    detail
        .get("result")
        .and_then(|r| r.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn all(seed: u64, seconds: Option<f64>, out: &Path) -> Result<i32, String> {
    let seconds = seconds.unwrap_or(RUN_SECONDS);
    let host = procfs::host_stamp();
    let mut warnings: Vec<String> = Vec::new();
    if procfs::nproc() < 2 {
        warnings.push(
            "nproc < 2: the benchmark shares its only core with everything else on the host; \
             expect wide spreads"
                .into(),
        );
    }
    let mut workloads = Vec::new();
    let mut ctx_switches: Vec<(&str, f64)> = Vec::new();
    let mut failed_any = false;
    for spec in &SPECS {
        let untraced = run_pass(spec.name, seed, seconds, false, out)?;
        let traced = run_pass(spec.name, seed, seconds, true, out)?;
        let samples = untraced.get("samples");
        let end_to_end = Json::obj(result_metrics(&untraced).iter().map(|(name, m)| {
            let mut fields = m.as_obj().unwrap_or(&[]).to_vec();
            if let Some(s) = samples.and_then(|s| s.get(name)) {
                fields.push(("samples".into(), s.clone()));
            }
            (name.clone(), Json::Obj(fields))
        }));
        let per_layer = Json::obj(
            result_metrics(&traced)
                .iter()
                .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null))),
        );
        ctx_switches.push((
            spec.name,
            per_layer
                .get("proc.invol_ctx_switches")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        ));
        let attempted = result_count(&untraced, "attempted") + result_count(&traced, "attempted");
        let failed = result_count(&untraced, "failed") + result_count(&traced, "failed");
        failed_any |= failed > 0.0;
        workloads.push((
            spec.name,
            Json::obj([
                ("unit", Json::Str(format!("{}/s", spec.unit))),
                ("reps", untraced.get("reps").cloned().unwrap_or(Json::Null)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_frac", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                (
                    "output",
                    untraced.get("output").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    // A repetition preempted far more often than its peers ran on a
    // noisy host; its times deserve suspicion.
    let typical = median(&ctx_switches.iter().map(|&(_, n)| n).collect::<Vec<_>>());
    for (name, n) in ctx_switches {
        if n > (5.0 * typical).max(50.0) {
            warnings.push(format!(
                "{name}: {n} involuntary context switches per repetition (median of the \
                 workloads: {typical}) — a noisy run, repeat it before trusting its times"
            ));
        }
    }
    for w in &warnings {
        eprintln!("WARNING: {w}");
    }
    let results = Json::obj([
        ("schema", Json::str("rbcast-benchmark/v1")),
        ("host", host),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        (
            "warnings",
            Json::Arr(warnings.iter().map(Json::str).collect()),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# results: {}", path.display());
    Ok(i32::from(failed_any))
}

/// `run.sh golden`: re-pins `golden.json` from one untraced pass per
/// workload at the default seed. For a deliberate behaviour change only.
pub fn write_golden(out: &Path) -> Result<i32, String> {
    let mut pins = Vec::new();
    for spec in &SPECS {
        // The old pins (if any) may no longer hold; the pass reports
        // that as failed, which is expected here.
        let detail = run_pass(spec.name, DEFAULT_SEED, 0.0, false, out)?;
        pins.push((
            spec.name,
            detail.get("output").cloned().unwrap_or(Json::Null),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        ("workloads", Json::obj(pins)),
    ]);
    std::fs::write(crate::golden::path(), doc.pretty())
        .map_err(|e| format!("cannot write golden.json: {e}"))?;
    println!("# pinned {}", crate::golden::path().display());
    Ok(0)
}
