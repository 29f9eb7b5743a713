//! `golden.json`: the default seed's outputs, pinned. Any other seed
//! skips the pins and keeps every self-consistency check.

use crate::json::{self, Json};
use crate::workload::RepOutput;
use std::path::PathBuf;

pub fn path() -> PathBuf {
    crate::bench_dir().join("golden.json")
}

/// A repetition's pinned fields as they appear in `golden.json`.
pub fn pins(out: &RepOutput) -> Json {
    Json::obj([
        ("hash", Json::hex(out.hash)),
        ("work", Json::Num(out.work as f64)),
        ("rounds_to_commit", Json::Num(out.rounds_to_commit as f64)),
        ("ops", Json::Num(out.ops as f64)),
        (
            "counts",
            Json::obj(out.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
        ),
    ])
}

/// `Ok(())` when `out` matches the pins of `workload`; otherwise what
/// differs.
pub fn check(workload: &str, out: &RepOutput) -> Result<(), String> {
    let text = std::fs::read_to_string(path())
        .map_err(|e| format!("cannot read {}: {e}", path().display()))?;
    let doc = json::parse(&text)?;
    let pinned = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("golden.json has no pins for {workload}"))?;
    let got = pins(out);
    if *pinned == got {
        Ok(())
    } else {
        Err(format!(
            "{workload} differs from golden.json: pinned {} got {}",
            pinned.line(),
            got.line()
        ))
    }
}
