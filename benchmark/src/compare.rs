//! `run.sh compare A.json B.json`: A is the base, B the candidate. One
//! row per workload × end-to-end metric; nonzero exit on a regression.

use crate::json::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound: the two sides
    /// cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of one row: the value the run reported and the
/// per-repetition samples behind it.
struct Side {
    value: f64,
    samples: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(metric: &Json) -> Option<Side> {
        let value = metric.get("value")?.as_f64()?;
        let samples: Vec<f64> = match metric.get("samples").and_then(Json::as_arr) {
            Some(s) if !s.is_empty() => s.iter().filter_map(Json::as_f64).collect(),
            _ => vec![value],
        };
        let (q1, q3) = quartiles(&samples);
        Some(Side {
            value,
            median: median(&samples),
            q1,
            q3,
            samples,
        })
    }

    /// Run-to-run spread of the repetitions: IQR over median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative =
/// better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// The verdict for one row. `same_seed`: the two files ran the same
/// inputs, so simulated rounds must agree exactly.
fn judge(m: &EndToEnd, a: &Side, b: &Side, same_seed: bool) -> Verdict {
    if m.name == "rounds_to_commit" && same_seed {
        // Simulated time, not host time: a pure speed-up must not move it.
        return if b.value > a.value {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    if (b.value - a.value).abs() < m.floor {
        return Verdict::Ok;
    }
    let every_b_better = b
        .samples
        .iter()
        .all(|&y| a.samples.iter().all(|&x| worsening(m, x, y) < 0.0));
    if a.spread().max(b.spread()) > m.bound && !every_b_better {
        return Verdict::Unresolved;
    }
    if worsening(m, a.value, b.value) > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("not a results file: no workloads")?
            .to_vec())
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);

    println!(
        "# base {} · candidate {} · {}",
        a_path.display(),
        b_path.display(),
        if same_seed {
            "same seed"
        } else {
            "different seeds"
        }
    );
    println!(
        "{:<20} {:<17} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "base",
        "base reps [q1, q3]",
        "cand",
        "cand reps [q1, q3]",
        "cand/base",
        "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for (name, base) in &wa {
        let Some((_, cand)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<20} missing from the candidate file");
            worse += 1;
            continue;
        };
        for m in &END_TO_END {
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Side::of)
            };
            let (Some(sa), Some(sb)) = (side(base), side(cand)) else {
                println!("{name:<20} {:<17} missing", m.name);
                worse += 1;
                continue;
            };
            let verdict = judge(m, &sa, &sb, same_seed);
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{name:<20} {:<17} {:>12.5} {:>25} {:>12.5} {:>25} {:>8.4} {:>6}  {}",
                m.name,
                sa.value,
                format!("[{:.5}, {:.5}]", sa.q1, sa.q3),
                sb.value,
                format!("[{:.5}, {:.5}]", sb.q1, sb.q3),
                sb.value / sa.value,
                if m.name == "rounds_to_commit" && same_seed {
                    "exact".to_string()
                } else {
                    format!("{}", m.bound)
                },
                verdict.as_str(),
            );
        }
        let frac = |w: &Json| w.get("failed_frac").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (frac(base), frac(cand));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        worse += usize::from(verdict == Verdict::Worse);
        println!(
            "{name:<20} {:<17} {fa:>12.5} {:>25} {fb:>12.5} {:>25} {:>8} {:>6}  {}",
            "failed_frac",
            "",
            "",
            "",
            "exact",
            verdict.as_str()
        );
    }
    println!("# {worse} worse, {unresolved} unresolved");
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose reported value is its samples' median.
    fn side(samples: &[f64]) -> Side {
        Side::of(&Json::obj([
            ("value", Json::Num(median(samples))),
            (
                "samples",
                Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
            ),
        ]))
        .expect("samples")
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("declared")
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let thr = metric("throughput");
        let base = side(&[100.0, 101.0, 99.0, 100.5]);
        assert_eq!(
            judge(thr, &base, &side(&[90.0, 91.0, 89.5]), false),
            Verdict::Ok
        );
        assert_eq!(
            judge(thr, &base, &side(&[70.0, 71.0, 70.5]), false),
            Verdict::Worse
        );
        // Higher is better: a big gain is ok, however noisy the base.
        let noisy = side(&[100.0, 160.0, 60.0, 130.0]);
        assert_eq!(
            judge(thr, &noisy, &side(&[95.0, 96.0, 97.0]), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(thr, &noisy, &side(&[170.0, 180.0, 175.0]), false),
            Verdict::Ok
        );
        // cpu_s: lower is better.
        let cpu = metric("cpu_s");
        assert_eq!(
            judge(cpu, &side(&[1.0, 1.01]), &side(&[1.4, 1.41]), false),
            Verdict::Worse
        );
        // setup_s: differences under the floor are ignored.
        let setup = metric("setup_s");
        assert_eq!(
            judge(setup, &side(&[0.010]), &side(&[0.040]), false),
            Verdict::Ok
        );
        // rounds: exact at the same seed.
        let rounds = metric("rounds_to_commit");
        assert_eq!(
            judge(rounds, &side(&[500.0]), &side(&[501.0]), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(rounds, &side(&[500.0]), &side(&[500.0]), true),
            Verdict::Ok
        );
    }
}
