//! The experiment table: one row per EXPERIMENTS.md id.
//!
//! Each module is one experiment — a `pub fn run` that prints its rows
//! to stdout and records its verdicts; it returns normally and the
//! runner exits once. `results/<id>.txt` archives the full-size stdout
//! (`results/smoke/<id>.txt` the `--smoke` one where full size is too
//! slow to gate), and CI compares both byte for byte.

use crate::{Size, Verdicts};

mod ablation;
mod attack_corpus;
mod complexity;
mod fig11_12;
mod fig13;
mod fig14_19;
mod fig1_3;
mod fig4_5;
mod fig6;
mod fig7;
mod fig8;
mod fig9_10;
mod percolation;
mod scale_bench;
mod scale_byz;
mod sec10_relaxations;
mod simp_conn;
mod table1;
mod thresh_byz;
mod thresh_cpa;
mod thresh_crash;
mod thresh_l2;
mod topology;

pub use scale_bench::run_one as scale_bench_cell;

/// One experiment: prints its rows, records its verdicts.
pub(crate) type Run = fn(&mut Verdicts, Size);

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", table1::run),
    ("fig1_3", fig1_3::run),
    ("fig4_5", fig4_5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9_10", fig9_10::run),
    ("thresh_crash", thresh_crash::run),
    ("fig11_12", fig11_12::run),
    ("fig13", fig13::run),
    ("fig14_19", fig14_19::run),
    ("thresh_cpa", thresh_cpa::run),
    ("thresh_byz", thresh_byz::run),
    ("simp_conn", simp_conn::run),
    ("ablation", ablation::run),
    ("sec10_relaxations", sec10_relaxations::run),
    ("thresh_l2", thresh_l2::run),
    ("scale_byz", scale_byz::run),
    ("complexity", complexity::run),
    ("topology", topology::run),
    ("percolation", percolation::run),
    ("scale_bench", scale_bench::run),
    ("attack_corpus", attack_corpus::run),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// The table, `results/` and EXPERIMENTS.md name the same
    /// experiments. `scale_bench` is the one id without a golden: its
    /// output is `BENCH_scale.json`, and what it prints is wall time.
    #[test]
    fn table_results_and_experiments_md_name_the_same_experiments() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");

        let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        for id in &ids {
            assert!(
                doc.lines()
                    .any(|l| l.starts_with('#') && l.contains(&format!("`{id}`"))),
                "no EXPERIMENTS.md heading names `{id}`"
            );
        }

        let goldens = |dir: &str| -> BTreeSet<String> {
            std::fs::read_dir(root.join(dir))
                .unwrap_or_else(|e| panic!("{dir}: {e}"))
                .filter_map(|entry| entry.expect("dir entry").file_name().into_string().ok())
                .filter_map(|name| name.strip_suffix(".txt").map(str::to_owned))
                .filter(|stem| !stem.starts_with("example_"))
                .collect()
        };
        let expected: BTreeSet<String> = ids
            .iter()
            .filter(|&&id| id != "scale_bench")
            .map(|&id| id.to_owned())
            .collect();
        assert_eq!(goldens("results"), expected);
        assert!(
            goldens("results/smoke").is_subset(&expected),
            "results/smoke holds a golden that is not an experiment id"
        );
    }
}
