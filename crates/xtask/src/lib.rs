//! Workspace audit engine behind `cargo xtask audit`.
//!
//! The audit enforces repo-specific invariants that rustc and clippy do
//! not know about (see `DESIGN.md`, "Static analysis & invariant
//! audit"). Since PR 6 it runs on a real token model instead of blanked
//! lines: [`lexer`] produces a span-accurate token stream, [`model`]
//! layers structure on top (brace nesting, `#[cfg(test)]` regions, loop
//! depth, `fn` spans, suppression sites), [`index`] builds a
//! workspace-wide symbol index in the same pass, and [`rules`] expresses
//! every check as a token query — multi-line constructs, string/comment
//! immunity, and function-scoped dataflow all come from the model, not
//! from per-rule heuristics.
//!
//! Suppression lifecycle: rules emit *raw* findings and this engine
//! applies `// audit:allow(<name>)` sites centrally, which is what makes
//! the two meta-diagnostics possible:
//!
//! * [`rules::UNKNOWN_ALLOW`] — an annotation naming no known rule
//!   (typo'd names used to be silently ignored);
//! * [`rules::STALE_ALLOW`] — an annotation that no longer suppresses
//!   any finding (stale escapes used to rot silently).
//!
//! Every rule (and both meta-diagnostics) ships a fixture tree under
//! `crates/xtask/fixtures/`; `cargo xtask audit --self-test` fails if
//! any rule stops firing on its fixture. `--format json` emits a
//! SARIF-lite report for CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod lexer;
pub mod model;
pub mod rules;
#[cfg(test)]
mod source;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use index::{WorkspaceIndex, REFERENCE_ROOTS};
use model::FileModel;
use rules::{
    all_rules, rule_by_id, Ctx, Violation, STALE_ALLOW, STALE_ALLOW_FIX, UNKNOWN_ALLOW,
    UNKNOWN_ALLOW_FIX,
};

/// Audit failure (I/O or usage error), distinct from rule violations.
#[derive(Debug)]
pub enum AuditError {
    /// A file or directory could not be read.
    Io(PathBuf, io::Error),
    /// `--rule` named a rule that does not exist.
    UnknownRule(String),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
            AuditError::UnknownRule(id) => {
                write!(f, "unknown rule `{id}` (try `cargo xtask audit --list`)")
            }
        }
    }
}

/// What `--rule` selected.
enum Selection {
    All,
    Rule(&'static str),
    Meta(&'static str),
}

fn resolve_selection(only: Option<&str>) -> Result<Selection, AuditError> {
    match only {
        None => Ok(Selection::All),
        Some(id) if id == STALE_ALLOW || id == UNKNOWN_ALLOW => {
            // Meta ids are static; reuse the canonical &'static str.
            Ok(Selection::Meta(if id == STALE_ALLOW {
                STALE_ALLOW
            } else {
                UNKNOWN_ALLOW
            }))
        }
        Some(id) => rule_by_id(id)
            .map(|r| Selection::Rule(r.id))
            .ok_or_else(|| AuditError::UnknownRule(id.to_string())),
    }
}

/// Run the audit over `root`, optionally restricted to one rule id
/// (meta ids `stale-allow` / `unknown-allow` are valid selections).
///
/// Returns all findings sorted by path, line, then rule. Every rule is
/// always *evaluated* — suppression-usage tracking needs the full
/// picture — and the selection filters what is reported.
pub fn run_audit(root: &Path, only: Option<&str>) -> Result<Vec<Violation>, AuditError> {
    if !root.is_dir() {
        // A mistyped --root must not masquerade as a clean audit.
        return Err(AuditError::Io(
            root.to_path_buf(),
            io::Error::new(io::ErrorKind::NotFound, "audit root is not a directory"),
        ));
    }
    let selection = resolve_selection(only)?;

    // Union of scope prefixes across all rules, plus the trees that can
    // name a library item from outside its crate: the index and the
    // suppression lifecycle always see the whole audited surface.
    let mut prefixes: Vec<&str> = all_rules()
        .iter()
        .flat_map(|r| r.scopes.iter().copied())
        .chain(REFERENCE_ROOTS.iter().copied())
        .collect();
    prefixes.sort_unstable();
    prefixes.dedup();

    let mut files: Vec<PathBuf> = Vec::new();
    for prefix in prefixes {
        for dir in expand_prefix(root, prefix)? {
            if dir.is_dir() {
                collect_rs_files(&dir, root, &mut files)?;
            }
        }
    }
    files.sort();
    files.dedup();

    // One pass: lex + model every file, then index the lot.
    let mut models: Vec<FileModel> = Vec::with_capacity(files.len());
    for rel in &files {
        let text =
            fs::read_to_string(root.join(rel)).map_err(|e| AuditError::Io(root.join(rel), e))?;
        models.push(FileModel::parse(rel, &text));
    }
    let index = WorkspaceIndex::build(&models);
    let ctx = Ctx { index: &index };

    let mut violations: Vec<Violation> = Vec::new();
    for m in &models {
        let path = m.rel.display().to_string();
        // (allow-site idx, name idx) pairs consumed by a suppression.
        let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();

        for rule in all_rules() {
            if !rule.applies_to(&m.rel) {
                continue;
            }
            for f in rule.findings(m, &ctx) {
                let mut suppressed = false;
                for (si, site) in m.allows.iter().enumerate() {
                    if site.covers != Some(f.line) {
                        continue;
                    }
                    for (ni, name) in site.names.iter().enumerate() {
                        if name == rule.id {
                            used.insert((si, ni));
                            suppressed = true;
                        }
                    }
                }
                if !suppressed && selected(&selection, rule.id) {
                    violations.push(Violation {
                        path: path.clone(),
                        line: f.line,
                        col: f.col,
                        rule: rule.id,
                        message: f.message,
                        fix: rule.fix,
                    });
                }
            }
        }

        // Suppression lifecycle: unknown names are hard errors, and
        // every known name must still be earning its keep.
        for (si, site) in m.allows.iter().enumerate() {
            for (ni, name) in site.names.iter().enumerate() {
                if rule_by_id(name).is_none() {
                    if selected(&selection, UNKNOWN_ALLOW) {
                        violations.push(Violation {
                            path: path.clone(),
                            line: site.line,
                            col: 1,
                            rule: UNKNOWN_ALLOW,
                            message: format!(
                                "audit:allow({name}) names no known rule — annotations \
                                 with typo'd names are silently dead; known names: \
                                 the rule ids (`cargo xtask audit --list`)"
                            ),
                            fix: UNKNOWN_ALLOW_FIX,
                        });
                    }
                } else if !used.contains(&(si, ni)) && selected(&selection, STALE_ALLOW) {
                    violations.push(Violation {
                        path: path.clone(),
                        line: site.line,
                        col: 1,
                        rule: STALE_ALLOW,
                        message: format!(
                            "audit:allow({name}) suppresses nothing: no `{name}` \
                             finding on the line it covers; stale escapes rot into \
                             silent holes in the gate — delete or re-anchor it"
                        ),
                        fix: STALE_ALLOW_FIX,
                    });
                }
            }
            if let (Some(why), true) = (&site.malformed, selected(&selection, STALE_ALLOW)) {
                violations.push(Violation {
                    path: path.clone(),
                    line: site.line,
                    col: 1,
                    rule: STALE_ALLOW,
                    message: format!("audit:allow annotation does not attach: {why}"),
                    fix: STALE_ALLOW_FIX,
                });
            }
        }
    }

    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.col).cmp(&(b.path.as_str(), b.line, b.rule, b.col))
    });
    Ok(violations)
}

fn selected(sel: &Selection, rule_id: &str) -> bool {
    match sel {
        Selection::All => true,
        Selection::Rule(id) | Selection::Meta(id) => *id == rule_id,
    }
}

/// The directories a scope prefix names under `root`: itself, or with
/// its `*` component replaced by every directory found there.
fn expand_prefix(root: &Path, prefix: &str) -> Result<Vec<PathBuf>, AuditError> {
    let Some((parent, rest)) = prefix.split_once("/*") else {
        return Ok(vec![root.join(prefix)]);
    };
    let dir = root.join(parent);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).map_err(|e| AuditError::Io(dir.clone(), e))? {
        let path = entry.map_err(|e| AuditError::Io(dir.clone(), e))?.path();
        out.push(PathBuf::from(format!("{}{rest}", path.display())));
    }
    Ok(out)
}

/// Recursively collect `.rs` files under `dir`, pushing paths relative
/// to `root`.
fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> Result<(), AuditError> {
    let entries = fs::read_dir(dir).map_err(|e| AuditError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| AuditError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, root, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path
                .strip_prefix(root)
                .expect("collect_rs_files walks only below root")
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root from the xtask manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask always sits two levels below the workspace root")
        .to_path_buf()
}

// ---------------------------------------------------------------------
// JSON output (SARIF-lite)
// ---------------------------------------------------------------------

/// Escape a string for embedding in JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_finding(v: &Violation) -> String {
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"fix\":\"{}\"}}",
        json_escape(v.rule),
        json_escape(&v.path),
        v.line,
        v.col,
        json_escape(&v.message),
        json_escape(v.fix),
    )
}

/// Render the audit result as a SARIF-lite JSON document: schema tag,
/// rule inventory, and one finding object per violation (rule id, span,
/// message, fix direction). One finding per line keeps the document
/// greppable.
#[must_use]
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"rbcast-audit/1\",");
    out.push_str(&format!(
        "\"rules\":{},\"clean\":{},\"finding_count\":{},\"findings\":[",
        all_rules().len() + 2, // + the two meta-diagnostics
        violations.is_empty(),
        violations.len()
    ));
    for (i, v) in violations.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&render_finding(v));
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// Fixture self-test
// ---------------------------------------------------------------------

/// Outcome of one fixture in the self-test.
#[derive(Debug)]
pub struct FixtureReport {
    /// Rule the fixture targets (`clean` for the no-findings fixture).
    pub name: String,
    /// Whether the fixture behaved as expected.
    pub ok: bool,
    /// Human-readable detail.
    pub detail: String,
}

fn fixture_report(fixtures_dir: &Path, id: &str) -> Result<FixtureReport, AuditError> {
    let root = fixtures_dir.join(id);
    let violations = run_audit(&root, None)?;
    let hits = violations.iter().filter(|v| v.rule == id).count();
    let strays: Vec<&Violation> = violations.iter().filter(|v| v.rule != id).collect();
    let ok = hits > 0 && strays.is_empty();
    let detail = if ok {
        format!("{hits} finding(s), rule fires")
    } else if hits == 0 {
        "rule did NOT fire on its fixture".to_string()
    } else {
        format!(
            "fixture also triggered other rules: {:?}",
            strays.iter().map(|v| v.rule).collect::<Vec<_>>()
        )
    };
    Ok(FixtureReport {
        name: id.to_string(),
        ok,
        detail,
    })
}

/// Run every rule (and both meta-diagnostics) against its fixture tree
/// and the `clean` fixture.
///
/// Each `fixtures/<rule-id>/` tree must produce at least one finding of
/// that rule (and no others); `fixtures/clean/` must produce none. This
/// is the proof that each gate actually fires.
pub fn self_test(fixtures_dir: &Path) -> Result<Vec<FixtureReport>, AuditError> {
    let mut reports = Vec::new();
    for rule in all_rules() {
        reports.push(fixture_report(fixtures_dir, rule.id)?);
    }
    for meta in [STALE_ALLOW, UNKNOWN_ALLOW] {
        reports.push(fixture_report(fixtures_dir, meta)?);
    }

    let clean_root = fixtures_dir.join("clean");
    let clean = run_audit(&clean_root, None)?;
    reports.push(FixtureReport {
        name: "clean".to_string(),
        ok: clean.is_empty(),
        detail: if clean.is_empty() {
            "no findings, annotations and test-mod skipping honoured".to_string()
        } else {
            format!("unexpected findings: {clean:?}")
        },
    });
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> PathBuf {
        workspace_root().join("crates/xtask/fixtures")
    }

    #[test]
    fn every_rule_fires_on_its_fixture_and_clean_is_clean() {
        let reports = self_test(&fixtures()).expect("fixtures are readable");
        for r in &reports {
            assert!(r.ok, "fixture `{}` failed: {}", r.name, r.detail);
        }
        // One report per rule, two meta-diagnostics, the clean fixture.
        assert_eq!(reports.len(), all_rules().len() + 3);
    }

    /// Every finding of every fixture tree, as `tree/path:line:col rule`.
    /// `clean` has none.
    const FIXTURE_FINDINGS: &[&str] = &[
        "adhoc-neighborhood/crates/sim/src/nbhd.rs:8:23 adhoc-neighborhood",
        "atomic-ordering/crates/flow/src/counters.rs:11:26 atomic-ordering",
        "catch-unwind/crates/core/src/isolate.rs:10:17 catch-unwind",
        "checked-threshold-arith/crates/construct/src/impossibility.rs:7:7 checked-threshold-arith",
        "checked-threshold-arith/crates/construct/src/impossibility.rs:7:11 checked-threshold-arith",
        "env-read/crates/bench/src/knobs.rs:6:10 env-read",
        "env-read/crates/bench/src/knobs.rs:13:10 env-read",
        "float-eq/crates/grid/src/geometry.rs:6:19 float-eq",
        "hot-loop-alloc/crates/sim/src/hot.rs:8:25 hot-loop-alloc",
        "hot-loop-alloc/crates/sim/src/hot.rs:9:21 hot-loop-alloc",
        "hot-loop-alloc/crates/sim/src/hot.rs:18:23 hot-loop-alloc",
        "hot-loop-alloc/crates/sim/src/hot.rs:42:40 hot-loop-alloc",
        "hot-loop-alloc/crates/sim/src/hot.rs:69:23 hot-loop-alloc",
        "lint-header/crates/grid/src/lib.rs:1:1 lint-header",
        "lint-header/crates/grid/src/lib.rs:1:1 lint-header",
        "nondeterminism/crates/core/src/anneal.rs:11:20 nondeterminism",
        "nondeterminism/crates/core/src/anneal.rs:14:43 nondeterminism",
        "nondeterminism/crates/protocols/src/proto.rs:8:25 nondeterminism",
        "obs-wallclock/crates/bench/src/timing.rs:8:25 obs-wallclock",
        "obs-wallclock/crates/bench/src/timing.rs:13:26 obs-wallclock",
        "obs-wallclock/crates/bench/src/timing.rs:14:16 obs-wallclock",
        "raw-socket-io/crates/sim/src/sock.rs:6:21 raw-socket-io",
        "raw-socket-io/crates/sim/src/sock.rs:6:31 raw-socket-io",
        "raw-socket-io/crates/sim/src/sock.rs:7:5 raw-socket-io",
        "raw-socket-io/crates/sim/src/sock.rs:7:15 raw-socket-io",
        "raw-socket-io/crates/sim/src/sock.rs:10:49 raw-socket-io",
        "raw-socket-io/crates/sim/src/sock.rs:11:5 raw-socket-io",
        "raw-thread-spawn/crates/sim/src/worker.rs:11:27 raw-thread-spawn",
        "raw-thread-spawn/crates/sim/src/worker.rs:14:10 raw-thread-spawn",
        "stale-allow/crates/sim/src/stale.rs:6:1 stale-allow",
        "stale-allow/crates/sim/src/stale.rs:13:1 stale-allow",
        "stale-allow/crates/sim/src/stale.rs:13:1 stale-allow",
        "unknown-allow/crates/protocols/src/typo.rs:6:1 unknown-allow",
        "unordered-iteration/crates/sim/src/engine.rs:5:24 unordered-iteration",
        "unordered-iteration/crates/sim/src/engine.rs:5:33 unordered-iteration",
        "unordered-iteration/crates/sim/src/engine.rs:8:21 unordered-iteration",
        "unordered-iteration/crates/sim/src/engine.rs:8:41 unordered-iteration",
        "unordered-iteration/crates/sim/src/engine.rs:9:19 unordered-iteration",
        "unordered-iteration/crates/sim/src/engine.rs:9:34 unordered-iteration",
        "unused-pub/crates/alpha/src/lib.rs:19:1 unused-pub",
        "unused-pub/crates/alpha/src/lib.rs:25:1 unused-pub",
        "unused-pub/crates/alpha/src/lib.rs:36:1 unused-pub",
        "unused-pub/crates/alpha/src/lib.rs:52:1 unused-pub",
        "unused-pub/crates/alpha/src/lib.rs:60:1 unused-pub",
        "unused-pub/crates/alpha/src/lib.rs:73:5 unused-pub",
        "unwrap-panic/crates/flow/src/solver.rs:6:20 unwrap-panic",
        "unwrap-panic/crates/flow/src/solver.rs:11:9 unwrap-panic",
        "unwrap-panic/crates/flow/src/solver.rs:20:9 unwrap-panic",
    ];

    #[test]
    fn every_fixture_tree_yields_exactly_its_pinned_findings() {
        let mut trees: Vec<PathBuf> = fs::read_dir(fixtures())
            .expect("fixtures are readable")
            .map(|e| e.expect("fixture entry").path())
            .collect();
        trees.sort();
        let mut got = Vec::new();
        for tree in &trees {
            let name = tree.file_name().and_then(|n| n.to_str()).expect("utf-8");
            for v in run_audit(tree, None).expect("fixture readable") {
                got.push(format!("{name}/{}:{}:{} {}", v.path, v.line, v.col, v.rule));
            }
        }
        assert_eq!(got, FIXTURE_FINDINGS);
    }

    #[test]
    fn an_alias_is_an_unknown_allow_not_a_suppression() {
        let root = std::env::temp_dir().join(format!("xtask-alias-{}", std::process::id()));
        let src = root.join("crates/flow/src");
        fs::create_dir_all(&src).expect("temp tree");
        let line = "fn f() { panic!(\"x\"); } // audit:allow(panic)\n";
        fs::write(src.join("x.rs"), line).expect("temp file");
        let audit = run_audit(&root, None);
        let _ = fs::remove_dir_all(&root);
        let rules: Vec<&str> = audit
            .expect("temp tree readable")
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, [UNKNOWN_ALLOW, "unwrap-panic"]);
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err = run_audit(&fixtures().join("clean"), Some("no-such-rule"));
        assert!(matches!(err, Err(AuditError::UnknownRule(_))));
    }

    #[test]
    fn single_rule_filter_restricts_findings() {
        let root = fixtures().join("unordered-iteration");
        let all = run_audit(&root, None).expect("fixture readable");
        let only = run_audit(&root, Some("float-eq")).expect("fixture readable");
        assert!(!all.is_empty());
        assert!(only.is_empty());
    }

    #[test]
    fn meta_rule_ids_are_selectable() {
        let root = fixtures().join("stale-allow");
        let v = run_audit(&root, Some(STALE_ALLOW)).expect("fixture readable");
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| x.rule == STALE_ALLOW));
    }

    #[test]
    fn repository_itself_is_audit_clean() {
        let violations = run_audit(&workspace_root(), None).expect("workspace readable");
        assert!(
            violations.is_empty(),
            "the workspace must pass its own audit:\n{}",
            violations
                .iter()
                .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn unused_pub_fixture_flags_exactly_the_uncalled_items() {
        let findings = run_audit(&fixtures().join("unused-pub"), None).expect("fixture readable");
        let flagged: Vec<&str> = findings
            .iter()
            .map(|v| v.message.split('`').nth(1).unwrap_or(""))
            .collect();
        // Not flagged: called_by_beta, LIMIT and Gauge::read (another
        // package), doc_only (a doctest), from_tests (tests/),
        // from_benchmark (benchmark/), `pub(crate)` and test-only items.
        assert_eq!(
            flagged,
            [
                "uncalled",
                "mentioned_only",
                "text_block_only",
                "reexported_only",
                "UNREAD",
                "reset"
            ]
        );
    }

    #[test]
    fn a_benchmark_only_caller_keeps_an_item_public() {
        // `Network::latest_decision_round` has one caller, in the
        // benchmark package, which no `cargo build --workspace` compiles:
        // only the audit's reference roots stand between it and going
        // private.
        let root = workspace_root();
        let network = fs::read_to_string(root.join("crates/sim/src/network.rs"))
            .expect("network.rs readable");
        let def = network
            .lines()
            .position(|l| l.trim_start().starts_with("pub fn latest_decision_round("))
            .expect("Network::latest_decision_round is a pub fn in network.rs")
            + 1;
        assert!(
            !network
                .lines()
                .nth(def - 2)
                .unwrap_or("")
                .contains("audit:allow"),
            "the item must be kept public by its caller, not by an annotation"
        );
        let findings = run_audit(&root, Some("unused-pub")).expect("workspace readable");
        assert!(
            !findings
                .iter()
                .any(|v| v.path == "crates/sim/src/network.rs" && v.line == def),
            "latest_decision_round is called from benchmark/src"
        );
    }

    #[test]
    fn missing_root_is_an_error_not_a_clean_pass() {
        let err = run_audit(Path::new("/no/such/audit/root"), None);
        assert!(matches!(err, Err(AuditError::Io(_, _))));
    }

    #[test]
    fn findings_are_sorted_and_stable() {
        let root = fixtures().join("unwrap-panic");
        let a = run_audit(&root, None).expect("fixture readable");
        let b = run_audit(&root, None).expect("fixture readable");
        let key = |v: &Violation| (v.path.clone(), v.line, v.rule);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        let mut sorted = a.iter().map(key).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(sorted, a.iter().map(key).collect::<Vec<_>>());
    }

    #[test]
    fn json_output_is_escaped_and_shaped() {
        let v = vec![Violation {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            rule: "unwrap-panic",
            message: "say \"no\" to\nbackslash \\ panics".into(),
            fix: "fix it",
        }];
        let json = render_json(&v);
        assert!(json.contains("\"schema\":\"rbcast-audit/1\""));
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\"clean\":false"));
        let empty = render_json(&[]);
        assert!(empty.contains("\"clean\":true"));
        assert!(empty.contains("\"findings\":[\n]"));
    }
}
