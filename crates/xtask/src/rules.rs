//! The audit rules, as token queries over [`FileModel`].
//!
//! Each rule names the repo-specific invariant it protects, the path
//! scope it applies to, a short machine-readable fix direction (carried
//! into `--format json`), and a [`Check`] returning *raw* findings — the
//! engine in [`crate`] applies `audit:allow` suppression centrally, so
//! it can also detect stale and unknown annotations. Most rules are one
//! row of data: the token sequences they ban and the home modules where
//! those sequences are allowed; one matcher (`Rule::findings`) serves
//! them all, and only the structural rules keep a `check_*` function.
//!
//! Token queries see the file as the lexer does: a `HashMap` inside a
//! string or comment can never match, and a call chain split across
//! lines (`Instant::` newline `now()`) is still one sequence — the two
//! classes of false positive/negative the old per-line engine had.
//!
//! Every rule has a fixture tree under `crates/xtask/fixtures/<id>/`
//! proving it fires, exercised by `cargo xtask audit --self-test` and
//! by this crate's unit tests.

use std::path::Path;

use crate::index::{library_of, ItemKind, WorkspaceIndex};
use crate::lexer::TokenKind;
use crate::model::FileModel;

/// Library crate source roots (relative to the audit root). `src` is the
/// root `rbcast` facade crate.
const LIB_SRC: &[&str] = &[
    "crates/grid/src",
    "crates/flow/src",
    "crates/construct/src",
    "crates/sim/src",
    "crates/adversary/src",
    "crates/protocols/src",
    "crates/core/src",
    "crates/net/src",
    "src",
];

/// Crates whose round/delivery order feeds the deterministic trace.
const ORDER_SENSITIVE_SRC: &[&str] = &["crates/sim/src", "crates/protocols/src"];

/// Where a per-iteration allocation is a per-delivery or per-datagram
/// cost: the simulator and protocols, and the four net files a frame
/// crosses between the datagram and its sender's pending list.
const HOT_ALLOC_SRC: &[&str] = &[
    "crates/sim/src",
    "crates/protocols/src",
    "crates/net/src/runtime.rs",
    "crates/net/src/link.rs",
    "crates/net/src/wire.rs",
    "crates/net/src/journal.rs",
];

/// Crates holding the L2/L∞ grid geometry.
const GEOMETRY_SRC: &[&str] = &["crates/grid/src", "crates/construct/src"];

/// `LIB_SRC` plus the bench harness (timing must be annotated there).
const CLOCK_SRC: &[&str] = &[
    "crates/grid/src",
    "crates/flow/src",
    "crates/construct/src",
    "crates/sim/src",
    "crates/adversary/src",
    "crates/protocols/src",
    "crates/core/src",
    "crates/net/src",
    "crates/bench/src",
    "src",
];

/// Modules holding the paper's threshold arithmetic; the
/// `checked-threshold-arith` rule applies only inside these.
const THRESHOLD_MODULES: &[&str] = &[
    "crates/core/src/thresholds.rs",
    "crates/construct/src/cpa_stages.rs",
    "crates/construct/src/impossibility.rs",
    "crates/protocols/src/evidence.rs",
];

/// A raw rule finding, before suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based line of the first matched token.
    pub line: usize,
    /// 1-based column of the first matched token.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// A suppressed-and-sorted audit violation, as reported to the user.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the audit root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
    /// Rule identifier (e.g. `unordered-iteration`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Short fix direction (stable per rule; carried into JSON output).
    pub fix: &'static str,
}

/// Cross-file context handed to every check.
pub struct Ctx<'a> {
    /// Workspace symbol index over all loaded files.
    pub index: &'a WorkspaceIndex,
}

/// A module where a token rule's sequences are allowed: the one file
/// defining the item (kind, name), or the fallback path when no file or
/// several do.
type Home = (ItemKind, &'static str, &'static str);

/// The timing primitive `obs::span`: raw clock reads and atomic counters.
const OBS: Home = (ItemKind::Fn, "span", "crates/core/src/obs.rs");
/// The deterministic executor `engine::run_indexed`: threads and atomics.
const ENGINE: Home = (ItemKind::Fn, "run_indexed", "crates/core/src/engine.rs");
/// `supervisor::supervise`: panic isolation.
const SUPERVISOR: Home = (ItemKind::Fn, "supervise", "crates/core/src/supervisor.rs");
/// The stencil arena `NeighborTable`: neighbourhood scans.
const ARENA: Home = (
    ItemKind::Struct,
    "NeighborTable",
    "crates/grid/src/arena.rs",
);
/// The config accessor `config::env_var`: environment reads.
const CONFIG: Home = (ItemKind::Fn, "env_var", "crates/core/src/config.rs");
/// The datagram transport `UdpTransport`: raw sockets.
const TRANSPORT: Home = (
    ItemKind::Struct,
    "UdpTransport",
    "crates/net/src/transport.rs",
);

/// How a rule finds its raw findings.
pub enum Check {
    /// One finding per match of any banned token sequence outside test
    /// regions, except in the home modules; the message is the matched
    /// tokens followed by the rule's summary.
    Tokens(&'static [&'static [&'static str]], &'static [Home]),
    /// A structural check over the file.
    Structural(fn(&FileModel, &Ctx) -> Vec<Finding>),
}

/// A static-analysis rule: scope + per-file check.
pub struct Rule {
    /// Stable identifier used in reports, `--rule` and `audit:allow(...)`.
    pub id: &'static str,
    /// One-line description shown by `cargo xtask audit --list`.
    pub summary: &'static str,
    /// Short fix direction, stable per rule (surfaced in JSON output).
    pub fix: &'static str,
    /// Path prefixes (relative to the audit root) the rule applies to;
    /// a `*` component matches any one directory.
    pub scopes: &'static [&'static str],
    /// What the rule matches (suppression is central).
    pub check: Check,
}

impl Rule {
    /// Whether `rel` falls under one of the rule's scope prefixes.
    pub(crate) fn applies_to(&self, rel: &Path) -> bool {
        self.scopes.iter().any(|s| under(rel, s))
    }

    /// The rule's raw findings in `m`, before suppression.
    pub(crate) fn findings(&self, m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
        let (banned, homes) = match self.check {
            Check::Structural(check) => return check(m, ctx),
            Check::Tokens(banned, homes) => (banned, homes),
        };
        if homes
            .iter()
            .any(|&(kind, name, fallback)| m.rel == ctx.index.exempt_file(kind, name, fallback))
        {
            return Vec::new();
        }
        let mut out = Vec::new();
        for seq in banned {
            for i in m.find_seq(seq, true) {
                out.push(finding(m, i, format!("{}: {}", seq.concat(), self.summary)));
            }
        }
        out
    }
}

/// Does `rel` lie under the prefix `scope`, whose `*` components match
/// any one path component?
fn under(rel: &Path, scope: &str) -> bool {
    let mut parts = rel.components();
    scope
        .split('/')
        .all(|s| parts.next().is_some_and(|c| s == "*" || c.as_os_str() == s))
}

/// Meta-diagnostic id: an `audit:allow` that suppresses nothing.
pub const STALE_ALLOW: &str = "stale-allow";
/// Meta-diagnostic id: an `audit:allow` naming no known rule.
pub const UNKNOWN_ALLOW: &str = "unknown-allow";

/// Fix direction attached to [`STALE_ALLOW`] findings.
pub const STALE_ALLOW_FIX: &str =
    "delete the stale annotation, or re-point it at the finding it was meant to suppress";
/// Fix direction attached to [`UNKNOWN_ALLOW`] findings.
pub const UNKNOWN_ALLOW_FIX: &str = "use a rule id from `cargo xtask audit --list`";

/// All audit rules, in reporting order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            id: "unordered-iteration",
            summary: "sim/protocols hot paths must not iterate HashMap/HashSet \
                      (use BTreeMap/BTreeSet or sorted drains)",
            fix: "replace with BTreeMap/BTreeSet or drain through a sorted Vec",
            scopes: ORDER_SENSITIVE_SRC,
            check: Check::Tokens(&[&["HashMap"], &["HashSet"]], &[]),
        },
        Rule {
            id: "float-eq",
            summary: "grid/construct geometry must not compare floats with == or != \
                      (use explicit tolerances or integer coordinates)",
            fix: "compare with an explicit tolerance or restate over integer coordinates",
            scopes: GEOMETRY_SRC,
            check: Check::Structural(check_float_eq),
        },
        Rule {
            id: "unwrap-panic",
            summary: "library crates must not .unwrap() or panic! outside tests \
                      (return Result or use expect with an invariant-naming message)",
            fix: "return a Result, or .expect(\"<invariant that guarantees this>\")",
            scopes: LIB_SRC,
            check: Check::Tokens(&[&[".", "unwrap", "(", ")"], &["panic", "!"]], &[]),
        },
        Rule {
            id: "nondeterminism",
            summary: "no thread_rng / entropy seeding / rand::random outside seeded \
                      entry points (runs must replay from a u64 seed)",
            fix: "derive all randomness from an explicit u64 seed (StdRng::seed_from_u64)",
            scopes: CLOCK_SRC,
            check: Check::Tokens(
                &[
                    &["thread_rng"],
                    &["from_entropy"],
                    &["rand", "::", "random"],
                ],
                &[],
            ),
        },
        Rule {
            id: "obs-wallclock",
            summary: "raw wall-clock reads (Instant::now / SystemTime) are confined \
                      to rbcast-core's obs module (time through obs::span or \
                      obs::Stopwatch so measurement stays out of hashed state)",
            fix: "time through obs::span(\"area/op\") or obs::Stopwatch",
            scopes: CLOCK_SRC,
            check: Check::Tokens(&[&["Instant", "::", "now"], &["SystemTime"]], &[OBS]),
        },
        Rule {
            id: "raw-thread-spawn",
            summary: "raw std::thread spawn/scope is confined to rbcast-core's engine \
                      module (all parallelism must flow through engine::run_indexed \
                      so results stay input-ordered and deterministic)",
            fix: "fan work out through engine::run_indexed",
            scopes: CLOCK_SRC,
            check: Check::Tokens(
                &[
                    &["thread", "::", "spawn"],
                    &["thread", "::", "scope"],
                    &["thread", "::", "Builder"],
                ],
                &[ENGINE],
            ),
        },
        Rule {
            id: "catch-unwind",
            summary: "catch_unwind is confined to rbcast-core's supervisor module \
                      (panic isolation must flow through the supervisor so failures \
                      are classified, retried, and journalled uniformly)",
            fix: "route the task through supervisor::supervise / run_experiments_supervised",
            scopes: CLOCK_SRC,
            check: Check::Tokens(&[&["catch_unwind"]], &[SUPERVISOR]),
        },
        Rule {
            id: "adhoc-neighborhood",
            summary: "torus.neighborhood scans are confined to the grid arena module \
                      (hot paths must read the shared stencil NeighborTable; annotate \
                      audit:allow(adhoc-neighborhood) at cold one-shot sites)",
            fix: "read the shared stencil NeighborTable from the topology arena",
            scopes: LIB_SRC,
            check: Check::Tokens(&[&[".", "neighborhood", "("]], &[ARENA]),
        },
        Rule {
            id: "lint-header",
            summary: "every library crate root must carry #![forbid(unsafe_code)] \
                      and #![warn(missing_docs)]",
            fix: "add the missing #![…] lint header at the top of the crate root",
            scopes: LIB_SRC,
            check: Check::Structural(check_lint_header),
        },
        Rule {
            id: "hot-loop-alloc",
            summary: "no allocation (clone / format! / to_string / to_vec / vec! / \
                      String::new / Box::new) inside for/while/loop bodies in the \
                      sim and protocols hot paths or on the net frame path \
                      (runtime, link, wire, journal), nor anywhere in a protocol \
                      on_message body (it runs once per delivery — an implicit loop)",
            fix: "hoist the allocation out of the loop or reuse a scratch buffer",
            scopes: HOT_ALLOC_SRC,
            check: Check::Structural(check_hot_loop_alloc),
        },
        Rule {
            id: "atomic-ordering",
            summary: "atomic memory-ordering choices (Ordering::Relaxed/SeqCst/…) are \
                      confined to rbcast-core's obs and engine modules; anywhere else \
                      the choice is a determinism hazard and must carry an annotated \
                      rationale",
            fix: "move the atomic behind an obs/engine primitive, or annotate \
                  audit:allow(atomic-ordering) with the ordering argument",
            scopes: CLOCK_SRC,
            check: Check::Tokens(
                &[
                    &["Ordering", "::", "Relaxed"],
                    &["Ordering", "::", "SeqCst"],
                    &["Ordering", "::", "Acquire"],
                    &["Ordering", "::", "Release"],
                    &["Ordering", "::", "AcqRel"],
                ],
                &[OBS, ENGINE],
            ),
        },
        Rule {
            id: "checked-threshold-arith",
            summary: "multiplication/shift on fault-bound quantities in the threshold \
                      modules must widen (u64::from / u128) or use checked_* — the \
                      paper's bounds (⌊2r²/3⌋, r(2r+1)) must not silently wrap",
            fix: "widen operands first (u64::from / u128) or use checked_mul/checked_shl",
            scopes: &[
                "crates/core/src",
                "crates/construct/src",
                "crates/protocols/src",
            ],
            check: Check::Structural(check_threshold_arith),
        },
        Rule {
            id: "raw-socket-io",
            summary: "raw socket I/O (std::net, UdpSocket, TcpStream, TcpListener) is \
                      confined to rbcast-net's transport module (everything above it \
                      must stay transport-agnostic behind the Datagram trait, so the \
                      loopback parity oracle exercises the identical code path)",
            fix: "route datagrams through rbcast_net::transport::Datagram \
                  (UdpTransport / LoopbackHub) instead of opening sockets directly",
            scopes: CLOCK_SRC,
            // A fully qualified `std::net::UdpSocket` matches twice, both
            // findings on the same line.
            check: Check::Tokens(
                &[
                    &["std", "::", "net"],
                    &["UdpSocket"],
                    &["TcpStream"],
                    &["TcpListener"],
                ],
                &[TRANSPORT],
            ),
        },
        Rule {
            id: "env-read",
            summary: "process-environment reads (std::env::var) are confined to the \
                      config layer (rbcast-core::config) so every RBCAST_* knob is \
                      discoverable, documented, and testable in one place",
            fix: "read through rbcast_core::config (env_var) instead of std::env directly",
            scopes: CLOCK_SRC,
            check: Check::Tokens(
                &[&["env", "::", "var"], &["env", "::", "var_os"]],
                &[CONFIG],
            ),
        },
        Rule {
            id: "unused-pub",
            summary: "a library `pub fn` / `pub const` / `pub static` needs a caller \
                      outside its crate (another package, a binary, tests/, \
                      examples/, benches/, benchmark/ or a doctest); rustc never \
                      reports an unused pub item, so it stays as dead surface",
            fix: "narrow to pub(crate) or private and let rustc's dead_code find \
                  what is then unused, or annotate audit:allow(unused-pub): <reason>",
            scopes: &["crates/*/src", "src"],
            check: Check::Structural(check_unused_pub),
        },
    ]
}

/// Look up a rule by id.
pub(crate) fn rule_by_id(id: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|r| r.id == id)
}

fn finding(m: &FileModel, i: usize, message: String) -> Finding {
    let (line, col) = m.at(i);
    Finding { line, col, message }
}

fn check_float_eq(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..m.code_len() {
        if m.meta[i].in_test {
            continue;
        }
        let t = m.code_text(i);
        if t != "==" && t != "!=" {
            continue;
        }
        // Scan the enclosing statement (between `;`/`{`/`}` boundaries)
        // for a float operand — statements may span lines, which the
        // old per-line engine could not see.
        let boundary = |s: &str| matches!(s, ";" | "{" | "}");
        let mut lo = i;
        while lo > 0 && !boundary(m.code_text(lo - 1)) && i - lo < 200 {
            lo -= 1;
        }
        let mut hi = i;
        while hi + 1 < m.code_len() && !boundary(m.code_text(hi + 1)) && hi - i < 200 {
            hi += 1;
        }
        let has_float = (lo..=hi)
            .any(|k| m.ct(k).kind == TokenKind::Float || matches!(m.code_text(k), "f64" | "f32"));
        if has_float {
            out.push(finding(
                m,
                i,
                "floating-point equality in geometry code: exact == / != on \
                 f64 silently misclassifies neighbour distances; compare with \
                 an explicit tolerance or stay in integer grid coordinates"
                    .to_string(),
            ));
        }
    }
    out
}

fn check_lint_header(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    if m.rel.file_name().and_then(|n| n.to_str()) != Some("lib.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (pats, header) in [
        (
            &["forbid", "(", "unsafe_code", ")"][..],
            "#![forbid(unsafe_code)]",
        ),
        (
            &["warn", "(", "missing_docs", ")"][..],
            "#![warn(missing_docs)]",
        ),
    ] {
        if m.find_seq(pats, false).is_empty() {
            out.push(Finding {
                line: 1,
                col: 1,
                message: format!("crate root is missing the `{header}` lint header"),
            });
        }
    }
    out
}

fn check_hot_loop_alloc(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    const ALLOCS: &[(&[&str], &str)] = &[
        (&[".", "clone", "(", ")"], ".clone()"),
        (&[".", "to_string", "(", ")"], ".to_string()"),
        (&[".", "to_owned", "(", ")"], ".to_owned()"),
        (&[".", "to_vec", "(", ")"], ".to_vec()"),
        (&["format", "!"], "format!"),
        (&["vec", "!"], "vec!"),
        (&["String", "::", "new"], "String::new"),
        (&["String", "::", "from"], "String::from"),
        (&["Vec", "::", "new"], "Vec::new"),
        (&["Box", "::", "new"], "Box::new"),
    ];
    let mut out = Vec::new();
    for (pats, name) in ALLOCS {
        for i in m.find_seq(pats, true) {
            // `on_message` runs once per delivery — the engine's true
            // inner loop, even though no `for` is visible in the file —
            // so straight-line allocation there costs the same as a
            // loop-body allocation anywhere else.
            let per_delivery = m.meta[i]
                .fn_idx
                .is_some_and(|fi| m.code_text(m.fns[fi].kw + 1) == "on_message");
            if m.meta[i].loop_depth == 0 && !per_delivery {
                continue;
            }
            let site = if m.meta[i].loop_depth > 0 {
                format!("inside a loop body (depth {})", m.meta[i].loop_depth)
            } else {
                "in an on_message body (one call per delivery)".to_string()
            };
            out.push(finding(
                m,
                i,
                format!(
                    "{name} {site} on a sim/protocols/net hot \
                     path: per-iteration allocation dominates round cost at scale; \
                     hoist it out of the loop, reuse a scratch buffer, or annotate \
                     audit:allow(hot-loop-alloc) at a proven-cold site"
                ),
            ));
        }
    }
    out
}

/// Markers that make unchecked `*` / `<<` acceptable within a function:
/// the operands were widened first, or the arithmetic is checked.
fn has_widening_marker(m: &FileModel, lo: usize, hi: usize) -> bool {
    (lo..=hi).any(|k| {
        let t = m.code_text(k);
        t.starts_with("checked_")
            || t.starts_with("saturating_")
            || t == "u128"
            || t == "i128"
            || t == "try_from"
            || (matches!(t, "u64" | "i64" | "f64") && m.seq_at(k, &[t, "::", "from"]))
    })
}

fn check_threshold_arith(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    if !THRESHOLD_MODULES.iter().any(|p| m.rel == Path::new(p)) {
        return Vec::new();
    }
    let value_like = |k: usize| -> bool {
        let t = m.ct(k);
        matches!(t.kind, TokenKind::Ident | TokenKind::Int | TokenKind::Float)
            || matches!(t.text.as_str(), ")" | "]")
    };
    let mut out = Vec::new();
    for i in 1..m.code_len().saturating_sub(1) {
        if m.meta[i].in_test {
            continue;
        }
        let t = m.code_text(i);
        let is_mul = t == "*" && value_like(i - 1) && {
            let n = m.ct(i + 1);
            matches!(n.kind, TokenKind::Ident | TokenKind::Int | TokenKind::Float) || n.text == "("
        };
        let is_shift = t == "<<";
        if !(is_mul || is_shift) {
            continue;
        }
        // Function-scoped dataflow: the enclosing fn must widen or check
        // somewhere, else this arithmetic can wrap at the paper's bounds.
        let (lo, hi) = match m.meta[i].fn_idx {
            Some(fi) => (m.fns[fi].kw, m.fns[fi].close),
            None => (i.saturating_sub(50), (i + 50).min(m.code_len() - 1)),
        };
        if has_widening_marker(m, lo, hi) {
            continue;
        }
        out.push(finding(
            m,
            i,
            format!(
                "unchecked `{t}` on threshold arithmetic: the enclosing function \
                 neither widens (u64::from / u128) nor checks (checked_*) its \
                 operands, so the paper's bound arithmetic (⌊2r²/3⌋, r(2r+1)) \
                 can silently wrap at large radii; widen first or use checked \
                 arithmetic (or annotate audit:allow(checked-threshold-arith) \
                 with a range argument)"
            ),
        ));
    }
    out
}

fn check_unused_pub(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    let Some(package) = library_of(&m.rel) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in 0..m.code_len() {
        if m.meta[i].in_test || m.code_text(i) != "pub" {
            continue;
        }
        let Some((kind, name)) = pub_value_item(m, i) else {
            continue;
        };
        if !ctx.index.referenced_outside(name, &package) {
            out.push(finding(
                m,
                i,
                format!(
                    "pub {kind} `{name}` is named by no other crate, test, example, \
                     benchmark or doctest: narrow it to pub(crate) or private so \
                     rustc's dead_code lint can see whether anything calls it"
                ),
            ));
        }
    }
    out
}

/// The kind and name of the `fn`, `const` or `static` item a bare
/// `pub` at code index `i` introduces; `None` for a restricted
/// visibility (`pub(crate)`, …) or any other item.
fn pub_value_item(m: &FileModel, i: usize) -> Option<(&'static str, &str)> {
    let text = |k: usize| if k < m.code_len() { m.code_text(k) } else { "" };
    let mut j = i + 1;
    // Qualifiers before `fn`: `const fn`, `async fn`, `unsafe fn`.
    while matches!(text(j), "async" | "unsafe")
        || (text(j) == "const" && matches!(text(j + 1), "fn" | "async" | "unsafe"))
    {
        j += 1;
    }
    let kind = match text(j) {
        "fn" => "fn",
        "const" => "const",
        "static" => {
            if text(j + 1) == "mut" {
                j += 1;
            }
            "static"
        }
        _ => return None,
    };
    let name = (j + 1 < m.code_len()).then(|| m.ct(j + 1))?;
    (name.kind == TokenKind::Ident && name.text != "_").then_some((kind, name.text.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(rel: &str, src: &str) -> FileModel {
        FileModel::parse(Path::new(rel), src)
    }

    fn ctx_over(models: &[FileModel]) -> WorkspaceIndex {
        WorkspaceIndex::build(models)
    }

    /// Lines of rule `id`'s raw findings in `m`, indexed over `m` alone.
    fn run(id: &str, m: &FileModel) -> Vec<usize> {
        let idx = ctx_over(std::slice::from_ref(m));
        findings(id, m, &idx).iter().map(|f| f.line).collect()
    }

    fn findings(id: &str, m: &FileModel, idx: &WorkspaceIndex) -> Vec<Finding> {
        let rule = rule_by_id(id).expect("rule exists");
        rule.findings(m, &Ctx { index: idx })
    }

    #[test]
    fn unordered_fires_on_hashmap_tokens_only() {
        let f = file(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap;\nstruct MyHashMapLike;\nlet s = \"HashMap\";\n",
        );
        assert_eq!(run("unordered-iteration", &f), vec![1]);
    }

    #[test]
    fn unordered_skips_test_mods() {
        let f = file(
            "crates/sim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n",
        );
        assert!(run("unordered-iteration", &f).is_empty());
    }

    #[test]
    fn float_eq_fires_on_literal_and_f64_comparisons() {
        let f = file(
            "crates/grid/src/x.rs",
            "fn g(dist: f64, a: u32, b: f64, n: u32) {\nif dist == 1.0 { }\nif (a as f64) != b { }\nif n == 3 { }\n}\n",
        );
        assert_eq!(run("float-eq", &f), vec![2, 3]);
    }

    #[test]
    fn float_eq_sees_multi_line_comparisons() {
        // The old per-line engine missed a comparison whose float operand
        // sat on the next line.
        let f = file(
            "crates/grid/src/x.rs",
            "fn g(dist: f64) -> bool {\n    dist ==\n        1.0\n}\n",
        );
        assert_eq!(run("float-eq", &f), vec![2]);
    }

    #[test]
    fn float_eq_ignores_ranges_tuple_indices_and_method_calls() {
        let f = file(
            "crates/grid/src/x.rs",
            "fn g(pair: (u32, u32), n: u32, d1: &[u8], d2: &[u8]) {\n\
             for i in 0..n { let _ = i; }\n\
             let y = pair.0 == n;\n\
             let z = d1.len() != d2.len();\n\
             }\n",
        );
        assert!(run("float-eq", &f).is_empty());
    }

    #[test]
    fn unwrap_panic_fires_and_expect_is_fine() {
        let f = file(
            "crates/flow/src/x.rs",
            "let a = x.unwrap();\nlet b = y.expect(\"invariant\");\npanic!(\"boom\");\n",
        );
        assert_eq!(run("unwrap-panic", &f), vec![1, 3]);
    }

    #[test]
    fn unwrap_split_across_lines_is_caught() {
        let f = file("crates/flow/src/x.rs", "let a = x\n    .unwrap\n    ();\n");
        assert_eq!(run("unwrap-panic", &f), vec![2]);
    }

    #[test]
    fn nondeterminism_fires_and_ignores_strings_and_comments() {
        let f = file(
            "crates/protocols/src/x.rs",
            "let r = rand::thread_rng();\n// thread_rng banned\nlet s = \"Instant::now\";\n",
        );
        assert_eq!(run("nondeterminism", &f), vec![1]);
    }

    #[test]
    fn a_wall_clock_read_is_obs_wallclock_alone() {
        // One construct, one rule: a split `Instant::` newline `now()`
        // is still one sequence, and only obs-wallclock owns it.
        let f = file(
            "crates/sim/src/x.rs",
            "let t = Instant::\n    now();\nlet s = SystemTime::now();\n",
        );
        assert_eq!(run("obs-wallclock", &f), vec![1, 3]);
        assert!(run("nondeterminism", &f).is_empty());
    }

    #[test]
    fn a_token_finding_is_the_matched_tokens_then_the_summary() {
        let f = file("crates/sim/src/w.rs", "let h = std::thread::spawn(|| 7);\n");
        let rule = rule_by_id("raw-thread-spawn").expect("rule exists");
        let v = findings(rule.id, &f, &WorkspaceIndex::default());
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].col), (1, 14));
        assert_eq!(v[0].message, format!("thread::spawn: {}", rule.summary));
    }

    /// Each token rule's home modules, by fallback path.
    const HOMES: &[(&str, &[&str])] = &[
        ("unordered-iteration", &[]),
        ("unwrap-panic", &[]),
        ("nondeterminism", &[]),
        ("obs-wallclock", &["crates/core/src/obs.rs"]),
        ("raw-thread-spawn", &["crates/core/src/engine.rs"]),
        ("catch-unwind", &["crates/core/src/supervisor.rs"]),
        ("adhoc-neighborhood", &["crates/grid/src/arena.rs"]),
        (
            "atomic-ordering",
            &["crates/core/src/obs.rs", "crates/core/src/engine.rs"],
        ),
        ("raw-socket-io", &["crates/net/src/transport.rs"]),
        ("env-read", &["crates/core/src/config.rs"]),
    ];

    #[test]
    fn every_token_rule_is_silent_in_exactly_its_homes() {
        let mut rows = Vec::new();
        for rule in all_rules() {
            let Check::Tokens(banned, homes) = rule.check else {
                continue;
            };
            rows.push(rule.id);
            let want = HOMES.iter().find(|&&(id, _)| id == rule.id);
            let want = want.map_or(&[][..], |&(_, paths)| paths);
            let uses: String = banned.iter().map(|seq| seq.join(" ") + ";\n").collect();
            let every_line: Vec<usize> = (1..=banned.len()).collect();
            // With no definition indexed, the fallback paths are home,
            // and every other file, another row's home included, is not.
            let paths = HOMES.iter().flat_map(|&(_, paths)| paths.iter().copied());
            for path in paths.chain(["crates/sim/src/w.rs"]) {
                let home = want.contains(&path);
                let lines = run(rule.id, &file(path, &uses));
                assert_eq!(
                    lines,
                    if home { vec![] } else { every_line.clone() },
                    "{} at {path}",
                    rule.id
                );
            }
            assert_eq!(homes.len(), want.len(), "{}", rule.id);
            for &(kind, name, fallback) in homes {
                // A moved definition takes the home with it.
                let def = match kind {
                    ItemKind::Fn => format!("fn {name}() {{}}\n"),
                    _ => format!("struct {name};\n"),
                };
                let moved = file("crates/sim/src/moved.rs", &(def + &uses));
                let idx = ctx_over(std::slice::from_ref(&moved));
                assert!(findings(rule.id, &moved, &idx).is_empty(), "{}", rule.id);
                let old = findings(rule.id, &file(fallback, &uses), &idx);
                assert_eq!(old.len(), banned.len(), "{} at {fallback}", rule.id);
            }
        }
        assert_eq!(rows, HOMES.iter().map(|&(id, _)| id).collect::<Vec<_>>());
    }

    #[test]
    fn lint_header_requires_both_attributes() {
        let idx = WorkspaceIndex::default();
        let f = file("crates/grid/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let v = findings("lint-header", &f, &idx);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("missing_docs"));
        let ok = file(
            "crates/grid/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
        );
        assert!(run("lint-header", &ok).is_empty());
        let not_root = file("crates/grid/src/torus.rs", "fn f() {}\n");
        assert!(run("lint-header", &not_root).is_empty());
    }

    #[test]
    fn hot_loop_alloc_fires_only_inside_loops() {
        let f = file(
            "crates/sim/src/x.rs",
            "fn f(v: &[u32], names: &[String]) {\n\
             let setup = names.to_vec();\n\
             for n in names {\n    let s = n.clone();\n    let m = format!(\"{s}\");\n}\n\
             let after = names[0].clone();\n\
             }\n",
        );
        assert_eq!(run("hot-loop-alloc", &f), vec![4, 5]);
    }

    #[test]
    fn hot_loop_alloc_covers_the_net_frame_path_and_no_other_net_file() {
        let rule = all_rules()
            .iter()
            .find(|r| r.id == "hot-loop-alloc")
            .expect("the rule exists");
        for hot in ["runtime", "link", "wire", "journal"] {
            assert!(rule.applies_to(Path::new(&format!("crates/net/src/{hot}.rs"))));
        }
        for cold in ["chaos", "cluster", "transport", "lib"] {
            assert!(!rule.applies_to(Path::new(&format!("crates/net/src/{cold}.rs"))));
        }
        assert!(rule.applies_to(Path::new("crates/sim/src/network.rs")));
    }

    #[test]
    fn hot_loop_alloc_treats_on_message_bodies_as_implicit_loops() {
        // Straight-line allocation fires inside `on_message` (one call
        // per delivery) but not in a same-file helper of another name.
        let f = file(
            "crates/protocols/src/x.rs",
            "fn on_message(&mut self, from: u32) {\n\
             let key = from.to_string();\n\
             self.seen.push(key);\n\
             }\n\
             fn on_round_end(&mut self) {\n\
             let snapshot = self.seen.clone();\n\
             drop(snapshot);\n\
             }\n",
        );
        let v = run("hot-loop-alloc", &f);
        assert_eq!(v, vec![2]);
        let msgs = findings("hot-loop-alloc", &f, &WorkspaceIndex::default());
        assert!(msgs[0].message.contains("on_message body"));
    }

    #[test]
    fn atomic_ordering_flags_variants_not_cmp_ordering() {
        let f = file(
            "crates/flow/src/x.rs",
            "a.fetch_add(1, Ordering::Relaxed);\nlet c = Ordering::Less;\nuse std::sync::atomic::Ordering;\n",
        );
        assert_eq!(run("atomic-ordering", &f), vec![1]);
    }

    #[test]
    fn threshold_arith_requires_widening_in_fn() {
        let f = file(
            "crates/core/src/thresholds.rs",
            "pub fn bad(r: u32) -> u32 { 2 * r * r / 3 }\n\
             pub fn good(r: u32) -> u64 { let r = u64::from(r); r * (2 * r + 1) }\n\
             pub fn checked(r: u32) -> Option<u32> { r.checked_mul(2) }\n\
             pub fn wide(r: u32) -> u64 { let x = 2u128 * u128::from(r); x as u64 }\n",
        );
        assert_eq!(run("checked-threshold-arith", &f), vec![1, 1]);
    }

    #[test]
    fn threshold_arith_only_applies_in_threshold_modules() {
        let f = file(
            "crates/core/src/engine.rs",
            "fn f(a: usize) -> usize { a * 2 }\n",
        );
        assert!(run("checked-threshold-arith", &f).is_empty());
    }

    #[test]
    fn threshold_arith_ignores_deref_and_flags_shift() {
        let f = file(
            "crates/core/src/thresholds.rs",
            "pub fn deref(p: &u32) -> u32 { let x = *p; x }\n\
             pub fn shl(r: u32) -> u32 { r << 1 }\n",
        );
        assert_eq!(run("checked-threshold-arith", &f), vec![2]);
    }

    #[test]
    fn a_qualified_socket_open_fires_twice_on_its_line() {
        let elsewhere = file(
            "crates/sim/src/w.rs",
            "let s = std::net::UdpSocket::bind(a).expect(\"bind\");\nlet t = TcpListener::bind(a);\n// UdpSocket in a comment is fine\n",
        );
        // Line 1 matches both the `std::net` path and the bare type.
        assert_eq!(run("raw-socket-io", &elsewhere), vec![1, 1, 2]);
    }

    #[test]
    fn scoping_is_component_wise() {
        let rule = rule_by_id("unordered-iteration").expect("rule exists");
        assert!(rule.applies_to(Path::new("crates/sim/src/network.rs")));
        assert!(!rule.applies_to(Path::new("crates/simx/src/network.rs")));
        assert!(!rule.applies_to(Path::new("crates/grid/src/torus.rs")));
    }

    #[test]
    fn unused_pub_reads_qualifiers_and_skips_restricted_visibility() {
        let f = file(
            "crates/a/src/lib.rs",
            "pub const fn a() {}\npub(crate) fn b() {}\npub static mut C: u8 = 0;\n\
             pub const _: () = ();\npub struct D;\npub async fn e() {}\n\
             #[cfg(test)]\nmod t { pub fn f() {} }\n",
        );
        assert_eq!(run("unused-pub", &f), vec![1, 3, 6]);
        let bin = file("crates/a/src/main.rs", "pub fn x() {}\n");
        assert!(run("unused-pub", &bin).is_empty());
    }
}
