//! The audit rules, as token queries over [`FileModel`].
//!
//! Each rule names the repo-specific invariant it protects, the path
//! scope it applies to, a short machine-readable fix direction (carried
//! into `--format json`), and a check returning *raw* findings — the
//! engine in [`crate`] applies `audit:allow` suppression centrally, so
//! it can also detect stale and unknown annotations.
//!
//! Token queries see the file as the lexer does: a `HashMap` inside a
//! string or comment can never match, and a call chain split across
//! lines (`Instant::` newline `now()`) is still one sequence — the two
//! classes of false positive/negative the old per-line engine had.
//!
//! Every rule has a fixture tree under `crates/xtask/fixtures/<id>/`
//! proving it fires, exercised by `cargo xtask audit --self-test` and
//! by this crate's unit tests.

use std::path::{Path, PathBuf};

use crate::index::{ItemKind, WorkspaceIndex};
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
/// crosses between the datagram and the round buffer.
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

impl Ctx<'_> {
    /// The file sanctioned to hold raw wall-clock reads: wherever
    /// `fn span` (the obs timing primitive) is defined.
    fn obs_module(&self) -> PathBuf {
        self.index
            .exempt_file(ItemKind::Fn, "span", "crates/core/src/obs.rs")
    }

    /// The file sanctioned to touch `std::thread`: wherever
    /// `fn run_indexed` (the deterministic executor) is defined.
    fn engine_module(&self) -> PathBuf {
        self.index
            .exempt_file(ItemKind::Fn, "run_indexed", "crates/core/src/engine.rs")
    }

    /// The file sanctioned to call `catch_unwind`: wherever
    /// `fn supervise` is defined.
    fn supervisor_module(&self) -> PathBuf {
        self.index
            .exempt_file(ItemKind::Fn, "supervise", "crates/core/src/supervisor.rs")
    }

    /// The file sanctioned to scan `torus.neighborhood`: wherever
    /// `struct NeighborTable` (the stencil arena) is defined.
    fn arena_module(&self) -> PathBuf {
        self.index.exempt_file(
            ItemKind::Struct,
            "NeighborTable",
            "crates/grid/src/arena.rs",
        )
    }

    /// The file sanctioned to read the process environment: wherever
    /// `fn env_var` (the config layer accessor) is defined.
    fn config_module(&self) -> PathBuf {
        self.index
            .exempt_file(ItemKind::Fn, "env_var", "crates/core/src/config.rs")
    }

    /// The file sanctioned to touch raw sockets: wherever
    /// `struct UdpTransport` (the datagram transport) is defined.
    fn transport_module(&self) -> PathBuf {
        self.index.exempt_file(
            ItemKind::Struct,
            "UdpTransport",
            "crates/net/src/transport.rs",
        )
    }
}

/// A static-analysis rule: scope + per-file token check.
pub struct Rule {
    /// Stable identifier used in reports and `--rule`.
    pub id: &'static str,
    /// Name accepted inside `audit:allow(...)` for this rule.
    pub allow_name: &'static str,
    /// One-line description shown by `cargo xtask audit --list`.
    pub summary: &'static str,
    /// Short fix direction, stable per rule (surfaced in JSON output).
    pub fix: &'static str,
    /// Path prefixes (relative to the audit root) the rule applies to.
    pub scopes: &'static [&'static str],
    /// Per-file check returning raw findings (suppression is central).
    pub check: fn(&FileModel, &Ctx) -> Vec<Finding>,
}

impl Rule {
    /// Whether `rel` falls under one of the rule's scope prefixes.
    pub fn applies_to(&self, rel: &Path) -> bool {
        self.scopes.iter().any(|s| rel.starts_with(s))
    }
}

/// Meta-diagnostic id: an `audit:allow` that suppresses nothing.
pub const STALE_ALLOW: &str = "stale-allow";
/// Meta-diagnostic id: an `audit:allow` naming no known rule.
pub const UNKNOWN_ALLOW: &str = "unknown-allow";

/// Fix direction attached to [`STALE_ALLOW`] findings.
pub const STALE_ALLOW_FIX: &str =
    "delete the stale annotation, or re-point it at the finding it was meant to suppress";
/// Fix direction attached to [`UNKNOWN_ALLOW`] findings.
pub const UNKNOWN_ALLOW_FIX: &str =
    "use an allow-name from `cargo xtask audit --list` (ids and allow-names both work)";

/// All audit rules, in reporting order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            id: "unordered-iteration",
            allow_name: "unordered",
            summary: "sim/protocols hot paths must not iterate HashMap/HashSet \
                      (use BTreeMap/BTreeSet or sorted drains)",
            fix: "replace with BTreeMap/BTreeSet or drain through a sorted Vec",
            scopes: ORDER_SENSITIVE_SRC,
            check: check_unordered,
        },
        Rule {
            id: "float-eq",
            allow_name: "float-eq",
            summary: "grid/construct geometry must not compare floats with == or != \
                      (use explicit tolerances or integer coordinates)",
            fix: "compare with an explicit tolerance or restate over integer coordinates",
            scopes: GEOMETRY_SRC,
            check: check_float_eq,
        },
        Rule {
            id: "unwrap-panic",
            allow_name: "panic",
            summary: "library crates must not .unwrap() or panic! outside tests \
                      (return Result or use expect with an invariant-naming message)",
            fix: "return a Result, or .expect(\"<invariant that guarantees this>\")",
            scopes: LIB_SRC,
            check: check_unwrap_panic,
        },
        Rule {
            id: "nondeterminism",
            allow_name: "wall-clock",
            summary: "no thread_rng / entropy seeding / wall-clock reads outside \
                      seeded entry points (runs must replay from a u64 seed)",
            fix: "derive all randomness from an explicit u64 seed (StdRng::seed_from_u64)",
            scopes: CLOCK_SRC,
            check: check_nondeterminism,
        },
        Rule {
            id: "obs-wallclock",
            allow_name: "obs-wallclock",
            summary: "raw wall-clock reads (Instant::now / SystemTime) are confined \
                      to rbcast-core's obs module (time through obs::span or \
                      obs::Stopwatch so measurement stays out of hashed state)",
            fix: "time through obs::span(\"area/op\") or obs::Stopwatch",
            scopes: CLOCK_SRC,
            check: check_obs_wallclock,
        },
        Rule {
            id: "raw-thread-spawn",
            allow_name: "raw-thread",
            summary: "raw std::thread spawn/scope is confined to rbcast-core's engine \
                      module (all parallelism must flow through engine::run_indexed \
                      so results stay input-ordered and deterministic)",
            fix: "fan work out through engine::run_indexed",
            scopes: CLOCK_SRC,
            check: check_raw_thread_spawn,
        },
        Rule {
            id: "catch-unwind",
            allow_name: "catch-unwind",
            summary: "catch_unwind is confined to rbcast-core's supervisor module \
                      (panic isolation must flow through the supervisor so failures \
                      are classified, retried, and journalled uniformly)",
            fix: "route the task through supervisor::supervise / run_experiments_supervised",
            scopes: CLOCK_SRC,
            check: check_catch_unwind,
        },
        Rule {
            id: "adhoc-neighborhood",
            allow_name: "adhoc-neighborhood",
            summary: "torus.neighborhood scans are confined to the grid arena module \
                      (hot paths must read the shared stencil NeighborTable; annotate \
                      audit:allow(adhoc-neighborhood) at cold one-shot sites)",
            fix: "read the shared stencil NeighborTable from the topology arena",
            scopes: LIB_SRC,
            check: check_adhoc_neighborhood,
        },
        Rule {
            id: "lint-header",
            allow_name: "lint-header",
            summary: "every library crate root must carry #![forbid(unsafe_code)] \
                      and #![warn(missing_docs)]",
            fix: "add the missing #![…] lint header at the top of the crate root",
            scopes: LIB_SRC,
            check: check_lint_header,
        },
        Rule {
            id: "hot-loop-alloc",
            allow_name: "hot-loop-alloc",
            summary: "no allocation (clone / format! / to_string / to_vec / vec! / \
                      String::new / Box::new) inside for/while/loop bodies in the \
                      sim and protocols hot paths or on the net frame path \
                      (runtime, link, wire, journal), nor anywhere in a protocol \
                      on_message body (it runs once per delivery — an implicit loop)",
            fix: "hoist the allocation out of the loop or reuse a scratch buffer",
            scopes: HOT_ALLOC_SRC,
            check: check_hot_loop_alloc,
        },
        Rule {
            id: "atomic-ordering",
            allow_name: "atomic-ordering",
            summary: "atomic memory-ordering choices (Ordering::Relaxed/SeqCst/…) are \
                      confined to rbcast-core's obs and engine modules; anywhere else \
                      the choice is a determinism hazard and must carry an annotated \
                      rationale",
            fix: "move the atomic behind an obs/engine primitive, or annotate \
                  audit:allow(atomic-ordering) with the ordering argument",
            scopes: CLOCK_SRC,
            check: check_atomic_ordering,
        },
        Rule {
            id: "checked-threshold-arith",
            allow_name: "checked-threshold-arith",
            summary: "multiplication/shift on fault-bound quantities in the threshold \
                      modules must widen (u64::from / u128) or use checked_* — the \
                      paper's bounds (⌊2r²/3⌋, r(2r+1)) must not silently wrap",
            fix: "widen operands first (u64::from / u128) or use checked_mul/checked_shl",
            scopes: &[
                "crates/core/src",
                "crates/construct/src",
                "crates/protocols/src",
            ],
            check: check_threshold_arith,
        },
        Rule {
            id: "raw-socket-io",
            allow_name: "raw-socket",
            summary: "raw socket I/O (std::net, UdpSocket, TcpStream, TcpListener) is \
                      confined to rbcast-net's transport module (everything above it \
                      must stay transport-agnostic behind the Datagram trait, so the \
                      loopback parity oracle exercises the identical code path)",
            fix: "route datagrams through rbcast_net::transport::Datagram \
                  (UdpTransport / LoopbackHub) instead of opening sockets directly",
            scopes: CLOCK_SRC,
            check: check_raw_socket_io,
        },
        Rule {
            id: "env-read",
            allow_name: "env-read",
            summary: "process-environment reads (std::env::var) are confined to the \
                      config layer (rbcast-core::config) so every RBCAST_* knob is \
                      discoverable, documented, and testable in one place",
            fix: "read through rbcast_core::config (env_var) instead of std::env directly",
            scopes: CLOCK_SRC,
            check: check_env_read,
        },
    ]
}

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|r| r.id == id)
}

/// Is `name` a valid `audit:allow(...)` name (rule id or allow-name)?
pub fn is_known_allow_name(name: &str) -> bool {
    all_rules()
        .iter()
        .any(|r| r.allow_name == name || r.id == name)
}

/// Does the allow-name `name` suppress findings of `rule`?
pub fn allow_name_matches(rule: &Rule, name: &str) -> bool {
    name == rule.allow_name || name == rule.id
}

fn finding(m: &FileModel, i: usize, message: String) -> Finding {
    let (line, col) = m.at(i);
    Finding { line, col, message }
}

/// Emit one finding per match of any of `pats` outside test regions.
fn scan_seqs(m: &FileModel, pats: &[&[&str]], msg: impl Fn(&[&str]) -> String) -> Vec<Finding> {
    let mut out = Vec::new();
    for p in pats {
        for i in m.find_seq(p, true) {
            out.push(finding(m, i, msg(p)));
        }
    }
    out
}

fn check_unordered(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for i in m.find_seq(&[ty], true) {
            out.push(finding(
                m,
                i,
                format!(
                    "{ty} in an order-sensitive crate: iteration order is \
                     nondeterministic and would break same-seed trace replay; \
                     use BTree{} or drain through a sorted Vec",
                    &ty[4..]
                ),
            ));
        }
    }
    out
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

fn check_unwrap_panic(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    let mut out = scan_seqs(m, &[&[".", "unwrap", "(", ")"]], |_| {
        ".unwrap() in library code: return a Result or use \
         .expect(\"<invariant that guarantees this>\") so failures \
         name the broken invariant"
            .to_string()
    });
    out.extend(scan_seqs(m, &[&["panic", "!"]], |_| {
        "panic! in library code: return an error, or annotate with \
         audit:allow(panic) citing the invariant that makes this \
         unreachable"
            .to_string()
    }));
    out
}

fn check_nondeterminism(m: &FileModel, _ctx: &Ctx) -> Vec<Finding> {
    const BANNED: &[(&[&str], &str)] = &[
        (&["thread_rng"], "OS-entropy RNG breaks same-seed replay"),
        (&["from_entropy"], "entropy seeding breaks same-seed replay"),
        (
            &["SystemTime", "::", "now"],
            "wall-clock reads make runs irreproducible",
        ),
        (
            &["Instant", "::", "now"],
            "wall-clock reads make runs irreproducible",
        ),
        (
            &["rand", "::", "random"],
            "implicit thread-local RNG breaks same-seed replay",
        ),
    ];
    let mut out = Vec::new();
    for (pats, why) in BANNED {
        for i in m.find_seq(pats, true) {
            out.push(finding(
                m,
                i,
                format!(
                    "{}: {why}; every run must derive from an explicit \
                     u64 seed (StdRng::seed_from_u64) or be annotated \
                     audit:allow(wall-clock) at a measurement-only site",
                    pats.join("")
                ),
            ));
        }
    }
    out
}

fn check_obs_wallclock(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.obs_module() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pats in [&["Instant", "::", "now"][..], &["SystemTime"][..]] {
        for i in m.find_seq(pats, true) {
            out.push(finding(
                m,
                i,
                "raw wall-clock read outside rbcast-core::obs: ad-hoc timing \
                 scatters Instant through code that must stay replayable; \
                 time through obs::span(\"area/op\") or obs::Stopwatch (or \
                 annotate audit:allow(obs-wallclock) explaining why the \
                 measurement cannot route through obs)"
                    .to_string(),
            ));
        }
    }
    out
}

fn check_raw_thread_spawn(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.engine_module() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for what in ["spawn", "scope", "Builder"] {
        for i in m.find_seq(&["thread", "::", what], true) {
            out.push(finding(
                m,
                i,
                format!(
                    "thread::{what} outside rbcast-core::engine: ad-hoc threads do not \
                     preserve input-ordered result collection; fan work out \
                     through engine::run_indexed (or annotate \
                     audit:allow(raw-thread) with a determinism argument)"
                ),
            ));
        }
    }
    out
}

fn check_catch_unwind(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.supervisor_module() {
        return Vec::new();
    }
    scan_seqs(m, &[&["catch_unwind"]], |_| {
        "catch_unwind outside rbcast-core::supervisor: swallowing a \
         panic in place hides the failure from the quarantine report \
         and the checkpoint journal; run the task through \
         supervisor::supervise / run_experiments_supervised instead \
         (or annotate audit:allow(catch-unwind) with an isolation \
         argument)"
            .to_string()
    })
}

fn check_adhoc_neighborhood(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.arena_module() {
        return Vec::new();
    }
    scan_seqs(m, &[&[".", "neighborhood", "("]], |_| {
        "ad-hoc torus.neighborhood scan outside the arena module: \
         it re-derives metric offsets on every call; read the shared \
         stencil NeighborTable instead, or annotate \
         audit:allow(adhoc-neighborhood) at a cold one-shot site"
            .to_string()
    })
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

fn check_atomic_ordering(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.obs_module() || m.rel == ctx.engine_module() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for variant in ["Relaxed", "SeqCst", "Acquire", "Release", "AcqRel"] {
        for i in m.find_seq(&["Ordering", "::", variant], true) {
            out.push(finding(
                m,
                i,
                format!(
                    "Ordering::{variant} outside rbcast-core's obs/engine modules: \
                     an ad-hoc atomic ordering choice is a determinism and \
                     correctness hazard reviewers cannot see; route the counter \
                     through obs::Counter / the engine, or annotate \
                     audit:allow(atomic-ordering) stating why this ordering is \
                     sufficient"
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

fn check_raw_socket_io(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.transport_module() {
        return Vec::new();
    }
    // `std :: net` catches qualified paths and `use` imports; the bare
    // type names catch anything brought into scope another way. The
    // socket types also match inside `std::net::…` paths, which just
    // means a fully qualified open reports twice — both findings point
    // at the same line, and both are correct.
    scan_seqs(
        m,
        &[
            &["std", "::", "net"],
            &["UdpSocket"],
            &["TcpStream"],
            &["TcpListener"],
        ],
        |p| {
            format!(
                "raw socket I/O ({}) outside rbcast-net's transport module: code \
                 above the transport must stay behind the Datagram trait so the \
                 loopback parity oracle and the UDP cluster run the identical \
                 protocol/link/runtime path; take a `dyn Datagram` instead (or \
                 annotate audit:allow(raw-socket) with a layering argument)",
                p.join("")
            )
        },
    )
}

fn check_env_read(m: &FileModel, ctx: &Ctx) -> Vec<Finding> {
    if m.rel == ctx.config_module() {
        return Vec::new();
    }
    scan_seqs(
        m,
        &[&["env", "::", "var"], &["env", "::", "var_os"]],
        |_| {
            "process-environment read outside the config layer: scattered \
         RBCAST_* reads make knobs undiscoverable and untestable; read \
         through rbcast_core::config::env_var (or annotate \
         audit:allow(env-read) for a knob that genuinely cannot route \
         through the config layer)"
                .to_string()
        },
    )
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

    fn run(check: fn(&FileModel, &Ctx) -> Vec<Finding>, m: &FileModel) -> Vec<usize> {
        let idx = ctx_over(std::slice::from_ref(m));
        let ctx = Ctx { index: &idx };
        check(m, &ctx).iter().map(|f| f.line).collect()
    }

    #[test]
    fn unordered_fires_on_hashmap_tokens_only() {
        let f = file(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap;\nstruct MyHashMapLike;\nlet s = \"HashMap\";\n",
        );
        assert_eq!(run(check_unordered, &f), vec![1]);
    }

    #[test]
    fn unordered_skips_test_mods() {
        let f = file(
            "crates/sim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n",
        );
        assert!(run(check_unordered, &f).is_empty());
    }

    #[test]
    fn float_eq_fires_on_literal_and_f64_comparisons() {
        let f = file(
            "crates/grid/src/x.rs",
            "fn g(dist: f64, a: u32, b: f64, n: u32) {\nif dist == 1.0 { }\nif (a as f64) != b { }\nif n == 3 { }\n}\n",
        );
        assert_eq!(run(check_float_eq, &f), vec![2, 3]);
    }

    #[test]
    fn float_eq_sees_multi_line_comparisons() {
        // The old per-line engine missed a comparison whose float operand
        // sat on the next line.
        let f = file(
            "crates/grid/src/x.rs",
            "fn g(dist: f64) -> bool {\n    dist ==\n        1.0\n}\n",
        );
        assert_eq!(run(check_float_eq, &f), vec![2]);
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
        assert!(run(check_float_eq, &f).is_empty());
    }

    #[test]
    fn unwrap_panic_fires_and_expect_is_fine() {
        let f = file(
            "crates/flow/src/x.rs",
            "let a = x.unwrap();\nlet b = y.expect(\"invariant\");\npanic!(\"boom\");\n",
        );
        assert_eq!(run(check_unwrap_panic, &f), vec![1, 3]);
    }

    #[test]
    fn unwrap_split_across_lines_is_caught() {
        let f = file("crates/flow/src/x.rs", "let a = x\n    .unwrap\n    ();\n");
        assert_eq!(run(check_unwrap_panic, &f), vec![2]);
    }

    #[test]
    fn nondeterminism_fires_and_ignores_strings_and_comments() {
        let f = file(
            "crates/protocols/src/x.rs",
            "let r = rand::thread_rng();\n// thread_rng banned\nlet s = \"Instant::now\";\n",
        );
        assert_eq!(run(check_nondeterminism, &f), vec![1]);
    }

    #[test]
    fn nondeterminism_catches_multi_line_instant_now() {
        let f = file("crates/sim/src/x.rs", "let t = Instant::\n    now();\n");
        assert_eq!(run(check_nondeterminism, &f), vec![1]);
    }

    #[test]
    fn obs_wallclock_exempts_the_defining_module() {
        let obs = file(
            "crates/core/src/obs.rs",
            "pub fn span() {}\nfn t() { let _ = Instant::now(); }\n",
        );
        let other = file(
            "crates/bench/src/perf.rs",
            "let t0 = std::time::Instant::now();\n",
        );
        let idx = ctx_over(&[/* obs defines span */ FileModel::parse(
            Path::new("crates/core/src/obs.rs"),
            "pub fn span() {}\n",
        )]);
        let ctx = Ctx { index: &idx };
        assert!(check_obs_wallclock(&obs, &ctx).is_empty());
        assert_eq!(check_obs_wallclock(&other, &ctx).len(), 1);
    }

    #[test]
    fn raw_thread_spawn_and_catch_unwind_follow_their_modules() {
        let idx = WorkspaceIndex::default();
        let ctx = Ctx { index: &idx };
        let eng = file("crates/core/src/engine.rs", "std::thread::scope(|s| {});\n");
        assert!(check_raw_thread_spawn(&eng, &ctx).is_empty());
        let sup = file(
            "crates/core/src/supervisor.rs",
            "let r = panic::catch_unwind(f);\n",
        );
        assert!(check_catch_unwind(&sup, &ctx).is_empty());
        let elsewhere = file("crates/sim/src/w.rs", "let h = std::thread::spawn(|| 7);\n");
        assert_eq!(check_raw_thread_spawn(&elsewhere, &ctx).len(), 1);
    }

    #[test]
    fn lint_header_requires_both_attributes() {
        let idx = WorkspaceIndex::default();
        let ctx = Ctx { index: &idx };
        let f = file("crates/grid/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let v = check_lint_header(&f, &ctx);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("missing_docs"));
        let ok = file(
            "crates/grid/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
        );
        assert!(check_lint_header(&ok, &ctx).is_empty());
        let not_root = file("crates/grid/src/torus.rs", "fn f() {}\n");
        assert!(check_lint_header(&not_root, &ctx).is_empty());
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
        assert_eq!(run(check_hot_loop_alloc, &f), vec![4, 5]);
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
        let v = run(check_hot_loop_alloc, &f);
        assert_eq!(v, vec![2]);
        let msgs = check_hot_loop_alloc(
            &f,
            &Ctx {
                index: &WorkspaceIndex::default(),
            },
        );
        assert!(msgs[0].message.contains("on_message body"));
    }

    #[test]
    fn atomic_ordering_flags_variants_not_cmp_ordering() {
        let f = file(
            "crates/flow/src/x.rs",
            "a.fetch_add(1, Ordering::Relaxed);\nlet c = Ordering::Less;\nuse std::sync::atomic::Ordering;\n",
        );
        assert_eq!(run(check_atomic_ordering, &f), vec![1]);
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
        assert_eq!(run(check_threshold_arith, &f), vec![1, 1]);
    }

    #[test]
    fn threshold_arith_only_applies_in_threshold_modules() {
        let f = file(
            "crates/core/src/engine.rs",
            "fn f(a: usize) -> usize { a * 2 }\n",
        );
        assert!(run(check_threshold_arith, &f).is_empty());
    }

    #[test]
    fn threshold_arith_ignores_deref_and_flags_shift() {
        let f = file(
            "crates/core/src/thresholds.rs",
            "pub fn deref(p: &u32) -> u32 { let x = *p; x }\n\
             pub fn shl(r: u32) -> u32 { r << 1 }\n",
        );
        assert_eq!(run(check_threshold_arith, &f), vec![2]);
    }

    #[test]
    fn raw_socket_io_confined_to_transport_module() {
        let idx = WorkspaceIndex::default();
        let ctx = Ctx { index: &idx };
        let transport = file(
            "crates/net/src/transport.rs",
            "pub struct UdpTransport;\nlet s = std::net::UdpSocket::bind(a).expect(\"bind\");\n",
        );
        assert!(check_raw_socket_io(&transport, &ctx).is_empty());
        let elsewhere = file(
            "crates/sim/src/w.rs",
            "let s = std::net::UdpSocket::bind(a).expect(\"bind\");\nlet t = TcpListener::bind(a);\n// UdpSocket in a comment is fine\n",
        );
        let v = check_raw_socket_io(&elsewhere, &ctx);
        // Line 1 matches both the `std::net` path and the bare type.
        let lines: Vec<usize> = v.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 1, 2]);
    }

    #[test]
    fn raw_socket_io_follows_the_udp_transport_definition() {
        // The exemption tracks wherever `struct UdpTransport` lives, not
        // a hard-coded path.
        let moved = file(
            "crates/net/src/udp.rs",
            "pub struct UdpTransport;\nuse std::net::UdpSocket;\n",
        );
        assert!(run(check_raw_socket_io, &moved).is_empty());
    }

    #[test]
    fn env_read_confined_to_config_module() {
        let idx = WorkspaceIndex::default();
        let ctx = Ctx { index: &idx };
        let cfg = file(
            "crates/core/src/config.rs",
            "let v = std::env::var(\"RBCAST_X\");\n",
        );
        assert!(check_env_read(&cfg, &ctx).is_empty());
        let eng = file(
            "crates/core/src/engine.rs",
            "let v = std::env::var(\"RBCAST_X\");\n",
        );
        assert_eq!(check_env_read(&eng, &ctx).len(), 1);
    }

    #[test]
    fn allow_names_and_ids_both_resolve() {
        assert!(is_known_allow_name("unordered"));
        assert!(is_known_allow_name("unordered-iteration"));
        assert!(is_known_allow_name("hot-loop-alloc"));
        assert!(!is_known_allow_name("wall-clock-typo"));
        let rule = rule_by_id("nondeterminism").expect("rule exists");
        assert!(allow_name_matches(rule, "wall-clock"));
        assert!(allow_name_matches(rule, "nondeterminism"));
        assert!(!allow_name_matches(rule, "obs-wallclock"));
    }

    #[test]
    fn scoping_is_component_wise() {
        let rule = rule_by_id("unordered-iteration").expect("rule exists");
        assert!(rule.applies_to(Path::new("crates/sim/src/network.rs")));
        assert!(!rule.applies_to(Path::new("crates/simx/src/network.rs")));
        assert!(!rule.applies_to(Path::new("crates/grid/src/torus.rs")));
    }
}
