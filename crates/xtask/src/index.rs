//! Workspace-wide symbol index.
//!
//! Built in one pass over every analysed file, the index records where
//! each named item (`fn`, `struct`, `enum`, `trait`, `mod`, `const`,
//! `static`, `type`) is defined. Rules use it to resolve their *exempt
//! modules by meaning instead of by path*: the `obs-wallclock` rule,
//! for example, exempts "the file that defines `fn span`" — so the
//! exemption follows the code if `obs.rs` is ever renamed or split,
//! and falls back to the historical path when the symbol cannot be
//! resolved uniquely (e.g. inside the fixture trees, which are audited
//! as miniature workspaces of their own).
//!
//! The same pass records every identifier a file names, keyed by the
//! compilation unit that names it (see `library_of`), so the
//! `unused-pub` rule can ask whether a library item has a caller outside
//! its own crate. Identifiers inside a fenced code block of a `///` or
//! `//!` doc comment count too: a doctest compiles as a crate of its
//! own. Names in comments and string literals never count, nor do the
//! paths of a `pub use` re-export.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Component, Path, PathBuf};

use crate::lexer::{lex, TokenKind};
use crate::model::FileModel;

/// Trees whose files may reference a library item from outside its
/// crate, beyond the rules' own scopes: every package's tests,
/// examples and benches, and the out-of-workspace `benchmark/` package.
/// A `*` component matches any one directory.
pub(crate) const REFERENCE_ROOTS: &[&str] = &[
    "src",
    "tests",
    "examples",
    "benches",
    "crates/*/src",
    "crates/*/tests",
    "crates/*/examples",
    "crates/*/benches",
    "benchmark/src",
    "benchmark/tests",
    "benchmark/examples",
    "benchmark/benches",
];

/// The package whose library target compiles `rel`: `crates/<pkg>` for
/// a file under `crates/<pkg>/src`, `""` for the root package's `src`.
/// `None` for every other file: a binary (`main.rs`, `bin/`), a test,
/// example, bench or `benchmark/` file is a crate of its own.
#[must_use]
pub(crate) fn library_of(rel: &Path) -> Option<String> {
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| match c {
            Component::Normal(s) => s.to_str(),
            _ => None,
        })
        .collect();
    let (package, rest) = match parts.as_slice() {
        ["crates", pkg, "src", rest @ ..] => (format!("crates/{pkg}"), rest),
        ["src", rest @ ..] => (String::new(), rest),
        _ => return None,
    };
    match rest {
        ["main.rs"] | ["bin", ..] => None,
        _ => Some(package),
    }
}

/// Item kinds the index records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ItemKind {
    /// `fn` item.
    Fn,
    /// `struct` item.
    Struct,
    /// `enum` item.
    Enum,
    /// `trait` item.
    Trait,
    /// `mod` item.
    Mod,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
}

impl ItemKind {
    fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "fn" => ItemKind::Fn,
            "struct" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "trait" => ItemKind::Trait,
            "mod" => ItemKind::Mod,
            "const" => ItemKind::Const,
            "static" => ItemKind::Static,
            "type" => ItemKind::TypeAlias,
            _ => return None,
        })
    }
}

/// One item definition.
#[derive(Debug, Clone)]
pub struct ItemDef {
    /// Item kind.
    pub kind: ItemKind,
    /// File the definition lives in, relative to the audit root.
    pub file: PathBuf,
    /// 1-based line of the defining keyword.
    pub line: usize,
    /// Whether the definition sits inside a test region.
    pub in_test: bool,
}

/// Symbol index over every file the audit loaded.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    defs: BTreeMap<(ItemKind, String), Vec<ItemDef>>,
    /// Identifier → the units naming it (`Some(package)` for a library
    /// target, `None` for any other crate, doctests included).
    refs: BTreeMap<String, BTreeSet<Option<String>>>,
}

impl WorkspaceIndex {
    /// Build the index over a set of analysed files.
    #[must_use]
    pub(crate) fn build(models: &[FileModel]) -> Self {
        let mut defs: BTreeMap<(ItemKind, String), Vec<ItemDef>> = BTreeMap::new();
        let mut refs: BTreeMap<String, BTreeSet<Option<String>>> = BTreeMap::new();
        for m in models {
            record_refs(m, &mut refs);
            for i in 0..m.code_len() {
                let t = m.ct(i);
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let Some(kind) = ItemKind::from_keyword(&t.text) else {
                    continue;
                };
                // `kw Name` with Name an identifier defines an item;
                // skip uses like `mod x;` vs `x::mod`? — a preceding
                // `::`/`.` token means this is not a definition keyword.
                if i > 0 && matches!(m.code_text(i - 1), "::" | "." | "->" | "<" | "&") {
                    continue;
                }
                // `const` in `const fn` / `const N: usize` — only index
                // when an identifier follows directly.
                let Some(next) = (i + 1 < m.code_len()).then(|| m.ct(i + 1)) else {
                    continue;
                };
                if next.kind != TokenKind::Ident || ItemKind::from_keyword(&next.text).is_some() {
                    continue;
                }
                defs.entry((kind, next.text.clone()))
                    .or_default()
                    .push(ItemDef {
                        kind,
                        file: m.rel.clone(),
                        line: t.line,
                        in_test: m.meta[i].in_test,
                    });
            }
        }
        WorkspaceIndex { defs, refs }
    }

    /// Whether some compilation unit other than `package`'s library
    /// names `name` (see [`library_of`] for the package key).
    #[must_use]
    pub(crate) fn referenced_outside(&self, name: &str, package: &str) -> bool {
        self.refs
            .get(name)
            .is_some_and(|units| units.iter().any(|u| u.as_deref() != Some(package)))
    }

    /// All definitions of `name` as a `kind` item.
    #[must_use]
    fn defs(&self, kind: ItemKind, name: &str) -> &[ItemDef] {
        self.defs
            .get(&(kind, name.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// The unique non-test file defining `name` as a `kind` item, or
    /// `None` when the symbol is missing or ambiguous.
    #[must_use]
    fn unique_defining_file(&self, kind: ItemKind, name: &str) -> Option<&Path> {
        let mut files: Vec<&Path> = self
            .defs(kind, name)
            .iter()
            .filter(|d| !d.in_test)
            .map(|d| d.file.as_path())
            .collect();
        files.sort_unstable();
        files.dedup();
        match files.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }

    /// Resolve an exempt module: the unique defining file of
    /// `(kind, name)` when the index knows it, else `fallback` — which
    /// keeps fixture trees (miniature workspaces without the real
    /// definitions) anchored to the historical layout.
    #[must_use]
    pub(crate) fn exempt_file(
        &self,
        kind: ItemKind,
        name: &str,
        fallback: &'static str,
    ) -> PathBuf {
        self.unique_defining_file(kind, name)
            .map_or_else(|| PathBuf::from(fallback), Path::to_path_buf)
    }
}

/// Record the identifiers `m` names: its code outside `pub use`
/// re-exports, under the file's own unit, and the code blocks of its
/// doc comments, under `None` (a doctest is a crate of its own).
fn record_refs(m: &FileModel, refs: &mut BTreeMap<String, BTreeSet<Option<String>>>) {
    let unit = library_of(&m.rel);
    let mut add = |name: &str, unit: &Option<String>| {
        if !refs.get(name).is_some_and(|units| units.contains(unit)) {
            refs.entry(name.to_string())
                .or_default()
                .insert(unit.clone());
        }
    };
    let mut reexport = false;
    for i in 0..m.code_len() {
        let t = m.ct(i);
        if t.kind != TokenKind::Ident {
            reexport &= t.text != ";";
            continue;
        }
        // `pub use` / `pub(…) use`: a path to the item, not a use of it.
        if t.text == "use" && i > 0 && matches!(m.code_text(i - 1), "pub" | ")") {
            reexport = true;
        }
        if !reexport {
            add(&t.text, &unit);
        }
    }
    let mut fence = Fence::Outside;
    for t in &m.tokens {
        if t.kind != TokenKind::DocComment {
            if !t.kind.is_trivia() {
                fence = Fence::Outside;
            }
            continue;
        }
        let line = t.text.get(3..).unwrap_or("");
        if let Some(info) = line.trim_start().strip_prefix("```") {
            fence = match fence {
                Fence::Outside if is_rust_fence(info) => Fence::Rust,
                Fence::Outside => Fence::Other,
                _ => Fence::Outside,
            };
        } else if fence == Fence::Rust {
            for tok in lex(line) {
                if tok.kind == TokenKind::Ident {
                    add(&tok.text, &None);
                }
            }
        }
    }
}

/// Where a doc-comment line sits relative to a fenced code block.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fence {
    Outside,
    /// Inside a block rustdoc compiles as a doctest.
    Rust,
    /// Inside a block of another language (`text`, `sh`, …).
    Other,
}

/// Does a fence's info string mark a block rustdoc compiles? Empty,
/// `rust` and rustdoc's own attributes do; `ignore`, `text` and any
/// other language do not.
fn is_rust_fence(info: &str) -> bool {
    info.split(',').map(str::trim).all(|a| {
        matches!(a, "" | "rust" | "no_run" | "should_panic" | "compile_fail")
            || a.starts_with("edition")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(rel, src)| FileModel::parse(Path::new(rel), src))
            .collect()
    }

    #[test]
    fn indexes_items_across_files() {
        let ms = models(&[
            (
                "crates/a/src/lib.rs",
                "pub fn span() {}\npub struct Stopwatch;\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn other() {}\nmod inner { pub fn span_like() {} }\n",
            ),
        ]);
        let idx = WorkspaceIndex::build(&ms);
        assert_eq!(
            idx.unique_defining_file(ItemKind::Fn, "span"),
            Some(Path::new("crates/a/src/lib.rs"))
        );
        assert_eq!(
            idx.unique_defining_file(ItemKind::Struct, "Stopwatch"),
            Some(Path::new("crates/a/src/lib.rs"))
        );
        assert_eq!(idx.unique_defining_file(ItemKind::Fn, "absent"), None);
    }

    #[test]
    fn ambiguous_or_test_only_defs_resolve_to_fallback() {
        let ms = models(&[
            ("crates/a/src/lib.rs", "pub fn dup() {}\n"),
            ("crates/b/src/lib.rs", "pub fn dup() {}\n"),
            (
                "crates/c/src/lib.rs",
                "#[cfg(test)]\nmod t { fn only_in_test() {} }\n",
            ),
        ]);
        let idx = WorkspaceIndex::build(&ms);
        assert_eq!(idx.unique_defining_file(ItemKind::Fn, "dup"), None);
        assert_eq!(
            idx.exempt_file(ItemKind::Fn, "dup", "crates/a/src/lib.rs"),
            PathBuf::from("crates/a/src/lib.rs")
        );
        assert_eq!(idx.unique_defining_file(ItemKind::Fn, "only_in_test"), None);
    }

    #[test]
    fn const_fn_indexes_the_fn_not_a_const() {
        let ms = models(&[(
            "crates/a/src/lib.rs",
            "pub const fn f() -> u32 { 1 }\nconst LIMIT: u32 = 3;\n",
        )]);
        let idx = WorkspaceIndex::build(&ms);
        assert_eq!(idx.defs(ItemKind::Const, "LIMIT").len(), 1);
        assert_eq!(idx.defs(ItemKind::Fn, "f").len(), 1);
        assert!(idx.defs(ItemKind::Const, "fn").is_empty());
    }

    #[test]
    fn library_units_follow_cargo_targets() {
        let lib = |p: &str| library_of(Path::new(p));
        assert_eq!(
            lib("crates/sim/src/network.rs").as_deref(),
            Some("crates/sim")
        );
        assert_eq!(lib("src/cli.rs").as_deref(), Some(""));
        for other in [
            "src/main.rs",
            "crates/bench/src/main.rs",
            "crates/bench/src/bin/x.rs",
            "crates/core/tests/sim_counts.rs",
            "tests/journal_write_failure.rs",
            "examples/quickstart.rs",
            "benchmark/src/wl_sim.rs",
        ] {
            assert_eq!(lib(other), None, "{other}");
        }
    }

    #[test]
    fn references_count_per_unit_and_skip_comments_strings_and_reexports() {
        let ms = models(&[
            (
                "crates/a/src/lib.rs",
                "pub fn own() {}\npub fn helper() { own(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub use a::reexported;\n// a::in_comment()\n\
                 fn f() { let s = \"in_string\"; a::helper(); }\n",
            ),
            (
                "crates/a/src/doc.rs",
                "/// ```\n/// a::in_doctest();\n/// ```\n/// ```text\n/// a::in_text();\n/// ```\nfn g() {}\n",
            ),
            ("benchmark/src/main.rs", "fn main() { a::from_bench(); }\n"),
        ]);
        let idx = WorkspaceIndex::build(&ms);
        let outside = |name: &str| idx.referenced_outside(name, "crates/a");
        assert!(!outside("own"), "a name used only inside its crate");
        assert!(outside("helper"));
        assert!(outside("in_doctest"));
        assert!(outside("from_bench"));
        for never in ["reexported", "in_comment", "in_string", "in_text"] {
            assert!(!outside(never), "{never}");
        }
    }
}
