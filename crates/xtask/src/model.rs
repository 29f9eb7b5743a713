//! Structural source model on top of the token stream.
//!
//! [`FileModel`] analyses one file in a single pass over the lexer's
//! tokens and gives the rules everything the old per-line view could
//! not express:
//!
//! * a *code view* (comments filtered out, string/char literal contents
//!   blanked inside the token text) that token queries run over, so a
//!   construct split across lines is still one match;
//! * brace-matched block nesting with `#[cfg(test)]` / `#[test]` region
//!   tracking (rules apply to shipped code, not tests);
//! * loop-depth per token (`for`/`while`/`loop` bodies), which powers
//!   the hot-path allocation rule;
//! * `fn` item spans, which power function-scoped dataflow rules such
//!   as `checked-threshold-arith`;
//! * the `audit:allow(...)` suppression sites, with the *strict*
//!   attachment discipline: a trailing comment covers its own line,
//!   while a standalone comment line attaches to the next line only
//!   when its content is nothing but the annotation (plus an optional
//!   rationale introduced by `:` or `—`). Prose that merely mentions
//!   an annotation attaches to nothing.

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};

/// Per-code-token structural facts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenMeta {
    /// Inside a `#[cfg(test)]` / `#[test]` item (attribute included).
    pub in_test: bool,
    /// Number of enclosing `for`/`while`/`loop` bodies.
    pub loop_depth: u16,
    /// Index into [`FileModel::fns`] of the nearest enclosing function.
    pub fn_idx: Option<usize>,
}

/// Span of one `fn` item, as indices into the *code* token view.
#[derive(Debug, Clone, Copy)]
pub struct FnSpan {
    /// Code index of the `fn` keyword.
    pub kw: usize,
    /// Code index of the body's closing `}` (inclusive end of item).
    pub close: usize,
    /// True when the whole item sits inside a test region.
    pub in_test: bool,
}

/// One `audit:allow(...)` annotation site.
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// 1-based line of the annotation comment.
    pub line: usize,
    /// Line whose findings the site suppresses (`None`: malformed, no
    /// attachment).
    pub covers: Option<usize>,
    /// Allow-names listed inside the parentheses.
    pub names: Vec<String>,
    /// Why the site failed to attach, when malformed.
    pub malformed: Option<String>,
}

/// A fully analysed source file.
#[derive(Debug)]
pub struct FileModel {
    /// Path relative to the audit root.
    pub rel: PathBuf,
    /// Every token, trivia included, in source order.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-trivia tokens ("code view").
    pub code: Vec<usize>,
    /// Structural facts, parallel to `code`.
    pub meta: Vec<TokenMeta>,
    /// All `fn` item spans, in source order.
    pub fns: Vec<FnSpan>,
    /// All suppression annotation sites, in source order.
    pub allows: Vec<AllowSite>,
}

impl FileModel {
    /// Lex and analyse `text` as the file `rel`.
    #[must_use]
    pub(crate) fn parse(rel: &Path, text: &str) -> Self {
        let tokens = lex(text);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].kind.is_trivia())
            .collect();
        let in_test = test_mask(&tokens, &code);
        let (meta, fns) = structure(&tokens, &code, &in_test);
        let allows = allow_sites(&tokens);
        FileModel {
            rel: rel.to_path_buf(),
            tokens,
            code,
            meta,
            fns,
            allows,
        }
    }

    /// Number of code tokens.
    #[must_use]
    pub(crate) fn code_len(&self) -> usize {
        self.code.len()
    }

    /// The `i`-th code token.
    #[must_use]
    pub(crate) fn ct(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Search text of the `i`-th code token: literal contents are
    /// blanked so a banned name inside a string cannot match.
    #[must_use]
    pub(crate) fn code_text(&self, i: usize) -> &str {
        let t = self.ct(i);
        if t.kind.is_textual_literal() {
            ""
        } else {
            &t.text
        }
    }

    /// Does the code token at `i` start the given `(text, …)` sequence?
    /// Each pattern entry matches one code token's full text.
    #[must_use]
    pub(crate) fn seq_at(&self, i: usize, pats: &[&str]) -> bool {
        pats.len() <= self.code.len().saturating_sub(i)
            && pats
                .iter()
                .enumerate()
                .all(|(k, p)| self.code_text(i + k) == *p)
    }

    /// All code indices where `pats` matches (non-test tokens only when
    /// `skip_tests`).
    #[must_use]
    pub(crate) fn find_seq(&self, pats: &[&str], skip_tests: bool) -> Vec<usize> {
        (0..self.code.len())
            .filter(|&i| !(skip_tests && self.meta[i].in_test) && self.seq_at(i, pats))
            .collect()
    }

    /// `(line, col)` of the `i`-th code token.
    #[must_use]
    pub(crate) fn at(&self, i: usize) -> (usize, usize) {
        let t = self.ct(i);
        (t.line, t.col)
    }
}

/// Mark code tokens covered by `#[cfg(test)]` / `#[test]` items,
/// attribute included — the token-level port of the old line mask.
fn test_mask(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let n = code.len();
    let text = |i: usize| -> &str { &tokens[code[i]].text };
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        if !(text(i) == "#" && i + 1 < n && text(i + 1) == "[") {
            i += 1;
            continue;
        }
        // Scan the attribute group to its matching `]`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut is_test = false;
        let mut negated = false;
        while j < n {
            match text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "not" => negated = true,
                "test" => is_test = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test || negated {
            i = j + 1;
            continue;
        }
        // Mark the attribute, any further attributes, then the item:
        // through the brace-balanced body or to the terminating `;`.
        for m in mask.iter_mut().take(j + 1).skip(i) {
            *m = true;
        }
        let mut k = j + 1;
        let mut braces = 0i32;
        let mut entered = false;
        while k < n {
            mask[k] = true;
            match text(k) {
                "{" => {
                    braces += 1;
                    entered = true;
                }
                "}" => {
                    braces -= 1;
                    if entered && braces <= 0 {
                        break;
                    }
                }
                ";" if !entered && braces == 0 => break,
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
    mask
}

/// One entry on the block stack of the structural pass.
#[derive(Debug, Clone, Copy)]
struct Block {
    is_loop: bool,
    fn_idx: Option<usize>,
}

/// Compute per-token structure (loop depth, enclosing fn) and fn spans.
fn structure(tokens: &[Token], code: &[usize], in_test: &[bool]) -> (Vec<TokenMeta>, Vec<FnSpan>) {
    let n = code.len();
    let text = |i: usize| -> &str { &tokens[code[i]].text };
    let kind = |i: usize| tokens[code[i]].kind;

    let mut meta = vec![TokenMeta::default(); n];
    let mut fns: Vec<FnSpan> = Vec::new();
    let mut stack: Vec<Block> = Vec::new();
    // Open-fn bookkeeping: fns index -> filled `close` when popped.
    let mut loop_pending = false;
    let mut loop_delims = 0i32; // paren/bracket depth inside a loop header
    let mut fn_pending: Option<usize> = None; // code idx of `fn` keyword
    let mut impl_header = false;

    let mut loop_depth: u16 = 0;

    for i in 0..n {
        let t = text(i);
        let is_kw = kind(i) == TokenKind::Ident;

        // Resolve structural effects first for `{`, last for `}`.
        if t == "{" {
            let opens_loop = loop_pending && loop_delims == 0;
            let opens_fn = fn_pending.take().map(|kw| {
                fns.push(FnSpan {
                    kw,
                    close: usize::MAX,
                    in_test: in_test[kw],
                });
                fns.len() - 1
            });
            if opens_loop {
                loop_pending = false;
                loop_depth += 1;
            }
            stack.push(Block {
                is_loop: opens_loop,
                fn_idx: opens_fn.or_else(|| stack.last().and_then(|b| b.fn_idx)),
            });
            impl_header = false;
        }

        meta[i] = TokenMeta {
            in_test: in_test[i],
            loop_depth,
            fn_idx: stack.last().and_then(|b| b.fn_idx),
        };

        match t {
            "}" => {
                if let Some(b) = stack.pop() {
                    if b.is_loop {
                        loop_depth = loop_depth.saturating_sub(1);
                    }
                    if let Some(fi) = b.fn_idx {
                        // Closing the fn's own body (not an inner block).
                        let inner_still_open = stack.last().and_then(|s| s.fn_idx) == Some(fi);
                        if !inner_still_open && fns[fi].close == usize::MAX {
                            fns[fi].close = i;
                        }
                    }
                }
            }
            "(" | "[" if loop_pending => loop_delims += 1,
            ")" | "]" if loop_pending => loop_delims -= 1,
            ";" => {
                // A `;` before any body cancels a pending fn (trait decl
                // or `fn()` pointer type) and closes an impl header.
                if loop_delims == 0 {
                    fn_pending = None;
                }
                impl_header = false;
            }
            "impl" if is_kw => impl_header = true,
            "fn" if is_kw => fn_pending = Some(i),
            "for" | "while" | "loop" if is_kw => {
                // `impl Trait for Type` and HRTB `for<'a>` are not loops.
                let hrtb = t == "for" && i + 1 < n && text(i + 1) == "<";
                if !(impl_header || hrtb) {
                    loop_pending = true;
                    loop_delims = 0;
                }
            }
            _ => {}
        }
    }
    // Unterminated fns (truncated file): close at the last token.
    for f in &mut fns {
        if f.close == usize::MAX {
            f.close = n.saturating_sub(1);
        }
    }
    (meta, fns)
}

const MARKER: &str = "audit:allow(";

/// Extract suppression sites from the comment tokens.
fn allow_sites(tokens: &[Token]) -> Vec<AllowSite> {
    // First token on each line (trivia included) — a comment that is not
    // first on its line is a trailing comment.
    let mut first_on_line: Vec<(usize, usize)> = Vec::new(); // (line, tok idx)
    for (i, t) in tokens.iter().enumerate() {
        if first_on_line.last().map(|&(l, _)| l) != Some(t.line) {
            first_on_line.push((t.line, i));
        }
    }
    let is_first = |i: usize, line: usize| {
        first_on_line
            .binary_search_by_key(&line, |&(l, _)| l)
            .is_ok_and(|slot| first_on_line[slot].1 == i)
    };

    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment || !t.text.contains(MARKER) {
            continue;
        }
        if is_first(i, t.line) {
            // Standalone comment line: strict attachment discipline.
            let content = t.text.trim_start_matches('/').trim();
            if let Some(rest) = content.strip_prefix(MARKER) {
                match rest.find(')') {
                    Some(close) => {
                        let names = parse_names(&rest[..close]);
                        let tail = rest[close + 1..].trim_start();
                        if tail.is_empty() || tail.starts_with(':') || tail.starts_with('—') {
                            out.push(AllowSite {
                                line: t.line,
                                covers: Some(t.line + 1),
                                names,
                                malformed: None,
                            });
                        } else {
                            out.push(AllowSite {
                                line: t.line,
                                covers: None,
                                names,
                                malformed: Some(
                                    "rationale after the annotation must be introduced by \
                                     `:` or `—` for the comment to attach to the next line"
                                        .to_string(),
                                ),
                            });
                        }
                    }
                    None => out.push(AllowSite {
                        line: t.line,
                        covers: None,
                        names: Vec::new(),
                        malformed: Some("unclosed `audit:allow(`".to_string()),
                    }),
                }
            }
            // Prose that mentions the marker mid-comment attaches to
            // nothing: the finding it used to mask will surface.
        } else {
            // Trailing comment: covers its own line; the annotation may
            // sit anywhere in the comment text.
            let mut rest = t.text.as_str();
            while let Some(pos) = rest.find(MARKER) {
                let after = &rest[pos + MARKER.len()..];
                match after.find(')') {
                    Some(close) => {
                        out.push(AllowSite {
                            line: t.line,
                            covers: Some(t.line),
                            names: parse_names(&after[..close]),
                            malformed: None,
                        });
                        rest = &after[close + 1..];
                    }
                    None => {
                        out.push(AllowSite {
                            line: t.line,
                            covers: None,
                            names: Vec::new(),
                            malformed: Some("unclosed `audit:allow(`".to_string()),
                        });
                        break;
                    }
                }
            }
        }
    }
    out
}

fn parse_names(inside: &str) -> Vec<String> {
    inside
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model(src: &str) -> FileModel {
        FileModel::parse(Path::new("crates/sim/src/x.rs"), src)
    }

    #[test]
    fn multi_line_sequence_matches() {
        let m = model("let t =\n    Instant::\n    now();\n");
        let hits = m.find_seq(&["Instant", "::", "now"], true);
        assert_eq!(hits.len(), 1);
        assert_eq!(m.at(hits[0]).0, 2); // reported at the Instant token
    }

    #[test]
    fn literal_contents_do_not_match() {
        let m = model("let s = \"Instant::now()\";\nlet r = r#\"HashMap\"#;\n");
        assert!(m.find_seq(&["Instant", "::", "now"], true).is_empty());
        assert!(m.find_seq(&["HashMap"], true).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let m = model("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { panic!(\"x\") }\n}\nfn after() { }\n");
        let panics = m.find_seq(&["panic", "!"], true);
        assert!(panics.is_empty(), "test-mod panic must be masked");
        let unmasked = m.find_seq(&["panic", "!"], false);
        assert_eq!(unmasked.len(), 1);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let m = model("#[cfg(not(test))]\nfn live() { panic!(\"x\") }\n");
        assert_eq!(m.find_seq(&["panic", "!"], true).len(), 1);
    }

    #[test]
    fn braceless_cfg_test_item_is_masked() {
        let m = model("#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n");
        assert!(m.find_seq(&["HashMap"], true).is_empty());
    }

    #[test]
    fn loop_depth_tracks_for_while_loop() {
        let m = model(
            "fn f(v: &[u32]) {\n\
             let a = v.to_vec();\n\
             for x in v {\n    let b = v.to_vec();\n    while *x > 0 {\n        let c = v.to_vec();\n    }\n}\n}\n",
        );
        let sites = m.find_seq(&[".", "to_vec"], true);
        let depths: Vec<u16> = sites.iter().map(|&i| m.meta[i].loop_depth).collect();
        assert_eq!(depths, vec![0, 1, 2]);
    }

    #[test]
    fn impl_for_and_hrtb_are_not_loops() {
        let m = model(
            "impl Clone for Foo {\n    fn clone(&self) -> Foo { Foo }\n}\n\
             fn g<T: for<'a> Fn(&'a u8)>(t: T) { t(&1); }\n",
        );
        assert!(m.meta.iter().all(|mt| mt.loop_depth == 0));
    }

    #[test]
    fn closure_brace_in_loop_header_does_not_eat_the_body() {
        let m = model("fn f(v: Vec<u32>) {\nfor x in v.iter().map(|y| { y + 1 }) {\n    let z = format!(\"{x}\");\n}\n}\n");
        let fmt = m.find_seq(&["format", "!"], true);
        assert_eq!(fmt.len(), 1);
        assert_eq!(m.meta[fmt[0]].loop_depth, 1);
    }

    #[test]
    fn fn_spans_enclose_their_tokens() {
        let m = model("fn a() { let x = 1; }\nfn b() { let y = 2 * 3; }\n");
        assert_eq!(m.fns.len(), 2);
        let mult = m.find_seq(&["*"], true)[0];
        let fi = m.meta[mult].fn_idx.expect("inside fn b");
        assert_eq!(m.code_text(m.fns[fi].kw + 1), "b");
    }

    #[test]
    fn trailing_allow_covers_its_line() {
        let m = model("let t = now(); // audit:allow(wall-clock) measured once at startup\n");
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].covers, Some(1));
        assert_eq!(m.allows[0].names, vec!["wall-clock"]);
    }

    #[test]
    fn strict_standalone_allow_attaches_to_next_line() {
        for src in [
            "// audit:allow(unordered, panic)\nlet m = 1;\n",
            "// audit:allow(unordered, panic): scratch map, drained sorted\nlet m = 1;\n",
            "// audit:allow(unordered, panic) — scratch map, drained sorted\nlet m = 1;\n",
        ] {
            let m = model(src);
            assert_eq!(m.allows.len(), 1, "{src}");
            assert_eq!(m.allows[0].covers, Some(2), "{src}");
            assert_eq!(m.allows[0].names, vec!["unordered", "panic"], "{src}");
        }
    }

    #[test]
    fn prose_mention_does_not_attach() {
        // The old model attached ANY annotation in the preceding comment;
        // prose mentioning one must no longer suppress anything.
        let m = model("// helper; see audit:allow(panic) in engine.rs\npanic!(\"x\");\n");
        assert!(m.allows.is_empty());
    }

    #[test]
    fn unintroduced_rationale_is_malformed_not_attached() {
        let m = model("// audit:allow(panic) bare prose rationale\npanic!(\"x\");\n");
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].covers, None);
        assert!(m.allows[0].malformed.is_some());
        assert_eq!(m.allows[0].names, vec!["panic"]);
    }

    #[test]
    fn annotation_inside_string_is_not_a_site() {
        let m = model("let s = \"// audit:allow(panic)\";\npanic!(\"x\");\n");
        assert!(m.allows.is_empty());
    }
}
