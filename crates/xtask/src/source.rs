//! Legacy line-blanking analysis, retained as a differential oracle.
//!
//! Until PR 6 the audit worked on a per-line view of each file in which
//! comments and string literals had been blanked to spaces. The audit
//! proper now runs on the token model ([`crate::lexer`] /
//! [`crate::model`]); this module keeps the old blanker alive for one
//! purpose: the differential self-test below lexes every `.rs` file in
//! the workspace and checks that [`blanked_view`] — reconstructed from
//! tokens — agrees byte-for-byte with
//! [`blank_comments_and_strings`]. Any divergence is either a lexer bug
//! or a documented fix over the legacy behaviour, and the known-fix
//! fixtures in the tests enumerate the latter.
//!
//! The legacy rendering rules the token view reproduces:
//!
//! * `//`, `/*`, `*/` introducers become two spaces; comment interiors
//!   become spaces, newlines preserved;
//! * string/char interiors become spaces, delimiters kept; escape
//!   sequences become two spaces;
//! * raw-string prefixes (`r`, `#`s) become spaces with the opening
//!   quote kept; closing quote kept with trailing `#`s blanked.

use crate::lexer::{Token, TokenKind};

/// Replace comments and string/char literal contents with spaces,
/// preserving line structure so line/column positions stay meaningful.
///
/// This is the legacy audit's analysis core, kept as the reference
/// implementation for the differential self-test.
#[must_use]
fn blank_comments_and_strings(text: &str) -> String {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u8),
        Char,
    }

    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0u8;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        out.push('"');
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote within a few chars ('x', '\n', '\u{...}').
                    let lookahead: String = bytes[i + 1..bytes.len().min(i + 12)].iter().collect();
                    let is_char = if let Some(rest) = lookahead.strip_prefix('\\') {
                        rest.contains('\'')
                    } else {
                        lookahead.chars().nth(1) == Some('\'')
                    };
                    if is_char {
                        state = State::Char;
                        out.push('\'');
                        i += 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Preserve line structure across `\<newline>` string
                    // continuations and escaped quotes alike.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u8;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        state = State::Code;
                        out.push('"');
                        for _ in 0..hashes {
                            out.push(' ');
                        }
                        i = j;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                } else if c == '\'' {
                    state = State::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// Reconstruct the legacy "blanked" view of `text` from the token
/// stream: comments and literal contents become spaces (newlines kept),
/// everything else stays byte-identical. Rendering matches the legacy
/// [`blank_comments_and_strings`] exactly on input both
/// models classify the same way, which is what the differential
/// self-test exploits.
#[must_use]
fn blanked_view(text: &str, tokens: &[Token]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for t in tokens {
        if t.kind.is_trivia() {
            for c in &mut chars[t.start..t.end] {
                if *c != '\n' {
                    *c = ' ';
                }
            }
        } else if t.kind.is_textual_literal() {
            let delim = match t.kind {
                TokenKind::Char | TokenKind::Byte => '\'',
                _ => '"',
            };
            blank_literal(&mut chars[t.start..t.end], delim);
        }
    }
    chars.into_iter().collect()
}

/// Blank one literal token in place, legacy-compatibly: keep a leading
/// `b` prefix, the opening and closing delimiter, blank raw-string
/// hashes and all interior chars (newlines preserved).
fn blank_literal(span: &mut [char], delim: char) {
    let open = match span.iter().position(|&c| c == delim) {
        Some(o) => o,
        None => return,
    };
    let close = span.iter().rposition(|&c| c == delim).unwrap_or(open);
    for (i, c) in span.iter_mut().enumerate() {
        let keep = i == open
            || (i == close && close > open)
            || (i < open && *c == 'b') // byte prefix stays; `r`/`#` blank
            || *c == '\n';
        if !keep {
            *c = ' ';
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn blanks_line_and_block_comments() {
        let out = blank_comments_and_strings("a // HashMap\nb /* panic! */ c");
        assert!(!out.contains("HashMap"));
        assert!(!out.contains("panic"));
        assert!(out.contains('a') && out.contains('b') && out.contains('c'));
    }

    #[test]
    fn blanks_string_literals_but_keeps_quotes() {
        let out = blank_comments_and_strings("let s = \"Instant::now()\";");
        assert!(!out.contains("Instant"));
        assert!(out.contains("let s = \""));
    }

    #[test]
    fn nested_block_comments() {
        let out = blank_comments_and_strings("a /* x /* y */ z */ b");
        assert!(!out.contains('x') && !out.contains('y') && !out.contains('z'));
        assert!(out.contains('a') && out.contains('b'));
    }

    // -----------------------------------------------------------------
    // Differential self-test: token view vs. legacy blanker
    // -----------------------------------------------------------------

    /// Undo the one known legacy artifact before byte comparison.
    ///
    /// The legacy state machine blanks a raw-string opener `r#"` by
    /// pushing a space for every prefix char *including the quote* and
    /// then pushing the quote again — its output is one char longer per
    /// raw string, silently shifting every column to the right of the
    /// opener. The token view keeps true positions. Deleting the
    /// inserted space at each opener (in order, so indices stay
    /// aligned) makes the remainder byte-comparable; any other
    /// divergence is a real disagreement and fails the test.
    fn normalize_legacy(legacy: &str, text: &str, tokens: &[Token]) -> String {
        let src: Vec<char> = text.chars().collect();
        let mut out: Vec<char> = legacy.chars().collect();
        for t in tokens {
            if !matches!(t.kind, TokenKind::RawStr | TokenKind::RawByteStr) {
                continue;
            }
            let quote = (t.start..t.end)
                .find(|&i| src[i] == '"')
                .expect("raw string token contains its opening quote");
            assert_eq!(out[quote], ' ', "expected the legacy inserted space");
            out.remove(quote);
        }
        out.into_iter().collect()
    }

    fn diff_lines(a: &str, b: &str) -> Vec<usize> {
        a.lines()
            .zip(b.lines())
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, _)| i + 1)
            .collect()
    }

    #[test]
    fn token_view_agrees_on_simple_sources() {
        for src in [
            "fn f() { let x = 1; } // tail\n",
            "let s = \"with \\\"escape\\\"\";\n",
            "let r = r#\"raw \"inner\" text\"#;\n",
            "/* block /* nested */ done */ fn g() {}\n",
            "let c = '\\n'; let l: &'static str = \"x\";\n",
            "let b = b\"bytes\"; let rb = br#\"raw bytes\"#;\n",
        ] {
            let legacy = blank_comments_and_strings(src);
            let tokens = lex(src);
            let view = blanked_view(src, &tokens);
            assert_eq!(
                normalize_legacy(&legacy, src, &tokens),
                view,
                "divergence on: {src}"
            );
        }
    }

    /// Every `.rs` file in the workspace must blank identically through
    /// the legacy state machine and the token view. This is the proof
    /// that the new lexer sees the same code surface the old audit saw
    /// — no silently skipped regions, no mis-lexed literals.
    #[test]
    fn token_view_agrees_with_legacy_blanker_across_workspace() {
        let root = crate::workspace_root();
        let mut files = Vec::new();
        for dir in ["crates", "src"] {
            let d = root.join(dir);
            if d.is_dir() {
                crate::collect_rs_files(&d, &root, &mut files).expect("workspace readable");
            }
        }
        assert!(files.len() > 20, "workspace walk found too few files");
        let mut divergent = Vec::new();
        for rel in files {
            let text = std::fs::read_to_string(root.join(&rel)).expect("file readable");
            let tokens = lex(&text);
            let legacy = normalize_legacy(&blank_comments_and_strings(&text), &text, &tokens);
            let view = blanked_view(&text, &tokens);
            if legacy != view {
                divergent.push(format!(
                    "{}: lines {:?}",
                    rel.display(),
                    diff_lines(&legacy, &view)
                ));
            }
        }
        assert!(
            divergent.is_empty(),
            "token view diverges from legacy blanker:\n{}",
            divergent.join("\n")
        );
    }

    /// Known fixes over the legacy blanker, kept as executable
    /// documentation: each case is a construct the old state machine
    /// got *wrong* and the lexer gets right, asserted verbatim so a
    /// change to either side is loud.
    #[test]
    fn known_divergences_are_lexer_fixes() {
        // 1. Raw-string opener off-by-one: legacy output is one char
        //    longer per raw string, shifting every column after the
        //    opener. The token view preserves true positions.
        let src = "let r = r\"x\"; let after = 1;\n";
        let legacy = blank_comments_and_strings(src);
        let tokens = lex(src);
        let view = blanked_view(src, &tokens);
        assert_eq!(legacy.len(), src.len() + 1, "legacy inserts one char");
        assert_eq!(view.len(), src.len(), "token view is length-preserving");
        assert_eq!(normalize_legacy(&legacy, src, &tokens), view);

        // 2. A char literal holding a long escape: the legacy
        //    lookahead recognises '\u{1F600}' only because its window
        //    happens to be 12 chars wide. The lexer has no window.
        let src2 = "let c = '\\u{1F600}'; let after = 1;\n";
        let view2 = blanked_view(src2, &lex(src2));
        assert!(
            view2.contains("let after = 1;"),
            "code after long escape survives"
        );
        assert!(!view2.contains("1F600"), "escape interior is blanked");

        // 3. Lifetimes vs char literals: the lexer scans the full
        //    identifier instead of a 2-char guess, so `<'a>` generics
        //    and `'a'` literals stay distinct in all contexts.
        let src3 = "fn f<'a>(x: &'a u8) -> u8 { let c = 'a'; *x + c as u8 }\n";
        let view3 = blanked_view(src3, &lex(src3));
        assert!(view3.contains("<'a>"), "lifetime params survive");
        assert!(view3.contains("' '"), "char literal interior blanked");
    }
}
