//! Hand-rolled, span-accurate Rust lexer for the audit engine.
//!
//! The lexer turns source text into a flat token stream in one pass,
//! with no allocation beyond the token vector. Every token carries its
//! char-offset span and 1-based line/column, so findings point at the
//! exact place a rule matched even when the construct spans lines —
//! the structural failure mode of the old per-line model.
//!
//! Coverage (everything the audit rules and the structural layer in
//! [`crate::model`] need):
//!
//! * identifiers and keywords, including raw identifiers `r#type`;
//! * lifetimes (`'a`, `'static`, `'_`) vs char literals (`'a'`,
//!   `'\u{10FFFF}'`, `b'x'`), resolved by real lookahead instead of a
//!   fixed window;
//! * all string forms: `"…"` with escapes, raw `r"…"` / `r#"…"#` at any
//!   hash depth, byte `b"…"`, raw byte `br#"…"#`;
//! * numeric literals with suffixes (`1_000u64`, `2.`, `1.5e-3f64`),
//!   distinguishing `1.0` (float) from `0..n` (range) and `1.max(2)`
//!   (method call);
//! * line comments, outer/inner doc comments, nested block comments;
//! * punctuation under maximal munch (`::`, `..=`, `<<=`, `->`, …).
//!
//! The stream is *lossless*: concatenating every token's source text
//! plus the inter-token gaps reproduces the input byte-for-byte, which
//! is what lets the differential self-test compare this lexer against
//! the legacy line blanker over the whole workspace.

use std::fmt;

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers `r#ident`).
    Ident,
    /// Lifetime such as `'a` (the quote is part of the token).
    Lifetime,
    /// Integer literal, with any suffix (`7`, `0xff`, `1_000u64`).
    Int,
    /// Float literal, with any suffix (`1.0`, `2.`, `1e9f64`).
    Float,
    /// String literal `"…"` (escapes included in the text).
    Str,
    /// Raw string literal `r"…"` / `r#"…"#`.
    RawStr,
    /// Byte string literal `b"…"`.
    ByteStr,
    /// Raw byte string literal `br"…"` / `br#"…"#`.
    RawByteStr,
    /// Char literal `'x'`.
    Char,
    /// Byte literal `b'x'`.
    Byte,
    /// Punctuation / operator, maximal munch (`::`, `<<`, `..=`, `+`).
    Punct,
    /// `// …` comment (not a doc comment).
    LineComment,
    /// `/// …` or `//! …` doc comment.
    DocComment,
    /// `/* … */` block comment, nesting respected (doc blocks too).
    BlockComment,
}

impl TokenKind {
    /// Trivia does not participate in code queries (comments only —
    /// whitespace never becomes a token).
    #[must_use]
    pub(crate) fn is_trivia(self) -> bool {
        matches!(
            self,
            TokenKind::LineComment | TokenKind::DocComment | TokenKind::BlockComment
        )
    }

    /// String-ish literal whose *contents* must be blanked before token
    /// text is searched (quotes/prefix stay visible).
    #[must_use]
    pub(crate) fn is_textual_literal(self) -> bool {
        matches!(
            self,
            TokenKind::Str
                | TokenKind::RawStr
                | TokenKind::ByteStr
                | TokenKind::RawByteStr
                | TokenKind::Char
                | TokenKind::Byte
        )
    }
}

/// One lexed token with its exact source span.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Source text, verbatim (owned; spans survive the source buffer).
    pub text: String,
    /// Char offset of the first char (0-based, chars not bytes).
    pub start: usize,
    /// Char offset one past the last char.
    pub end: usize,
    /// 1-based line of the first char.
    pub line: usize,
    /// 1-based column (in chars) of the first char.
    pub col: usize,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}({:?})@{}:{}",
            self.kind, self.text, self.line, self.col
        )
    }
}

/// Multi-char operators, longest first so maximal munch is a prefix scan.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lex `text` into a token stream. Never fails: malformed input (e.g.
/// an unterminated string) produces a best-effort token running to end
/// of input, so the audit still sees the rest of a broken file as far
/// as structurally possible.
#[must_use]
pub(crate) fn lex(text: &str) -> Vec<Token> {
    Lexer::new(text).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    out: Vec<Token>,
}

impl Lexer {
    fn new(text: &str) -> Self {
        Lexer {
            chars: text.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advance one char, maintaining line/col.
    fn bump(&mut self) {
        if let Some(c) = self.chars.get(self.pos) {
            if *c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos += 1;
        }
    }

    fn emit(&mut self, kind: TokenKind, start: usize, line: usize, col: usize) {
        let text: String = self.chars[start..self.pos].iter().collect();
        self.out.push(Token {
            kind,
            text,
            start,
            end: self.pos,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (start, line, col) = (self.pos, self.line, self.col);
            match c {
                c if c.is_whitespace() => self.bump(),
                '/' if self.peek(1) == Some('/') => {
                    let doc = matches!(self.peek(2), Some('/') | Some('!'))
                        // `////…` dividers are plain comments, not docs.
                        && !(self.peek(2) == Some('/') && self.peek(3) == Some('/'));
                    while self.peek(0).is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                    let kind = if doc {
                        TokenKind::DocComment
                    } else {
                        TokenKind::LineComment
                    };
                    self.emit(kind, start, line, col);
                }
                '/' if self.peek(1) == Some('*') => {
                    self.block_comment(start, line, col);
                }
                '"' => self.string(start, line, col, TokenKind::Str),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(start, line, col, TokenKind::ByteStr);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_lit(start, line, col, TokenKind::Byte);
                }
                'b' if self.peek(1) == Some('r') && self.raw_str_at(2) => {
                    self.bump();
                    self.bump();
                    self.raw_string(start, line, col, TokenKind::RawByteStr);
                }
                'r' if self.raw_str_at(1) => {
                    self.bump();
                    self.raw_string(start, line, col, TokenKind::RawStr);
                }
                'r' if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) => {
                    // Raw identifier r#type.
                    self.bump();
                    self.bump();
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    self.emit(TokenKind::Ident, start, line, col);
                }
                '\'' => self.quote(start, line, col),
                c if is_ident_start(c) => {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    self.emit(TokenKind::Ident, start, line, col);
                }
                c if c.is_ascii_digit() => self.number(start, line, col),
                _ => {
                    // Punctuation: maximal munch against the operator table.
                    let matched = OPERATORS.iter().find(|op| self.lookahead_is(op));
                    if let Some(op) = matched {
                        for _ in 0..op.chars().count() {
                            self.bump();
                        }
                    } else {
                        self.bump();
                    }
                    self.emit(TokenKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    fn lookahead_is(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }

    /// Is `r` at offset `at` (hashes then a quote) the start of a raw
    /// string body? `self.pos + at` points just past the `r`.
    fn raw_str_at(&self, at: usize) -> bool {
        let mut j = at;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        self.peek(j) == Some('"')
    }

    fn block_comment(&mut self, start: usize, line: usize, col: usize) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        self.emit(TokenKind::BlockComment, start, line, col);
    }

    /// Lex a `"`-delimited string starting at the current quote.
    fn string(&mut self, start: usize, line: usize, col: usize, kind: TokenKind) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some('\\') => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                Some('"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
        self.emit(kind, start, line, col);
    }

    /// Lex a raw string: hashes, quote, content, quote, matching hashes.
    fn raw_string(&mut self, start: usize, line: usize, col: usize, kind: TokenKind) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some('"') => {
                    // Candidate close: quote + `hashes` hashes.
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(1 + seen) == Some('#') {
                        seen += 1;
                    }
                    if seen == hashes {
                        for _ in 0..=hashes {
                            self.bump();
                        }
                        break;
                    }
                    self.bump();
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
        self.emit(kind, start, line, col);
    }

    /// Lex a `'…'` char/byte literal starting at the current quote.
    fn char_lit(&mut self, start: usize, line: usize, col: usize, kind: TokenKind) {
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                self.bump();
                // The escaped char itself may be a quote (`'\''`).
                if self.peek(0).is_some() {
                    self.bump();
                }
                // Longer escape bodies run to the closing quote
                // (`\u{…}`, `\x41`).
                while self.peek(0).is_some_and(|c| c != '\'' && c != '\n') {
                    self.bump();
                }
            }
            Some(_) => self.bump(),
            None => {}
        }
        if self.peek(0) == Some('\'') {
            self.bump();
        }
        self.emit(kind, start, line, col);
    }

    /// Disambiguate `'a'` (char) from `'a` (lifetime) at a quote.
    ///
    /// A quote starts a char literal when the escape form follows
    /// (`'\…`), or when exactly one char is followed by a closing quote.
    /// Everything else (`'a`, `'static`, `'_`) is a lifetime. Unlike the
    /// legacy model there is no fixed lookahead window: the decision
    /// reads as far as the candidate identifier runs.
    fn quote(&mut self, start: usize, line: usize, col: usize) {
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(c) if is_ident_start(c) => {
                // `'x'` is a char; `'x` / `'xyz` are lifetimes. Scan the
                // identifier run and see whether a quote terminates it.
                let mut j = 2;
                while self.peek(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                j == 2 && self.peek(j) == Some('\'')
            }
            Some('\'') => false, // `''` never valid; treat as puncts
            Some(_) => true,     // '(' , '.' , '😀' — single-char literal
            None => false,
        };
        if is_char {
            self.char_lit(start, line, col, TokenKind::Char);
        } else {
            // Lifetime (or stray quote): consume quote + identifier run.
            self.bump();
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
            self.emit(TokenKind::Lifetime, start, line, col);
        }
    }

    /// Lex a numeric literal (int or float, with suffix).
    fn number(&mut self, start: usize, line: usize, col: usize) {
        let mut float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.bump();
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.bump();
            }
            self.emit(TokenKind::Int, start, line, col);
            return;
        }
        while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            self.bump();
        }
        // `.` joins the literal only when this is really a fractional
        // part: `1.0` and `2.` are floats; `0..n` is a range and
        // `1.max()` is a method call on an integer.
        if self.peek(0) == Some('.') {
            let after = self.peek(1);
            let joins = match after {
                Some(c) if c.is_ascii_digit() => true,
                Some('.') => false,
                Some(c) if is_ident_start(c) => false,
                _ => true, // `2.` then `;` / `)` / EOL — trailing-dot float
            };
            if joins {
                float = true;
                self.bump();
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.bump();
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e' | 'E'))
            && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(self.peek(1), Some('+' | '-'))
                    && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
        {
            float = true;
            self.bump();
            if matches!(self.peek(0), Some('+' | '-')) {
                self.bump();
            }
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.bump();
            }
        }
        // Suffix (`u64`, `f64`, `usize`…) glues onto the literal.
        if self.peek(0).is_some_and(is_ident_start) {
            let suffix_start = self.pos;
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
            let suffix: String = self.chars[suffix_start..self.pos].iter().collect();
            if suffix.starts_with('f') {
                float = true;
            }
        }
        let kind = if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.emit(kind, start, line, col);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_and_raw_idents() {
        let t = kinds("fn r#type foo_1");
        assert_eq!(
            t,
            vec![
                (TokenKind::Ident, "fn".into()),
                (TokenKind::Ident, "r#type".into()),
                (TokenKind::Ident, "foo_1".into()),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = kinds("<'a> 'x' '\\n' 'static b'q' '_'");
        assert_eq!(
            t,
            vec![
                (TokenKind::Punct, "<".into()),
                (TokenKind::Lifetime, "'a".into()),
                (TokenKind::Punct, ">".into()),
                (TokenKind::Char, "'x'".into()),
                (TokenKind::Char, "'\\n'".into()),
                (TokenKind::Lifetime, "'static".into()),
                (TokenKind::Byte, "b'q'".into()),
                (TokenKind::Char, "'_'".into()),
            ]
        );
    }

    #[test]
    fn long_escape_char_literal_has_no_window_limit() {
        let t = kinds(r"'\u{10FFFF}'");
        assert_eq!(t, vec![(TokenKind::Char, r"'\u{10FFFF}'".into())]);
    }

    #[test]
    fn string_forms() {
        let t = kinds(r####""a\"b" r"raw" r##"h"# s"## b"by" br#"rb"#"####);
        assert_eq!(
            t,
            vec![
                (TokenKind::Str, r#""a\"b""#.into()),
                (TokenKind::RawStr, r#"r"raw""#.into()),
                (TokenKind::RawStr, r###"r##"h"# s"##"###.into()),
                (TokenKind::ByteStr, r#"b"by""#.into()),
                (TokenKind::RawByteStr, r##"br#"rb"#"##.into()),
            ]
        );
    }

    #[test]
    fn raw_string_with_embedded_hash_quote() {
        // The `"#` inside closes only at two hashes.
        let t = kinds(r###"r##"x "# y"##"###);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].0, TokenKind::RawStr);
    }

    #[test]
    fn numbers_ranges_and_method_calls() {
        let t = kinds("1.0 2. 0..n 1.max(2) 0xff_u32 1_000u64 1.5e-3f64 pair.0");
        let kindlist: Vec<TokenKind> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kindlist,
            vec![
                TokenKind::Float, // 1.0
                TokenKind::Float, // 2.
                TokenKind::Int,   // 0
                TokenKind::Punct, // ..
                TokenKind::Ident, // n
                TokenKind::Int,   // 1
                TokenKind::Punct, // .
                TokenKind::Ident, // max
                TokenKind::Punct, // (
                TokenKind::Int,   // 2
                TokenKind::Punct, // )
                TokenKind::Int,   // 0xff_u32
                TokenKind::Int,   // 1_000u64
                TokenKind::Float, // 1.5e-3f64
                TokenKind::Ident, // pair
                TokenKind::Punct, // .
                TokenKind::Int,   // 0
            ]
        );
    }

    #[test]
    fn comments_nested_and_doc() {
        let t = kinds("a // line\n/// doc\n//! inner\n//// divider\n/* b /* c */ d */ e");
        assert_eq!(t[0], (TokenKind::Ident, "a".into()));
        assert_eq!(t[1].0, TokenKind::LineComment);
        assert_eq!(t[2].0, TokenKind::DocComment);
        assert_eq!(t[3].0, TokenKind::DocComment);
        assert_eq!(t[4].0, TokenKind::LineComment);
        assert_eq!(t[5].0, TokenKind::BlockComment);
        assert_eq!(t[6], (TokenKind::Ident, "e".into()));
    }

    #[test]
    fn operators_maximal_munch() {
        let t = kinds("a::b <<= ..= x << 2");
        let texts: Vec<&str> = t.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(texts, vec!["a", "::", "b", "<<=", "..=", "x", "<<", "2"]);
    }

    #[test]
    fn spans_are_line_and_column_accurate() {
        let toks = lex("let x = 1;\n  Instant::now()\n");
        let instant = toks.iter().find(|t| t.text == "Instant").expect("lexed");
        assert_eq!((instant.line, instant.col), (2, 3));
        let now = toks.iter().find(|t| t.text == "now").expect("lexed");
        assert_eq!((now.line, now.col), (2, 12));
    }

    #[test]
    fn stream_is_lossless() {
        let src = "fn f<'a>(s: &'a str) -> u32 { s.len() as u32 } // done\n";
        let toks = lex(src);
        let mut rebuilt: Vec<char> = src
            .chars()
            .map(|c| if c.is_whitespace() { c } else { '\0' })
            .collect();
        for t in &toks {
            for (i, c) in t.text.chars().enumerate() {
                rebuilt[t.start + i] = c;
            }
        }
        assert_eq!(rebuilt.iter().collect::<String>(), src);
    }
}
