//! The workspace's one JSONL checkpoint file: every journal (the sweep
//! and attack checkpoints through `supervisor::Journal`, net
//! crash-recovery) is a record codec over this.
//!
//! The contract, chosen so a process killed at any instant leaves a
//! file the next run can resume from:
//!
//! * **One write per line.** [`JsonlFile::append`] hands the line and
//!   its `\n` to the OS in a single `write_all` and flushes before it
//!   returns, so an acknowledged record is a newline-terminated line.
//! * **Heal on open.** [`JsonlFile::open_append`] truncates a file that
//!   does not end in `\n` back to its last `\n`; a resume opens with
//!   [`JsonlFile::open_existing`], checks what it read, then
//!   [`JsonlFile::heal`]s. A line whose newline
//!   never reached disk was never acknowledged to anyone — journals are
//!   written *before* the ack they cover — so dropping it loses nothing
//!   a peer or a resumed run relies on, and the next append starts on a
//!   line of its own instead of gluing itself to the fragment.
//! * **Complete lines only.** [`read_lines`] yields newline-terminated,
//!   non-blank lines with their 1-based line numbers; a torn tail is
//!   invisible to readers even before anything healed it.
//! * **Strict lines.** A newline-terminated line that does not parse is
//!   corruption, not a shrug: each codec reports it as its structured
//!   error (with the line number), and `parse_flat_json` accepts
//!   exactly the flat objects the sweep and attack codecs write.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// An append-only JSONL file open for writing.
#[derive(Debug)]
pub struct JsonlFile {
    file: File,
}

/// Length of the longest prefix of `bytes` made of complete lines.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

fn make_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

impl JsonlFile {
    /// Creates (truncating) the file at `path`, making parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn create(path: &Path) -> io::Result<JsonlFile> {
        make_parent(path)?;
        Ok(JsonlFile {
            file: File::create(path)?,
        })
    }

    /// Opens the file at `path` for appending, creating it (and its
    /// parent directories) if missing, and heals a torn tail: a
    /// non-empty file not ending in `\n` is truncated back to its last
    /// `\n` (see the module docs for why that is safe).
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn open_append(path: &Path) -> io::Result<JsonlFile> {
        make_parent(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let len = complete_len(&bytes);
        if len < bytes.len() {
            file.set_len(len as u64)?;
        }
        Ok(JsonlFile { file })
    }

    /// Opens the existing file at `path` for appending and reads it
    /// once, returning its complete lines. Unlike
    /// [`JsonlFile::open_append`] it neither creates nor heals the file,
    /// so a caller that refuses what it read leaves the file exactly as
    /// it found it; one that accepts calls [`JsonlFile::heal`] before
    /// appending.
    ///
    /// # Errors
    ///
    /// On I/O failure (`NotFound` for a missing file), or as
    /// [`read_lines`] for a complete line that is not UTF-8.
    pub fn open_existing(path: &Path) -> io::Result<(JsonlFile, Lines)> {
        let mut file = OpenOptions::new().read(true).append(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok((JsonlFile { file }, lines_of(path, bytes)?))
    }

    /// Truncates the file back to `lines`, the complete lines
    /// [`JsonlFile::open_existing`] read from it: drops a torn tail.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn heal(&mut self, lines: &Lines) -> io::Result<()> {
        self.file.set_len(lines.0.len() as u64)
    }

    /// Appends `line` (which must not contain `\n`) and its newline as
    /// one write, flushed before return. Takes the line by value so the
    /// newline is pushed onto the caller's buffer, not a copy of it.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.append_terminated(line.as_bytes())
    }

    /// [`JsonlFile::append`] for a caller that encodes each record into
    /// a buffer it reuses: `line` already ends in its one `\n`.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub fn append_terminated(&mut self, line: &[u8]) -> io::Result<()> {
        debug_assert!(
            line.ends_with(b"\n") && !line[..line.len() - 1].contains(&b'\n'),
            "a JSONL record is one newline-terminated line"
        );
        self.file.write_all(line)?;
        self.file.flush()
    }
}

/// The complete lines of a JSONL file, as read by [`read_lines`].
#[derive(Debug)]
pub struct Lines(String);

impl Lines {
    /// `(1-based line number, line)` for every non-blank line.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        numbered_lines(&self.0)
    }
}

/// `(1-based line number, line)` for every non-blank line of `text` —
/// the numbering every reader of a JSONL image shares, on disk
/// ([`read_lines`]) or held in memory.
pub fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim().is_empty())
}

/// Reads the newline-terminated lines of the file at `path`; bytes
/// after the last `\n` (a write torn by a kill) are ignored.
///
/// # Errors
///
/// On I/O failure, or `InvalidData` naming `path:line` when a complete
/// line is not UTF-8.
pub fn read_lines(path: &Path) -> io::Result<Lines> {
    lines_of(path, std::fs::read(path)?)
}

/// The complete lines of `bytes`, read from `path`.
fn lines_of(path: &Path, mut bytes: Vec<u8>) -> io::Result<Lines> {
    bytes.truncate(complete_len(&bytes));
    String::from_utf8(bytes).map(Lines).map_err(|e| {
        let good = &e.as_bytes()[..e.utf8_error().valid_up_to()];
        let line = 1 + good.iter().filter(|&&b| b == b'\n').count();
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}:{line}: not valid UTF-8", path.display()),
        )
    })
}

/// The value shapes the journal formats use.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JsonValue {
    /// An unsigned integer.
    Number(u64),
    /// A string literal.
    String(String),
}

/// The fields of one flat JSON object, read by the type each codec
/// expects; a field of the wrong shape is an error naming its key.
#[derive(Debug)]
pub(crate) struct Fields(BTreeMap<String, JsonValue>);

impl Fields {
    /// Whether `key` is present.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The number at `key`, as a `T`.
    pub(crate) fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String>
    where
        T::Error: std::fmt::Display,
    {
        match self.0.get(key) {
            Some(JsonValue::Number(n)) => T::try_from(*n).map_err(|e| format!("{key}: {e}")),
            Some(JsonValue::String(_)) => Err(format!("field {key:?} must be a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// The string at `key`, if present.
    pub(crate) fn text(&self, key: &str) -> Result<Option<&str>, String> {
        match self.0.get(key) {
            Some(JsonValue::String(s)) => Ok(Some(s)),
            Some(JsonValue::Number(_)) => Err(format!("field {key:?} must be a string")),
            None => Ok(None),
        }
    }

    /// The `0x`-prefixed hex string at `key`, if present.
    pub(crate) fn hex(&self, key: &str) -> Result<Option<u64>, String> {
        let parse = |s: &str| {
            let hex = (s.strip_prefix("0x"))
                .ok_or_else(|| format!("{key} {s:?} is not 0x-prefixed hex"))?;
            u64::from_str_radix(hex, 16).map_err(|e| format!("{key} {s:?}: {e}"))
        };
        self.text(key)?.map(parse).transpose()
    }
}

/// Parses one flat JSON object (string/unsigned-number values only — the
/// exact shape the journals write; this is not a general JSON parser,
/// and stays std-only because the container has no registry access).
pub(crate) fn parse_flat_json(line: &str) -> Result<Fields, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "not a JSON object".to_string())?;
    let mut fields = BTreeMap::new();
    let mut chars = body.chars().peekable();
    loop {
        skip_ws(&mut chars);
        if chars.peek().is_none() {
            break;
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::String(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while chars.peek().is_some_and(char::is_ascii_digit) {
                    digits.push(chars.next().expect("peeked digit"));
                }
                JsonValue::Number(
                    digits
                        .parse()
                        .map_err(|e| format!("number for {key:?}: {e}"))?,
                )
            }
            other => return Err(format!("unsupported value start {other:?} for key {key:?}")),
        };
        if fields.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            None => break,
            Some(c) => return Err(format!("expected ',' between fields, found {c:?}")),
        }
    }
    Ok(Fields(fields))
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

/// Parses a JSON string literal (cursor at the opening quote).
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("\\u escape {hex:?}: {e}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_numbers_physical_lines_and_rejects_non_utf8_by_line() {
        let path = std::env::temp_dir().join(format!("rbcast-jsonl-{}.jsonl", std::process::id()));
        std::fs::write(&path, b"{\"a\":1}\n\n  \n{\"b\":2}\r\n{\"torn\":").expect("write");
        let lines = read_lines(&path).expect("read");
        assert_eq!(
            lines.iter().collect::<Vec<_>>(),
            [(1, "{\"a\":1}"), (4, "{\"b\":2}")]
        );
        // Torn bytes need not be UTF-8; a complete line must be.
        std::fs::write(&path, b"ok\nbad \xff\nok\n\xff").expect("write");
        let err = read_lines(&path).expect_err("line 2 is not UTF-8");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().ends_with(".jsonl:2: not valid UTF-8"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
