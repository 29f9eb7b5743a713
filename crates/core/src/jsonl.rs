//! The workspace's one JSONL checkpoint file: every journal (the sweep
//! and attack checkpoints through `supervisor::Journal`, net
//! crash-recovery) is a record codec over this.
//!
//! The contract, chosen so a process killed at any instant leaves a
//! file the next run can resume from:
//!
//! * **One write per line.** `JsonlFile::append` hands the line and
//!   its `\n` to the OS in a single `write_all` and flushes before it
//!   returns, so an acknowledged record is a newline-terminated line.
//! * **Heal on open.** [`JsonlFile::open_append`] truncates a file that
//!   does not end in `\n` back to its last `\n`; a resume opens with
//!   `JsonlFile::open_existing`, checks what it read, then
//!   `JsonlFile::heal`s. A line whose newline
//!   never reached disk was never acknowledged to anyone — journals are
//!   written *before* the ack they cover — so dropping it loses nothing
//!   a peer or a resumed run relies on, and the next append starts on a
//!   line of its own instead of gluing itself to the fragment.
//! * **Complete lines only.** [`read_lines`] reads the
//!   newline-terminated lines and [`numbered_lines`] numbers them from
//!   1; a torn tail is invisible to readers even before anything healed
//!   it. A line is split at `\n` alone: a `\r`, padding or a blank line
//!   stays a line, for its codec to refuse.
//! * **Strict lines.** A line is a record only if its writer gives the
//!   record back byte for byte ([`decode_exact`], the one rule every
//!   codec reads by): a complete line that is anything else is
//!   corruption, not a shrug, and each codec reports it as its
//!   structured error with its line number or task.

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
    pub(crate) fn create(path: &Path) -> io::Result<JsonlFile> {
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
    pub(crate) fn open_existing(path: &Path) -> io::Result<(JsonlFile, String)> {
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
    pub(crate) fn heal(&mut self, lines: &str) -> io::Result<()> {
        self.file.set_len(lines.len() as u64)
    }

    /// Appends `line` (which must not contain `\n`) and its newline as
    /// one write, flushed before return. Takes the line by value so the
    /// newline is pushed onto the caller's buffer, not a copy of it.
    ///
    /// # Errors
    ///
    /// On any I/O failure.
    pub(crate) fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.append_terminated(line.as_bytes())
    }

    /// `JsonlFile::append` for a caller that encodes each record into
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

/// `(1-based line number, line)` for every `\n`-terminated line of
/// `text` — the numbering every reader of a JSONL image shares, on disk
/// ([`read_lines`]) or in memory. A `\r` stays in its line and a blank
/// line is a line, for its codec to refuse.
pub fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.split_terminator('\n')
        .enumerate()
        .map(|(i, line)| (i + 1, line))
}

/// The one rule every record codec reads a line by: `decode` the line,
/// hand the record to its writer `encode` (which appends its line to
/// `buf`, scratch reused from line to line) and accept it only if that
/// is `line` byte for byte. So junk around a record, a `\r`, a field
/// reordered, repeated, unknown or respaced, or a value spelled another
/// way is an error, never a record read from part of it.
///
/// # Errors
///
/// What `decode` returns, or the refusal of any other line.
pub fn decode_exact<R>(
    line: &str,
    buf: &mut Vec<u8>,
    decode: impl FnOnce(&str) -> Result<R, String>,
    encode: impl FnOnce(&mut Vec<u8>, &R),
) -> Result<R, String> {
    let record = decode(line)?;
    buf.clear();
    encode(buf, &record);
    if buf != line.as_bytes() {
        return Err("not the line its writer gives its record".to_string());
    }
    Ok(record)
}

/// Reads the newline-terminated lines of the file at `path`, for
/// [`numbered_lines`]; bytes after the last `\n` (a write torn by a
/// kill) are ignored.
///
/// # Errors
///
/// On I/O failure, or `InvalidData` naming `path:line` when a complete
/// line is not UTF-8.
pub fn read_lines(path: &Path) -> io::Result<String> {
    lines_of(path, std::fs::read(path)?)
}

/// The complete lines of `bytes`, read from `path`.
fn lines_of(path: &Path, mut bytes: Vec<u8>) -> io::Result<String> {
    bytes.truncate(complete_len(&bytes));
    String::from_utf8(bytes).map_err(|e| {
        let good = &e.as_bytes()[..e.utf8_error().valid_up_to()];
        let line = 1 + good.iter().filter(|&&b| b == b'\n').count();
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}:{line}: not valid UTF-8", path.display()),
        )
    })
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
            numbered_lines(&lines).collect::<Vec<_>>(),
            [(1, "{\"a\":1}"), (2, ""), (3, "  "), (4, "{\"b\":2}\r")]
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
