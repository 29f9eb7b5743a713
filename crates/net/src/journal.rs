//! Crash-recovery journal: append-only JSONL, written *before* frames
//! are acknowledged.
//!
//! Three record shapes, one per line:
//!
//! ```text
//! {"boot":{"epoch":2}}
//! {"frame":{"peer":4,"pe":1,"seq":12,"body":"01050000..."}}
//! {"complete":{"round":3}}
//! ```
//!
//! * `boot` — a runtime came up with this epoch. Restarts append a new
//!   `boot` with `max(previous) + 1`, which is how peers detect the
//!   restart (the epoch rides every packet header).
//! * `frame` — one sequenced frame released by the link from `peer`
//!   (at peer epoch `pe`), hex-encoded wire body. Journaled before the
//!   cumulative ack covering it can be sent, so *acked ⊆ journaled*:
//!   nothing a peer considers delivered is ever lost to a crash.
//! * `complete` — a lockstep round closed. Replay re-runs ingestion
//!   over these records deterministically, reconstructing protocol
//!   state, link receive windows, and the outboxes still owed to peers.
//!
//! Encoding is hand-rolled (the workspace is offline — no serde): the
//! writer emits a strict machine format, fields are read back with the
//! workspace's shared scanner, and the reader treats any deviation in a
//! complete line as corruption, reported as a [`JournalError`] rather
//! than a panic. The file backend is a record codec over
//! [`rbcast_core::jsonl`], which owns the write-per-line, heal-on-open
//! and complete-lines-only rules: a tail torn by `kill -9` is dropped,
//! not quarantined.

use crate::wire::{decode_frame, from_hex, SeqFrame};
use rbcast_core::jsonl::{read_lines, JsonlFile};
use rbcast_grid::plumbing::{json_field, json_field_u64};
use std::fmt;
use std::path::{Path, PathBuf};

/// A corrupt or unreadable journal.
#[derive(Debug)]
pub enum JournalError {
    /// A line that is not one of the three record shapes.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        why: String,
    },
    /// Filesystem failure (file backend only).
    Io(std::io::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadRecord { line, why } => {
                write!(f, "corrupt journal at line {line}: {why}")
            }
            JournalError::Io(e) => write!(f, "journal I/O failure: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One parsed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Runtime boot at the given epoch.
    Boot {
        /// The boot epoch.
        epoch: u32,
    },
    /// A released frame from `peer`.
    Frame {
        /// Sending neighbor.
        peer: u32,
        /// The neighbor's epoch when it sent the frame.
        peer_epoch: u32,
        /// Link sequence number within that epoch's stream.
        seq: u64,
        /// The decoded frame.
        frame: SeqFrame,
    },
    /// A lockstep round closed.
    Complete {
        /// The round that closed.
        round: u32,
    },
}

/// Durable append-only record sink plus full read-back for replay.
pub trait NetJournal {
    /// Appends one record durably (flushed before return — the ack
    /// protocol depends on it).
    fn append(&mut self, record: &Record);

    /// Every record appended so far, oldest first.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] when the backing store is corrupt.
    fn records(&self) -> Result<Vec<Record>, JournalError>;
}

/// Serializes one record to its JSONL line (no trailing newline).
#[must_use]
pub fn encode_record(record: &Record) -> String {
    match record {
        Record::Boot { epoch } => format!("{{\"boot\":{{\"epoch\":{epoch}}}}}"),
        Record::Frame {
            peer,
            peer_epoch,
            seq,
            frame,
        } => {
            let mut body = Vec::new();
            crate::wire::encode_frame(&mut body, frame);
            format!(
                "{{\"frame\":{{\"peer\":{peer},\"pe\":{peer_epoch},\"seq\":{seq},\"body\":\"{}\"}}}}",
                crate::wire::to_hex(&body)
            )
        }
        Record::Complete { round } => format!("{{\"complete\":{{\"round\":{round}}}}}"),
    }
}

/// Parses one JSONL line back into a [`Record`].
///
/// # Errors
///
/// Returns the reason the line is not a valid record.
pub fn decode_record(line: &str) -> Result<Record, String> {
    if line.contains("\"boot\"") {
        let epoch = json_field_u64(line, "epoch").ok_or("boot without epoch")?;
        let epoch = u32::try_from(epoch).map_err(|_| "epoch exceeds u32")?;
        return Ok(Record::Boot { epoch });
    }
    if line.contains("\"frame\"") {
        let peer = json_field_u64(line, "peer").ok_or("frame without peer")?;
        let peer_epoch = json_field_u64(line, "pe").ok_or("frame without pe")?;
        let seq = json_field_u64(line, "seq").ok_or("frame without seq")?;
        let hex = json_field(line, "body").ok_or("frame without body")?;
        let body = from_hex(hex).ok_or("body is not hex")?;
        let frame = decode_frame(&body).map_err(|e| format!("bad frame body: {e}"))?;
        return Ok(Record::Frame {
            peer: u32::try_from(peer).map_err(|_| "peer exceeds u32")?,
            peer_epoch: u32::try_from(peer_epoch).map_err(|_| "pe exceeds u32")?,
            seq,
            frame,
        });
    }
    if line.contains("\"complete\"") {
        let round = json_field_u64(line, "round").ok_or("complete without round")?;
        let round = u32::try_from(round).map_err(|_| "round exceeds u32")?;
        return Ok(Record::Complete { round });
    }
    Err("unknown record shape".to_string())
}

/// In-memory journal for the loopback cluster: contents survive a
/// simulated process kill because the *cluster* owns the store and
/// hands it back to the restarted runtime (mirroring a file surviving
/// an OS process).
#[derive(Debug, Default, Clone)]
pub struct MemJournal {
    lines: Vec<String>,
}

impl MemJournal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// Number of records held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no records were appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Appends a raw line without encoding it — the fault-injection
    /// hook recovery tests use to model on-disk corruption (a torn
    /// write, bit rot) that [`NetJournal::records`] must surface as a
    /// [`JournalError`] instead of a panic.
    pub fn inject_raw(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }
}

impl NetJournal for MemJournal {
    fn append(&mut self, record: &Record) {
        self.lines.push(encode_record(record));
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        let mut out = Vec::with_capacity(self.lines.len());
        for (i, line) in self.lines.iter().enumerate() {
            out.push(
                decode_record(line).map_err(|why| JournalError::BadRecord { line: i + 1, why })?,
            );
        }
        Ok(out)
    }
}

/// A [`MemJournal`] behind shared ownership, so a loopback cluster can
/// keep the store alive across a simulated process kill and hand it
/// back to the restarted runtime — playing the role the filesystem
/// plays for real processes. Single-threaded by design (`Rc`), like the
/// loopback cluster itself.
#[derive(Debug, Default, Clone)]
pub struct SharedJournal(std::rc::Rc<std::cell::RefCell<MemJournal>>);

impl SharedJournal {
    /// An empty shared journal.
    #[must_use]
    pub fn new() -> Self {
        SharedJournal::default()
    }

    /// Number of records held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when no records were appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Injects a raw (possibly corrupt) line; see
    /// [`MemJournal::inject_raw`].
    pub fn inject_raw(&self, line: &str) {
        self.0.borrow_mut().inject_raw(line);
    }
}

impl NetJournal for SharedJournal {
    fn append(&mut self, record: &Record) {
        self.0.borrow_mut().append(record);
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        self.0.borrow().records()
    }
}

/// File-backed JSONL journal for UDP cluster processes: the record
/// codec over a [`JsonlFile`], which writes each record as one line and
/// flushes it before the append returns.
#[derive(Debug)]
pub struct FileJournal {
    path: PathBuf,
    file: JsonlFile,
}

impl FileJournal {
    /// Opens (creating if missing) the journal at `path` for append. A
    /// tail torn by a kill mid-write is truncated away: its newline
    /// never reached disk, so the frame it held was never acked.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        Ok(FileJournal {
            path: path.to_path_buf(),
            file: JsonlFile::open_append(path)?,
        })
    }
}

impl NetJournal for FileJournal {
    fn append(&mut self, record: &Record) {
        // A full disk mid-smoke is indistinguishable from corruption;
        // surfacing it loudly beats silently weakening the ack
        // invariant.
        self.file
            .append(encode_record(record))
            .expect("journal append failed: ack invariant would be violated");
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        let mut records = Vec::new();
        for (line, text) in read_lines(&self.path)?.iter() {
            records.push(decode_record(text).map_err(|why| JournalError::BadRecord { line, why })?);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::NodeId;
    use rbcast_protocols::Msg;
    use rbcast_sim::driver::InstanceId;

    fn sample() -> Vec<Record> {
        vec![
            Record::Boot { epoch: 1 },
            Record::Frame {
                peer: 4,
                peer_epoch: 1,
                seq: 0,
                frame: SeqFrame::Data {
                    round: 1,
                    instance: InstanceId {
                        origin: NodeId(0),
                        seq: 2,
                    },
                    msg: Msg::Committed(true),
                },
            },
            Record::Frame {
                peer: 4,
                peer_epoch: 1,
                seq: 1,
                frame: SeqFrame::Mark { round: 1 },
            },
            Record::Complete { round: 1 },
            Record::Boot { epoch: 2 },
        ]
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        for r in sample() {
            let line = encode_record(&r);
            assert_eq!(decode_record(&line).as_ref(), Ok(&r), "{line}");
        }
    }

    #[test]
    fn mem_journal_replays_in_order() {
        let mut j = MemJournal::new();
        for r in sample() {
            j.append(&r);
        }
        assert_eq!(j.records().expect("valid journal"), sample());
    }

    #[test]
    fn corrupt_lines_are_structured_errors() {
        for bad in [
            "{\"frame\":{\"peer\":4}}",
            "{\"frame\":{\"peer\":4,\"pe\":1,\"seq\":0,\"body\":\"zz\"}}",
            "{\"boot\":{}}",
            "gibberish",
        ] {
            assert!(decode_record(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn file_journal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("rbcast-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("node0.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = FileJournal::open(&path).expect("open");
            for r in sample() {
                j.append(&r);
            }
        }
        let j = FileJournal::open(&path).expect("reopen");
        assert_eq!(j.records().expect("valid journal"), sample());
        let _ = std::fs::remove_file(&path);
    }

    /// Byte-exact lines computed at the commit before the file handling
    /// and field scanner moved out: no on-disk byte may move.
    #[test]
    fn record_lines_are_pinned() {
        let lines: Vec<String> = sample().iter().map(encode_record).collect();
        assert_eq!(
            lines,
            [
                "{\"boot\":{\"epoch\":1}}",
                "{\"frame\":{\"peer\":4,\"pe\":1,\"seq\":0,\
                 \"body\":\"000100000000000000020000000101\"}}",
                "{\"frame\":{\"peer\":4,\"pe\":1,\"seq\":1,\"body\":\"0101000000\"}}",
                "{\"complete\":{\"round\":1}}",
                "{\"boot\":{\"epoch\":2}}",
            ]
        );
    }

    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/tests/support/torn_write.rs"
    ));

    #[test]
    fn a_file_journal_cut_at_any_byte_replays_its_complete_lines() {
        let sample = sample();
        let full: String = sample.iter().map(|r| encode_record(r) + "\n").collect();
        let prefixes: Vec<Vec<Record>> = (0..=sample.len()).map(|k| sample[..k].to_vec()).collect();
        let extra = Record::Complete { round: 2 };
        check_torn_writes(
            "net",
            full.as_bytes(),
            &prefixes,
            |path| {
                let journal = FileJournal::open(path).map_err(|e| e.to_string())?;
                journal.records().map_err(|e| e.to_string())
            },
            |path| FileJournal::open(path).expect("open").append(&extra),
            |prefix| {
                let mut grown = prefix.clone();
                grown.push(extra.clone());
                grown
            },
        );
    }
}
