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
//! not quarantined. The memory backend keeps the same records as tagged
//! LEB128 fields and wire bytes and renders their lines only when read.

use crate::wire::{decode_frame, encode_frame, from_hex, SeqFrame};
use rbcast_core::jsonl::{numbered_lines, read_lines, JsonlFile};
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
    /// A well-formed frame record from a node that is not a neighbour
    /// of the replaying one: no link of it could have released the
    /// frame.
    Stranger {
        /// 1-based position among the journal's records.
        record: usize,
        /// The sender the record names.
        peer: u32,
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
            JournalError::Stranger { record, peer } => write!(
                f,
                "corrupt journal at record {record}: a frame from {peer}, which is no neighbour"
            ),
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

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `key` and then `x` in decimal.
fn put_field(out: &mut Vec<u8>, key: &[u8], mut x: u64) {
    out.extend_from_slice(key);
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends one record's JSONL line (no trailing newline) to `out` —
/// the journal's one writer, for a [`FileJournal`] line and for a
/// [`MemJournal`] entry rendered on read alike.
fn encode_record_into(out: &mut Vec<u8>, record: &Record) {
    match record {
        Record::Boot { epoch } => put_scalar_line(out, BOOT_KEY, u64::from(*epoch)),
        Record::Frame {
            peer,
            peer_epoch,
            seq,
            frame,
        } => put_frame_line(out, u64::from(*peer), u64::from(*peer_epoch), *seq, |out| {
            encode_frame(out, frame);
        }),
        Record::Complete { round } => put_scalar_line(out, COMPLETE_KEY, u64::from(*round)),
    }
}

const BOOT_KEY: &[u8] = b"{\"boot\":{\"epoch\":";
const COMPLETE_KEY: &[u8] = b"{\"complete\":{\"round\":";

/// Appends a one-field line: `key`, `x` in decimal, and the two braces
/// that close it.
fn put_scalar_line(out: &mut Vec<u8>, key: &[u8], x: u64) {
    put_field(out, key, x);
    out.extend_from_slice(b"}}");
}

/// Appends a frame line from its fields and `wire`, which appends the
/// frame's wire body. Every byte is written in place: the body lands in
/// the tail of `out` and is widened to hex where it lies, back to front,
/// so no byte is overwritten before it is read.
fn put_frame_line(
    out: &mut Vec<u8>,
    peer: u64,
    peer_epoch: u64,
    seq: u64,
    wire: impl FnOnce(&mut Vec<u8>),
) {
    put_field(out, b"{\"frame\":{\"peer\":", peer);
    put_field(out, b",\"pe\":", peer_epoch);
    put_field(out, b",\"seq\":", seq);
    out.extend_from_slice(b",\"body\":\"");
    let start = out.len();
    wire(out);
    let n = out.len() - start;
    out.resize(start + 2 * n, 0);
    let body = &mut out[start..];
    for i in (0..n).rev() {
        let byte = body[i];
        body[2 * i] = HEX[usize::from(byte >> 4)];
        body[2 * i + 1] = HEX[usize::from(byte & 0xf)];
    }
    out.extend_from_slice(b"\"}}");
}

/// [`encode_record_into`] a fresh `String`, for callers off the append
/// path.
#[cfg(test)]
fn encode_record(record: &Record) -> String {
    let mut line = Vec::new();
    encode_record_into(&mut line, record);
    String::from_utf8(line).expect("a record line is ASCII")
}

/// Parses one JSONL line back into a [`Record`].
///
/// # Errors
///
/// Returns the reason the line is not a valid record.
fn decode_record(line: &str) -> Result<Record, String> {
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
        let frame =
            decode_frame(&body).map_err(|e| "bad frame body: ".to_owned() + &e.to_string())?;
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

/// Decodes numbered journal lines — the one reader behind both
/// backends, so they agree on what a blank line, a garbage line and a
/// line number are.
fn decode_lines<'a>(
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Result<Vec<Record>, JournalError> {
    lines
        .map(|(line, text)| {
            decode_record(text).map_err(|why| JournalError::BadRecord { line, why })
        })
        .collect()
}

/// Appends `x` as LEB128: seven bits a byte, low bits first, the top
/// bit set on every byte but the last.
fn put_leb(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Reads the LEB128 integer at `bytes[*at..]` and steps past it.
fn take_leb(bytes: &[u8], at: &mut usize) -> u64 {
    let mut x = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        x |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// [`MemJournal`] entry tags: the byte ahead of each entry's fields.
const BOOT: u8 = 0;
const FRAME: u8 = 1;
const COMPLETE: u8 = 2;
const RAW: u8 = 3;

/// In-memory journal for the loopback cluster: contents survive a
/// simulated process kill because the *cluster* owns the store and
/// hands it back to the restarted runtime (mirroring a file surviving
/// an OS process).
///
/// It stores records, not text: each entry is a tag byte and the
/// record's fields as LEB128 integers, a frame's ending in a one-byte
/// length and its wire body. Reading renders exactly the bytes a
/// [`FileJournal`] fed the same appends would hold on disk — one
/// contiguous run of newline-terminated lines, through the file's line
/// writer — and parses them with the file's reader, so the two cannot
/// disagree on a record, a blank line or a line number.
#[derive(Debug, Default, Clone)]
pub struct MemJournal {
    entries: Vec<u8>,
    lines: usize,
}

impl MemJournal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// Number of records held.
    #[must_use]
    fn len(&self) -> usize {
        self.lines
    }

    /// Appends a raw line without encoding it — the fault-injection
    /// hook recovery tests use to model on-disk corruption (a torn
    /// write, bit rot) that [`NetJournal::records`] must surface as a
    /// [`JournalError`] instead of a panic. It renders verbatim, with
    /// its newline.
    #[cfg(test)]
    fn inject_raw(&mut self, line: &str) {
        self.entries.push(RAW);
        put_leb(&mut self.entries, line.len() as u64);
        self.entries.extend_from_slice(line.as_bytes());
        self.lines += 1;
    }

    /// The JSONL image of every entry, each line newline-terminated.
    fn render(&self) -> String {
        let bytes = &self.entries;
        let mut image = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let tag = bytes[at];
            at += 1;
            match tag {
                BOOT => put_scalar_line(&mut image, BOOT_KEY, take_leb(bytes, &mut at)),
                FRAME => {
                    let peer = take_leb(bytes, &mut at);
                    let peer_epoch = take_leb(bytes, &mut at);
                    let seq = take_leb(bytes, &mut at);
                    let n = usize::from(bytes[at]);
                    let wire = &bytes[at + 1..at + 1 + n];
                    at += 1 + n;
                    put_frame_line(&mut image, peer, peer_epoch, seq, |out| {
                        out.extend_from_slice(wire);
                    });
                }
                COMPLETE => put_scalar_line(&mut image, COMPLETE_KEY, take_leb(bytes, &mut at)),
                RAW => {
                    let n = usize::try_from(take_leb(bytes, &mut at)).expect("stored from a usize");
                    image.extend_from_slice(&bytes[at..at + n]);
                    at += n;
                }
                _ => unreachable!("MemJournal wrote tag {tag}"),
            }
            image.push(b'\n');
        }
        String::from_utf8(image)
            .expect("only ASCII record lines and injected &str lines are ever stored")
    }
}

impl NetJournal for MemJournal {
    fn append(&mut self, record: &Record) {
        let out = &mut self.entries;
        match record {
            Record::Boot { epoch } => {
                out.push(BOOT);
                put_leb(out, u64::from(*epoch));
            }
            Record::Frame {
                peer,
                peer_epoch,
                seq,
                frame,
            } => {
                out.push(FRAME);
                put_leb(out, u64::from(*peer));
                put_leb(out, u64::from(*peer_epoch));
                put_leb(out, *seq);
                let len_at = out.len();
                out.push(0);
                encode_frame(out, frame);
                out[len_at] = u8::try_from(out.len() - len_at - 1)
                    .expect("a frame's wire body is at most 36 bytes");
            }
            Record::Complete { round } => {
                out.push(COMPLETE);
                put_leb(out, u64::from(*round));
            }
        }
        self.lines += 1;
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        decode_lines(numbered_lines(&self.render()))
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
        self.len() == 0
    }

    /// Injects a raw (possibly corrupt) line; see
    /// [`MemJournal::inject_raw`].
    #[cfg(test)]
    pub(crate) fn inject_raw(&self, line: &str) {
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
    /// The line being appended, reused from record to record.
    line: Vec<u8>,
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
            line: Vec::new(),
        })
    }
}

impl NetJournal for FileJournal {
    fn append(&mut self, record: &Record) {
        self.line.clear();
        encode_record_into(&mut self.line, record);
        self.line.push(b'\n');
        // A full disk mid-smoke is indistinguishable from corruption;
        // surfacing it loudly beats silently weakening the ack
        // invariant.
        self.file
            .append_terminated(&self.line)
            .expect("journal append failed: ack invariant would be violated");
    }

    fn records(&self) -> Result<Vec<Record>, JournalError> {
        decode_lines(read_lines(&self.path)?.iter())
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

    /// A memory journal stores wire bytes, not text: `sample()` is 36
    /// bytes of entries against the 199 bytes of its JSONL image, which
    /// reading still renders byte for byte.
    #[test]
    fn mem_journal_stores_records_not_lines() {
        let mut j = MemJournal::new();
        for r in sample() {
            j.append(&r);
        }
        #[rustfmt::skip]
        let entries = [
            BOOT, 1,
            FRAME, 4, 1, 0, 15, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 1,
            FRAME, 4, 1, 1, 5, 1, 1, 0, 0, 0,
            COMPLETE, 1,
            BOOT, 2,
        ];
        assert_eq!(j.entries, entries);
        let image: String = sample().iter().map(|r| encode_record(r) + "\n").collect();
        assert_eq!((j.entries.len(), image.len()), (36, 199));
        assert_eq!(j.render(), image);
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

    /// The writer as it was before it wrote in place — `format!` over an
    /// intermediate body `Vec` and hex `String`, verbatim from the parent
    /// commit (with `wire::to_hex`, deleted there, folded in) — kept as
    /// the reference for the byte-equality property below.
    fn parent_encode_record(record: &Record) -> String {
        fn parent_hex(bytes: &[u8]) -> String {
            let mut s = String::with_capacity(bytes.len() * 2);
            for b in bytes {
                s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble < 16"));
                s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble < 16"));
            }
            s
        }
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
                    parent_hex(&body)
                )
            }
            Record::Complete { round } => format!("{{\"complete\":{{\"round\":{round}}}}}"),
        }
    }

    /// `x`, or one of its type's two ends a time in four each.
    fn edgy(x: u64, pick: u8, max: u64) -> u64 {
        match pick % 4 {
            0 => max,
            1 => 0,
            _ => x % max,
        }
    }

    /// Expands generator inputs into a record: every shape, every `Msg`
    /// kind, `0..=CHAIN_CAP` relays, fields out to their types' ends.
    fn build_record(shape: u8, a: u64, b: u64, c: u64, picks: u8) -> Record {
        use rbcast_protocols::CHAIN_CAP;
        let m32 = u64::from(u32::MAX);
        let word = |x: u64, pick: u8| edgy(x, pick, m32) as u32;
        let relays: Vec<NodeId> = (0..c as usize % (CHAIN_CAP + 1))
            .map(|i| NodeId(word(b >> i, picks >> i)))
            .collect();
        let msg = match shape % 3 {
            0 => Msg::Source(a.is_multiple_of(2)),
            1 => Msg::Committed(b.is_multiple_of(2)),
            _ => Msg::heard(NodeId(word(c, picks >> 3)), a % 2 == 1, &relays),
        };
        let frame = match shape % 4 {
            0 => SeqFrame::Mark {
                round: word(a >> 7, picks >> 5),
            },
            _ => SeqFrame::Data {
                round: word(a >> 9, picks >> 1),
                instance: InstanceId {
                    origin: NodeId(word(b >> 11, picks >> 4)),
                    seq: word(c >> 13, picks >> 6),
                },
                msg,
            },
        };
        match shape % 6 {
            0 => Record::Boot {
                epoch: word(a, picks),
            },
            1 => Record::Complete {
                round: word(b, picks),
            },
            _ => Record::Frame {
                peer: word(a, picks),
                peer_epoch: word(b, picks >> 2),
                seq: edgy(c, picks >> 4, u64::MAX),
                frame,
            },
        }
    }

    /// What a reader made of a journal, comparable across backends.
    fn outcome(read: Result<Vec<Record>, JournalError>) -> Result<Vec<Record>, (usize, String)> {
        read.map_err(|e| match e {
            JournalError::BadRecord { line, why } => (line, why),
            e => panic!("not a reader's error: {e}"),
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The in-place writer emits the parent's bytes, and they read
        /// back as the record.
        #[test]
        fn lines_are_byte_equal_to_the_parent_writer(
            shape in 0u8..24, a in 0u64..u64::MAX, b in 0u64..u64::MAX, c in 0u64..u64::MAX,
            picks in 0u8..=255,
        ) {
            let record = build_record(shape, a, b, c, picks);
            let mut line = b"untouched prefix ".to_vec();
            encode_record_into(&mut line, &record);
            let line = String::from_utf8(line).expect("ASCII");
            let line = line.strip_prefix("untouched prefix ").expect("appends, never rewrites");
            prop_assert_eq!(line, parent_encode_record(&record));
            prop_assert_eq!(decode_record(line), Ok(record));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A record stream with raw lines — garbage, blank, torn-looking
        /// — injected anywhere reads back the same from memory and from
        /// a file: the same records or the same `BadRecord` at the same
        /// line, over the same bytes.
        #[test]
        fn mem_and_file_journals_hold_the_same_bytes_and_read_them_alike(
            ops in proptest::collection::vec(
                (0u8..24, 0u64..u64::MAX, 0u64..u64::MAX, 0u8..=255), 0..24,
            ),
        ) {
            use std::io::Write;
            use std::sync::atomic::{AtomicUsize, Ordering};
            static CASE: AtomicUsize = AtomicUsize::new(0);
            const RAW: [&str; 6] = [
                "gibberish",
                "",
                "  \t",
                "{\"frame\":{\"peer\":4,\"pe\":1,\"seq\":7,\"bo",
                "{\"boot\":{}}",
                "{\"complete\":{\"round\":3}}\r",
            ];
            let path = std::env::temp_dir().join(format!(
                "rbcast-journal-twin-{}-{}.jsonl",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed),
            ));
            let _ = std::fs::remove_file(&path);
            let mut mem = MemJournal::new();
            let mut file = FileJournal::open(&path).expect("open");
            let mut raw = std::fs::OpenOptions::new().append(true).open(&path).expect("open raw");
            for &(shape, a, b, picks) in &ops {
                // One op in four injects; blank lines twice as often.
                if picks % 4 == 0 {
                    let line = RAW[(a % 8) as usize % RAW.len()];
                    mem.inject_raw(line);
                    writeln!(raw, "{line}").expect("inject");
                } else {
                    let record = build_record(shape, a, b, a ^ b, picks);
                    mem.append(&record);
                    file.append(&record);
                }
            }
            prop_assert_eq!(mem.len(), ops.len());
            prop_assert_eq!(std::fs::read(&path).expect("read back"), mem.render().into_bytes());
            prop_assert_eq!(outcome(mem.records()), outcome(file.records()));
            let _ = std::fs::remove_file(&path);
        }
    }
}
