//! Hand-rolled wire format for the networked runtime.
//!
//! No serde, no external codecs — the container this repo builds in is
//! offline, and the format is small enough that an explicit byte layout
//! is both the simplest and the most auditable option. Layout (all
//! integers little-endian):
//!
//! ```text
//! 0..2    magic  "RB"
//! 2       version (1)
//! 3       kind    0 = ACK, 1 = SEQ
//! 4..8    src     sender node id
//! 8..12   epoch   sender's boot epoch (bumped on every restart)
//! 12..    body    kind-specific (below)
//! end-8.. checksum FNV-1a over every preceding byte
//! ```
//!
//! `ACK` body: `ack_epoch: u32` (the peer stream being acknowledged),
//! `cum: u64` (all sequence numbers `< cum` received *and journaled*).
//! `SEQ` body: `seq: u64` followed by one [`SeqFrame`].
//!
//! Decoding is total: every input either yields a packet or a
//! structured [`WireError`] — never a panic, never a mis-parse. The
//! trailing FNV-1a checksum makes single-bit corruption detectable
//! *provably*: each absorption step `h ← (h ⊕ byte) × prime` is
//! injective in `h` for fixed `byte` (odd prime), so two buffers
//! differing in exactly one byte can never collide. The wire proptests
//! pin both properties down.

use rbcast_grid::plumbing::{fnv1a, FNV_OFFSET};
use rbcast_grid::NodeId;
use rbcast_protocols::{ChainRepr, Msg, CHAIN_CAP};
use rbcast_sim::driver::InstanceId;
use rbcast_sim::Round;
use std::fmt;

/// Wire protocol version.
pub const VERSION: u8 = 1;
/// Magic prefix of every datagram.
pub const MAGIC: [u8; 2] = *b"RB";
/// Upper bound on an encoded datagram (header + largest frame +
/// checksum, with slack); anything longer is rejected before parsing.
pub const MAX_DATAGRAM: usize = 128;

/// FNV-1a over `bytes` — the datagram checksum.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Structured decode failure. Every malformed input maps to exactly one
/// of these — the decoder has no panicking path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the field being read requires.
    Truncated {
        /// Bytes the current field needs.
        need: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown packet kind byte.
    BadKind(u8),
    /// Unknown sequenced-frame tag byte.
    BadFrameTag(u8),
    /// Unknown message tag byte.
    BadMsgTag(u8),
    /// A boolean value byte that is neither 0 nor 1.
    BadValue(u8),
    /// A `HEARD` relay count exceeding [`CHAIN_CAP`].
    ChainTooLong(u8),
    /// Checksum mismatch (corruption).
    BadChecksum {
        /// Checksum recomputed over the received bytes.
        expect: u64,
        /// Checksum carried by the datagram.
        got: u64,
    },
    /// More than [`MAX_DATAGRAM`] bytes.
    Oversized(usize),
    /// Well-formed prefix followed by garbage bytes.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(
                    f,
                    "truncated datagram: field needs {need} bytes, {got} left"
                )
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            WireError::BadFrameTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::BadMsgTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadValue(v) => write!(f, "boolean byte out of range: {v}"),
            WireError::ChainTooLong(n) => write!(f, "relay chain of {n} exceeds CHAIN_CAP"),
            WireError::BadChecksum { expect, got } => {
                write!(
                    f,
                    "checksum mismatch: computed {expect:#x}, carried {got:#x}"
                )
            }
            WireError::Oversized(n) => write!(f, "datagram of {n} bytes exceeds MAX_DATAGRAM"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after a complete packet"),
        }
    }
}

impl std::error::Error for WireError {}

/// One sequenced frame — the reliable, in-order payloads of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqFrame {
    /// A protocol broadcast delivered in round `round` of `instance`.
    Data {
        /// The round this message is to be delivered in.
        round: Round,
        /// The broadcast instance it belongs to.
        instance: InstanceId,
        /// The protocol payload.
        msg: Msg,
    },
    /// Round barrier marker: "all my `Data` for `round` precede this".
    Mark {
        /// The round being closed by the sender.
        round: Round,
    },
}

/// A decoded datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Sender node id (authoritative: the runtime, like the paper's
    /// channel model, assumes link identities cannot be forged; the
    /// chaos shim corrupts packets, it does not impersonate).
    pub src: u32,
    /// Sender's boot epoch.
    pub epoch: u32,
    /// Payload.
    pub kind: PacketKind,
}

/// The two datagram kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Cumulative acknowledgement of a peer's sequenced stream.
    Ack {
        /// The peer epoch whose stream is acknowledged.
        ack_epoch: u32,
        /// Every `seq < cum` has been received and journaled.
        cum: u64,
    },
    /// One sequenced frame.
    Seq {
        /// Position in the sender's per-link FIFO stream.
        seq: u64,
        /// The frame.
        frame: SeqFrame,
    },
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

// The relay count of a Heard chain rides a single wire byte. The chain
// capacity is a protocol-layer constant; if it ever outgrew a u8, the
// `relays.len() as u8` below would silently truncate the count and the
// decoder would mis-frame every following byte. Make that a build
// error instead.
const _: () = assert!(
    CHAIN_CAP <= u8::MAX as usize,
    "relay chains must fit the one-byte wire count"
);

/// Appends the encoding of `msg` to `out`.
fn encode_msg(out: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Source(v) => {
            out.push(0);
            out.push(u8::from(*v));
        }
        Msg::Committed(v) => {
            out.push(1);
            out.push(u8::from(*v));
        }
        Msg::Heard(chain) => {
            out.push(2);
            out.push(u8::from(chain.value()));
            put_u32(out, chain.committer().0);
            let relays = chain.relays();
            // Lossless: relays.len() ≤ CHAIN_CAP ≤ u8::MAX (const
            // assert above).
            out.push(relays.len() as u8);
            for r in relays {
                put_u32(out, r.0);
            }
        }
    }
}

/// Appends the encoding of `frame` to `out`.
pub fn encode_frame(out: &mut Vec<u8>, frame: &SeqFrame) {
    match frame {
        SeqFrame::Data {
            round,
            instance,
            msg,
        } => {
            out.push(0);
            put_u32(out, *round);
            put_u32(out, instance.origin.0);
            put_u32(out, instance.seq);
            encode_msg(out, msg);
        }
        SeqFrame::Mark { round } => {
            out.push(1);
            put_u32(out, *round);
        }
    }
}

/// Appends a full datagram (header + body + checksum) to `out`, a
/// buffer the caller owns and may reuse from datagram to datagram.
// Inlined so that `encode_packet` keeps its fresh buffer's pointer and
// length in registers, as it did when this body was its own.
#[inline]
pub fn encode_packet_into(out: &mut Vec<u8>, pkt: &Packet) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    match &pkt.kind {
        PacketKind::Ack { .. } => out.push(0),
        PacketKind::Seq { .. } => out.push(1),
    }
    put_u32(out, pkt.src);
    put_u32(out, pkt.epoch);
    match &pkt.kind {
        PacketKind::Ack { ack_epoch, cum } => {
            put_u32(out, *ack_epoch);
            put_u64(out, *cum);
        }
        PacketKind::Seq { seq, frame } => {
            put_u64(out, *seq);
            encode_frame(out, frame);
        }
    }
    let sum = checksum(&out[start..]);
    put_u64(out, sum);
    debug_assert!(
        out.len() - start <= MAX_DATAGRAM,
        "encoded packet exceeds MAX_DATAGRAM"
    );
}

/// [`encode_packet_into`] a fresh buffer.
#[must_use]
pub fn encode_packet(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_DATAGRAM);
    encode_packet_into(&mut out, pkt);
    out
}

/// Checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadValue(v)),
        }
    }
}

fn decode_msg(c: &mut Cursor<'_>) -> Result<Msg, WireError> {
    match c.u8()? {
        0 => Ok(Msg::Source(c.bool()?)),
        1 => Ok(Msg::Committed(c.bool()?)),
        2 => {
            let value = c.bool()?;
            let committer = NodeId(c.u32()?);
            let n = c.u8()?;
            if usize::from(n) > CHAIN_CAP {
                return Err(WireError::ChainTooLong(n));
            }
            let mut relays = [NodeId(0); CHAIN_CAP];
            for slot in relays.iter_mut().take(usize::from(n)) {
                *slot = NodeId(c.u32()?);
            }
            let chain = ChainRepr::try_new(committer, value, &relays[..usize::from(n)])
                .expect("relay count was bounds-checked against CHAIN_CAP");
            Ok(Msg::Heard(chain))
        }
        t => Err(WireError::BadMsgTag(t)),
    }
}

fn decode_frame_at(c: &mut Cursor<'_>) -> Result<SeqFrame, WireError> {
    match c.u8()? {
        0 => {
            let round = c.u32()?;
            let origin = NodeId(c.u32()?);
            let iseq = c.u32()?;
            let msg = decode_msg(c)?;
            Ok(SeqFrame::Data {
                round,
                instance: InstanceId { origin, seq: iseq },
                msg,
            })
        }
        1 => Ok(SeqFrame::Mark { round: c.u32()? }),
        t => Err(WireError::BadFrameTag(t)),
    }
}

/// Decodes one standalone frame (the journal's `body` field). The whole
/// input must be consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<SeqFrame, WireError> {
    let mut c = Cursor::new(bytes);
    let frame = decode_frame_at(&mut c)?;
    if c.remaining() != 0 {
        return Err(WireError::Trailing(c.remaining()));
    }
    Ok(frame)
}

/// Decodes a full datagram, verifying magic, version, structure, and
/// checksum. Total: every input yields `Ok` or a [`WireError`].
pub fn decode_packet(bytes: &[u8]) -> Result<Packet, WireError> {
    if bytes.len() > MAX_DATAGRAM {
        return Err(WireError::Oversized(bytes.len()));
    }
    // The checksum is validated first (over everything before it), so a
    // flipped bit surfaces as BadChecksum even when it would also break
    // a structural field.
    if bytes.len() < MAGIC.len() + 2 + 8 + 8 {
        return Err(WireError::Truncated {
            need: MAGIC.len() + 2 + 8 + 8,
            got: bytes.len(),
        });
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let carried = u64::from_le_bytes(
        <[u8; 8]>::try_from(sum_bytes).expect("split_at(len - 8) yields exactly 8 bytes"),
    );
    let computed = checksum(body);
    if carried != computed {
        return Err(WireError::BadChecksum {
            expect: computed,
            got: carried,
        });
    }
    let mut c = Cursor::new(body);
    let magic = c.take(2)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic([magic[0], magic[1]]));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = c.u8()?;
    let src = c.u32()?;
    let epoch = c.u32()?;
    let kind = match kind {
        0 => PacketKind::Ack {
            ack_epoch: c.u32()?,
            cum: c.u64()?,
        },
        1 => PacketKind::Seq {
            seq: c.u64()?,
            frame: decode_frame_at(&mut c)?,
        },
        k => return Err(WireError::BadKind(k)),
    };
    if c.remaining() != 0 {
        return Err(WireError::Trailing(c.remaining()));
    }
    Ok(Packet { src, epoch, kind })
}

/// Decodes the hex `body` field of a journal frame record; `None` on
/// odd length or non-hex characters.
#[must_use]
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Option<Vec<u8>> = s
        .chars()
        .map(|ch| ch.to_digit(16).map(|d| d as u8))
        .collect();
    let digits = digits?;
    Some(digits.chunks(2).map(|p| (p[0] << 4) | p[1]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Computed at the commit before the byte fold moved to
    /// `rbcast_grid::plumbing`: no on-wire byte may move.
    #[test]
    fn checksum_is_pinned() {
        assert_eq!(
            checksum(b"RB\x01\x00\x00\x00\x07reliable broadcast"),
            0xb46e_6633_f250_f044
        );
        assert_eq!(checksum(b""), FNV_OFFSET);
    }

    fn sample_packets() -> Vec<Packet> {
        let inst = InstanceId {
            origin: NodeId(3),
            seq: 7,
        };
        vec![
            Packet {
                src: 4,
                epoch: 1,
                kind: PacketKind::Ack {
                    ack_epoch: 2,
                    cum: 99,
                },
            },
            Packet {
                src: 0,
                epoch: 3,
                kind: PacketKind::Seq {
                    seq: 12,
                    frame: SeqFrame::Mark { round: 5 },
                },
            },
            Packet {
                src: 8,
                epoch: 1,
                kind: PacketKind::Seq {
                    seq: 0,
                    frame: SeqFrame::Data {
                        round: 2,
                        instance: inst,
                        msg: Msg::Source(true),
                    },
                },
            },
            Packet {
                src: 8,
                epoch: 1,
                kind: PacketKind::Seq {
                    seq: 1,
                    frame: SeqFrame::Data {
                        round: 3,
                        instance: inst,
                        msg: Msg::heard(NodeId(9), false, &[NodeId(1), NodeId(2), NodeId(4)]),
                    },
                },
            },
        ]
    }

    #[test]
    fn round_trips() {
        for pkt in sample_packets() {
            let bytes = encode_packet(&pkt);
            assert!(bytes.len() <= MAX_DATAGRAM);
            assert_eq!(decode_packet(&bytes), Ok(pkt), "{pkt:?}");
        }
    }

    #[test]
    fn truncations_error_cleanly() {
        for pkt in sample_packets() {
            let bytes = encode_packet(&pkt);
            for cut in 0..bytes.len() {
                let err = decode_packet(&bytes[..cut]);
                assert!(err.is_err(), "prefix of {cut} bytes decoded: {err:?}");
            }
        }
    }

    #[test]
    fn single_bit_flips_never_decode() {
        for pkt in sample_packets() {
            let bytes = encode_packet(&pkt);
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    assert!(
                        decode_packet(&bad).is_err(),
                        "bit {bit} of byte {i} survived in {pkt:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A valid packet with appended garbage re-checksums differently,
        // so corruption of *length* is caught too.
        let mut bytes = encode_packet(&sample_packets()[0]);
        bytes.push(0);
        assert!(decode_packet(&bytes).is_err());
    }

    #[test]
    fn oversized_input_is_rejected_before_parsing() {
        let huge = vec![0u8; MAX_DATAGRAM + 1];
        assert_eq!(
            decode_packet(&huge),
            Err(WireError::Oversized(MAX_DATAGRAM + 1))
        );
    }

    #[test]
    fn hex_decodes_a_frame_body_and_rejects_the_rest() {
        let mut body = Vec::new();
        encode_frame(&mut body, &SeqFrame::Mark { round: 9 });
        assert_eq!(from_hex("0109000000").as_deref(), Some(body.as_slice()));
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("abc"), None);
    }

    #[test]
    fn errors_display_usefully() {
        let e = WireError::BadChecksum { expect: 1, got: 2 };
        assert!(e.to_string().contains("checksum"));
    }
}
