//! Structured trace events — the observable form of a simulation run.
//!
//! Every run of [`crate::Network`] produces a totally ordered stream of
//! [`TraceEvent`]s: round boundaries, transmissions, deliveries, channel
//! interference, decisions, and protocol-level notes (see
//! [`crate::Ctx::note`]). The stream is a pure function of the network's
//! inputs, so two runs of the same experiment — at any worker-thread
//! count — serialize to byte-identical JSONL.
//!
//! The legacy delivery-trace hash is *derived from this stream by
//! construction*: the network folds exactly the words returned by
//! `TraceEvent::fold_into` into its FNV-1a accumulator, and
//! [`replay_hash`] re-derives the same hash from a serialized stream, so
//! the two representations can never diverge.

use crate::Round;
use rbcast_grid::plumbing::{json_field, json_field_u64};
use std::io::Write;

pub use rbcast_grid::plumbing::{FNV_OFFSET, FNV_PRIME};

/// `PRIME_POW[k] = FNV_PRIME^k (mod 2^64)`, `k = 0..=8`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds words into an FNV-1a accumulator — the digest of each word's
/// eight little-endian bytes, in order.
///
/// FNV-1a on a zero byte is `h ← h·P`, and `wrapping_mul` is
/// associative, so the `k` zero bytes above a word's top live byte
/// collapse into that byte's own multiply: `(h ^ b)·P·P^k`. Only the
/// live low bytes pay an xor-mul step each; node ids, rounds and
/// transmission indices are one to three bytes wide, which is what
/// makes the per-delivery fold cheap.
pub fn fold_words(hash: &mut u64, words: &[u64]) {
    let mut h = *hash;
    for &word in words {
        // A zero word keeps its lowest byte "live": 0x00 then seven zeros.
        let zero_bytes = ((word | 1).leading_zeros() / 8) as usize;
        let mut rest = word;
        while rest > 0xff {
            h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        h = (h ^ rest).wrapping_mul(PRIME_POW[zero_bytes + 1]);
    }
    *hash = h;
}

/// One typed event in a run's trace stream.
///
/// Node and transmission identities are plain indices (not
/// [`rbcast_grid::NodeId`]) so the event is a self-contained record
/// independent of any live network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A delivery round began with `on_air` transmissions pending.
    RoundStart {
        /// Round number (1-based; round 0's start-ups open no round).
        round: Round,
        /// Transmissions on the air this round.
        on_air: u64,
    },
    /// One transmission on the air, in global delivery order.
    Transmission {
        /// Round in which it is delivered.
        round: Round,
        /// Position in this round's global transmission order.
        index: u64,
        /// True transmitter's node index.
        sender: u64,
        /// Identity the channel reports (differs from `sender` only
        /// under the §X spoofing relaxation).
        claimed: u64,
    },
    /// A delivery destroyed by a deliberate collision (§X jamming).
    Jammed {
        /// Delivery round.
        round: Round,
        /// Transmission index within the round.
        index: u64,
        /// Receiver that lost the delivery.
        receiver: u64,
        /// The jammer responsible.
        jammer: u64,
    },
    /// A delivery destroyed by probabilistic channel loss.
    Lost {
        /// Delivery round.
        round: Round,
        /// Transmission index within the round.
        index: u64,
        /// Receiver that lost the delivery.
        receiver: u64,
    },
    /// A successful delivery — one of the two event kinds the trace
    /// hash folds.
    Delivery {
        /// Delivery round.
        round: Round,
        /// Transmission index within the round.
        index: u64,
        /// Receiving node.
        receiver: u64,
        /// Claimed sender identity, as the receiver observed it.
        claimed: u64,
    },
    /// A protocol-level annotation recorded via [`crate::Ctx::note`] —
    /// e.g. the indirect protocol accepting commit evidence.
    Note {
        /// Round in which the note was recorded.
        round: Round,
        /// The annotating node.
        node: u64,
        /// Static label naming the occurrence (e.g. `"commit-evidence"`).
        label: &'static str,
        /// Free payload word.
        value: u64,
    },
    /// A node committed (first observed at this round's end; nodes are
    /// scanned in index order, so the stream order is deterministic).
    Decision {
        /// Round the decision was recorded.
        round: Round,
        /// The deciding node.
        node: u64,
        /// The committed value.
        value: bool,
    },
    /// A delivery round ended — the other hashed event kind.
    RoundEnd {
        /// Round number.
        round: Round,
        /// Total nodes decided after this round.
        decided: u64,
        /// True when the hash froze at (or before) this round's end:
        /// no later event contributes to the hash.
        frozen: bool,
    },
}

impl TraceEvent {
    /// Folds this event's hash contribution into `hash`. Only
    /// [`TraceEvent::Delivery`] and [`TraceEvent::RoundEnd`] contribute;
    /// the words match the network's historical fold exactly.
    pub(crate) fn fold_into(&self, hash: &mut u64) {
        match *self {
            TraceEvent::Delivery {
                round,
                index,
                receiver,
                claimed,
            } => fold_words(hash, &[u64::from(round), index, receiver, claimed]),
            TraceEvent::RoundEnd { round, decided, .. } => {
                fold_words(hash, &[u64::from(round), decided]);
            }
            _ => {}
        }
    }

    /// Serializes the event as one line of JSON (no trailing newline).
    /// Keys are emitted in a fixed order, so equal events serialize to
    /// equal bytes.
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        match *self {
            TraceEvent::RoundStart { round, on_air } => {
                format!("{{\"ev\":\"round_start\",\"round\":{round},\"on_air\":{on_air}}}")
            }
            TraceEvent::Transmission {
                round,
                index,
                sender,
                claimed,
            } => format!(
                "{{\"ev\":\"tx\",\"round\":{round},\"index\":{index},\
                 \"sender\":{sender},\"claimed\":{claimed}}}"
            ),
            TraceEvent::Jammed {
                round,
                index,
                receiver,
                jammer,
            } => format!(
                "{{\"ev\":\"jam\",\"round\":{round},\"index\":{index},\
                 \"receiver\":{receiver},\"jammer\":{jammer}}}"
            ),
            TraceEvent::Lost {
                round,
                index,
                receiver,
            } => format!(
                "{{\"ev\":\"loss\",\"round\":{round},\"index\":{index},\"receiver\":{receiver}}}"
            ),
            TraceEvent::Delivery {
                round,
                index,
                receiver,
                claimed,
            } => format!(
                "{{\"ev\":\"delivery\",\"round\":{round},\"index\":{index},\
                 \"receiver\":{receiver},\"claimed\":{claimed}}}"
            ),
            TraceEvent::Note {
                round,
                node,
                label,
                value,
            } => format!(
                "{{\"ev\":\"note\",\"round\":{round},\"node\":{node},\
                 \"label\":\"{label}\",\"value\":{value}}}"
            ),
            TraceEvent::Decision { round, node, value } => {
                format!(
                    "{{\"ev\":\"decision\",\"round\":{round},\"node\":{node},\"value\":{value}}}"
                )
            }
            TraceEvent::RoundEnd {
                round,
                decided,
                frozen,
            } => format!(
                "{{\"ev\":\"round_end\",\"round\":{round},\"decided\":{decided},\
                 \"frozen\":{frozen}}}"
            ),
        }
    }
}

/// A consumer of trace events. The network calls [`TraceSink::record`]
/// for every event, in stream order, and [`TraceSink::flush`] once at
/// the end of each run.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes any buffering; called at the end of a run.
    fn flush(&mut self) {}
}

/// A [`TraceSink`] serializing every event as one JSON line.
///
/// Write errors are sticky: the first failure is remembered and
/// subsequent events are dropped (a trace is diagnostics, not simulation
/// state — it must never abort a run).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    failed: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            failed: false,
        }
    }

    /// True once any write has failed.
    #[cfg(test)]
    fn failed(&self) -> bool {
        self.failed
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.failed {
            return;
        }
        if writeln!(self.writer, "{}", event.to_json()).is_err() {
            self.failed = true;
        }
    }

    fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.failed = true;
        }
    }
}

/// A [`TraceSink`] collecting events in memory (for tests and
/// programmatic inspection).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The recorded stream, in order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Re-derives the delivery-trace hash from an event stream.
///
/// Folding stops after the first [`TraceEvent::RoundEnd`] carrying
/// `frozen: true` — exactly where the live network froze its hash.
#[cfg(test)]
pub(crate) fn replay_hash_events(events: &[TraceEvent]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut frozen = false;
    for ev in events {
        if frozen {
            break;
        }
        ev.fold_into(&mut hash);
        if let TraceEvent::RoundEnd { frozen: f, .. } = ev {
            frozen = *f;
        }
    }
    hash
}

/// Re-derives the delivery-trace hash from serialized JSONL (the output
/// of a [`JsonlSink`]). Returns an error describing the first malformed
/// line, if any.
pub fn replay_hash(jsonl: &str) -> Result<u64, String> {
    // Error text lives in a helper so the per-line happy path never
    // allocates; it only runs on malformed input.
    fn line_err(lineno: usize, what: &str) -> String {
        format!("line {}: {what}", lineno + 1)
    }
    let mut hash = FNV_OFFSET;
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = json_field(line, "ev").ok_or_else(|| line_err(lineno, "missing \"ev\" field"))?;
        match ev {
            "delivery" => {
                let words = [
                    json_field_u64(line, "round"),
                    json_field_u64(line, "index"),
                    json_field_u64(line, "receiver"),
                    json_field_u64(line, "claimed"),
                ];
                let words: Vec<u64> = words
                    .into_iter()
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| line_err(lineno, "malformed delivery"))?;
                fold_words(&mut hash, &words);
            }
            "round_end" => {
                let round = json_field_u64(line, "round")
                    .ok_or_else(|| line_err(lineno, "malformed round_end"))?;
                let decided = json_field_u64(line, "decided")
                    .ok_or_else(|| line_err(lineno, "malformed round_end"))?;
                fold_words(&mut hash, &[round, decided]);
                match json_field(line, "frozen") {
                    Some("true") => return Ok(hash),
                    Some("false") => {}
                    _ => return Err(line_err(lineno, "malformed round_end")),
                }
            }
            _ => {}
        }
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const _: () = {
        let mut k = 0;
        while k < PRIME_POW.len() {
            assert!(PRIME_POW[k] == FNV_PRIME.wrapping_pow(k as u32));
            k += 1;
        }
    };

    /// Textbook FNV-1a over the words' little-endian bytes: the digest
    /// [`fold_words`] must equal, one xor-mul step per byte.
    fn fold_words_bytewise(hash: &mut u64, words: &[u64]) {
        for w in words {
            for byte in w.to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    }

    #[test]
    fn fold_matches_manual_fnv() {
        // Every count of zero high bytes (8 down to 0), a zero byte
        // below a live one, and the all-ones word.
        let edges = [0, 0xff, 0x100, 0x0001_0000, 1 << 56, u64::MAX, 1, 2, 3];
        for seed in [FNV_OFFSET, 0, u64::MAX] {
            for w in edges {
                let (mut fast, mut manual) = (seed, seed);
                fold_words(&mut fast, &[w]);
                fold_words_bytewise(&mut manual, &[w]);
                assert_eq!(fast, manual, "seed {seed:#x}, word {w:#x}");
            }
            let (mut fast, mut manual) = (seed, seed);
            fold_words(&mut fast, &edges);
            fold_words_bytewise(&mut manual, &edges);
            assert_eq!(fast, manual, "seed {seed:#x}, all edge words");
        }
    }

    proptest! {
        /// The zero-byte shortcut is the byte-serial digest for any
        /// starting hash and any words. Words are shifted right by a
        /// random amount so every high-zero-byte count is exercised (a
        /// uniform `u64` almost never has one).
        #[test]
        fn fold_equals_the_bytewise_reference(
            seed in 0u64..=u64::MAX,
            words in proptest::collection::vec(
                (0u64..=u64::MAX, 0u32..64).prop_map(|(w, shift)| w >> shift),
                0..12,
            ),
        ) {
            let (mut fast, mut manual) = (seed, seed);
            fold_words(&mut fast, &words);
            fold_words_bytewise(&mut manual, &words);
            prop_assert_eq!(fast, manual);
            // The workspace's shared byte fold is the same digest.
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            prop_assert_eq!(rbcast_grid::plumbing::fnv1a(seed, &bytes), manual);
        }
    }

    #[test]
    fn only_deliveries_and_round_ends_fold() {
        let silent = [
            TraceEvent::RoundStart {
                round: 1,
                on_air: 3,
            },
            TraceEvent::Transmission {
                round: 1,
                index: 0,
                sender: 4,
                claimed: 4,
            },
            TraceEvent::Jammed {
                round: 1,
                index: 0,
                receiver: 5,
                jammer: 6,
            },
            TraceEvent::Lost {
                round: 1,
                index: 0,
                receiver: 5,
            },
            TraceEvent::Note {
                round: 1,
                node: 5,
                label: "x",
                value: 9,
            },
            TraceEvent::Decision {
                round: 1,
                node: 5,
                value: true,
            },
        ];
        for ev in &silent {
            let mut hash = FNV_OFFSET;
            ev.fold_into(&mut hash);
            assert_eq!(hash, FNV_OFFSET, "{ev:?} must not fold");
        }
        let mut hash = FNV_OFFSET;
        TraceEvent::Delivery {
            round: 1,
            index: 0,
            receiver: 5,
            claimed: 4,
        }
        .fold_into(&mut hash);
        assert_ne!(hash, FNV_OFFSET);
    }

    #[test]
    fn jsonl_roundtrip_rederives_the_hash() {
        let events = vec![
            TraceEvent::RoundStart {
                round: 1,
                on_air: 1,
            },
            TraceEvent::Transmission {
                round: 1,
                index: 0,
                sender: 7,
                claimed: 7,
            },
            TraceEvent::Delivery {
                round: 1,
                index: 0,
                receiver: 8,
                claimed: 7,
            },
            TraceEvent::Decision {
                round: 1,
                node: 8,
                value: true,
            },
            TraceEvent::RoundEnd {
                round: 1,
                decided: 1,
                frozen: false,
            },
            TraceEvent::Delivery {
                round: 2,
                index: 0,
                receiver: 9,
                claimed: 8,
            },
            TraceEvent::RoundEnd {
                round: 2,
                decided: 2,
                frozen: true,
            },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.record(ev);
        }
        TraceSink::flush(&mut sink);
        assert!(!sink.failed());
        let jsonl = String::from_utf8(sink.writer).expect("trace is utf-8");
        assert_eq!(
            replay_hash(&jsonl).expect("well-formed"),
            replay_hash_events(&events)
        );
    }

    #[test]
    fn replay_stops_folding_at_the_freeze() {
        let prefix = vec![
            TraceEvent::Delivery {
                round: 1,
                index: 0,
                receiver: 2,
                claimed: 1,
            },
            TraceEvent::RoundEnd {
                round: 1,
                decided: 1,
                frozen: true,
            },
        ];
        let mut with_tail = prefix.clone();
        with_tail.push(TraceEvent::Delivery {
            round: 2,
            index: 0,
            receiver: 3,
            claimed: 2,
        });
        with_tail.push(TraceEvent::RoundEnd {
            round: 2,
            decided: 1,
            frozen: true,
        });
        assert_eq!(replay_hash_events(&prefix), replay_hash_events(&with_tail));
        let to_jsonl =
            |evs: &[TraceEvent]| evs.iter().map(|e| e.to_json() + "\n").collect::<String>();
        assert_eq!(
            replay_hash(&to_jsonl(&prefix)).expect("well-formed"),
            replay_hash(&to_jsonl(&with_tail)).expect("well-formed"),
        );
    }

    #[test]
    fn replay_rejects_malformed_lines() {
        assert!(replay_hash("{\"no_ev\":1}").is_err());
        assert!(replay_hash("{\"ev\":\"delivery\",\"round\":1}").is_err());
        assert!(replay_hash("{\"ev\":\"round_end\",\"round\":1,\"decided\":0}").is_err());
    }

    #[test]
    fn json_is_stable_and_single_line() {
        let ev = TraceEvent::Delivery {
            round: 3,
            index: 5,
            receiver: 12,
            claimed: 7,
        };
        let json = ev.to_json();
        assert_eq!(
            json,
            "{\"ev\":\"delivery\",\"round\":3,\"index\":5,\"receiver\":12,\"claimed\":7}"
        );
        assert!(!json.contains('\n'));
    }
}
