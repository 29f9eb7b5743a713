//! Per-neighbor reliable links: sequencing, cumulative acks,
//! deterministic retransmission, duplicate suppression, epoch-based
//! restart detection.
//!
//! A [`Link`] turns the lossy datagram transport into the FIFO channel
//! the round barrier needs. Each direction is an independent stream:
//!
//! * **Tx** — frames get consecutive sequence numbers under the
//!   sender's boot epoch and stay buffered until cumulatively acked;
//!   unacked frames retransmit on a tick-based timeout with capped
//!   exponential backoff and deterministic jitter derived from
//!   [`rbcast_core::supervisor::retry_seed`], so two runs of the same
//!   schedule retransmit at identical ticks. A frame retries until it is
//!   acked, never gives up: a peer may crash and come back.
//! * **Rx** — frames release strictly in sequence order; out-of-order
//!   arrivals buffer up to `RX_WINDOW` ahead (beyond it they are
//!   dropped unacked and retransmission brings them back), duplicates
//!   re-trigger an ack and are dropped. An incoming *higher* epoch
//!   means the peer restarted: its new stream starts over at sequence
//!   0, so the receive state resets (the runtime layer discards that
//!   peer's un-consumed round buffers to match). Acks carry the epoch
//!   they acknowledge, so a stale ack from before a restart can never
//!   consume frames of the new stream.
//!
//! The ack split supports journal-before-ack crash recovery: the link
//! *releases* frames immediately (`Link::on_packet`) but only
//! acknowledges what the runtime has *confirmed*
//! (`Link::confirm_released`) after journaling. A crash between
//! release and confirm merely means the peer retransmits — frames the
//! peer saw acked are always journaled.

use crate::wire::{encode_packet_into, Packet, PacketKind, SeqFrame};
use rbcast_core::supervisor::retry_seed;
use std::collections::{BTreeMap, VecDeque};

// The retransmission policy, in ticks: one tick per runtime pump, never
// wall clock, so behaviour is deterministic per schedule.

/// Ticks before the first retransmission of a frame.
const BASE_TIMEOUT: u64 = 16;
/// The backoff doubles per attempt up to `BASE_TIMEOUT << BACKOFF_CAP`.
const BACKOFF_CAP: u32 = 6;
/// Deterministic jitter added per retransmission, in `0..=JITTER`.
const JITTER: u64 = 7;

/// Counters for one link, both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames handed to the link for first transmission.
    pub sent: u64,
    /// Retransmissions (timeouts fired).
    pub retransmits: u64,
    /// Duplicate frames received and suppressed.
    pub dup_rx: u64,
    /// Packets dropped as stale (older epoch than current).
    pub stale_rx: u64,
    /// Cumulative acks received that advanced the tx window.
    pub acks_rx: u64,
    /// Frames dropped unacked for lying `RX_WINDOW` or more ahead of
    /// the next release.
    pub window_drops: u64,
}

/// How far ahead of the next in-order release a sequence number may lie
/// and still be buffered. Link identity is the one thing a faulty
/// neighbor cannot forge, so it is also the one stream it can flood: a
/// frame at or beyond the window is dropped *unacked* and comes back by
/// ordinary retransmission once the window has advanced. A constant,
/// far above what a correct sender ever has in flight (one round's
/// broadcasts per instance).
const RX_WINDOW: u64 = 65_536;

#[derive(Debug)]
struct Outstanding {
    seq: u64,
    frame: SeqFrame,
    due: u64,
    attempts: u32,
}

/// One bidirectional reliable link to a single neighbor.
#[derive(Debug)]
pub struct Link {
    me: u32,
    my_epoch: u32,
    peer: u32,
    // Tx state.
    next_seq: u64,
    unacked: VecDeque<Outstanding>,
    /// A lower bound on the earliest `due` among `unacked` (0 after a
    /// send, recomputed by every scan): below it a flush has nothing to
    /// retransmit and need not look.
    next_due: u64,
    /// The datagram being emitted, reused from one to the next.
    datagram: Vec<u8>,
    // Rx state.
    peer_epoch: Option<u32>,
    next_release: u64,
    confirmed: u64,
    ooo: BTreeMap<u64, SeqFrame>,
    ack_due: bool,
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// A fresh link from `me` (at boot epoch `my_epoch`) to `peer`.
    #[must_use]
    pub(crate) fn new(me: u32, my_epoch: u32, peer: u32) -> Self {
        Link {
            me,
            my_epoch,
            peer,
            next_seq: 0,
            unacked: VecDeque::new(),
            next_due: 0,
            datagram: Vec::new(),
            peer_epoch: None,
            next_release: 0,
            confirmed: 0,
            ooo: BTreeMap::new(),
            ack_due: false,
            stats: LinkStats::default(),
        }
    }

    /// The neighbor this link serves.
    #[must_use]
    pub(crate) fn peer(&self) -> u32 {
        self.peer
    }

    /// Restores receive-side state from the journal after a restart:
    /// every journaled frame of `peer_epoch` was released in sequence
    /// order starting at 0, so `count` frames are both released and
    /// confirmed.
    pub(crate) fn restore_rx(&mut self, peer_epoch: u32, count: u64) {
        self.peer_epoch = Some(peer_epoch);
        self.next_release = count;
        self.confirmed = count;
        // Tell the peer where we are so it prunes its unacked buffer.
        self.ack_due = true;
    }

    /// Queues `frame` on the tx stream; it transmits on the next
    /// [`Link::flush`] and retransmits until acked.
    pub(crate) fn send(&mut self, frame: SeqFrame) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        self.unacked.push_back(Outstanding {
            seq,
            frame,
            due: 0, // due immediately: first flush transmits it
            attempts: 0,
        });
        self.next_due = 0;
    }

    /// Ingests one decoded packet from this peer. Frames released in
    /// order (paired with their sequence numbers) are pushed onto
    /// `released`, which the caller lends. A higher epoch than the
    /// peer's last resets the receive state, since the restarted peer's
    /// stream starts over; the runtime sees the bump in the frames'
    /// epoch.
    pub(crate) fn on_packet(&mut self, pkt: &Packet, released: &mut Vec<(u64, SeqFrame)>) {
        match pkt.kind {
            PacketKind::Ack { ack_epoch, cum } => {
                // Acks are valid only for the stream they acknowledge:
                // a pre-restart ack must not consume post-restart frames.
                if ack_epoch == self.my_epoch {
                    let before = self.unacked.len();
                    while self.unacked.front().is_some_and(|o| o.seq < cum) {
                        self.unacked.pop_front();
                    }
                    if self.unacked.len() < before {
                        self.stats.acks_rx += 1;
                    }
                } else {
                    self.stats.stale_rx += 1;
                }
            }
            PacketKind::Seq { seq, frame } => {
                match self.peer_epoch {
                    None => self.peer_epoch = Some(pkt.epoch),
                    Some(e) if pkt.epoch < e => {
                        self.stats.stale_rx += 1;
                        return;
                    }
                    Some(e) if pkt.epoch > e => {
                        // Peer restarted: its stream starts over.
                        self.peer_epoch = Some(pkt.epoch);
                        self.next_release = 0;
                        self.confirmed = 0;
                        self.ooo.clear();
                    }
                    Some(_) => {}
                }
                if seq == self.next_release {
                    // In order: straight out, never through the reorder
                    // buffer, which is empty unless a gap came first.
                    released.push((seq, frame));
                    self.next_release += 1;
                    while let Some(frame) = self.ooo.remove(&self.next_release) {
                        released.push((self.next_release, frame));
                        self.next_release += 1;
                    }
                } else if seq < self.next_release || self.ooo.contains_key(&seq) {
                    self.stats.dup_rx += 1;
                    // Re-ack so the peer stops retransmitting.
                    self.ack_due = true;
                } else if seq - self.next_release < RX_WINDOW {
                    self.ooo.insert(seq, frame);
                } else {
                    self.stats.window_drops += 1;
                }
            }
        }
    }

    /// Marks every released frame as journaled, scheduling a cumulative
    /// ack. Call after durably recording the frames [`Link::on_packet`]
    /// returned — never before.
    pub(crate) fn confirm_released(&mut self) {
        if self.confirmed != self.next_release {
            self.confirmed = self.next_release;
            self.ack_due = true;
        }
    }

    /// Emits every datagram due at `tick`, each handed to `sink` (all
    /// destined for `Link::peer`): a cumulative ack if one is pending,
    /// and any unacked frame whose retransmission timer expired.
    pub(crate) fn flush(&mut self, tick: u64, mut sink: impl FnMut(&[u8])) {
        let (src, epoch) = (self.me, self.my_epoch);
        let datagram = &mut self.datagram;
        let mut emit = |kind: PacketKind| {
            datagram.clear();
            encode_packet_into(datagram, &Packet { src, epoch, kind });
            sink(datagram);
        };
        if self.ack_due {
            self.ack_due = false;
            if let Some(ack_epoch) = self.peer_epoch {
                emit(PacketKind::Ack {
                    ack_epoch,
                    cum: self.confirmed,
                });
            }
        }
        // A scan that finds nothing due emits nothing and changes
        // nothing, so skipping it below a lower bound is unobservable.
        if tick < self.next_due {
            return;
        }
        let mut next_due = u64::MAX;
        for o in &mut self.unacked {
            if o.due <= tick {
                if o.attempts > 0 {
                    self.stats.retransmits += 1;
                }
                emit(PacketKind::Seq {
                    seq: o.seq,
                    frame: o.frame,
                });
                let backoff = BASE_TIMEOUT << o.attempts.min(BACKOFF_CAP);
                let jitter = retry_seed(self.peer as usize, o.attempts) % (JITTER + 1);
                o.due = tick + backoff + jitter;
                o.attempts += 1;
            }
            next_due = next_due.min(o.due);
        }
        self.next_due = next_due;
    }

    /// Frames sent but not yet cumulatively acked.
    #[must_use]
    pub(crate) fn in_flight(&self) -> usize {
        self.unacked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(round: u32) -> SeqFrame {
        SeqFrame::Mark { round }
    }

    fn seq_packet(src: u32, epoch: u32, seq: u64, frame: SeqFrame) -> Packet {
        Packet {
            src,
            epoch,
            kind: PacketKind::Seq { seq, frame },
        }
    }

    /// `on_packet` into a fresh buffer, in the old return shape.
    fn rx(link: &mut Link, pkt: &Packet) -> Vec<(u64, SeqFrame)> {
        let mut released = Vec::new();
        link.on_packet(pkt, &mut released);
        released
    }

    /// Everything the receive side keeps.
    fn rx_state(link: &Link) -> (Option<u32>, u64, u64, &BTreeMap<u64, SeqFrame>, bool) {
        (
            link.peer_epoch,
            link.next_release,
            link.confirmed,
            &link.ooo,
            link.ack_due,
        )
    }

    type Datagram = Vec<u8>;
    type Datagrams = Vec<Datagram>;

    /// The datagrams one `flush` emits.
    fn tx(link: &mut Link, tick: u64) -> Datagrams {
        let mut out = Vec::new();
        link.flush(tick, |bytes| out.push(bytes.to_vec()));
        out
    }

    #[test]
    fn releases_in_order_and_buffers_gaps() {
        let mut link = Link::new(0, 1, 1);
        let r = rx(&mut link, &seq_packet(1, 1, 1, mark(2)));
        assert!(r.is_empty(), "gap must hold release");
        let r = rx(&mut link, &seq_packet(1, 1, 0, mark(1)));
        assert_eq!(r, vec![(0, mark(1)), (1, mark(2))]);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let mut link = Link::new(0, 1, 1);
        let r = rx(&mut link, &seq_packet(1, 1, 0, mark(1)));
        assert_eq!(r.len(), 1);
        link.confirm_released();
        let r = rx(&mut link, &seq_packet(1, 1, 0, mark(1)));
        assert!(r.is_empty());
        assert_eq!(link.stats.dup_rx, 1);
        assert_eq!(tx(&mut link, 0).len(), 1, "duplicate triggers a fresh ack");
    }

    #[test]
    fn retransmits_until_acked_with_backoff() {
        let mut link = Link::new(0, 1, 1);
        link.send(mark(1));
        assert_eq!(tx(&mut link, 0).len(), 1, "first transmission");
        let first = BASE_TIMEOUT + retry_seed(1, 0) % (JITTER + 1);
        assert!(tx(&mut link, first - 1).is_empty(), "not due yet");
        assert_eq!(
            tx(&mut link, first).len(),
            1,
            "first retransmission at base timeout plus jitter"
        );
        assert_eq!(link.stats.retransmits, 1);
        let second = first + (BASE_TIMEOUT << 1) + retry_seed(1, 1) % (JITTER + 1);
        assert!(tx(&mut link, second - 1).is_empty(), "the backoff doubled");
        assert_eq!(tx(&mut link, second).len(), 1);
        // Ack for the frame stops retransmission.
        rx(
            &mut link,
            &Packet {
                src: 1,
                epoch: 9,
                kind: PacketKind::Ack {
                    ack_epoch: 1,
                    cum: 1,
                },
            },
        );
        assert_eq!(link.in_flight(), 0);
        assert!(tx(&mut link, 100).is_empty());
    }

    #[test]
    fn stale_epoch_acks_do_not_consume_new_stream() {
        let mut link = Link::new(0, 2, 1);
        link.send(mark(1));
        rx(
            &mut link,
            &Packet {
                src: 1,
                epoch: 1,
                kind: PacketKind::Ack {
                    ack_epoch: 1, // acknowledges epoch 1; we are epoch 2
                    cum: 5,
                },
            },
        );
        assert_eq!(link.in_flight(), 1, "stale ack ignored");
        assert_eq!(link.stats.stale_rx, 1);
    }

    #[test]
    fn peer_epoch_bump_resets_rx() {
        let mut link = Link::new(0, 1, 1);
        let r = rx(&mut link, &seq_packet(1, 1, 0, mark(1)));
        assert_eq!(r.len(), 1);
        link.confirm_released();
        // Peer restarts: epoch 2, stream restarts at seq 0.
        let r = rx(&mut link, &seq_packet(1, 2, 0, mark(1)));
        assert_eq!(r, vec![(0, mark(1))]);
        assert_eq!(link.peer_epoch, Some(2));
        // Old-epoch stragglers are now stale.
        let r = rx(&mut link, &seq_packet(1, 1, 1, mark(2)));
        assert!(r.is_empty());
        assert_eq!(link.stats.stale_rx, 1);
    }

    #[test]
    fn restore_rx_suppresses_journaled_frames() {
        let mut link = Link::new(0, 1, 1);
        link.restore_rx(3, 2); // journal held seqs 0 and 1 of epoch 3
        let r = rx(&mut link, &seq_packet(1, 3, 0, mark(1)));
        assert!(r.is_empty());
        assert_eq!(link.stats.dup_rx, 1);
        let r = rx(&mut link, &seq_packet(1, 3, 2, mark(2)));
        assert_eq!(r, vec![(2, mark(2))]);
    }

    #[test]
    fn an_unacked_frame_retransmits_forever_at_the_capped_backoff() {
        let mut link = Link::new(0, 1, 1);
        link.send(mark(1));
        let sent: Vec<u64> = (0..50_000)
            .filter(|&tick| !tx(&mut link, tick).is_empty())
            .collect();
        assert!(sent.len() > 40, "{} transmissions", sent.len());
        assert_eq!(link.in_flight(), 1, "never given up");
        for (attempt, gap) in sent.windows(2).map(|w| w[1] - w[0]).enumerate() {
            let backoff = BASE_TIMEOUT << (attempt as u32).min(BACKOFF_CAP);
            assert!((backoff..=backoff + JITTER).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn jitter_is_deterministic() {
        let run = || {
            let mut link = Link::new(0, 1, 1);
            link.send(mark(1));
            (0..5_000)
                .filter(|&tick| !tx(&mut link, tick).is_empty())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn far_future_seqs_cannot_grow_the_reorder_buffer_past_the_window() {
        let mut link = Link::new(0, 1, 1);
        let mut released = Vec::new();
        // One faulty neighbor, 10^5 sequence numbers it made up.
        for i in 0..100_000u64 {
            link.on_packet(&seq_packet(1, 1, 1 + i * 7_919, mark(1)), &mut released);
        }
        assert!(released.is_empty());
        assert!(link.ooo.len() as u64 <= RX_WINDOW, "{}", link.ooo.len());
        assert_eq!(
            link.ooo.len() as u64 + link.stats.window_drops,
            100_000,
            "every frame is either held or counted as dropped"
        );
        assert!(link.ooo.keys().all(|&seq| seq < RX_WINDOW));
        // Frames inside the window still release in order, through the
        // held ones.
        link.on_packet(&seq_packet(1, 1, 0, mark(0)), &mut released);
        assert_eq!(released, vec![(0, mark(0)), (1, mark(1))]);
        // A dropped frame was never acked, so nothing covers it.
        link.confirm_released();
        let acks = tx(&mut link, 0);
        assert_eq!(acks.len(), 1);
        assert!(matches!(
            crate::wire::decode_packet(&acks[0])
                .expect("own ack decodes")
                .kind,
            PacketKind::Ack { cum: 2, .. }
        ));
    }

    #[test]
    fn a_burst_wider_than_the_window_completes_by_retransmission() {
        let burst = RX_WINDOW + 5_000;
        let mut a = Link::new(0, 1, 1);
        let mut b = Link::new(1, 1, 0);
        for _ in 0..burst {
            a.send(mark(3));
        }
        let (mut released, mut delivered) = (Vec::new(), 0);
        for tick in 0..2_000 {
            let mut datagrams = tx(&mut a, tick);
            if tick == 0 {
                // Lose the burst's head: everything behind it is
                // out of order, and the tail lies beyond the window.
                datagrams.remove(0);
            }
            for bytes in &datagrams {
                let pkt = crate::wire::decode_packet(bytes).expect("own datagram decodes");
                b.on_packet(&pkt, &mut released);
            }
            for (i, &(seq, _)) in released.iter().enumerate() {
                assert_eq!(seq, delivered + i as u64, "in order, exactly once");
            }
            delivered += released.len() as u64;
            released.clear();
            b.confirm_released();
            for bytes in tx(&mut b, tick) {
                let pkt = crate::wire::decode_packet(&bytes).expect("own ack decodes");
                a.on_packet(&pkt, &mut released);
            }
            if a.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(delivered, burst);
        assert_eq!(a.in_flight(), 0, "every frame was eventually acked");
        assert_eq!(b.stats.window_drops, 5_000, "the tail was dropped once");
        assert!(a.stats.retransmits >= burst, "and carried by retransmits");
    }

    /// The link as it was before `on_packet` lent its caller's buffer and
    /// `flush` learnt to skip: the two bodies from that commit, kept as
    /// the reference the differential test below holds the new ones to.
    /// Only what has gone from the link since is gone from them too: the
    /// restart event no caller read, the give-up branch and the
    /// retransmission knobs, now constants.
    impl Link {
        fn parent_on_packet(&mut self, pkt: &Packet) -> Vec<(u64, SeqFrame)> {
            match pkt.kind {
                PacketKind::Ack { ack_epoch, cum } => {
                    if ack_epoch == self.my_epoch {
                        let before = self.unacked.len();
                        while self.unacked.front().is_some_and(|o| o.seq < cum) {
                            self.unacked.pop_front();
                        }
                        if self.unacked.len() < before {
                            self.stats.acks_rx += 1;
                        }
                    } else {
                        self.stats.stale_rx += 1;
                    }
                    Vec::new()
                }
                PacketKind::Seq { seq, frame } => {
                    match self.peer_epoch {
                        None => self.peer_epoch = Some(pkt.epoch),
                        Some(e) if pkt.epoch < e => {
                            self.stats.stale_rx += 1;
                            return Vec::new();
                        }
                        Some(e) if pkt.epoch > e => {
                            self.peer_epoch = Some(pkt.epoch);
                            self.next_release = 0;
                            self.confirmed = 0;
                            self.ooo.clear();
                        }
                        Some(_) => {}
                    }
                    if seq < self.next_release || self.ooo.contains_key(&seq) {
                        self.stats.dup_rx += 1;
                        self.ack_due = true;
                        return Vec::new();
                    }
                    self.ooo.insert(seq, frame);
                    let mut released = Vec::new();
                    while let Some(frame) = self.ooo.remove(&self.next_release) {
                        released.push((self.next_release, frame));
                        self.next_release += 1;
                    }
                    released
                }
            }
        }

        fn parent_flush(&mut self, tick: u64, out: &mut Datagrams) {
            use crate::wire::encode_packet;
            if self.ack_due {
                self.ack_due = false;
                if let Some(pe) = self.peer_epoch {
                    out.push(encode_packet(&Packet {
                        src: self.me,
                        epoch: self.my_epoch,
                        kind: PacketKind::Ack {
                            ack_epoch: pe,
                            cum: self.confirmed,
                        },
                    }));
                }
            }
            for o in &mut self.unacked {
                if o.due > tick {
                    continue;
                }
                if o.attempts > 0 {
                    self.stats.retransmits += 1;
                }
                out.push(encode_packet(&Packet {
                    src: self.me,
                    epoch: self.my_epoch,
                    kind: PacketKind::Seq {
                        seq: o.seq,
                        frame: o.frame,
                    },
                }));
                let shift = o.attempts.min(BACKOFF_CAP);
                let backoff = BASE_TIMEOUT << shift;
                let jitter = retry_seed(self.peer as usize, o.attempts) % (JITTER + 1);
                o.due = tick + backoff + jitter;
                o.attempts += 1;
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of sends, arrivals (in order, gaps,
        /// duplicates, stale and bumped epochs), current- and
        /// stale-epoch acks, confirms and flushes at non-decreasing
        /// ticks drives the link and its parent to the same releases,
        /// receive state, datagram bytes at the same ticks, counters and
        /// `in_flight()`.
        #[test]
        fn link_matches_its_parent_on_any_interleaving(
            ops in proptest::collection::vec((0u8..12, 0u64..u64::MAX), 1..160),
        ) {
            let mut new = Link::new(0, 3, 1);
            let mut old = Link::new(0, 3, 1);
            let (mut tick, mut peer_epoch) = (0u64, 1u32);
            for (i, &(op, x)) in ops.iter().enumerate() {
                let pkt = match op {
                    // Arrivals: mostly at or near the next release.
                    0..=4 => {
                        let next = new.next_release;
                        let seq = match x % 8 {
                            0..=3 => next,
                            4 | 5 => next + 1 + (x >> 8) % 4,
                            _ => next.saturating_sub(1 + (x >> 8) % 3),
                        };
                        let epoch = match (x >> 16) % 16 {
                            0 => {
                                peer_epoch += 1;
                                peer_epoch
                            }
                            1 => peer_epoch.saturating_sub(1),
                            _ => peer_epoch,
                        };
                        Some(seq_packet(1, epoch, seq, mark(i as u32)))
                    }
                    5 | 6 => Some(Packet {
                        src: 1,
                        epoch: peer_epoch,
                        kind: PacketKind::Ack {
                            ack_epoch: if x % 8 == 0 { 2 } else { 3 },
                            cum: (x >> 8) % (new.next_seq + 2),
                        },
                    }),
                    _ => None,
                };
                if let Some(pkt) = pkt {
                    prop_assert_eq!(rx(&mut new, &pkt), old.parent_on_packet(&pkt), "op {}", i);
                    prop_assert_eq!(rx_state(&new), rx_state(&old), "op {}", i);
                } else if op <= 8 {
                    new.send(mark(i as u32));
                    old.send(mark(i as u32));
                } else if op == 9 {
                    new.confirm_released();
                    old.confirm_released();
                } else {
                    tick += x % 12;
                    let mut want = Vec::new();
                    old.parent_flush(tick, &mut want);
                    prop_assert_eq!(tx(&mut new, tick), want, "op {} at tick {}", i, tick);
                }
                prop_assert_eq!(new.stats, old.stats, "op {}", i);
                prop_assert_eq!(new.in_flight(), old.in_flight(), "op {}", i);
            }
        }
    }
}
