//! The networked node runtime: lockstep rounds over reliable links.
//!
//! [`NodeRuntime`] runs one grid node's [`InstanceHost`] — every
//! concurrent broadcast instance the node participates in — over a
//! [`Datagram`] transport, reproducing the simulator's round semantics
//! exactly:
//!
//! * entering round `k`, a node sends each neighbor its round-`k`
//!   deliveries (`Data`) followed by a `Mark(k)` barrier token on the
//!   per-neighbor FIFO [`Link`];
//! * round `k` *completes* once `Mark(k)` arrived from every
//!   non-suspected neighbor — the link's in-order release guarantees
//!   all of a peer's round-`k` data precedes its mark;
//! * completed deliveries are replayed to the host sender by sender in
//!   TDMA rank order ([`NeighborTable::rank`]), per-sender FIFO — the
//!   simulator's exact global delivery order restricted to this
//!   neighborhood. Same inputs, same callbacks, same decisions: the
//!   golden parity tests assert digest equality against the sim oracle.
//!
//! **Degraded mode.** A peer that stays silent past the configured
//! patience is *suspected* and the barrier proceeds without it —
//! quarantine rather than wedging, mirroring the supervisor's
//! degraded-task taxonomy ([`rbcast_core::supervisor::TaskError`]): a
//! dead neighbor costs its input, not the cluster's liveness. A frame
//! from a suspect lifts the suspicion.
//!
//! **Crash recovery.** Every released frame is journaled *before* it is
//! acknowledged and every round completion is journaled before the next
//! round's sends — so a restarted node can feed its [`NetJournal`]
//! back through the live receive path, rebuilding protocol state and
//! link receive windows, and re-send the (regenerated) rounds its peers
//! may still be missing, under a bumped epoch that tells peers to reset.

use crate::journal::{JournalError, NetJournal, Record};
use crate::link::{Link, LinkStats};
use crate::transport::Datagram;
use crate::wire::{decode_packet, Packet, PacketKind, SeqFrame};
use rbcast_grid::{NeighborTable, NodeId};
use rbcast_protocols::Msg;
use rbcast_sim::driver::{InstanceHost, InstanceId};
use rbcast_sim::{Process, Round, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Lockstep runtime parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Delivery rounds to run (rounds `1..=rounds`; round 0 is the
    /// spawn round). Every node in a cluster must agree.
    pub rounds: Round,
    /// Ticks without progress (no frame released, no round completed)
    /// before the missing neighbors are suspected and the barrier
    /// proceeds degraded.
    pub patience: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            rounds: 32,
            patience: 50_000,
        }
    }
}

/// Runtime-level counters (link counters live in [`LinkStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Datagrams that failed wire decoding (corruption, truncation).
    pub wire_errors: u64,
    /// Datagrams whose header source is not a neighbor.
    pub unknown_src: u64,
    /// Frames taken into a peer's pending list.
    pub frames_ingested: u64,
    /// Frames dropped as stale (rounds already completed).
    pub stale_frames: u64,
    /// Deliveries addressed to an instance this node does not host.
    pub unknown_instance: u64,
    /// Rounds completed without a full mark set (degraded).
    pub forced_rounds: u64,
    /// Records in this node's journal: those replayed at boot plus
    /// every append since.
    pub journal_records: u64,
}

/// End-of-run summary for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Boot epoch of the reporting incarnation.
    pub epoch: u32,
    /// Rounds closed (including round 0).
    pub rounds_closed: Round,
    /// Per-instance decisions with the round each was made in.
    pub decisions: Vec<(InstanceId, Value, Round)>,
    /// Neighbors still suspected at the end.
    pub suspects: Vec<u32>,
    /// Runtime counters.
    pub stats: RuntimeStats,
    /// Link counters summed over all neighbors.
    pub link_totals: LinkStats,
}

impl NodeReport {
    /// True when the run stayed fully synchronous: no suspected peers
    /// and no force-completed rounds. A degraded (but live) node maps
    /// to the supervisor taxonomy's quarantine outcome instead.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.suspects.is_empty() && self.stats.forced_rounds == 0
    }
}

/// One neighbour: its link and everything the barrier keeps about it.
struct Peer {
    link: Link,
    /// Epoch of the last frame ingested (0 before any); a higher one
    /// purges `pending` and `marks`. Not the link's, which resets on the
    /// first packet of a new stream, before that stream releases a frame.
    epoch: u32,
    /// Frames of uncompleted rounds as `(round, instance, msg)`, in
    /// arrival (= link release) order.
    pending: Vec<(Round, InstanceId, Msg)>,
    /// Uncompleted rounds whose `Mark` arrived.
    marks: Vec<Round>,
    suspected: bool,
}

impl Peer {
    /// True while the barrier of round `k` waits on this peer: its mark
    /// is not in and it is not suspected.
    fn awaited(&self, k: Round) -> bool {
        !self.suspected && !self.marks.contains(&k)
    }
}

/// One node of the networked cluster. See the module docs for the
/// protocol; construction is via [`NodeRuntime::open`], which handles
/// both fresh starts and journal-driven resumption.
pub struct NodeRuntime {
    me: NodeId,
    epoch: u32,
    cfg: RuntimeConfig,
    host: InstanceHost<Msg>,
    /// Every neighbour, in id order — the order the links send in.
    peers: Vec<Peer>,
    /// Indices into `peers` in the neighbours' TDMA rank order — the
    /// order a completed round delivers in.
    by_rank: Vec<usize>,
    /// Broadcast payloads of the last two closed rounds, keyed by the
    /// round they are delivered in — exactly what a resumed node must
    /// re-send.
    recent_outs: VecDeque<(Round, Vec<(InstanceId, Msg)>)>,
    transport: Box<dyn Datagram>,
    journal: Box<dyn NetJournal>,
    replaying: bool,
    tick: u64,
    last_progress: u64,
    /// Counters.
    pub stats: RuntimeStats,
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("me", &self.me)
            .field("epoch", &self.epoch)
            .field("round", &self.host.round())
            .field("suspects", &self.suspects())
            .finish_non_exhaustive()
    }
}

impl NodeRuntime {
    /// Starts (or resumes) node `me`. When `journal` already holds
    /// records, the node replays them — rebuilding host state, link
    /// receive windows, and the outboxes peers may still be missing —
    /// and comes back under a bumped epoch; an empty journal is a fresh
    /// start at epoch 1.
    ///
    /// `instances` lists every broadcast instance of the run (the
    /// instance set is static configuration, known to all nodes before
    /// round 0 closes); `spawn` builds this node's process for each.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] when an existing journal is corrupt:
    /// unreadable, or naming a sender that is no neighbour.
    pub fn open(
        arena: Arc<NeighborTable>,
        me: NodeId,
        instances: &[InstanceId],
        spawn: &mut dyn FnMut(InstanceId) -> Box<dyn Process<Msg>>,
        transport: Box<dyn Datagram>,
        journal: Box<dyn NetJournal>,
        cfg: RuntimeConfig,
    ) -> Result<Self, JournalError> {
        let prior = journal.records()?;
        let epoch = 1 + prior
            .iter()
            .filter_map(|r| match r {
                Record::Boot { epoch } => Some(*epoch),
                _ => None,
            })
            .max()
            .unwrap_or(0);

        let mut host = InstanceHost::new(Arc::clone(&arena), me);
        for &inst in instances {
            host.spawn(inst, spawn(inst));
        }

        // Links come up under the new epoch, before replay: the journal
        // feeds them as the transport once did.
        let mut ids: Vec<u32> = arena.neighbors(me).map(|n| n.0).collect();
        ids.sort_unstable();
        let mut by_rank: Vec<usize> = (0..ids.len()).collect();
        by_rank.sort_unstable_by_key(|&i| arena.rank(NodeId(ids[i])));
        let peers = ids
            .into_iter()
            .map(|id| Peer {
                link: Link::new(me.0, epoch, id),
                epoch: 0,
                pending: Vec::new(),
                marks: Vec::new(),
                suspected: false,
            })
            .collect();

        let mut rt = NodeRuntime {
            me,
            epoch,
            cfg,
            host,
            peers,
            by_rank,
            recent_outs: VecDeque::new(),
            transport,
            journal,
            replaying: true,
            tick: 0,
            last_progress: 0,
            stats: RuntimeStats {
                journal_records: prior.len() as u64 + 1,
                ..RuntimeStats::default()
            },
        };

        // Replay is the live receive path: the journal holds exactly the
        // frames the previous incarnations' links released, so feeding
        // each back as its packet rebuilds the receive windows (all
        // confirmed, an ack owed) and the round state, epoch resets
        // included. A frame no link could have released is corruption.
        let mut released = Vec::new();
        for (i, record) in prior.iter().enumerate() {
            match *record {
                Record::Boot { .. } => {}
                Record::Frame {
                    peer,
                    peer_epoch,
                    seq,
                    frame,
                } => {
                    let pkt = Packet {
                        src: peer,
                        epoch: peer_epoch,
                        kind: PacketKind::Seq { seq, frame },
                    };
                    if !rt.receive(&pkt, &mut released) {
                        let record = i + 1;
                        return Err(JournalError::Stranger { record, peer });
                    }
                }
                Record::Complete { .. } => rt.complete_round(),
            }
        }
        // Replay appends nothing, so the boot record still precedes
        // every record of this incarnation; a journal that does not
        // replay is left as it was.
        rt.journal.append(&Record::Boot { epoch });
        rt.replaying = false;

        if rt.host.round() == 0 {
            // Fresh start (or a crash before round 0 closed): close the
            // spawn round now, which queues round 1 on the links.
            rt.complete_round();
        } else {
            // Peers are provably within [R, R+1] of our last completed
            // round R, so re-sending the regenerated outboxes of those
            // two rounds (plus their barrier marks) under the new epoch
            // covers everything our lost unacked buffers owed them.
            let resend = std::mem::take(&mut rt.recent_outs);
            for (round, frames) in &resend {
                rt.queue_round(*round, frames);
            }
            rt.recent_outs = resend;
        }
        Ok(rt)
    }

    /// Rounds closed so far (including round 0).
    #[must_use]
    pub fn rounds_closed(&self) -> Round {
        self.host.round()
    }

    /// True once every configured round has closed.
    #[must_use]
    fn finished(&self) -> bool {
        self.host.round() > self.cfg.rounds
    }

    /// True once finished *and* every peer has acknowledged everything
    /// we sent — safe to exit without stranding a slower neighbor.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.finished() && self.peers.iter().all(|p| p.link.in_flight() == 0)
    }

    /// The neighbours currently suspected, in id order.
    fn suspects(&self) -> Vec<u32> {
        let suspected = self.peers.iter().filter(|p| p.suspected);
        suspected.map(|p| p.link.peer()).collect()
    }

    /// Sends the given round's deliveries plus its barrier mark to
    /// every neighbor (rounds past the configured horizon are nobody's
    /// input and are skipped).
    fn queue_round(&mut self, round: Round, frames: &[(InstanceId, Msg)]) {
        if round == 0 || round > self.cfg.rounds {
            return;
        }
        for peer in &mut self.peers {
            for &(instance, msg) in frames {
                peer.link.send(SeqFrame::Data {
                    round,
                    instance,
                    msg,
                });
            }
            peer.link.send(SeqFrame::Mark { round });
        }
    }

    /// The receive path the pump and journal replay share: `pkt` goes
    /// through its sender's link, and the frames that releases (into
    /// `released`, which the caller lends) are journaled (live only),
    /// confirmed and ingested. Returns false, touching nothing, when
    /// `pkt.src` is no neighbour.
    fn receive(&mut self, pkt: &Packet, released: &mut Vec<(u64, SeqFrame)>) -> bool {
        let Ok(i) = self.peers.binary_search_by_key(&pkt.src, |p| p.link.peer()) else {
            return false;
        };
        released.clear();
        self.peers[i].link.on_packet(pkt, released);
        if released.is_empty() {
            return true;
        }
        // Journal before ack: once these lines are durable the frames
        // can never be lost, so acknowledging is safe. Only Seq packets
        // release frames, and the link clears its out-of-order buffer on
        // an epoch bump, so every released frame belongs to this
        // packet's header epoch.
        if !self.replaying {
            for &(seq, frame) in released.iter() {
                self.journal.append(&Record::Frame {
                    peer: pkt.src,
                    peer_epoch: pkt.epoch,
                    seq,
                    frame,
                });
            }
            self.stats.journal_records += released.len() as u64;
        }
        self.peers[i].link.confirm_released();
        for &(_seq, frame) in released.iter() {
            self.ingest(i, pkt.epoch, frame);
        }
        self.last_progress = self.tick;
        true
    }

    /// Ingestion of one released frame from `self.peers[i]`.
    fn ingest(&mut self, i: usize, peer_epoch: u32, frame: SeqFrame) {
        let current = self.host.round();
        let peer = &mut self.peers[i];
        if peer_epoch > peer.epoch {
            // The peer restarted: whatever it sent of un-completed
            // rounds under the old epoch will be re-sent in full under
            // the new one (its outboxes regenerate deterministically),
            // so partial old-epoch state must go.
            peer.epoch = peer_epoch;
            peer.pending.clear();
            peer.marks.clear();
        }
        // Any sign of life lifts suspicion; the patience clock re-arms.
        peer.suspected = false;
        let (SeqFrame::Data { round, .. } | SeqFrame::Mark { round }) = frame;
        if round < current || round > self.cfg.rounds {
            self.stats.stale_frames += 1;
            return;
        }
        match frame {
            SeqFrame::Data { instance, msg, .. } => {
                self.stats.frames_ingested += 1;
                peer.pending.push((round, instance, msg));
            }
            SeqFrame::Mark { .. } => {
                if !peer.marks.contains(&round) {
                    peer.marks.push(round);
                }
            }
        }
    }

    /// Closes the currently collecting round: replays its deliveries to
    /// the host in sim order (peer by peer in TDMA rank order, each
    /// peer's in arrival order), runs the round-end callbacks, journals
    /// the completion, and queues the next round's broadcasts.
    fn complete_round(&mut self) {
        let k = self.host.round();
        for &i in &self.by_rank {
            let peer = &mut self.peers[i];
            let sender = NodeId(peer.link.peer());
            // Later rounds' frames go back into a fresh list: no peer
            // keeps its busiest round's capacity for the whole run.
            for (round, instance, msg) in std::mem::take(&mut peer.pending) {
                if round != k {
                    peer.pending.push((round, instance, msg));
                } else if !self.host.deliver(instance, sender, &msg) {
                    self.stats.unknown_instance += 1;
                }
            }
            peer.marks.retain(|&round| round != k);
        }
        let out = self.host.end_round();
        if !self.replaying {
            self.journal.append(&Record::Complete { round: k });
            self.stats.journal_records += 1;
            self.queue_round(k + 1, &out);
        }
        self.recent_outs.push_back((k + 1, out));
        if self.recent_outs.len() > 2 {
            self.recent_outs.pop_front();
        }
        self.last_progress = self.tick;
    }

    /// Completes rounds for as long as no peer is [`Peer::awaited`].
    fn advance_barrier(&mut self) {
        while !self.finished() && !self.peers.iter().any(|p| p.awaited(self.host.round())) {
            self.complete_round();
        }
    }

    /// One cooperative scheduling step: drain the transport, advance
    /// the barrier, fire retransmissions. Returns `Self::finished`.
    pub fn pump(&mut self) -> bool {
        self.tick += 1;
        self.transport.tick(self.tick);

        // Ingest everything the transport has.
        let mut released = Vec::new();
        while let Some(bytes) = self.transport.poll() {
            let Ok(pkt) = decode_packet(&bytes) else {
                self.stats.wire_errors += 1;
                continue;
            };
            if !self.receive(&pkt, &mut released) {
                self.stats.unknown_src += 1;
            }
        }

        // Advance the barrier as far as the marks allow.
        self.advance_barrier();

        // Patience: a barrier stalled too long proceeds without the
        // silent peers (degraded, not wedged).
        if !self.finished() && self.tick.saturating_sub(self.last_progress) > self.cfg.patience {
            let k = self.host.round();
            let mut missing = self.peers.iter_mut().filter(|p| p.awaited(k)).peekable();
            if missing.peek().is_some() {
                self.stats.forced_rounds += 1;
            }
            missing.for_each(|peer| peer.suspected = true);
            self.last_progress = self.tick;
            self.advance_barrier();
        }

        // Fire acks and due retransmissions.
        for peer in &mut self.peers {
            let to = peer.link.peer();
            peer.link
                .flush(self.tick, |bytes| self.transport.send(to, bytes));
        }
        self.finished()
    }

    /// The end-of-run summary.
    #[must_use]
    pub fn report(&self) -> NodeReport {
        let mut link_totals = LinkStats::default();
        for l in self.peers.iter().map(|p| &p.link.stats) {
            link_totals.sent += l.sent;
            link_totals.retransmits += l.retransmits;
            link_totals.dup_rx += l.dup_rx;
            link_totals.stale_rx += l.stale_rx;
            link_totals.acks_rx += l.acks_rx;
            link_totals.window_drops += l.window_drops;
        }
        NodeReport {
            node: self.me,
            epoch: self.epoch,
            rounds_closed: self.host.round(),
            decisions: self.host.decisions(),
            suspects: self.suspects(),
            stats: self.stats,
            link_totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemJournal;
    use proptest::prelude::*;
    use rbcast_grid::{Metric, Torus};
    use rbcast_sim::Ctx;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;

    type Heard = Vec<(u32, InstanceId, Msg)>;

    /// A process that only writes down what it is told, in order.
    struct Recorder(InstanceId, Rc<RefCell<Heard>>);

    impl Process<Msg> for Recorder {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: &Msg) {
            self.1.borrow_mut().push((from.0, self.0, *msg));
        }
    }

    struct Silence;

    impl Datagram for Silence {
        fn send(&mut self, _to: u32, _bytes: &[u8]) {}
        fn poll(&mut self) -> Option<Vec<u8>> {
            None
        }
    }

    /// Three instances, one per origin `0..3`.
    fn instances() -> Vec<InstanceId> {
        (0..3)
            .map(|seq| InstanceId {
                origin: NodeId(seq),
                seq,
            })
            .collect()
    }

    /// Node `me` of `arena` over a silent transport, booted from a
    /// memory journal holding `prior`, recording what it is told into
    /// `heard`.
    fn boot(
        arena: &Arc<NeighborTable>,
        me: NodeId,
        prior: &[Record],
        cfg: RuntimeConfig,
        heard: &Rc<RefCell<Heard>>,
    ) -> Result<NodeRuntime, JournalError> {
        let mut journal = MemJournal::new();
        for record in prior {
            journal.append(record);
        }
        NodeRuntime::open(
            Arc::clone(arena),
            me,
            &instances(),
            &mut |inst| Box::new(Recorder(inst, Rc::clone(heard))),
            Box::new(Silence),
            Box::new(journal),
            cfg,
        )
    }

    /// The round buffers as they were before a flat round buffer, and
    /// then per-peer lists, replaced them: a map per round of a `Vec`
    /// per sender, purged by `remove` on an epoch bump and drained
    /// sender by sender in rank order — the three pieces of that
    /// `ingest`/`complete_round` that touch them, verbatim, kept as the
    /// reference for the properties below.
    #[derive(Default)]
    struct PerPeerMaps {
        buffers: BTreeMap<Round, BTreeMap<u32, Vec<(InstanceId, Msg)>>>,
        peer_epochs: BTreeMap<u32, u32>,
    }

    impl PerPeerMaps {
        fn ingest(&mut self, peer: u32, peer_epoch: u32, round: Round, inst: InstanceId, msg: Msg) {
            let seen = self.peer_epochs.entry(peer).or_insert(peer_epoch);
            if peer_epoch > *seen {
                *seen = peer_epoch;
                for by_peer in self.buffers.values_mut() {
                    by_peer.remove(&peer);
                }
            }
            self.buffers
                .entry(round)
                .or_default()
                .entry(peer)
                .or_default()
                .push((inst, msg));
        }

        fn complete_round(&mut self, k: Round, arena: &NeighborTable, heard: &mut Heard) {
            if let Some(by_peer) = self.buffers.remove(&k) {
                let mut senders: Vec<u32> = by_peer.keys().copied().collect();
                senders.sort_by_key(|&p| arena.rank(NodeId(p)));
                for peer in senders {
                    for (instance, msg) in &by_peer[&peer] {
                        heard.push((peer, *instance, *msg));
                    }
                }
            }
        }
    }

    /// Frames of eight senders interleaved — many per sender, so only
    /// per-sender FIFO keeps each one's order — with epoch bumps landing
    /// mid-round reach the host exactly as the per-peer maps delivered
    /// them.
    fn pending_lists_deliver_what_the_per_peer_maps_did(
        arena: &Arc<NeighborTable>,
        me: NodeId,
        arrivals: &[(usize, u32, u8)],
    ) -> Result<(), TestCaseError> {
        let heard = Rc::new(RefCell::new(Heard::new()));
        let mut rt =
            boot(arena, me, &[], RuntimeConfig::default(), &heard).expect("an empty journal boots");
        prop_assert_eq!(rt.host.round(), 1, "round 0 closes at boot");
        prop_assert_eq!(rt.peers.len(), 8);

        let instances = instances();
        let mut reference = PerPeerMaps::default();
        let mut epochs = [1u32; 8];
        for (i, &(p, round_ahead, roll)) in arrivals.iter().enumerate() {
            // One arrival in sixteen is the first frame of a restarted
            // sender.
            epochs[p] += u32::from(roll == 0);
            let (round, inst) = (1 + round_ahead, instances[i % 3]);
            // The committer field numbers the frame: no two alike.
            let msg = Msg::heard(NodeId(i as u32), true, &[]);
            let frame = SeqFrame::Data {
                round,
                instance: inst,
                msg,
            };
            rt.ingest(p, epochs[p], frame);
            reference.ingest(rt.peers[p].link.peer(), epochs[p], round, inst, msg);
        }
        let mut want = Heard::new();
        for k in 1..=3 {
            rt.complete_round();
            reference.complete_round(k, arena, &mut want);
        }
        prop_assert_eq!(&*heard.borrow(), &want);
        prop_assert!(rt.peers.iter().all(|p| p.pending.is_empty()));
        prop_assert!(reference.buffers.is_empty());
        Ok(())
    }

    /// The parent's replay, kept as the reference for the property
    /// below: each journaled frame went straight to `ingest` — into the
    /// per-round buffers and mark sets of that code, verbatim but for
    /// suspicion and counters — and the links were built afterwards,
    /// their windows restored from the `rx_state` fold through
    /// `Link::restore_rx`.
    #[derive(Default)]
    struct ParentReplay {
        round: Round,
        buffers: BTreeMap<Round, Vec<(u32, InstanceId, Msg)>>,
        marks: BTreeMap<Round, BTreeSet<u32>>,
        peer_epochs: BTreeMap<u32, u32>,
        rx_state: BTreeMap<u32, (u32, u64)>,
    }

    impl ParentReplay {
        fn new(prior: &[Record], rounds: Round) -> Self {
            let mut parent = ParentReplay::default();
            for record in prior {
                match *record {
                    Record::Boot { .. } => {}
                    Record::Frame {
                        peer,
                        peer_epoch,
                        seq,
                        frame,
                    } => {
                        let entry = parent.rx_state.entry(peer).or_insert((peer_epoch, 0));
                        if peer_epoch > entry.0 {
                            *entry = (peer_epoch, 0);
                        }
                        entry.1 = entry.1.max(seq + 1);
                        parent.ingest(peer, peer_epoch, frame, rounds);
                    }
                    Record::Complete { .. } => parent.complete_round(),
                }
            }
            if parent.round == 0 {
                // A journal that closed no round closes round 0 at boot.
                parent.complete_round();
            }
            parent
        }

        fn complete_round(&mut self) {
            self.buffers.remove(&self.round);
            self.marks.remove(&self.round);
            self.round += 1;
        }

        fn ingest(&mut self, peer: u32, peer_epoch: u32, frame: SeqFrame, rounds: Round) {
            let seen = self.peer_epochs.entry(peer).or_insert(peer_epoch);
            if peer_epoch > *seen {
                *seen = peer_epoch;
                for batch in self.buffers.values_mut() {
                    batch.retain(|&(sender, ..)| sender != peer);
                }
                for marked in self.marks.values_mut() {
                    marked.remove(&peer);
                }
            }
            let current = self.round;
            match frame {
                SeqFrame::Data {
                    round,
                    instance,
                    msg,
                } => {
                    if round < current || round > rounds {
                        return;
                    }
                    self.buffers
                        .entry(round)
                        .or_default()
                        .push((peer, instance, msg));
                }
                SeqFrame::Mark { round } => {
                    if round < current || round > rounds {
                        return;
                    }
                    self.marks.entry(round).or_default().insert(peer);
                }
            }
        }

        /// `peer`'s link as the parent's `open` left it.
        fn link(&self, me: NodeId, epoch: u32, peer: u32) -> Link {
            let mut link = Link::new(me.0, epoch, peer);
            if let Some(&(pe, count)) = self.rx_state.get(&peer) {
                link.restore_rx(pe, count);
            }
            link
        }

        /// `peer`'s frames of uncompleted rounds, by round, each
        /// round's in arrival order.
        fn pending(&self, peer: u32) -> Vec<(Round, InstanceId, Msg)> {
            let mut pending = Vec::new();
            for (&round, batch) in &self.buffers {
                for &(sender, instance, msg) in batch {
                    if sender == peer {
                        pending.push((round, instance, msg));
                    }
                }
            }
            pending
        }

        /// The uncompleted rounds whose mark `peer` sent, ascending.
        fn marks(&self, peer: u32) -> Vec<Round> {
            let marked = self.marks.iter().filter(|(_, m)| m.contains(&peer));
            marked.map(|(&round, _)| round).collect()
        }
    }

    /// A journal the live pump could have written: frames from four
    /// peers, each stream sequenced from 0 under its epoch, peers that
    /// restart (a new epoch, the stream from 0 again), restarts of this
    /// node, and round completions. Data and marks name rounds around
    /// the collecting one, some stale and some past the horizon.
    fn live_journal(peers: &[u32], ops: &[(u8, u8, u8)]) -> Vec<Record> {
        let instances = instances();
        let mut epochs = vec![1u32; peers.len()];
        let mut seqs = vec![0u64; peers.len()];
        let (mut boots, mut round) = (1, 0);
        let mut journal = vec![Record::Boot { epoch: 1 }];
        for (i, &(op, p, x)) in ops.iter().enumerate() {
            let p = usize::from(p) % peers.len();
            match op {
                0 => {
                    epochs[p] += 1;
                    seqs[p] = 0;
                }
                1 => {
                    boots += 1;
                    journal.push(Record::Boot { epoch: boots });
                }
                2 | 3 => {
                    journal.push(Record::Complete { round });
                    round += 1;
                }
                _ => {
                    let round = (round + u32::from(x % 4)).saturating_sub(1);
                    let frame = if x % 3 == 0 {
                        SeqFrame::Mark { round }
                    } else {
                        SeqFrame::Data {
                            round,
                            instance: instances[i % 3],
                            msg: Msg::heard(NodeId(i as u32), true, &[]),
                        }
                    };
                    journal.push(Record::Frame {
                        peer: peers[p],
                        peer_epoch: epochs[p],
                        seq: seqs[p],
                        frame,
                    });
                    seqs[p] += 1;
                }
            }
        }
        journal
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On 5×5 no TDMA schedule fits and the rank is the id.
        #[test]
        fn pending_lists_deliver_what_the_per_peer_maps_did_in_id_order(
            arrivals in proptest::collection::vec((0usize..8, 0u32..3, 0u8..16), 1..200),
        ) {
            let arena = Arc::new(NeighborTable::build_wrapping(&Torus::new(5, 5), 1, Metric::Linf));
            pending_lists_deliver_what_the_per_peer_maps_did(&arena, NodeId(12), &arrivals)?;
        }

        /// On 6×6 a schedule fits, and node 14's neighbours rank in an
        /// order that is not their ids'.
        #[test]
        fn pending_lists_deliver_what_the_per_peer_maps_did_in_rank_order(
            arrivals in proptest::collection::vec((0usize..8, 0u32..3, 0u8..16), 1..200),
        ) {
            let arena = Arc::new(NeighborTable::build_wrapping(&Torus::new(6, 6), 1, Metric::Linf));
            let me = NodeId(14);
            let mut ids: Vec<u32> = arena.neighbors(me).map(|n| n.0).collect();
            ids.sort_unstable();
            prop_assert!(!ids.is_sorted_by_key(|&id| arena.rank(NodeId(id))));
            pending_lists_deliver_what_the_per_peer_maps_did(&arena, me, &arrivals)?;
        }

        /// Replaying any journal the live pump could have written through
        /// the receive path leaves every link's window and every peer's
        /// pending frames and marks where the parent's replay left them.
        #[test]
        fn replay_through_the_links_rebuilds_what_the_parent_restored(
            ops in proptest::collection::vec((0u8..12, 0u8..4, 0u8..=255), 0..160),
        ) {
            let arena = Arc::new(NeighborTable::build_wrapping(&Torus::new(6, 6), 1, Metric::Linf));
            let me = NodeId(14);
            let cfg = RuntimeConfig { rounds: 8, ..RuntimeConfig::default() };
            let some_peers = [7, 8, 15, 21];
            let prior = live_journal(&some_peers, &ops);
            let heard = Rc::new(RefCell::new(Heard::new()));
            let rt = boot(&arena, me, &prior, cfg, &heard).expect("a live journal replays");
            let parent = ParentReplay::new(&prior, cfg.rounds);
            prop_assert_eq!(rt.host.round(), parent.round);
            for peer in &rt.peers {
                let id = peer.link.peer();
                prop_assert_eq!(
                    peer.link.window(),
                    parent.link(me, rt.epoch, id).window(),
                    "the link to {}", id
                );
                let mut pending = peer.pending.clone();
                pending.sort_by_key(|&(round, ..)| round);
                prop_assert_eq!(pending, parent.pending(id), "frames from {}", id);
                let mut marks = peer.marks.clone();
                marks.sort_unstable();
                prop_assert_eq!(marks, parent.marks(id), "marks from {}", id);
            }
        }
    }
}
