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
//! * completed deliveries are replayed to the host sorted by the
//!   sender's TDMA rank ([`NeighborTable::rank`]), per-sender FIFO — the
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
//! round's sends — so a restarted node can deterministically re-run
//! ingestion from its [`NetJournal`], rebuild protocol state and link
//! receive windows, and re-send the (regenerated) rounds its peers may
//! still be missing, under a bumped epoch that tells peers to reset.

use crate::journal::{JournalError, NetJournal, Record};
use crate::link::{Link, LinkConfig, LinkStats};
use crate::transport::Datagram;
use crate::wire::{decode_packet, SeqFrame};
use rbcast_grid::{NeighborTable, NodeId};
use rbcast_protocols::Msg;
use rbcast_sim::driver::{InstanceHost, InstanceId};
use rbcast_sim::{Process, Round, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Lockstep runtime parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Delivery rounds to run (rounds `1..=rounds`; round 0 is the
    /// spawn round). Every node in a cluster must agree.
    pub rounds: Round,
    /// Link-layer retransmission policy.
    pub link: LinkConfig,
    /// Ticks without progress (no frame released, no round completed)
    /// before the missing neighbors are suspected and the barrier
    /// proceeds degraded.
    pub patience: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            rounds: 32,
            link: LinkConfig::default(),
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
    /// Frames delivered into round buffers.
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

/// One node of the networked cluster. See the module docs for the
/// protocol; construction is via [`NodeRuntime::open`], which handles
/// both fresh starts and journal-driven resumption.
pub struct NodeRuntime {
    me: NodeId,
    epoch: u32,
    cfg: RuntimeConfig,
    host: InstanceHost<Msg>,
    links: BTreeMap<u32, Link>,
    /// Un-consumed deliveries per round as `(sender, instance, msg)` in
    /// arrival order — which, sender by sender, is link release
    /// (= sequence) order.
    buffers: BTreeMap<Round, Vec<(u32, InstanceId, Msg)>>,
    /// Barrier tokens per round.
    marks: BTreeMap<Round, BTreeSet<u32>>,
    /// Highest epoch ingested per neighbor (restart detection for the
    /// deterministic ingestion path, live and replay alike).
    peer_epochs: BTreeMap<u32, u32>,
    /// Broadcast payloads of the last two closed rounds, keyed by the
    /// round they are delivered in — exactly what a resumed node must
    /// re-send.
    recent_outs: VecDeque<(Round, Vec<(InstanceId, Msg)>)>,
    suspects: BTreeSet<u32>,
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
            .field("suspects", &self.suspects)
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
    /// Returns [`JournalError`] when an existing journal is corrupt.
    pub fn open(
        arena: Arc<NeighborTable>,
        me: NodeId,
        instances: &[InstanceId],
        spawn: &mut dyn FnMut(InstanceId) -> Box<dyn Process<Msg>>,
        transport: Box<dyn Datagram>,
        mut journal: Box<dyn NetJournal>,
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
        journal.append(&Record::Boot { epoch });

        let mut host = InstanceHost::new(Arc::clone(&arena), me);
        for &inst in instances {
            host.spawn(inst, spawn(inst));
        }

        let mut rt = NodeRuntime {
            me,
            epoch,
            cfg,
            host,
            links: BTreeMap::new(),
            buffers: BTreeMap::new(),
            marks: BTreeMap::new(),
            peer_epochs: BTreeMap::new(),
            recent_outs: VecDeque::new(),
            suspects: BTreeSet::new(),
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

        // Deterministic re-ingestion: the journal records exactly the
        // frame sequence the previous incarnations processed, so
        // running the live ingestion logic over it reproduces their
        // state — including drops and epoch resets.
        let mut rx_state: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
        for record in &prior {
            match record {
                Record::Boot { .. } => {}
                Record::Frame {
                    peer,
                    peer_epoch,
                    seq,
                    frame,
                } => {
                    let entry = rx_state.entry(*peer).or_insert((*peer_epoch, 0));
                    if *peer_epoch > entry.0 {
                        *entry = (*peer_epoch, 0);
                    }
                    entry.1 = entry.1.max(seq + 1);
                    rt.ingest(*peer, *peer_epoch, *frame);
                }
                Record::Complete { .. } => rt.complete_round(),
            }
        }
        rt.replaying = false;

        // Links come up under the new epoch; receive windows resume
        // where the journal proves delivery (journal-before-ack: every
        // acked frame is journaled, so peers lose nothing).
        let neighbors: Vec<u32> = arena.neighbors(me).map(|n| n.0).collect();
        for &peer in &neighbors {
            let mut link = Link::new(me.0, epoch, peer, cfg.link);
            if let Some(&(pe, count)) = rx_state.get(&peer) {
                link.restore_rx(pe, count);
            }
            rt.links.insert(peer, link);
        }

        if rt.host.round() == 0 {
            // Fresh start (or a crash before round 0 closed): close the
            // spawn round now, which queues round 1 on the links.
            rt.complete_round();
        } else {
            // Peers are provably within [R, R+1] of our last completed
            // round R, so re-sending the regenerated outboxes of those
            // two rounds (plus their barrier marks) under the new epoch
            // covers everything our lost unacked buffers owed them.
            let resend: Vec<_> = rt.recent_outs.iter().cloned().collect();
            for (round, frames) in resend {
                rt.queue_round(round, &frames);
            }
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
        self.finished() && self.links.values().all(|l| l.in_flight() == 0)
    }

    /// Sends the given round's deliveries plus its barrier mark to
    /// every neighbor (rounds past the configured horizon are nobody's
    /// input and are skipped).
    fn queue_round(&mut self, round: Round, frames: &[(InstanceId, Msg)]) {
        if round == 0 || round > self.cfg.rounds {
            return;
        }
        for link in self.links.values_mut() {
            for &(instance, msg) in frames {
                link.send(SeqFrame::Data {
                    round,
                    instance,
                    msg,
                });
            }
            link.send(SeqFrame::Mark { round });
        }
    }

    /// Deterministic ingestion of one released frame — shared verbatim
    /// by the live path and journal replay, which is what makes replay
    /// faithful.
    fn ingest(&mut self, peer: u32, peer_epoch: u32, frame: SeqFrame) {
        let seen = self.peer_epochs.entry(peer).or_insert(peer_epoch);
        if peer_epoch > *seen {
            // The peer restarted: whatever it sent of un-completed
            // rounds under the old epoch will be re-sent in full under
            // the new one (its outboxes regenerate deterministically),
            // so partial old-epoch buffers must go.
            *seen = peer_epoch;
            for batch in self.buffers.values_mut() {
                batch.retain(|&(sender, ..)| sender != peer);
            }
            for marked in self.marks.values_mut() {
                marked.remove(&peer);
            }
        }
        // Any sign of life lifts suspicion; the patience clock re-arms.
        self.suspects.remove(&peer);
        let current = self.host.round();
        match frame {
            SeqFrame::Data {
                round,
                instance,
                msg,
            } => {
                if round < current || round > self.cfg.rounds {
                    self.stats.stale_frames += 1;
                    return;
                }
                self.stats.frames_ingested += 1;
                self.buffers
                    .entry(round)
                    .or_default()
                    .push((peer, instance, msg));
            }
            SeqFrame::Mark { round } => {
                if round < current || round > self.cfg.rounds {
                    self.stats.stale_frames += 1;
                    return;
                }
                self.marks.entry(round).or_default().insert(peer);
            }
        }
    }

    /// Closes the currently collecting round: replays its buffered
    /// deliveries to the host in sim order (sender TDMA rank, FIFO per
    /// sender), runs the round-end callbacks, journals the completion,
    /// and queues the next round's broadcasts.
    fn complete_round(&mut self) {
        let k = self.host.round();
        if let Some(mut batch) = self.buffers.remove(&k) {
            // Stable, so each sender's frames stay in arrival order.
            let arena = self.host.arena();
            batch.sort_by_key(|&(sender, ..)| arena.rank(NodeId(sender)));
            for (sender, instance, msg) in &batch {
                if !self.host.deliver(*instance, NodeId(*sender), msg) {
                    self.stats.unknown_instance += 1;
                }
            }
        }
        self.marks.remove(&k);
        let out = self.host.end_round();
        if !self.replaying {
            self.journal.append(&Record::Complete { round: k });
            self.stats.journal_records += 1;
        }
        self.recent_outs.push_back((k + 1, out.clone()));
        if self.recent_outs.len() > 2 {
            self.recent_outs.pop_front();
        }
        if !self.replaying {
            self.queue_round(k + 1, &out);
        }
        self.last_progress = self.tick;
    }

    /// True while the collecting round's barrier waits on neighbor
    /// `peer`: its mark is not in and it is not suspected.
    fn awaited(&self, peer: u32) -> bool {
        let marked = self.marks.get(&self.host.round());
        !self.suspects.contains(&peer) && !marked.is_some_and(|m| m.contains(&peer))
    }

    /// Completes rounds for as long as nobody is [`Self::awaited`].
    fn advance_barrier(&mut self) {
        while !self.finished() && !self.links.keys().any(|&p| self.awaited(p)) {
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
            let Some(link) = self.links.get_mut(&pkt.src) else {
                self.stats.unknown_src += 1;
                continue;
            };
            released.clear();
            link.on_packet(&pkt, &mut released);
            if released.is_empty() {
                continue;
            }
            // Journal before ack: once these lines are durable the
            // frames can never be lost, so acknowledging is safe.
            // Only Seq packets release frames, and the link clears its
            // out-of-order buffer on an epoch bump, so every released
            // frame belongs to this packet's header epoch.
            let pe = pkt.epoch;
            for &(seq, frame) in &released {
                self.journal.append(&Record::Frame {
                    peer: pkt.src,
                    peer_epoch: pe,
                    seq,
                    frame,
                });
            }
            self.stats.journal_records += released.len() as u64;
            link.confirm_released();
            for &(_seq, frame) in &released {
                self.ingest(pkt.src, pe, frame);
            }
            self.last_progress = self.tick;
        }

        // Advance the barrier as far as the marks allow.
        self.advance_barrier();

        // Patience: a barrier stalled too long proceeds without the
        // silent peers (degraded, not wedged).
        if !self.finished() && self.tick.saturating_sub(self.last_progress) > self.cfg.patience {
            let missing: Vec<u32> = self
                .links
                .keys()
                .copied()
                .filter(|&p| self.awaited(p))
                .collect();
            if !missing.is_empty() {
                self.suspects.extend(missing);
                self.stats.forced_rounds += 1;
            }
            self.last_progress = self.tick;
            self.advance_barrier();
        }

        // Fire acks and due retransmissions.
        for link in self.links.values_mut() {
            let to = link.peer();
            link.flush(self.tick, |bytes| self.transport.send(to, bytes));
        }
        self.finished()
    }

    /// The end-of-run summary.
    #[must_use]
    pub fn report(&self) -> NodeReport {
        let mut link_totals = LinkStats::default();
        for l in self.links.values() {
            link_totals.sent += l.stats.sent;
            link_totals.retransmits += l.stats.retransmits;
            link_totals.dup_rx += l.stats.dup_rx;
            link_totals.stale_rx += l.stats.stale_rx;
            link_totals.acks_rx += l.stats.acks_rx;
            link_totals.window_drops += l.stats.window_drops;
        }
        NodeReport {
            node: self.me,
            epoch: self.epoch,
            rounds_closed: self.host.round(),
            decisions: self.host.decisions(),
            suspects: self.suspects.iter().copied().collect(),
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

    /// The round buffers as they were before they were flattened: a map
    /// per round of a `Vec` per sender, purged by `remove` on an epoch
    /// bump and drained sender by sender in rank order — the three
    /// pieces of the parent's `ingest`/`complete_round` that touch
    /// them, verbatim, kept as the reference for the property below.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Frames of eight senders interleaved in one flat buffer — many
        /// per sender, so only a *stable* sort keeps each sender's FIFO —
        /// with epoch bumps landing mid-round reach the host exactly as
        /// the per-peer maps delivered them.
        #[test]
        fn flat_round_buffers_deliver_what_the_per_peer_maps_did(
            arrivals in proptest::collection::vec((0usize..8, 0u32..3, 0u8..16), 1..200),
        ) {
            let arena = Arc::new(NeighborTable::build_wrapping(&Torus::new(5, 5), 1, Metric::Linf));
            let me = NodeId(12);
            let instances: Vec<InstanceId> =
                (0..3).map(|seq| InstanceId { origin: NodeId(seq), seq }).collect();
            let heard = Rc::new(RefCell::new(Heard::new()));
            let mut rt = NodeRuntime::open(
                Arc::clone(&arena),
                me,
                &instances,
                &mut |inst| Box::new(Recorder(inst, Rc::clone(&heard))),
                Box::new(Silence),
                Box::new(MemJournal::new()),
                RuntimeConfig::default(),
            )
            .expect("an empty journal boots");
            prop_assert_eq!(rt.host.round(), 1, "round 0 closes at boot");

            let peers: Vec<u32> = arena.neighbors(me).map(|n| n.0).collect();
            let mut reference = PerPeerMaps::default();
            let mut epochs = [1u32; 8];
            for (i, &(p, round_ahead, roll)) in arrivals.iter().enumerate() {
                // One arrival in sixteen is the first frame of a
                // restarted sender.
                epochs[p] += u32::from(roll == 0);
                let (round, inst) = (1 + round_ahead, instances[i % 3]);
                // The committer field numbers the frame: no two alike.
                let msg = Msg::heard(NodeId(i as u32), true, &[]);
                rt.ingest(peers[p], epochs[p], SeqFrame::Data { round, instance: inst, msg });
                reference.ingest(peers[p], epochs[p], round, inst, msg);
            }
            let mut want = Heard::new();
            for k in 1..=3 {
                rt.complete_round();
                reference.complete_round(k, &arena, &mut want);
            }
            prop_assert_eq!(&*heard.borrow(), &want);
            prop_assert!(rt.buffers.is_empty() && reference.buffers.is_empty());
        }
    }
}
