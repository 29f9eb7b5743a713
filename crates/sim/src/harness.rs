//! Single-node driver for unit-testing [`Process`] implementations.
//!
//! A [`Harness`] hosts one process and lets a test (or an interactive
//! tool) feed it messages and inspect its outputs without standing up a
//! whole [`crate::Network`]. The protocols crate uses it to pin down
//! message-validation behaviour hop by hop.

use crate::process::Lent;
use crate::{Ctx, Process, Round, Value};
use rbcast_grid::{Metric, NeighborTable, NodeId, Torus};

/// Drives a single [`Process`] with hand-crafted inputs.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, NodeId, Torus};
/// use rbcast_sim::{Ctx, Harness, Process};
///
/// struct Echo;
/// impl Process<u32> for Echo {
///     fn on_start(&mut self, _ctx: &mut Ctx<'_, u32>) {}
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, m: &u32) {
///         ctx.broadcast(m + 1);
///     }
/// }
///
/// let torus = Torus::new(12, 12);
/// let me = torus.id(Coord::new(5, 5));
/// let mut harness = Harness::new(torus.clone(), 2, Metric::Linf, me);
/// let mut proc = Echo;
/// harness.deliver(&mut proc, torus.id(Coord::new(6, 5)), &41);
/// assert_eq!(harness.drain_outbox(), vec![42]);
/// ```
#[derive(Debug)]
pub struct Harness<M> {
    arena: NeighborTable,
    id: NodeId,
    round: Round,
    /// One slot, and a note buffer always: the test is the reader.
    lent: Lent<M>,
}

impl<M> Harness<M> {
    /// Creates a harness for the node `id` on `torus` (building a
    /// private topology arena for it).
    #[must_use]
    pub fn new(torus: Torus, radius: u32, metric: Metric, id: NodeId) -> Self {
        let mut lent = Lent::new(torus.len(), 1);
        lent.notes = Some(Vec::new());
        Harness {
            arena: NeighborTable::build(&torus, radius, metric),
            id,
            round: 0,
            lent,
        }
    }

    fn with_ctx<F: FnOnce(&mut Ctx<'_, M>)>(&mut self, f: F) {
        f(&mut self.lent.ctx(&self.arena, self.id, self.round, 0));
    }

    /// Invokes the process's `on_start`.
    pub fn start(&mut self, proc: &mut dyn Process<M>) {
        self.with_ctx(|ctx| proc.on_start(ctx));
    }

    /// Delivers one message (as if transmitted by `from`).
    pub fn deliver(&mut self, proc: &mut dyn Process<M>, from: NodeId, msg: &M) {
        self.with_ctx(|ctx| proc.on_message(ctx, from, msg));
    }

    /// Invokes `on_round_end` and advances the round counter.
    pub fn end_round(&mut self, proc: &mut dyn Process<M>) {
        self.with_ctx(|ctx| proc.on_round_end(ctx));
        self.round += 1;
    }

    /// Takes everything the process has queued for broadcast (payloads
    /// only; claimed identities are dropped — use
    /// [`Harness::drain_outbox_claimed`] to observe spoofing attempts).
    pub fn drain_outbox(&mut self) -> Vec<M> {
        self.lent.queued.drain(..).map(|tx| tx.msg).collect()
    }

    /// Takes the queued broadcasts with their claimed sender identities.
    pub fn drain_outbox_claimed(&mut self) -> Vec<(NodeId, M)> {
        self.lent
            .queued
            .drain(..)
            .map(|tx| (tx.claimed, tx.msg))
            .collect()
    }

    /// The decision recorded so far, if any.
    #[must_use]
    pub fn decision(&self) -> Option<Value> {
        self.lent.decisions[0].map(|(v, _)| v)
    }

    /// Takes the protocol-level trace notes recorded via
    /// [`Ctx::note`] since the last drain.
    pub fn drain_notes(&mut self) -> Vec<(&'static str, u64)> {
        self.lent.notes.replace(Vec::new()).unwrap_or_default()
    }

    /// Total broadcasts the process has performed.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.lent.messages_sent
    }

    /// The current round counter.
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbcast_grid::Coord;

    struct Repeater;
    impl Process<u8> for Repeater {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            ctx.broadcast(1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _from: NodeId, m: &u8) {
            ctx.broadcast(*m);
            if *m == 9 {
                ctx.decide(true);
            }
        }
    }

    fn harness() -> (Harness<u8>, Torus) {
        let torus = Torus::new(12, 12);
        let me = torus.id(Coord::new(4, 4));
        (Harness::new(torus.clone(), 2, Metric::Linf, me), torus)
    }

    #[test]
    fn start_and_deliver_flow() {
        let (mut h, torus) = harness();
        let mut p = Repeater;
        h.start(&mut p);
        assert_eq!(h.drain_outbox(), vec![1]);
        h.deliver(&mut p, torus.id(Coord::new(5, 4)), &9);
        assert_eq!(h.drain_outbox(), vec![9]);
        assert_eq!(h.decision(), Some(true));
        assert_eq!(h.messages_sent(), 2);
    }

    #[test]
    fn rounds_advance_on_end_round() {
        let (mut h, _torus) = harness();
        let mut p = Repeater;
        assert_eq!(h.round(), 0);
        h.end_round(&mut p);
        h.end_round(&mut p);
        assert_eq!(h.round(), 2);
    }

    #[test]
    fn claimed_identities_visible() {
        struct Spoof;
        impl Process<u8> for Spoof {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.broadcast_as(NodeId(7), 3);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: NodeId, _: &u8) {}
        }
        let (mut h, _) = harness();
        let mut p = Spoof;
        h.start(&mut p);
        assert_eq!(h.drain_outbox_claimed(), vec![(NodeId(7), 3)]);
    }
}
