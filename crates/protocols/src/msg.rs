//! The wire message vocabulary.

use crate::chain::ChainRepr;
use rbcast_grid::NodeId;
use rbcast_sim::Value;

/// Messages exchanged by the broadcast protocols.
///
/// The sender identity is supplied by the channel (no spoofing), so
/// messages do not carry a separate sender field — except inside
/// [`Msg::Heard`] relay chains, where each forwarding node affixes its
/// identifier exactly as in §VI ("each forwarding node affixes its
/// identifier to the message"). Receivers verify that the last affixed
/// relay matches the true transmitter and discard mismatches as proof of
/// fault.
///
/// The whole enum is `Copy`: relay chains are packed inline
/// ([`ChainRepr`]), so broadcasting, queueing, and re-forwarding a
/// message never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msg {
    /// The source's initial local broadcast of its value.
    Source(Value),
    /// `COMMITTED(i, v)` — the transmitter announces it has committed to
    /// `v` (transmitted exactly once by honest nodes).
    Committed(Value),
    /// `HEARD(k_m, …, k_1, i, v)` — an indirect report that the chain's
    /// committer committed its value, relayed committer-side first; the
    /// last relay is the transmitter itself.
    Heard(ChainRepr),
}

impl Msg {
    /// Convenience constructor keeping the paper-shaped call sites: a
    /// `HEARD` report with explicit committer, value, and relay slice.
    ///
    /// # Panics
    ///
    /// Panics if `relays` exceeds [`crate::chain::CHAIN_CAP`].
    #[must_use]
    pub fn heard(committer: NodeId, value: Value, relays: &[NodeId]) -> Self {
        Msg::Heard(ChainRepr::new(committer, value, relays))
    }

    /// The value carried by this message.
    #[must_use]
    pub(crate) fn value(&self) -> Value {
        match self {
            Msg::Source(v) | Msg::Committed(v) => *v,
            Msg::Heard(chain) => chain.value(),
        }
    }

    /// Short message-kind label for statistics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Source(_) => "SOURCE",
            Msg::Committed(_) => "COMMITTED",
            Msg::Heard(_) => "HEARD",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_extraction() {
        assert!(Msg::Source(true).value());
        assert!(!Msg::Committed(false).value());
        let h = Msg::heard(NodeId(3), true, &[NodeId(1)]);
        assert!(h.value());
    }

    #[test]
    fn kinds_are_paper_names() {
        assert_eq!(Msg::Source(true).kind(), "SOURCE");
        assert_eq!(Msg::Committed(true).kind(), "COMMITTED");
        assert_eq!(Msg::heard(NodeId(0), false, &[]).kind(), "HEARD");
    }

    #[test]
    fn heard_exposes_chain_accessors() {
        let h = Msg::heard(NodeId(9), true, &[NodeId(4), NodeId(5)]);
        match h {
            Msg::Heard(chain) => {
                assert_eq!(chain.committer(), NodeId(9));
                assert_eq!(chain.relays(), &[NodeId(4), NodeId(5)]);
                assert_eq!(chain.last_relay(), Some(NodeId(5)));
            }
            other => panic!("expected HEARD, got {other:?}"),
        }
    }
}
