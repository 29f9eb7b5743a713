//! Packed relay-chain representation for `HEARD` reports.
//!
//! §VI chains are bounded — at most `max_relays ≤ 3` affixed relays,
//! all within an O(r)-radius ball of the committer — so the wire form
//! inlines committer + relays + value into a fixed array instead of a
//! heap `Vec<NodeId>`. The repr is `Copy`: re-broadcasting a chain and
//! keying dedup sets on it allocate nothing.

use rbcast_grid::NodeId;
use rbcast_sim::Value;

/// Inline relay capacity of a [`ChainRepr`].
///
/// Honest nodes affix at most `max_relays ≤ 3` relays; the extra slot
/// leaves headroom for adversarial over-length reports, which receivers
/// must observe (and drop) rather than fail to parse.
pub const CHAIN_CAP: usize = 4;

/// A packed `HEARD(k_m, …, k_1, i, v)` report: committer `i`, value
/// `v`, and up to [`CHAIN_CAP`] relays committer-side first.
///
/// Unused relay slots are zero-filled in the constructor, so derived
/// `Eq`/`Ord`/`Hash` see a canonical form: two chains compare equal iff
/// their committer, value, and *live* relay prefixes match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainRepr {
    committer: NodeId,
    value: Value,
    len: u8,
    relays: [NodeId; CHAIN_CAP],
}

impl ChainRepr {
    /// Packs a chain.
    ///
    /// # Panics
    ///
    /// Panics if `relays` exceeds [`CHAIN_CAP`]; use
    /// [`ChainRepr::try_new`] for untrusted lengths.
    #[must_use]
    pub(crate) fn new(committer: NodeId, value: Value, relays: &[NodeId]) -> Self {
        ChainRepr::try_new(committer, value, relays).expect("relay chain exceeds CHAIN_CAP")
    }

    /// Packs a chain, or `None` if `relays` exceeds [`CHAIN_CAP`].
    #[must_use]
    pub fn try_new(committer: NodeId, value: Value, relays: &[NodeId]) -> Option<Self> {
        if relays.len() > CHAIN_CAP {
            return None;
        }
        let mut inline = [NodeId(0); CHAIN_CAP];
        inline[..relays.len()].copy_from_slice(relays);
        Some(ChainRepr {
            committer,
            value,
            len: relays.len() as u8,
            relays: inline,
        })
    }

    /// A direct report: no relays yet (the committer's own announcement
    /// as observed by a neighbor about to affix itself).
    #[must_use]
    pub(crate) fn direct(committer: NodeId, value: Value) -> Self {
        ChainRepr::new(committer, value, &[])
    }

    /// The node whose commit is being reported.
    #[must_use]
    pub fn committer(&self) -> NodeId {
        self.committer
    }

    /// The reported committed value.
    #[must_use]
    pub fn value(&self) -> Value {
        self.value
    }

    /// The relay chain, committer-side first, transmitter last.
    #[must_use]
    pub fn relays(&self) -> &[NodeId] {
        &self.relays[..self.len as usize]
    }

    /// Number of affixed relays.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no relay has been affixed yet.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recent relay — the node that must match the true
    /// transmitter for the report to be credible.
    #[must_use]
    pub(crate) fn last_relay(&self) -> Option<NodeId> {
        self.relays().last().copied()
    }

    /// True iff `id` appears anywhere in the relay chain.
    #[must_use]
    pub(crate) fn contains_relay(&self, id: NodeId) -> bool {
        self.relays().contains(&id)
    }

    /// The chain with `relay` affixed — the forwarding step. Pure copy,
    /// no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the chain is already at [`CHAIN_CAP`] — callers gate on
    /// `len() < max_relays` first.
    #[must_use]
    pub(crate) fn extended(&self, relay: NodeId) -> ChainRepr {
        assert!((self.len as usize) < CHAIN_CAP, "chain already full");
        let mut next = *self;
        next.relays[next.len as usize] = relay;
        next.len += 1;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_and_unpacks() {
        let c = ChainRepr::new(NodeId(7), true, &[NodeId(1), NodeId(2)]);
        assert_eq!(c.committer(), NodeId(7));
        assert!(c.value());
        assert_eq!(c.relays(), &[NodeId(1), NodeId(2)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.last_relay(), Some(NodeId(2)));
        assert!(c.contains_relay(NodeId(1)));
        assert!(!c.contains_relay(NodeId(3)));
    }

    #[test]
    fn direct_has_no_relays() {
        let d = ChainRepr::direct(NodeId(5), false);
        assert!(d.is_empty());
        assert_eq!(d.last_relay(), None);
        assert_eq!(d.relays(), &[] as &[NodeId]);
    }

    #[test]
    fn extend_affixes_last() {
        let c = ChainRepr::direct(NodeId(5), true).extended(NodeId(9));
        assert_eq!(c.relays(), &[NodeId(9)]);
        let c2 = c.extended(NodeId(11));
        assert_eq!(c2.relays(), &[NodeId(9), NodeId(11)]);
        // the original is untouched (Copy semantics)
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let a = ChainRepr::new(NodeId(1), true, &[NodeId(2)]);
        let b = ChainRepr::direct(NodeId(1), true).extended(NodeId(2));
        assert_eq!(a, b);
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        assert!(set.insert(a));
        assert!(!set.insert(b));
    }

    #[test]
    fn try_new_caps_length() {
        let four = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        assert!(ChainRepr::try_new(NodeId(0), true, &four).is_some());
        let five = [NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
        assert!(ChainRepr::try_new(NodeId(0), true, &five).is_none());
    }

    #[test]
    #[should_panic(expected = "chain already full")]
    fn extend_past_cap_panics() {
        let four = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let _ = ChainRepr::new(NodeId(0), true, &four).extended(NodeId(5));
    }
}
