//! The ids a node has heard from once, as bits over its ball-local
//! frame.

use crate::arena::{frame_slot, frame_slots};
use crate::{NeighborTable, NodeId};

/// A set of the ids a node hears claimed as senders — §V's "first
/// announcement per neighbour" — kept as one bit per slot of the node's
/// L∞ frame of span `2r` (see [`crate::LocalFrame`]). Span `2r`, not
/// `r`: a neighbour that spoofs (§X) claims its own neighbours' ids, and
/// those lie up to `2r` from the receiver, the receiver's own id among
/// them. No process can be heard claiming an id past `2r`, so the set
/// never holds one: [`NeighborSet::insert`] refuses it as a repeat.
///
/// The bits sit inline in one word while the frame has at most 64 slots
/// (`r = 1`: 25), and otherwise in one boxed word slice allocated at the
/// first insert. The set stores no geometry: every call names the arena
/// and the node whose frame it is.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, NeighborSet, NeighborTable, Torus};
///
/// let torus = Torus::new(12, 12);
/// let arena = NeighborTable::build(&torus, 1, Metric::Linf);
/// let me = torus.id(Coord::new(5, 5));
/// let mut heard = NeighborSet::default();
/// let near = torus.id(Coord::new(7, 3)); // L∞ 2 = 2r away
/// assert!(heard.insert(&arena, me, near));
/// assert!(!heard.insert(&arena, me, near), "a repeat");
/// assert!(heard.contains(&arena, me, near));
/// let far = torus.id(Coord::new(8, 5)); // L∞ 3: outside the frame
/// assert!(!heard.insert(&arena, me, far) && !heard.contains(&arena, me, far));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighborSet(Words);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline(u64),
    Boxed(Box<[u64]>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline(0)
    }
}

/// The slot of `id` in the span-`2r` frame of `me`, and the frame's
/// slot count, or `None` when `id` lies outside it.
#[inline]
fn slot(arena: &NeighborTable, me: NodeId, id: NodeId) -> Option<(usize, usize)> {
    let torus = arena.torus();
    let span = 2 * i64::from(arena.radius());
    let slot = frame_slot(torus, torus.coord(me), torus.coord(id), span)?;
    Some((slot, frame_slots(span)))
}

impl NeighborSet {
    /// Adds `id` to the set of the node `me` on `arena`. Returns `true`
    /// iff it was not a member and lies within L∞ `2r` of `me`.
    #[inline]
    pub fn insert(&mut self, arena: &NeighborTable, me: NodeId, id: NodeId) -> bool {
        let Some((slot, slots)) = slot(arena, me, id) else {
            return false;
        };
        if slots > 64 && matches!(self.0, Words::Inline(_)) {
            self.0 = Words::Boxed(vec![0; slots.div_ceil(64)].into_boxed_slice());
        }
        let word = match &mut self.0 {
            Words::Inline(word) => word,
            Words::Boxed(words) => &mut words[slot / 64],
        };
        let bit = 1 << (slot % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether `id` is in the set of the node `me` on `arena`.
    #[inline]
    #[must_use]
    pub fn contains(&self, arena: &NeighborTable, me: NodeId, id: NodeId) -> bool {
        let Some((slot, _)) = slot(arena, me, id) else {
            return false;
        };
        let word = match &self.0 {
            Words::Inline(word) if slot < 64 => *word,
            Words::Inline(_) => 0,
            Words::Boxed(words) => words[slot / 64],
        };
        word & 1 << (slot % 64) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coord, Metric, Torus};
    use std::collections::BTreeSet;

    #[test]
    fn inline_at_r1_boxed_from_the_first_insert_past() {
        assert_eq!(std::mem::size_of::<NeighborSet>(), 16);
        for (r, boxed) in [(1, false), (2, true)] {
            let torus = Torus::for_radius(r);
            let arena = NeighborTable::build(&torus, r, Metric::Linf);
            let me = torus.id(Coord::new(5, 5));
            let mut set = NeighborSet::default();
            assert!(!set.contains(&arena, me, me));
            assert_eq!(set.0, Words::Inline(0), "r={r}: an empty set holds nothing");
            assert!(set.insert(&arena, me, me));
            assert_eq!(matches!(set.0, Words::Boxed(_)), boxed, "r={r}");
        }
    }

    proptest::proptest! {
        /// Any stream of inserts and lookups reads as a `BTreeSet` of the
        /// ids within L∞ `2r` of the node, for a node at the center of
        /// the torus and one on its seam, on the experiment tori for
        /// `r = 1, 2` and the cluster's 3×3 wrapping torus, under both
        /// metrics.
        #[test]
        fn matches_a_btreeset_of_the_span_2r_frame(
            which in 0usize..3,
            l2 in 0u8..2,
            seam in 0u8..2,
            ops in proptest::collection::vec((0u8..2, -5i64..=5, -5i64..=5), 0..80),
        ) {
            let (torus, r) = match which {
                0 => (Torus::for_radius(1), 1),
                1 => (Torus::for_radius(2), 2),
                _ => (Torus::new(3, 3), 1),
            };
            let metric = if l2 == 1 { Metric::L2 } else { Metric::Linf };
            let arena = NeighborTable::build_wrapping(&torus, r, metric);
            let side = i64::from(torus.width());
            let me = if seam == 1 {
                Coord::new(side - 1, 0)
            } else {
                Coord::new(side / 2, side / 2)
            };
            let me_id = torus.id(me);
            let mut set = NeighborSet::default();
            let mut reference = BTreeSet::new();
            for (insert, dx, dy) in ops {
                let c = torus.canonical(me + Coord::new(dx, dy));
                let id = torus.id(c);
                let in_frame = torus.dist(me, c, Metric::Linf) <= 2 * u64::from(r);
                if insert == 1 {
                    let want = in_frame && reference.insert(id);
                    proptest::prop_assert_eq!(set.insert(&arena, me_id, id), want, "insert {}", id);
                } else {
                    let want = reference.contains(&id);
                    proptest::prop_assert_eq!(set.contains(&arena, me_id, id), want, "contains {}", id);
                }
            }
        }
    }
}
