//! Shared, immutable topology arena: the radius-`r` geometry of a torus.
//!
//! The paper's network is the infinite grid, where every node's
//! neighbourhood is the same ball, translated; the torus emulates it. A
//! [`NeighborTable`] therefore keeps the geometry, not the graph:
//!
//! * the neighbour stencil — the ball's offsets, compiled once for the
//!   torus — from which [`NeighborTable::neighbors`] computes any node's
//!   row, yielding exactly the ids of [`Torus::neighborhood`] in the
//!   same order, so no observable behaviour depends on where the ids
//!   come from;
//! * the closed balls at `r` and `r + 1`, the only distances the §VI
//!   commit rules scan for candidate centers; on a torus large enough to
//!   host the radius ([`Torus::supports_radius`]) that set is a fixed
//!   position-independent offset stencil;
//! * the transmission order every host delivers in: TDMA slot order
//!   when a periodic [`TdmaSchedule`] fits the torus, id order
//!   otherwise — a function of the geometry, so it is computed here
//!   once and not per network. It is the one thing kept per node.
//!
//! The table is immutable after construction, so one instance can be
//! shared across worker threads behind an `Arc` and across every run of
//! a sweep, keyed by `(torus dims, r, metric)`.

use crate::{BitSet, Coord, Metric, NodeId, TdmaSchedule, Torus};
use std::fmt;
use std::iter::FusedIterator;

/// Precomputed radius-`r` topology of a [`Torus`] under one [`Metric`]:
/// the neighbour stencil every row is computed from, the closed-ball
/// offsets the commit-rule center scans use, and the transmission order.
///
/// # Example
///
/// ```
/// use rbcast_grid::{Coord, Metric, NeighborTable, Torus};
///
/// let torus = Torus::new(20, 20);
/// let table = NeighborTable::build(&torus, 2, Metric::Linf);
/// let center = torus.id(Coord::new(5, 5));
/// assert_eq!(table.neighbors(center).len(), 24); // (2r+1)² − 1
/// ```
pub struct NeighborTable {
    torus: Torus,
    radius: u32,
    metric: Metric,
    /// Every offset within distance `radius` of the origin, origin
    /// included, in row-major (`dy` outer, `dx` inner) scan order.
    /// Without the origin it is the neighbour stencil, which `stencil`
    /// compiles for this torus.
    ball: Box<[Coord]>,
    /// The same closed ball at distance `radius + 1`.
    outer: Box<[Coord]>,
    /// The neighbour stencil in row order: `ball` without the origin,
    /// less any offset that aliases an earlier one or the node itself on
    /// a torus too small for the radius.
    stencil: Box<[Step]>,
    /// The TDMA transmission order and its inverse, present only when
    /// a periodic schedule fits the torus; without one the order is id
    /// order and a node's rank is its id, so no table is kept.
    schedule: Option<Schedule>,
}

/// One neighbour offset, compiled for the torus.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The x offset reduced into `0..width`, so a seam node wraps with
    /// one compare-and-subtract.
    dx: u32,
    /// The y offset reduced into `0..height`.
    dy: u32,
    /// `dy·width + dx` from the signed offset: the id step of a node no
    /// offset carries across a seam.
    delta: i64,
}

/// A TDMA torus's transmission order: `order[k]` transmits `k`-th, and
/// `ranks[id]` is `id`'s position in `order`.
struct Schedule {
    order: Box<[NodeId]>,
    ranks: Box<[u32]>,
}

impl Schedule {
    /// Slot order, ties by id — `None` when no periodic schedule fits
    /// `torus` at `radius` (the model guarantees collision-freedom
    /// either way; id order is then the order).
    fn build(torus: &Torus, radius: u32) -> Result<Option<Schedule>, ArenaError> {
        let Ok(tdma) = TdmaSchedule::new(torus, radius) else {
            return Ok(None);
        };
        let n = torus.len();
        let mut order = reserve(torus, "TDMA order", n)?;
        order.extend(torus.node_ids());
        order.sort_by_key(|&id| (tdma.slot_of(torus.coord(id)), id));
        // Reserved, then zeroed: `vec![0; n]` (`calloc`) cannot be
        // asked to fail, and a rank table the host cannot hold must be
        // an error, not an abort.
        let mut ranks = reserve(torus, "TDMA rank table", n)?;
        ranks.resize(n, 0u32);
        for (rank, &id) in order.iter().enumerate() {
            ranks[id.index()] = rank as u32;
        }
        Ok(Some(Schedule {
            order: order.into_boxed_slice(),
            ranks: ranks.into_boxed_slice(),
        }))
    }
}

/// Why a [`NeighborTable`], or the node table a run keeps beside it,
/// could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// More nodes than a `u32` [`NodeId`] can name
    /// (`NeighborTable::MAX_NODES`).
    TooManyNodes {
        /// Nodes on the torus.
        nodes: u64,
    },
    /// The allocator refused an allocation.
    OutOfMemory {
        /// Nodes on the torus.
        nodes: u64,
        /// What was being allocated.
        what: &'static str,
        /// Its size.
        bytes: u64,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArenaError::TooManyNodes { nodes } => {
                write!(f, "{nodes} nodes exceeds the 2³² a u32 node id can name")
            }
            ArenaError::OutOfMemory { nodes, what, bytes } => {
                write!(
                    f,
                    "{nodes} nodes: cannot allocate the {what}'s {bytes} bytes"
                )
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// An empty vector with room for `len` items, or the allocator's
/// refusal as an [`ArenaError`] naming `what` on `torus`.
fn reserve<T>(torus: &Torus, what: &'static str, len: usize) -> Result<Vec<T>, ArenaError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| ArenaError::OutOfMemory {
            nodes: torus.len() as u64,
            what,
            bytes: (len as u64).saturating_mul(std::mem::size_of::<T>() as u64),
        })?;
    Ok(v)
}

impl NeighborTable {
    /// The most nodes a table can hold: node ids are `u32`.
    const MAX_NODES: u64 = 1 << 32;

    /// Refuses a torus whose nodes a `u32` id cannot name.
    ///
    /// # Errors
    ///
    /// [`ArenaError::TooManyNodes`] past `NeighborTable::MAX_NODES`.
    pub fn check_nodes(nodes: u64) -> Result<(), ArenaError> {
        if nodes > Self::MAX_NODES {
            return Err(ArenaError::TooManyNodes { nodes });
        }
        Ok(())
    }

    /// Builds the table for `torus` at transmission radius `radius`
    /// under `metric`.
    ///
    /// # Panics
    ///
    /// Panics if the torus is too small to emulate the infinite grid at
    /// this radius (see `Torus::supports_radius`) — undersized tori
    /// would alias neighborhoods through the wrap-around — or on the
    /// [`ArenaError`] of [`NeighborTable::try_build`].
    #[must_use]
    pub fn build(torus: &Torus, radius: u32, metric: Metric) -> Self {
        NeighborTable::try_build(torus, radius, metric).unwrap_or_else(|e| {
            // audit:allow(panic): documented; `try_build` is the fallible form
            panic!("{e}")
        })
    }

    /// [`NeighborTable::build`], returning a torus too large for `u32`
    /// ids, or an arena the allocator refuses, as an error.
    ///
    /// # Errors
    ///
    /// When the torus has more than `NeighborTable::MAX_NODES` nodes or
    /// the allocator refuses the schedule or the stencils.
    ///
    /// # Panics
    ///
    /// Panics if the torus cannot host the radius, as
    /// [`NeighborTable::build`].
    pub fn try_build(torus: &Torus, radius: u32, metric: Metric) -> Result<Self, ArenaError> {
        assert!(
            torus.supports_radius(radius),
            "{torus} cannot faithfully host radius {radius} (needs side > {})",
            2 * (2 * radius + 1),
        );
        NeighborTable::assemble(torus, radius, metric)
    }

    /// Builds the table for tori too small to faithfully emulate the
    /// infinite grid at `radius` (where [`NeighborTable::build`] would
    /// panic): the metric stencil wraps, so offsets that alias through
    /// the torus collapse to one neighbor entry (first occurrence kept)
    /// and the node itself is dropped.
    ///
    /// On a torus that *does* support the radius this is exactly
    /// [`NeighborTable::build`]. The networked cluster harness uses the
    /// relaxed form for small deployments (e.g. a 3×3 torus at `r = 1`,
    /// where every node simply hears every other node); the faithful
    /// constructor remains the required path for paper experiments.
    ///
    /// # Panics
    ///
    /// On the [`ArenaError`] of [`NeighborTable::try_build_wrapping`].
    #[must_use]
    pub fn build_wrapping(torus: &Torus, radius: u32, metric: Metric) -> Self {
        NeighborTable::try_build_wrapping(torus, radius, metric).unwrap_or_else(|e| {
            // audit:allow(panic): documented; `try_build_wrapping` is the fallible form
            panic!("{e}")
        })
    }

    /// [`NeighborTable::build_wrapping`], returning the errors of
    /// [`NeighborTable::try_build`].
    ///
    /// # Errors
    ///
    /// As [`NeighborTable::try_build`].
    pub fn try_build_wrapping(
        torus: &Torus,
        radius: u32,
        metric: Metric,
    ) -> Result<Self, ArenaError> {
        NeighborTable::assemble(torus, radius, metric)
    }

    /// Both constructors: aliasing on a torus too small for the radius
    /// is the same for every node, so the stencil is deduplicated once,
    /// at the origin, and a faithful torus keeps every offset. The
    /// schedule is allocated first: built after the stencils, it raised
    /// the peak RSS of a run that builds and frees tiny arenas over and
    /// over (DESIGN.md, "Node state").
    fn assemble(torus: &Torus, radius: u32, metric: Metric) -> Result<Self, ArenaError> {
        NeighborTable::check_nodes(torus.len() as u64)?;
        let schedule = Schedule::build(torus, radius)?;
        let ball = ball_stencil(torus, radius, metric)?;
        let outer = ball_stencil(torus, radius + 1, metric)?;
        let (w, h) = (i64::from(torus.width()), i64::from(torus.height()));
        let faithful = torus.supports_radius(radius);
        // An aliased stencil keeps at most one offset per other node.
        let room = if faithful {
            ball.len() - 1
        } else {
            (ball.len() - 1).min(torus.len() - 1)
        };
        let mut stencil = reserve(torus, "neighbour stencil", room)?;
        // Which residues an earlier offset (or the node itself) took;
        // only an aliasing torus needs the record.
        let mut taken = (!faithful).then(|| {
            let mut taken = BitSet::new(torus.len());
            taken.set(0);
            taken
        });
        for off in ball.iter().filter(|&&off| off != Coord::ORIGIN) {
            let (dx, dy) = (off.x.rem_euclid(w), off.y.rem_euclid(h));
            if let Some(taken) = &mut taken {
                if !taken.set((dy * w + dx) as usize) {
                    continue;
                }
            }
            stencil.push(Step {
                dx: dx as u32,
                dy: dy as u32,
                delta: off.y * w + off.x,
            });
        }
        Ok(NeighborTable {
            torus: torus.clone(),
            radius,
            metric,
            ball: ball.into_boxed_slice(),
            outer: outer.into_boxed_slice(),
            stencil: stencil.into_boxed_slice(),
            schedule,
        })
    }

    /// The torus this table was built for.
    #[inline]
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The transmission radius.
    #[inline]
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The distance metric.
    #[inline]
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.torus.len()
    }

    /// True iff the torus has no nodes (never, by construction — kept
    /// for `len`/`is_empty` API symmetry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.torus.is_empty()
    }

    /// The radius-`radius` neighborhood of `id` (excluding `id` itself):
    /// the same ids, in the same order, as [`Torus::neighborhood`],
    /// computed from the stencil. A node no offset carries across a seam
    /// steps by a fixed id delta; a seam node wraps each axis.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the torus.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> Neighbors<'_> {
        let (w, h) = (self.torus.width(), self.torus.height());
        let (x, y) = (id.0 % w, id.0 / w);
        assert!(y < h, "{id} is off the torus");
        let (x, y, w, h, r) = (
            u64::from(x),
            u64::from(y),
            u64::from(w),
            u64::from(h),
            u64::from(self.radius),
        );
        let interior = x >= r && x + r < w && y >= r && y + r < h;
        Neighbors {
            steps: self.stencil.iter(),
            id,
            seam: (!interior).then_some(Seam { x, y, w, h }),
        }
    }

    /// `id`'s position in the global transmission order every host
    /// delivers in: TDMA slot order (ties by id) when a periodic
    /// schedule fits the torus, id order otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the torus.
    #[inline]
    #[must_use]
    pub fn rank(&self, id: NodeId) -> u32 {
        match &self.schedule {
            Some(s) => s.ranks[id.index()],
            None => {
                assert!(id.index() < self.len(), "{id} is off the torus");
                id.0
            }
        }
    }

    /// Every node's [`NeighborTable::rank`], indexed by id — `None` on
    /// a torus no periodic schedule fits, where the rank is the id.
    #[inline]
    #[must_use]
    pub fn ranks(&self) -> Option<&[u32]> {
        self.schedule.as_ref().map(|s| &*s.ranks)
    }

    /// Calls `f` on every node in transmission order.
    pub fn for_each_in_order(&self, mut f: impl FnMut(NodeId)) {
        match &self.schedule {
            Some(s) => {
                for &id in &*s.order {
                    f(id);
                }
            }
            None => {
                for id in self.torus.node_ids() {
                    f(id);
                }
            }
        }
    }

    /// All offsets within metric distance `d` of the origin, including
    /// the origin itself — the closed-ball stencil the commit rules scan
    /// for candidate neighborhood centers. Position-independent: the
    /// ball around `c` is `{canonical(c + off)}` over these offsets.
    ///
    /// # Panics
    ///
    /// Panics unless `d` is the radius or the frontier distance `r + 1`,
    /// the only two distances the rules look at.
    #[inline]
    #[must_use]
    pub fn ball_offsets(&self, d: u32) -> &[Coord] {
        if d == self.radius {
            &self.ball
        } else if d == self.radius + 1 {
            &self.outer
        } else {
            // audit:allow(panic): documented; the rules scan only r and r + 1
            panic!(
                "the arena keeps the balls at r = {} and r + 1 only, not {d}",
                self.radius
            )
        }
    }

    /// A [`LocalFrame`] centered on `me` spanning L∞ displacement
    /// `span` per axis — the dense small-integer index space the
    /// evidence store uses for ball-local committer slots.
    #[must_use]
    pub fn local_frame(&self, me: Coord, span: u32) -> LocalFrame {
        LocalFrame {
            torus: self.torus.clone(),
            me,
            span: i64::from(span),
            side: 2 * i64::from(span) + 1,
        }
    }
}

/// A node's row of the neighbour table, computed from the stencil: the
/// iterator [`NeighborTable::neighbors`] returns.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    steps: std::slice::Iter<'a, Step>,
    id: NodeId,
    /// The node's coordinates and the torus sides when an offset
    /// carries it across a seam; `None` when every neighbour is one id
    /// delta away.
    seam: Option<Seam>,
}

/// A seam node's coordinates and the torus it wraps on.
#[derive(Debug, Clone, Copy)]
struct Seam {
    x: u64,
    y: u64,
    w: u64,
    h: u64,
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let step = self.steps.next()?;
        Some(match self.seam {
            None => NodeId((i64::from(self.id.0) + step.delta) as u32),
            Some(Seam { x, y, w, h }) => {
                let mut nx = x + u64::from(step.dx);
                if nx >= w {
                    nx -= w;
                }
                let mut ny = y + u64::from(step.dy);
                if ny >= h {
                    ny -= h;
                }
                NodeId((ny * w + nx) as u32)
            }
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.steps.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl FusedIterator for Neighbors<'_> {}

/// Ball-local coordinate frame around one node: maps every torus
/// coordinate whose minimal wrap displacement from the center fits in
/// the `(2·span + 1)²` box to a dense slot index in `0..slots()`.
///
/// [`Torus::displacement`] assigns each canonical coordinate a unique
/// minimal displacement, so the mapping is injective over all nodes it
/// accepts — even when the box is larger than the torus itself (slots
/// simply go unused). Coordinates outside the box map to `None`.
#[derive(Debug, Clone)]
pub struct LocalFrame {
    torus: Torus,
    me: Coord,
    span: i64,
    side: i64,
}

impl LocalFrame {
    /// The center coordinate the frame was built around.
    #[cfg(test)]
    fn center(&self) -> Coord {
        self.me
    }

    /// Number of slots in the frame: `(2·span + 1)²`.
    #[must_use]
    pub fn slots(&self) -> usize {
        (self.side * self.side) as usize
    }

    /// Dense slot of node `id` (see `LocalFrame::slot_of`).
    #[inline]
    #[must_use]
    pub fn slot_of_id(&self, id: NodeId) -> Option<usize> {
        self.slot_of(self.torus.coord(id))
    }

    /// Dense slot of `c`, or `None` if its minimal displacement from
    /// the center exceeds the span on either axis.
    #[inline]
    #[must_use]
    fn slot_of(&self, c: Coord) -> Option<usize> {
        let d = self.torus.displacement(self.me, c);
        if d.x.abs() > self.span || d.y.abs() > self.span {
            return None;
        }
        Some(((d.y + self.span) * self.side + (d.x + self.span)) as usize)
    }
}

/// Every offset with metric distance ≤ `d` from the origin (origin
/// included), in row-major (`dy` outer, `dx` inner) scan order — or the
/// allocator's refusal of its `|ball|` coordinates.
fn ball_stencil(torus: &Torus, d: u32, metric: Metric) -> Result<Vec<Coord>, ArenaError> {
    let size = metric.neighborhood_size(d).saturating_add(1);
    let mut v = reserve(torus, "ball stencil", size)?;
    let di = i64::from(d);
    for dy in -di..=di {
        for dx in -di..=di {
            let off = Coord::new(dx, dy);
            if metric.within(Coord::ORIGIN, off, d) {
                v.push(off);
            }
        }
    }
    Ok(v)
}

impl fmt::Debug for NeighborTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NeighborTable")
            .field("torus", &self.torus)
            .field("radius", &self.radius)
            .field("metric", &self.metric)
            .field("stencil", &self.stencil.len())
            .field("tdma", &self.schedule.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tori every cross-check runs on: the canonical experiment
    /// torus for `r` and the smallest torus that still supports `r`.
    fn tori_for(r: u32) -> [Torus; 2] {
        let min_side = 2 * (2 * r + 1) + 1;
        [Torus::for_radius(r), Torus::new(min_side, min_side)]
    }

    /// Every row as the compressed-sparse-row table that the stencil
    /// replaced stored it, built the way it built them: each stencil
    /// offset translated to the node, and on a torus too small for the
    /// radius the aliased repeats and the node itself dropped.
    fn csr_rows(torus: &Torus, r: u32, metric: Metric) -> Vec<Vec<NodeId>> {
        let offs = crate::nbd::metric_offsets(r, metric);
        let faithful = torus.supports_radius(r);
        torus
            .node_ids()
            .map(|id| {
                let c = torus.coord(id);
                let mut row: Vec<NodeId> = Vec::new();
                for &off in &offs {
                    let nb = torus.id(c + off);
                    if faithful || (nb != id && !row.contains(&nb)) {
                        row.push(nb);
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn rows_match_naive_neighborhood_exhaustively() {
        // The correctness anchor: for r ∈ {1, 2, 3}, both metrics, every
        // node of both a roomy and a minimal torus, the computed row must
        // equal the naive enumeration *element for element* (same
        // members, same order).
        for r in 1..=3u32 {
            for metric in [Metric::Linf, Metric::L2] {
                for torus in tori_for(r) {
                    let table = NeighborTable::build(&torus, r, metric);
                    for id in torus.node_ids() {
                        let naive: Vec<NodeId> = torus.neighborhood(id, r, metric).collect();
                        let row: Vec<NodeId> = table.neighbors(id).collect();
                        assert_eq!(row, naive, "node {id} on {torus} r={r} {metric}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On any torus, tori too small for the radius included, every
        /// row the stencil computes is the row the CSR table stored, and
        /// it knows its length.
        #[test]
        fn stencil_rows_are_the_csr_rows(
            w in 1u32..28, h in 1u32..28, r in 1u32..6, l2 in 0u8..2,
        ) {
            let metric = if l2 == 1 { Metric::L2 } else { Metric::Linf };
            let torus = Torus::new(w, h);
            let table = NeighborTable::build_wrapping(&torus, r, metric);
            for (id, want) in torus.node_ids().zip(csr_rows(&torus, r, metric)) {
                let row = table.neighbors(id);
                proptest::prop_assert_eq!(row.len(), want.len());
                proptest::prop_assert_eq!(row.collect::<Vec<_>>(), want, "node {}", id);
                if torus.supports_radius(r) {
                    proptest::prop_assert_eq!(
                        table.neighbors(id).len(),
                        metric.neighborhood_size(r)
                    );
                }
            }
        }
    }

    #[test]
    fn degrees_are_uniform_and_match_the_metric() {
        for r in 1..=3u32 {
            for metric in [Metric::Linf, Metric::L2] {
                let torus = Torus::for_radius(r);
                let table = NeighborTable::build(&torus, r, metric);
                for id in torus.node_ids() {
                    assert_eq!(table.neighbors(id).len(), metric.neighborhood_size(r));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "10000000000 nodes exceeds the 2³² a u32 node id can name")]
    fn a_torus_past_u32_ids_is_refused_before_allocating() {
        // 10¹⁰ nodes: more than a `NodeId` can name, refused before the
        // schedule or a stencil is allocated.
        let _ = NeighborTable::build(&Torus::new(100_000, 100_000), 1, Metric::Linf);
    }

    #[test]
    fn a_ball_the_allocator_refuses_is_an_error_not_an_abort() {
        // A 3×3 torus at r = 2³⁰: its (2³¹ + 1)² ball offsets are more
        // bytes than a vector can hold.
        let Err(refused) =
            NeighborTable::try_build_wrapping(&Torus::new(3, 3), 1 << 30, Metric::Linf)
        else {
            panic!("a ball past the address space");
        };
        assert!(matches!(
            refused,
            ArenaError::OutOfMemory {
                nodes: 9,
                what: "ball stencil",
                ..
            }
        ));
        assert!(refused
            .to_string()
            .starts_with("9 nodes: cannot allocate the ball stencil's"));
    }

    #[test]
    fn wraparound_neighbors_are_distinct_and_within_range() {
        // On the *minimal* supported torus every corner neighborhood
        // wraps; members must still be distinct and at toroidal distance
        // ≤ r.
        for r in 1..=3u32 {
            for metric in [Metric::Linf, Metric::L2] {
                let [_, torus] = tori_for(r);
                let table = NeighborTable::build(&torus, r, metric);
                for id in torus.node_ids() {
                    let nbrs: Vec<NodeId> = table.neighbors(id).collect();
                    let set: std::collections::BTreeSet<NodeId> = nbrs.iter().copied().collect();
                    assert_eq!(set.len(), nbrs.len(), "duplicate neighbor of {id}");
                    for &nb in &nbrs {
                        assert!(nb != id);
                        assert!(torus.within(torus.coord(id), torus.coord(nb), r, metric));
                    }
                }
            }
        }
    }

    #[test]
    fn ball_offsets_match_brute_force_torus_scan() {
        // ball_offsets(d) translated to any center must equal the set of
        // torus nodes within d of that center — the exact contract the
        // commit-rule center scans need.
        for r in 1..=3u32 {
            for metric in [Metric::Linf, Metric::L2] {
                let [_, torus] = tori_for(r);
                let table = NeighborTable::build(&torus, r, metric);
                for d in [r, r + 1] {
                    for around in [Coord::ORIGIN, Coord::new(1, i64::from(torus.height()) - 1)] {
                        let via_table: std::collections::BTreeSet<Coord> = table
                            .ball_offsets(d)
                            .iter()
                            .map(|&off| torus.canonical(around + off))
                            .collect();
                        let brute: std::collections::BTreeSet<Coord> = torus
                            .coords()
                            .filter(|&c| torus.within(around, c, d, metric))
                            .collect();
                        assert_eq!(via_table, brute, "d={d} around={around} {metric}");
                    }
                }
            }
        }
    }

    #[test]
    fn ball_offsets_are_center_inclusive_and_ordered() {
        let table = NeighborTable::build(&Torus::for_radius(1), 1, Metric::Linf);
        // row-major scan order: dy outer, dx inner
        let d1 = table.ball_offsets(1);
        assert_eq!(d1.len(), 9);
        assert_eq!(d1[0], Coord::new(-1, -1));
        assert_eq!(d1[4], Coord::ORIGIN);
        assert_eq!(d1[8], Coord::new(1, 1));
        // the ball at r without the origin is the neighbour stencil
        let stencil: Vec<Coord> = d1.iter().copied().filter(|&c| c != Coord::ORIGIN).collect();
        assert_eq!(stencil, crate::nbd::metric_offsets(1, Metric::Linf));
        let d2 = table.ball_offsets(2);
        assert_eq!(d2.len(), 25);
        assert_eq!(d2[12], Coord::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "the arena keeps the balls at r = 2 and r + 1 only, not 1")]
    fn a_ball_the_rules_never_scan_is_not_kept() {
        let table = NeighborTable::build(&Torus::for_radius(2), 2, Metric::Linf);
        let _ = table.ball_offsets(1);
    }

    #[test]
    fn local_frame_is_injective_and_center_inclusive() {
        for torus in [Torus::for_radius(2), Torus::new(11, 11)] {
            let table = NeighborTable::build(&torus, 2, Metric::Linf);
            let me = Coord::new(3, 7);
            let frame = table.local_frame(me, 6); // span 3r for r = 2
            assert_eq!(frame.center(), me);
            assert_eq!(frame.slots(), 13 * 13);
            let center_slot = frame.slot_of(me).unwrap();
            assert_eq!(center_slot, (6 * 13 + 6) as usize);
            // Injective over every accepted node, even when the box is
            // larger than the torus (the 11×11 case).
            let mut seen = std::collections::BTreeMap::new();
            for c in torus.coords() {
                if let Some(slot) = frame.slot_of(c) {
                    assert!(slot < frame.slots());
                    if let Some(prev) = seen.insert(slot, c) {
                        panic!("slot {slot} aliases {prev} and {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn local_frame_rejects_out_of_span_coords() {
        let torus = Torus::new(40, 40);
        let table = NeighborTable::build(&torus, 2, Metric::Linf);
        let frame = table.local_frame(Coord::new(2, 2), 6);
        assert!(frame.slot_of(Coord::new(2, 2)).is_some());
        assert!(frame.slot_of(Coord::new(8, 2)).is_some());
        assert!(frame.slot_of(Coord::new(9, 2)).is_none());
        assert!(frame.slot_of(Coord::new(2, 9)).is_none());
        // Wraparound: (39, 2) has minimal displacement (-3, 0), well
        // inside the span even though the raw difference is 37.
        assert!(frame.slot_of(Coord::new(39, 2)).is_some());
        assert!(frame.slot_of(Coord::new(35, 2)).is_none());
    }

    #[test]
    #[should_panic(expected = "cannot faithfully host")]
    fn rejects_undersized_torus() {
        let _ = NeighborTable::build(&Torus::new(8, 8), 2, Metric::Linf);
    }

    #[test]
    fn build_wrapping_matches_build_on_supported_tori() {
        for r in 1..=2u32 {
            for metric in [Metric::Linf, Metric::L2] {
                let torus = Torus::for_radius(r);
                let strict = NeighborTable::build(&torus, r, metric);
                let relaxed = NeighborTable::build_wrapping(&torus, r, metric);
                for id in torus.node_ids() {
                    assert!(strict.neighbors(id).eq(relaxed.neighbors(id)), "node {id}");
                }
            }
        }
    }

    #[test]
    fn build_wrapping_hosts_a_3x3_torus_at_r1() {
        // The cluster smoke topology: 9 nodes, everyone hears everyone.
        let torus = Torus::new(3, 3);
        let table = NeighborTable::build_wrapping(&torus, 1, Metric::Linf);
        for id in torus.node_ids() {
            let nbrs: Vec<NodeId> = table.neighbors(id).collect();
            assert_eq!(nbrs.len(), 8, "node {id} must hear all 8 others");
            let set: std::collections::BTreeSet<NodeId> = nbrs.iter().copied().collect();
            assert_eq!(set.len(), 8, "duplicate neighbor of {id}");
            assert!(!nbrs.contains(&id), "node {id} must not hear itself");
        }
    }

    #[test]
    fn build_wrapping_collapses_aliased_offsets() {
        // On a 2×2 torus at r = 1 the eight Moore offsets alias down to
        // the three other nodes; the relaxed table must dedup them.
        let torus = Torus::new(2, 2);
        let table = NeighborTable::build_wrapping(&torus, 1, Metric::Linf);
        for id in torus.node_ids() {
            let nbrs: Vec<NodeId> = table.neighbors(id).collect();
            assert_eq!(nbrs.len(), 3, "node {id}: {nbrs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "n144 is off the torus")]
    fn a_row_off_the_torus_panics() {
        let table = NeighborTable::build(&Torus::for_radius(1), 1, Metric::Linf);
        let _ = table.neighbors(NodeId(144));
    }

    /// The transmission order as every host computed it for itself
    /// before the arena kept it: all ids sorted by `(slot, id)` when a
    /// schedule fits, id order otherwise.
    fn sorted_by_slot(torus: &Torus, r: u32) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = torus.node_ids().collect();
        if let Ok(tdma) = TdmaSchedule::new(torus, r) {
            order.sort_by_key(|&id| (tdma.slot_of(torus.coord(id)), id));
        }
        order
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The arena's order and ranks are the `(slot, id)` sort, on
        /// tori a schedule fits (whole periods) and on tori it does not
        /// (a side one or two past a period), roomy and wrapping alike.
        #[test]
        fn order_and_ranks_are_the_slot_sort(
            r in 1u32..4, a in 1u32..7, b in 1u32..7, fit in 0u8..2, dw in 1u32..3,
        ) {
            let k = 2 * r + 1;
            let (w, h) = if fit == 1 { (a * k, b * k) } else { (a * k + dw, b * k) };
            let torus = Torus::new(w, h);
            let table = NeighborTable::build_wrapping(&torus, r, Metric::Linf);
            let want = sorted_by_slot(&torus, r);
            let mut order = Vec::new();
            table.for_each_in_order(|id| order.push(id));
            proptest::prop_assert_eq!(&order, &want);
            proptest::prop_assert_eq!(table.ranks().is_some(), fit == 1);
            for (rank, &id) in want.iter().enumerate() {
                proptest::prop_assert_eq!(table.rank(id) as usize, rank);
                if let Some(ranks) = table.ranks() {
                    proptest::prop_assert_eq!(ranks[id.index()] as usize, rank);
                }
            }
        }
    }

    #[test]
    fn an_unscheduled_torus_keeps_no_rank_table() {
        // 1000 is not a multiple of 3: the rank is the id.
        let table = NeighborTable::build(&Torus::new(1000, 7), 1, Metric::Linf);
        assert!(table.ranks().is_none());
        assert_eq!(table.rank(NodeId(6_999)), 6_999);
        let scheduled = NeighborTable::build(&Torus::for_radius(1), 1, Metric::Linf);
        assert_eq!(scheduled.ranks().map(<[u32]>::len), Some(144));
    }

    #[test]
    fn debug_is_compact() {
        let table = NeighborTable::build(&Torus::for_radius(1), 1, Metric::Linf);
        let s = format!("{table:?}");
        assert!(s.contains("NeighborTable"));
        assert!(s.len() < 200, "debug output dumps the arrays: {s}");
    }
}
