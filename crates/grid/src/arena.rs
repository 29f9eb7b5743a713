//! Shared, immutable CSR neighbor tables — the topology arena.
//!
//! Every run of a sweep used to rebuild the same neighbor lists
//! (`Vec<Vec<NodeId>>`, one heap allocation per node) and re-derive the
//! same commit-rule geometry from scratch each round. A [`NeighborTable`]
//! precomputes both once, in compressed-sparse-row form:
//!
//! * a flat neighbor array (`offsets` + `targets`) whose per-node slices
//!   reproduce [`Torus::neighborhood`] exactly — same members, in the
//!   same order — so swapping the table in changes no observable
//!   behavior, only where the bytes live;
//! * closed-ball offset tables for every distance `d ≤ r + 1`: the
//!   candidate-center scans of the §VI commit rules enumerate "all grid
//!   points within `d` of here", and on a torus large enough to host the
//!   radius ([`Torus::supports_radius`]) that set is a fixed
//!   position-independent offset stencil.
//!
//! * the transmission order every host delivers in: TDMA slot order
//!   when a periodic [`TdmaSchedule`] fits the torus, id order
//!   otherwise — a function of the geometry, so it is computed here
//!   once and not per network.
//!
//! The table is immutable after construction, so one instance can be
//! shared across worker threads behind an `Arc` and across every run of
//! a sweep, keyed by `(torus dims, r, metric)`.

use crate::{Coord, Metric, NodeId, TdmaSchedule, Torus};
use std::collections::TryReserveError;
use std::fmt;

/// Precomputed radius-`r` topology of a [`Torus`] under one [`Metric`]:
/// CSR neighbor lists plus the closed-ball offset stencils used by the
/// commit-rule center scans.
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
    /// CSR row starts: `offsets[i]..offsets[i + 1]` indexes node `i`'s
    /// neighbors inside `targets`. Length `n + 1`.
    offsets: Vec<u32>,
    /// All neighbor lists, flattened into one allocation.
    targets: Vec<NodeId>,
    /// `balls[d]` holds every offset within metric distance `d` of the
    /// origin, *including* the origin, for `d ∈ 0..=radius + 1`, in the
    /// row-major scan order the commit-rule center scans rely on.
    balls: Vec<Vec<Coord>>,
    /// The TDMA transmission order and its inverse, present only when
    /// a periodic schedule fits the torus; without one the order is id
    /// order and a node's rank is its id, so no table is kept.
    schedule: Option<Schedule>,
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
    fn build(torus: &Torus, radius: u32) -> Result<Option<Schedule>, TryReserveError> {
        let Ok(tdma) = TdmaSchedule::new(torus, radius) else {
            return Ok(None);
        };
        let n = torus.len();
        let mut order = Vec::new();
        order.try_reserve_exact(n)?;
        order.extend(torus.node_ids());
        order.sort_by_key(|&id| (tdma.slot_of(torus.coord(id)), id));
        // Zeroed (`calloc`), which cannot be asked to fail; `order`, of
        // the same size, just could. Reserved and filled instead, the
        // table raised `attack_search`'s peak RSS, which builds and
        // frees a tiny arena per evaluation (DESIGN.md, "Node state").
        let mut ranks = vec![0u32; n];
        for (rank, &id) in order.iter().enumerate() {
            ranks[id.index()] = u32::try_from(rank).expect("node count fits u32");
        }
        Ok(Some(Schedule {
            order: order.into_boxed_slice(),
            ranks: ranks.into_boxed_slice(),
        }))
    }
}

/// What [`NeighborTable::reserve`] hands a constructor to fill: the
/// schedule, complete, and the empty CSR arrays with their room.
type Reserved = (Option<Schedule>, Vec<NodeId>, Vec<u32>);

/// Why a [`NeighborTable`] could not be built: its `nodes × stencil`
/// neighbour entries are more than `u32` row ends can index, or more
/// than the allocator would hand out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaError {
    /// Nodes on the torus.
    pub nodes: usize,
    /// Neighbour offsets per node.
    pub stencil: usize,
    /// True when the count fit the row ends but the allocation failed.
    pub out_of_memory: bool,
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (nodes, stencil) = (self.nodes, self.stencil);
        let entries = (nodes as u64).saturating_mul(stencil as u64);
        if self.out_of_memory {
            let bytes = entries.saturating_mul(std::mem::size_of::<NodeId>() as u64);
            write!(
                f,
                "{nodes} nodes × {stencil} neighbours = {entries} entries: \
                 cannot allocate the arena's {bytes} bytes"
            )
        } else {
            write!(
                f,
                "{nodes} nodes × {stencil} neighbours = {entries} entries exceeds \
                 the arena's 2³² neighbour entries"
            )
        }
    }
}

impl std::error::Error for ArenaError {}

impl NeighborTable {
    /// The most neighbor entries (`nodes × |stencil|`) a table can hold:
    /// CSR row ends are `u32`.
    pub const MAX_ENTRIES: u64 = u32::MAX as u64;

    /// `torus`'s transmission schedule at `radius`, then empty CSR
    /// arrays with room for `nodes × stencil` entries and `nodes + 1`
    /// row ends — refused, before anything is allocated, when the row
    /// ends could not index them, and refused rather than aborting when
    /// the allocator cannot supply them.
    ///
    /// The schedule is allocated first: after the neighbour arrays, it
    /// raised the peak RSS of a run that builds and frees tiny arenas
    /// over and over (DESIGN.md, "Node state").
    fn reserve(torus: &Torus, radius: u32, stencil: usize) -> Result<Reserved, ArenaError> {
        let nodes = torus.len();
        let mut error = ArenaError {
            nodes,
            stencil,
            out_of_memory: false,
        };
        let entries = (nodes as u64).saturating_mul(stencil as u64);
        if entries > Self::MAX_ENTRIES {
            return Err(error);
        }
        error.out_of_memory = true;
        let schedule = Schedule::build(torus, radius).map_err(|_| error)?;
        let (mut targets, mut offsets) = (Vec::new(), Vec::new());
        targets
            .try_reserve_exact(entries as usize)
            .map_err(|_| error)?;
        offsets.try_reserve_exact(nodes + 1).map_err(|_| error)?;
        Ok((schedule, targets, offsets))
    }

    /// Builds the table for `torus` at transmission radius `radius`
    /// under `metric`.
    ///
    /// # Panics
    ///
    /// Panics if the torus is too small to emulate the infinite grid at
    /// this radius (see [`Torus::supports_radius`]) — undersized tori
    /// would alias neighborhoods through the wrap-around — or on the
    /// [`ArenaError`] of [`NeighborTable::try_build`].
    #[must_use]
    pub fn build(torus: &Torus, radius: u32, metric: Metric) -> Self {
        NeighborTable::try_build(torus, radius, metric).unwrap_or_else(|e| {
            // audit:allow(panic): documented; `try_build` is the fallible form
            panic!("{e}")
        })
    }

    /// [`NeighborTable::build`], returning an arena too large to index
    /// or to allocate as an error.
    ///
    /// # Errors
    ///
    /// When `nodes × |stencil|` exceeds [`NeighborTable::MAX_ENTRIES`] or
    /// the allocator refuses the entries.
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
        let offs = crate::metric_offsets(radius, metric);
        let (schedule, mut targets, mut offsets) = Self::reserve(torus, radius, offs.len())?;
        offsets.push(0u32);
        for id in torus.node_ids() {
            let c = torus.coord(id);
            targets.extend(offs.iter().map(|&off| torus.id(c + off)));
            offsets.push(row_end(&targets));
        }
        let balls = (0..=radius + 1).map(|d| ball_stencil(d, metric)).collect();
        Ok(NeighborTable {
            torus: torus.clone(),
            radius,
            metric,
            offsets,
            targets,
            balls,
            schedule,
        })
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
    /// On the [`ArenaError`] of [`NeighborTable::try_build`].
    #[must_use]
    pub fn build_wrapping(torus: &Torus, radius: u32, metric: Metric) -> Self {
        if torus.supports_radius(radius) {
            return NeighborTable::build(torus, radius, metric);
        }
        let offs = crate::metric_offsets(radius, metric);
        let (schedule, mut targets, mut offsets) = Self::reserve(torus, radius, offs.len())
            .unwrap_or_else(|e| {
                // audit:allow(panic): documented; the cluster's tori are small
                panic!("{e}")
            });
        offsets.push(0u32);
        for id in torus.node_ids() {
            let c = torus.coord(id);
            let row_start = targets.len();
            for &off in &offs {
                let nb = torus.id(c + off);
                if nb != id && !targets[row_start..].contains(&nb) {
                    targets.push(nb);
                }
            }
            offsets.push(row_end(&targets));
        }
        let balls = (0..=radius + 1).map(|d| ball_stencil(d, metric)).collect();
        NeighborTable {
            torus: torus.clone(),
            radius,
            metric,
            offsets,
            targets,
            balls,
            schedule,
        }
    }

    /// The torus this table was built for.
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The transmission radius.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The distance metric.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of nodes.
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
    /// the same ids, in the same order, as [`Torus::neighborhood`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the torus.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// `id`'s position in the global transmission order every host
    /// delivers in: TDMA slot order (ties by id) when a periodic
    /// schedule fits the torus, id order otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the torus.
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
    /// Panics if `d > radius + 1` (the rules never look further than the
    /// frontier distance `r + 1`).
    #[must_use]
    pub fn ball_offsets(&self, d: u32) -> &[Coord] {
        &self.balls[d as usize]
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

/// The CSR row end after a node's neighbors were appended.
fn row_end(targets: &[NodeId]) -> u32 {
    u32::try_from(targets.len()).expect("at most the capacity `build` checked")
}

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
    #[must_use]
    pub fn center(&self) -> Coord {
        self.me
    }

    /// Number of slots in the frame: `(2·span + 1)²`.
    #[must_use]
    pub fn slots(&self) -> usize {
        (self.side * self.side) as usize
    }

    /// Dense slot of node `id` (see [`LocalFrame::slot_of`]).
    #[must_use]
    pub fn slot_of_id(&self, id: NodeId) -> Option<usize> {
        self.slot_of(self.torus.coord(id))
    }

    /// Dense slot of `c`, or `None` if its minimal displacement from
    /// the center exceeds the span on either axis.
    #[must_use]
    pub fn slot_of(&self, c: Coord) -> Option<usize> {
        let d = self.torus.displacement(self.me, c);
        if d.x.abs() > self.span || d.y.abs() > self.span {
            return None;
        }
        Some(((d.y + self.span) * self.side + (d.x + self.span)) as usize)
    }
}

/// Every offset with metric distance ≤ `d` from the origin (origin
/// included), in row-major (`dy` outer, `dx` inner) scan order.
fn ball_stencil(d: u32, metric: Metric) -> Vec<Coord> {
    let di = i64::from(d);
    let mut v = Vec::new();
    for dy in -di..=di {
        for dx in -di..=di {
            let off = Coord::new(dx, dy);
            if metric.within(Coord::ORIGIN, off, d) {
                v.push(off);
            }
        }
    }
    v
}

impl fmt::Debug for NeighborTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NeighborTable")
            .field("torus", &self.torus)
            .field("radius", &self.radius)
            .field("metric", &self.metric)
            .field("edges", &self.targets.len())
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

    #[test]
    fn csr_matches_naive_neighborhood_exhaustively() {
        // The tentpole's correctness anchor: for r ∈ {1, 2, 3}, both
        // metrics, every node of both a roomy and a minimal torus, the
        // CSR slice must equal the naive enumeration *element for
        // element* (same members, same order).
        for r in 1..=3u32 {
            for metric in [Metric::Linf, Metric::L2] {
                for torus in tori_for(r) {
                    let table = NeighborTable::build(&torus, r, metric);
                    for id in torus.node_ids() {
                        let naive: Vec<NodeId> = torus.neighborhood(id, r, metric).collect();
                        assert_eq!(
                            table.neighbors(id),
                            naive.as_slice(),
                            "node {id} on {torus} r={r} {metric}"
                        );
                    }
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
    #[should_panic(expected = "10000000000 nodes × 8 neighbours = 80000000000 entries exceeds")]
    fn a_product_past_the_u32_row_ends_is_refused_before_allocating() {
        // 10¹⁰ nodes × 8 neighbours: the row ends used to wrap silently
        // (`as u32`); the refusal comes before the 320 GB allocation.
        let _ = NeighborTable::build(&Torus::new(100_000, 100_000), 1, Metric::Linf);
    }

    #[test]
    fn a_huge_stencil_on_a_tiny_torus_is_refused_too() {
        // What `build_wrapping` reserves for 3×3 at r = 11 000, before
        // aliasing collapses it: (22 001)² − 1 entries for each node.
        let stencil = Metric::Linf.neighborhood_size(11_000);
        let Err(refused) = NeighborTable::reserve(&Torus::new(3, 3), 11_000, stencil) else {
            panic!("past the row ends");
        };
        assert!(!refused.out_of_memory);
        assert!(refused
            .to_string()
            .ends_with("exceeds the arena's 2³² neighbour entries"));
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
                    let nbrs = table.neighbors(id);
                    let set: std::collections::BTreeSet<NodeId> = nbrs.iter().copied().collect();
                    assert_eq!(set.len(), nbrs.len(), "duplicate neighbor of {id}");
                    for &nb in nbrs {
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
                for d in 0..=r + 1 {
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
        let table = NeighborTable::build(&Torus::for_radius(2), 2, Metric::Linf);
        assert_eq!(table.ball_offsets(0), &[Coord::ORIGIN]);
        // row-major scan order: dy outer, dx inner
        let d1 = table.ball_offsets(1);
        assert_eq!(d1.len(), 9);
        assert_eq!(d1[0], Coord::new(-1, -1));
        assert_eq!(d1[4], Coord::ORIGIN);
        assert_eq!(d1[8], Coord::new(1, 1));
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
                    assert_eq!(strict.neighbors(id), relaxed.neighbors(id), "node {id}");
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
            let nbrs = table.neighbors(id);
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
            let nbrs = table.neighbors(id);
            assert_eq!(nbrs.len(), 3, "node {id}: {nbrs:?}");
        }
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
