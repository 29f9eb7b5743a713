//! Collision-free TDMA transmission schedules (§II of the paper).
//!
//! The model assumes "a pre-determined TDMA schedule that all nodes
//! follow", ruling out collisions. Two simultaneous transmitters collide
//! at a receiver only if both are within transmission radius `r` of it,
//! which requires the transmitters to be within distance `2r` of each
//! other. A grid coloring with period `k = 2r + 1` in both axes therefore
//! yields a valid schedule: same-slot nodes are at L∞ distance ≥ `2r + 1`.

use crate::{Coord, Metric, Torus};

/// A periodic TDMA slot assignment for a toroidal grid network.
///
/// Slot of node `(x, y)` is `(x mod k) + k·(y mod k)` with `k = 2r + 1`,
/// giving `k²` slots per frame. On a torus the assignment is conflict-free
/// whenever both torus dimensions are divisible by `k` (otherwise the
/// wrap-around seam could place two same-slot nodes closer than `2r + 1`);
/// [`TdmaSchedule::new`] enforces this.
///
/// # Example
///
/// ```
/// use rbcast_grid::{TdmaSchedule, Torus};
///
/// let torus = Torus::new(20, 20); // 20 divisible by k = 5 for r = 2
/// let tdma = TdmaSchedule::new(&torus, 2).expect("r=2 divides the torus side");
/// assert_eq!(tdma.slots_per_frame(), 25);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdmaSchedule {
    period: u32,
    radius: u32,
}

/// Error returned when a torus cannot host a periodic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    period: u32,
    width: u32,
    height: u32,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torus {}x{} is not divisible by the TDMA period {}",
            self.width, self.height, self.period
        )
    }
}

impl std::error::Error for ScheduleError {}

impl TdmaSchedule {
    /// Builds the periodic schedule for transmission radius `r` on
    /// `torus`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if either torus dimension is not a
    /// multiple of the period `2r + 1`.
    pub fn new(torus: &Torus, r: u32) -> Result<Self, ScheduleError> {
        let period = 2 * r + 1;
        if !torus.width().is_multiple_of(period) || !torus.height().is_multiple_of(period) {
            return Err(ScheduleError {
                period,
                width: torus.width(),
                height: torus.height(),
            });
        }
        Ok(TdmaSchedule { period, radius: r })
    }

    /// Number of slots in one TDMA frame (`k²`).
    #[must_use]
    pub fn slots_per_frame(&self) -> u32 {
        self.period * self.period
    }

    /// The slot (in `0..slots_per_frame()`) in which the node at `c`
    /// transmits.
    #[must_use]
    pub(crate) fn slot_of(&self, c: Coord) -> u32 {
        let k = i64::from(self.period);
        let sx = c.x.rem_euclid(k) as u32;
        let sy = c.y.rem_euclid(k) as u32;
        sy * self.period + sx
    }

    /// Verifies the schedule's defining invariant on `torus`: no two
    /// distinct nodes sharing a slot are within distance `2r` of each
    /// other (under either metric — L∞ dominates L2), so no receiver can
    /// ever hear two same-slot transmitters.
    ///
    /// Exposed (rather than just tested) so experiments can assert model
    /// fidelity on their actual arena.
    #[must_use]
    pub fn verify_conflict_free(&self, torus: &Torus) -> bool {
        let coords: Vec<Coord> = torus.coords().collect();
        for (i, &a) in coords.iter().enumerate() {
            for &b in &coords[i + 1..] {
                if self.slot_of(a) == self.slot_of(b)
                    && torus.within(a, b, 2 * self.radius, Metric::Linf)
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_indivisible_torus() {
        let torus = Torus::new(21, 20);
        let err = TdmaSchedule::new(&torus, 2).unwrap_err();
        assert!(err.to_string().contains("not divisible"));
    }

    #[test]
    fn accepts_divisible_torus() {
        let torus = Torus::new(15, 30);
        let tdma = TdmaSchedule::new(&torus, 2).unwrap();
        assert_eq!(tdma.slots_per_frame(), 25);
    }

    #[test]
    fn for_radius_torus_always_schedulable() {
        for r in 1..8 {
            let torus = Torus::for_radius(r);
            assert!(TdmaSchedule::new(&torus, r).is_ok(), "r={r}");
        }
    }

    #[test]
    fn slots_cover_full_range() {
        let torus = Torus::new(10, 10);
        let tdma = TdmaSchedule::new(&torus, 2).unwrap();
        let slots: std::collections::HashSet<u32> =
            torus.coords().map(|c| tdma.slot_of(c)).collect();
        assert_eq!(slots.len(), 25);
        assert!(slots.iter().all(|&s| s < 25));
    }

    #[test]
    fn conflict_free_on_valid_tori() {
        for r in 1..4u32 {
            let torus = Torus::for_radius(r);
            let tdma = TdmaSchedule::new(&torus, r).unwrap();
            assert!(tdma.verify_conflict_free(&torus), "r={r}");
        }
    }

    #[test]
    fn same_slot_nodes_are_far_apart() {
        let torus = Torus::new(30, 30);
        let tdma = TdmaSchedule::new(&torus, 2).unwrap();
        let a = Coord::new(0, 0);
        let b = Coord::new(5, 0); // one period to the right: same slot
        assert_eq!(tdma.slot_of(a), tdma.slot_of(b));
        assert!(torus.dist(a, b, Metric::Linf) > 4);
    }

    #[test]
    fn negative_coordinates_wrap_consistently() {
        let torus = Torus::new(25, 25);
        let tdma = TdmaSchedule::new(&torus, 2).unwrap();
        assert_eq!(
            tdma.slot_of(Coord::new(-1, -1)),
            tdma.slot_of(Coord::new(4, 4))
        );
    }
}
