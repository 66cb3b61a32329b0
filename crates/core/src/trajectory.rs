//! Piecewise-linear unit-speed-bounded trajectories and their visit
//! queries.
//!
//! A trajectory is the fundamental object of the paper: "the trajectory
//! of such a robot can be represented in the half-plane by a curve
//! consisting of points `(x, t)`" (Section 2). We store it as a sequence
//! of waypoints with strictly increasing times; between consecutive
//! waypoints the robot moves at constant (at most unit) speed.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::spacetime::{Segment, SpaceTime};

/// Relative tolerance accepted on the unit speed limit to absorb
/// floating-point round-off in cone reflections.
pub(crate) const SPEED_TOLERANCE: f64 = 1e-9;

/// A piecewise-linear trajectory with strictly increasing waypoint
/// times and speed at most 1 on every piece.
///
/// ```
/// use faultline_core::trajectory::TrajectoryBuilder;
/// // The first leg of the classic doubling strategy: right to +1,
/// // back through the origin to -2.
/// let traj = TrajectoryBuilder::from_origin()
///     .sweep_to(1.0)
///     .sweep_to(-2.0)
///     .finish()?;
/// assert_eq!(traj.first_visit(1.0), Some(1.0));
/// assert_eq!(traj.first_visit(-2.0), Some(4.0));
/// assert_eq!(traj.position_at(2.0), Some(0.0));
/// # Ok::<(), faultline_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PiecewiseTrajectory {
    waypoints: Vec<SpaceTime>,
}

// Deserialization must re-validate the invariants (monotone time, unit
// speed): a hand-edited JSON document is untrusted input.
impl<'de> Deserialize<'de> for PiecewiseTrajectory {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            waypoints: Vec<SpaceTime>,
        }
        let raw = Raw::deserialize(deserializer)?;
        PiecewiseTrajectory::new(raw.waypoints).map_err(serde::de::Error::custom)
    }
}

impl PiecewiseTrajectory {
    /// Builds a trajectory from explicit waypoints after validating all
    /// structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTrajectory`] when fewer than two waypoints
    /// are supplied, times are not strictly increasing, any coordinate is
    /// non-finite, or any piece exceeds unit speed.
    pub fn new(waypoints: Vec<SpaceTime>) -> Result<Self> {
        PiecewiseTrajectory::with_speed_limit(waypoints, 1.0)
    }

    /// Builds a trajectory for a robot whose maximum speed is
    /// `max_speed` instead of the paper's unit bound, validating the
    /// same structural invariants. Heterogeneous-speed scenarios retime
    /// unit-speed plans through this constructor; [`Self::new`] is the
    /// `max_speed = 1` special case and remains the only path trusted
    /// by deserialization.
    ///
    /// # Errors
    ///
    /// As [`Self::new`], with the speed bound taken as `max_speed`.
    pub fn with_speed_limit(waypoints: Vec<SpaceTime>, max_speed: f64) -> Result<Self> {
        if waypoints.len() < 2 {
            return Err(Error::trajectory(format!(
                "a trajectory needs at least two waypoints, got {}",
                waypoints.len()
            )));
        }
        for pair in waypoints.windows(2) {
            // Validates monotone time, finiteness and the speed bound.
            Segment::with_speed_limit(pair[0], pair[1], max_speed)?;
        }
        Ok(PiecewiseTrajectory { waypoints })
    }

    /// The validated waypoints, in time order.
    #[must_use]
    pub fn waypoints(&self) -> &[SpaceTime] {
        &self.waypoints
    }

    /// Start time of the trajectory.
    #[must_use]
    pub fn start_time(&self) -> f64 {
        self.waypoints[0].t
    }

    /// Last time at which the trajectory is defined.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.waypoints[self.waypoints.len() - 1].t
    }

    /// Iterates over the constant-velocity pieces.
    pub(crate) fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.waypoints.windows(2).map(|w| Segment { a: w[0], b: w[1] })
    }

    /// Position at time `t`, or `None` outside `[start_time, horizon]`.
    #[must_use]
    pub fn position_at(&self, t: f64) -> Option<f64> {
        if t < self.start_time() || t > self.horizon() {
            return None;
        }
        // Binary search for the segment containing t.
        let idx = self.waypoints.partition_point(|w| w.t <= t).min(self.waypoints.len() - 1);
        let seg = Segment { a: self.waypoints[idx - 1], b: self.waypoints[idx] };
        seg.position_at(t)
    }

    /// All times at which the trajectory occupies position `x`, sorted
    /// increasingly, with duplicates at shared waypoints removed.
    #[must_use]
    pub fn visits(&self, x: f64) -> Vec<f64> {
        let mut times = Vec::new();
        for seg in self.segments() {
            if let Some(t) = seg.visit_time(x) {
                if times.last().is_none_or(|last: &f64| t > *last) {
                    times.push(t);
                }
            }
        }
        times
    }

    /// The first time at which the trajectory occupies `x`, or `None`
    /// if it never does within its horizon.
    #[must_use]
    pub fn first_visit(&self, x: f64) -> Option<f64> {
        self.segments().find_map(|seg| seg.visit_time(x))
    }

    /// Interior waypoints at which the direction of motion strictly
    /// reverses — the paper's *turning points*.
    #[must_use]
    pub fn turning_points(&self) -> Vec<SpaceTime> {
        let mut turns = Vec::new();
        for w in self.waypoints.windows(3) {
            let before = w[1].x - w[0].x;
            let after = w[2].x - w[1].x;
            if before * after < 0.0 {
                turns.push(w[1]);
            }
        }
        turns
    }

    /// The farthest distance from the origin ever reached.
    #[must_use]
    pub fn max_excursion(&self) -> f64 {
        self.waypoints.iter().map(|w| w.x.abs()).fold(0.0, f64::max)
    }

    /// The one time shift, from plan time into wall clock for a robot
    /// of speed `speed` launched at `delay`: every waypoint `(x, t)`
    /// becomes `(x, delay + t / speed)`, with a parked origin waypoint
    /// prepended for a positive delay. A bitwise unit speed with no
    /// delay returns the trajectory untouched.
    ///
    /// # Errors
    ///
    /// As [`Self::with_speed_limit`], with the bound `max(speed, 1)`.
    pub fn retimed(self, speed: f64, delay: f64) -> Result<Self> {
        if speed.to_bits() == 1.0f64.to_bits() && delay == 0.0 {
            return Ok(self);
        }
        let mut waypoints = Vec::with_capacity(self.waypoints.len() + 1);
        if delay > 0.0 {
            waypoints.push(SpaceTime::origin());
        }
        for w in &self.waypoints {
            waypoints.push(SpaceTime::new(w.x, delay + w.t / speed));
        }
        PiecewiseTrajectory::with_speed_limit(waypoints, speed.max(1.0))
    }

    /// Truncates the trajectory at time `t`, interpolating a final
    /// waypoint exactly at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] if `t` is not strictly inside
    /// `(start_time, horizon]`.
    pub fn truncated(&self, t: f64) -> Result<Self> {
        if t <= self.start_time() || t > self.horizon() {
            return Err(Error::domain(format!(
                "truncation time {t} outside ({}, {}]",
                self.start_time(),
                self.horizon()
            )));
        }
        let mut waypoints: Vec<SpaceTime> =
            self.waypoints.iter().copied().take_while(|w| w.t < t).collect();
        let x = self.position_at(t).expect("t validated to lie within the trajectory");
        if waypoints.last().is_none_or(|w| w.t < t) {
            waypoints.push(SpaceTime::new(x, t));
        }
        PiecewiseTrajectory::new(waypoints)
    }
}

/// Incremental builder for [`PiecewiseTrajectory`] ([C-BUILDER]).
///
/// Every `sweep_to` appends a waypoint reached at full unit speed.
#[derive(Debug, Clone)]
pub struct TrajectoryBuilder {
    waypoints: Vec<SpaceTime>,
}

impl TrajectoryBuilder {
    /// Starts a trajectory at the shared origin `(0, 0)` — the paper's
    /// initial configuration.
    #[must_use]
    pub fn from_origin() -> Self {
        TrajectoryBuilder { waypoints: vec![SpaceTime::origin()] }
    }

    fn last(&self) -> SpaceTime {
        *self.waypoints.last().expect("builder always holds at least one waypoint")
    }

    /// Moves at full unit speed to position `x`.
    pub fn sweep_to(&mut self, x: f64) -> &mut Self {
        let from = self.last();
        let t = from.t + (x - from.x).abs();
        if t > from.t {
            self.waypoints.push(SpaceTime::new(x, t));
        }
        self
    }

    /// Validates and produces the trajectory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTrajectory`] if any accumulated piece
    /// violates the structural invariants (see
    /// [`PiecewiseTrajectory::new`]).
    pub fn finish(&self) -> Result<PiecewiseTrajectory> {
        PiecewiseTrajectory::new(self.waypoints.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubling_prefix() -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin()
            .sweep_to(1.0)
            .sweep_to(-2.0)
            .sweep_to(4.0)
            .sweep_to(-8.0)
            .finish()
            .unwrap()
    }

    #[test]
    fn rejects_too_few_waypoints() {
        assert!(PiecewiseTrajectory::new(vec![SpaceTime::origin()]).is_err());
        assert!(PiecewiseTrajectory::new(Vec::new()).is_err());
    }

    #[test]
    fn rejects_superluminal_piece() {
        let pts = vec![SpaceTime::origin(), SpaceTime::new(5.0, 1.0)];
        assert!(PiecewiseTrajectory::new(pts).is_err());
    }

    #[test]
    fn rejects_non_monotone_time() {
        let pts = vec![SpaceTime::origin(), SpaceTime::new(1.0, 1.0), SpaceTime::new(1.5, 0.5)];
        assert!(PiecewiseTrajectory::new(pts).is_err());
    }

    #[test]
    fn doubling_first_visits() {
        let t = doubling_prefix();
        assert_eq!(t.first_visit(1.0), Some(1.0));
        assert_eq!(t.first_visit(-1.0), Some(3.0));
        assert_eq!(t.first_visit(-2.0), Some(4.0));
        assert_eq!(t.first_visit(3.0), Some(9.0));
        // Target just beyond the first turning point: picked up on the
        // sweep from -2 towards +4 at time 7 + eps (the ratio grows
        // towards the classic 9 at later turning points).
        let x = 1.0 + 1e-6;
        let visit = t.first_visit(x).unwrap();
        assert!((visit / x - 7.0).abs() < 1e-4, "ratio = {}", visit / x);
    }

    #[test]
    fn visits_are_sorted_and_deduplicated() {
        let t = doubling_prefix();
        let vs = t.visits(0.0);
        assert_eq!(vs.len(), 4, "origin is crossed on every direction change: {vs:?}");
        assert!(vs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(vs[0], 0.0);
    }

    #[test]
    fn turning_points_detected() {
        let t = doubling_prefix();
        let turns = t.turning_points();
        let xs: Vec<f64> = turns.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![1.0, -2.0, 4.0]);
    }

    #[test]
    fn position_at_boundaries() {
        let t = doubling_prefix();
        assert_eq!(t.position_at(0.0), Some(0.0));
        assert_eq!(t.position_at(t.horizon()), Some(-8.0));
        assert_eq!(t.position_at(-0.1), None);
        assert_eq!(t.position_at(t.horizon() + 0.1), None);
    }

    #[test]
    fn max_excursion_is_the_farthest_turn() {
        let t = doubling_prefix();
        assert_eq!(t.max_excursion(), 8.0);
    }

    #[test]
    fn truncation_interpolates() {
        let t = doubling_prefix();
        let cut = t.truncated(2.5).unwrap();
        assert_eq!(cut.horizon(), 2.5);
        assert_eq!(cut.position_at(2.5), Some(-0.5));
        assert!(t.truncated(0.0).is_err());
        assert!(t.truncated(1e9).is_err());
    }

    #[test]
    fn truncation_at_existing_waypoint_keeps_it_once() {
        let t = doubling_prefix();
        let cut = t.truncated(1.0).unwrap();
        assert_eq!(cut.waypoints().len(), 2);
        assert_eq!(cut.position_at(1.0), Some(1.0));
    }

    #[test]
    fn retiming_stretches_time_and_parks_before_the_delay() {
        let t = doubling_prefix();
        assert_eq!(t.clone().retimed(1.0, 0.0).unwrap(), t);
        let slow = t.clone().retimed(0.5, 2.0).unwrap();
        assert_eq!(
            slow.waypoints()[..3],
            [SpaceTime::origin(), SpaceTime::new(0.0, 2.0), SpaceTime::new(1.0, 4.0)]
        );
        assert_eq!(slow.horizon(), 2.0 + 2.0 * t.horizon());
        // A speed-2 robot may exceed the unit bound; nothing faster may.
        assert!(t.clone().retimed(2.0, 0.0).is_ok());
    }

    #[test]
    fn builder_ignores_zero_length_moves() {
        let t = TrajectoryBuilder::from_origin()
            .sweep_to(0.0) // no-op
            .sweep_to(2.0)
            .finish()
            .unwrap();
        assert_eq!(t.waypoints().len(), 2);
    }
}
