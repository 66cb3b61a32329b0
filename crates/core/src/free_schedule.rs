//! Free-form turning-point schedules: the search space of the
//! `faultline-opt` optimizer.
//!
//! A [`FreeSchedule`] describes one robot per [`FreeRobot`]: an
//! arbitrary (finite) strictly-increasing sequence of turning-point
//! magnitudes with alternating sides, plus the arrival time of the
//! first turning point. Beyond the last explicit turn the robot keeps
//! zig-zagging geometrically with the ratio of its last two explicit
//! magnitudes — exactly the Lemma 1 recurrence `x_(i+1) = -kappa x_i`
//! that [`crate::ZigZagPlan`] realizes — so every free schedule lowers
//! onto the same materialization machinery and can be measured by the
//! `analysis::supremum` scan at any horizon.
//!
//! The proportional algorithm `A(n, f)` is a point of this space:
//! [`FreeSchedule::from_proportional`] lowers a
//! [`crate::ProportionalSchedule`] into explicit turning points whose
//! materialized trajectories coincide with the original
//! [`crate::ZigZagPlan`] fleet.

use serde::{Deserialize, Serialize};

use crate::coverage::Fleet;
use crate::error::{Error, Result};
use crate::plan::{check_horizon, TrajectoryPlan};
use crate::schedule::ProportionalSchedule;
use crate::spacetime::SpaceTime;
use crate::trajectory::PiecewiseTrajectory;

/// Largest admissible tail expansion ratio. An enormous ratio makes the
/// geometric tail numerically meaningless (the next magnitude overflows
/// within a few turns), so validation bounds it.
pub const MAX_TAIL_RATIO: f64 = 1e6;

/// One robot of a free schedule: explicit alternating turning points
/// followed by a geometric zig-zag tail.
///
/// Turn `k` happens at position `side * (-1)^k * turns[k]`; the robot
/// reaches its first turn at `first_turn_time` (gliding from the
/// origin at speed `turns[0] / first_turn_time <= 1`, the analogue of
/// Definition 4's slow initial leg) and every later leg runs at unit
/// speed, taking `turns[k-1] + turns[k]` time units. Past the last
/// explicit turn, magnitudes continue geometrically with
/// `tail_ratio() = turns[last] / turns[last - 1]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FreeRobot {
    /// Sign of the first excursion: `+1.0` (right) or `-1.0` (left).
    pub side: f64,
    /// Strictly increasing turning-point magnitudes (at least two).
    pub turns: Vec<f64>,
    /// Arrival time at the first turning point; at least `turns[0]`.
    pub first_turn_time: f64,
}

// Deserialization re-validates: a checkpoint file is untrusted input.
impl<'de> Deserialize<'de> for FreeRobot {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            side: f64,
            turns: Vec<f64>,
            first_turn_time: f64,
        }
        let raw = Raw::deserialize(deserializer)?;
        FreeRobot::new(raw.side, raw.turns, raw.first_turn_time).map_err(serde::de::Error::custom)
    }
}

impl FreeRobot {
    /// Creates and validates a free robot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `side` is not `±1`, fewer than
    /// two turns are given, any magnitude is non-finite or
    /// non-positive, magnitudes are not strictly increasing, the tail
    /// ratio exceeds [`MAX_TAIL_RATIO`], or `first_turn_time` violates
    /// the unit speed limit (`first_turn_time < turns[0]`).
    pub fn new(side: f64, turns: Vec<f64>, first_turn_time: f64) -> Result<Self> {
        if side != 1.0 && side != -1.0 {
            return Err(Error::domain(format!("robot side must be +1 or -1, got {side}")));
        }
        if turns.len() < 2 {
            return Err(Error::domain(format!(
                "a free robot needs at least two turning points (for its geometric tail), got {}",
                turns.len()
            )));
        }
        for &m in &turns {
            if !(m > 0.0) || !m.is_finite() {
                return Err(Error::domain(format!(
                    "turning magnitudes must be finite and positive, got {m}"
                )));
            }
        }
        for w in turns.windows(2) {
            if !(w[1] > w[0]) {
                return Err(Error::domain(format!(
                    "turning magnitudes must be strictly increasing, got {} then {}",
                    w[0], w[1]
                )));
            }
        }
        let tail = turns[turns.len() - 1] / turns[turns.len() - 2];
        if !(tail <= MAX_TAIL_RATIO) {
            return Err(Error::domain(format!(
                "tail expansion ratio {tail} exceeds the bound {MAX_TAIL_RATIO}"
            )));
        }
        if !first_turn_time.is_finite() || !(first_turn_time >= turns[0]) {
            return Err(Error::domain(format!(
                "first turn at magnitude {} cannot be reached at time {first_turn_time} \
                 without exceeding unit speed",
                turns[0]
            )));
        }
        Ok(FreeRobot { side, turns, first_turn_time })
    }

    /// The geometric expansion ratio of the tail beyond the explicit
    /// turns: `turns[last] / turns[last - 1] > 1`.
    #[must_use]
    pub fn tail_ratio(&self) -> f64 {
        self.turns[self.turns.len() - 1] / self.turns[self.turns.len() - 2]
    }

    /// The signed position of turn `k` (explicit or tail).
    #[must_use]
    pub fn turn_position(&self, k: usize) -> f64 {
        let sign = if k.is_multiple_of(2) { self.side } else { -self.side };
        sign * self.turn_magnitude(k)
    }

    /// The magnitude of turn `k`, continuing the geometric tail past
    /// the explicit turns.
    #[must_use]
    pub fn turn_magnitude(&self, k: usize) -> f64 {
        if k < self.turns.len() {
            return self.turns[k];
        }
        let last = self.turns[self.turns.len() - 1];
        last * self.tail_ratio().powi((k + 1 - self.turns.len()) as i32)
    }

    /// The arrival time of turn `k`: `first_turn_time` plus the
    /// unit-speed leg times `m_(j-1) + m_j` for `j <= k`.
    #[must_use]
    pub fn turn_time(&self, k: usize) -> f64 {
        let mut t = self.first_turn_time;
        let mut prev = self.turn_magnitude(0);
        for j in 1..=k {
            let m = self.turn_magnitude(j);
            t += prev + m;
            prev = m;
        }
        t
    }

    /// Turning points `(position, time)` with time at most `max_time`,
    /// explicit turns first, then the geometric tail.
    #[must_use]
    pub fn turning_points_until(&self, max_time: f64) -> Vec<SpaceTime> {
        let mut points = Vec::new();
        let mut t = self.first_turn_time;
        let mut prev = self.turn_magnitude(0);
        let mut k = 0usize;
        while t <= max_time {
            points.push(SpaceTime::new(self.turn_position(k), t));
            k += 1;
            let m = self.turn_magnitude(k);
            t += prev + m;
            prev = m;
        }
        points
    }

    /// How long this robot must be materialized to reach magnitude
    /// `xmax` on both sides: the time of its first turn of magnitude at
    /// least `xmax`, then one more leg and the magnitude of the turn
    /// after it. The per-robot term of [`FreeSchedule::horizon_hint`].
    #[must_use]
    pub fn reach(&self, xmax: f64) -> f64 {
        let mut k = 0usize;
        // Find the first turn whose magnitude clears xmax; the next two
        // legs bracket the last visit of |x| <= xmax.
        while self.turn_magnitude(k) < xmax && k < 4096 {
            k += 1;
        }
        self.turn_time(k + 1) + self.turn_magnitude(k + 1)
    }

    /// The robot's trajectory up to `horizon`: the glide to the first
    /// turn, unit-speed legs between turns, the last leg cut at
    /// `horizon` (what [`FreePlan`] materializes).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive horizon.
    pub fn materialize(&self, horizon: f64) -> Result<PiecewiseTrajectory> {
        check_horizon(horizon)?;
        // Room for the origin, every explicit turn and the cut point,
        // which covers the horizons the optimizer measures at.
        let mut waypoints = Vec::with_capacity(self.turns.len() + 2);
        waypoints.push(SpaceTime::origin());
        let cut = self.walk(horizon, |turn| waypoints.push(turn));
        waypoints.push(cut);
        PiecewiseTrajectory::new(waypoints)
    }

    /// Where the robot stands at `horizon`: the last waypoint of
    /// [`FreeRobot::materialize`]`(horizon)`, bit for bit, without
    /// building the trajectory.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive horizon.
    pub fn cut_at(&self, horizon: f64) -> Result<SpaceTime> {
        check_horizon(horizon)?;
        Ok(self.walk(horizon, |_| {}))
    }

    /// Walks the robot up to a finite, positive `horizon`: hands every
    /// turn it reaches strictly before `horizon` to `turn`, in order,
    /// and returns the cut point where it stands at `horizon`.
    fn walk(&self, horizon: f64, mut turn: impl FnMut(SpaceTime)) -> SpaceTime {
        if horizon <= self.first_turn_time {
            // Cut within the initial glide (speed turns[0] / first_turn_time).
            let x = self.side * self.turns[0] * horizon / self.first_turn_time;
            return SpaceTime::new(x, horizon);
        }
        let mut current = SpaceTime::new(self.turn_position(0), self.first_turn_time);
        let mut k = 1usize;
        // Accumulate turn times incrementally: `turn_time(k)` is O(k),
        // so calling it per turn would make the walk quadratic in the
        // number of turns.
        let mut t = self.first_turn_time;
        let mut prev_magnitude = self.turn_magnitude(0);
        loop {
            turn(current);
            let magnitude = self.turn_magnitude(k);
            t += prev_magnitude + magnitude;
            prev_magnitude = magnitude;
            let next = SpaceTime::new(self.turn_position(k), t);
            if next.t >= horizon {
                // Cut the unit-speed sweep from `current` towards
                // `next`; every turn before it came strictly before
                // `horizon`.
                let direction = (next.x - current.x).signum();
                return SpaceTime::new(current.x + direction * (horizon - current.t), horizon);
            }
            current = next;
            k += 1;
        }
    }
}

/// A plan materializing one [`FreeRobot`] — the free-schedule analogue
/// of [`crate::ZigZagPlan`], sharing the Lemma 1 tail recurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct FreePlan {
    robot: FreeRobot,
}

impl FreePlan {
    /// Wraps an already-validated robot.
    #[must_use]
    pub fn new(robot: FreeRobot) -> Self {
        FreePlan { robot }
    }

    /// The underlying robot description.
    #[must_use]
    pub fn robot(&self) -> &FreeRobot {
        &self.robot
    }
}

impl TrajectoryPlan for FreePlan {
    fn materialize(&self, horizon: f64) -> Result<PiecewiseTrajectory> {
        self.robot.materialize(horizon)
    }

    fn label(&self) -> String {
        let r = &self.robot;
        format!(
            "free(side = {:+}, turns = {}, tail = {:.4})",
            r.side,
            r.turns.len(),
            r.tail_ratio()
        )
    }
}

/// A complete free-form schedule: one [`FreeRobot`] per robot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FreeSchedule {
    robots: Vec<FreeRobot>,
}

// Robots re-validate themselves; the schedule only needs non-emptiness.
impl<'de> Deserialize<'de> for FreeSchedule {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            robots: Vec<FreeRobot>,
        }
        let raw = Raw::deserialize(deserializer)?;
        FreeSchedule::new(raw.robots).map_err(serde::de::Error::custom)
    }
}

impl FreeSchedule {
    /// Creates a schedule from validated robots.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] for an empty robot list.
    pub fn new(robots: Vec<FreeRobot>) -> Result<Self> {
        if robots.is_empty() {
            return Err(Error::invalid_params(0, 0, "a free schedule needs at least one robot"));
        }
        Ok(FreeSchedule { robots })
    }

    /// Number of robots.
    #[must_use]
    pub fn n(&self) -> usize {
        self.robots.len()
    }

    /// The per-robot descriptions.
    #[must_use]
    pub fn robots(&self) -> &[FreeRobot] {
        &self.robots
    }

    /// Mutable access for optimizers; callers must re-establish the
    /// [`FreeRobot`] invariants (use [`FreeSchedule::validate`]).
    pub fn robots_mut(&mut self) -> &mut Vec<FreeRobot> {
        &mut self.robots
    }

    /// Re-checks every robot's invariants after in-place mutation.
    ///
    /// # Errors
    ///
    /// As [`FreeRobot::new`].
    pub fn validate(&self) -> Result<()> {
        for r in &self.robots {
            FreeRobot::new(r.side, r.turns.clone(), r.first_turn_time)?;
        }
        Ok(())
    }

    /// One materializable plan per robot.
    #[must_use]
    pub fn plans(&self) -> Vec<Box<dyn TrajectoryPlan>> {
        self.robots
            .iter()
            .map(|r| Box::new(FreePlan::new(r.clone())) as Box<dyn TrajectoryPlan>)
            .collect()
    }

    /// Every robot materialized to `horizon`: the fleet
    /// [`Fleet::from_plans`] builds from [`FreeSchedule::plans`],
    /// without a boxed plan per robot.
    ///
    /// # Errors
    ///
    /// As [`FreeRobot::materialize`].
    pub fn fleet(&self, horizon: f64) -> Result<Fleet> {
        Fleet::new(self.robots.iter().map(|r| r.materialize(horizon)).collect::<Result<_>>()?)
    }

    /// A horizon heuristic guaranteed to reach magnitude `xmax` on both
    /// sides for every robot: the largest [`FreeRobot::reach`], and at
    /// least `4 xmax`. `f64::max` picks one of its operands exactly, so
    /// the hint of a schedule that swaps one robot is the max of the
    /// others' fold and the new robot's reach, bit for bit. Callers
    /// measuring coverage should still verify the scan reports nothing
    /// uncovered and re-materialize deeper if needed.
    #[must_use]
    pub fn horizon_hint(&self, xmax: f64) -> f64 {
        self.robots.iter().fold(4.0 * xmax, |worst, r| worst.max(r.reach(xmax)))
    }

    /// Lowers the proportional schedule `S_beta(n)` (the schedule of
    /// `A(n, f)`) into a free schedule with `explicit_turns` explicit
    /// turning points per robot, computed with the same [`crate::Cone`]
    /// recurrence as [`crate::ZigZagPlan`] so the materialized
    /// trajectories coincide.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `explicit_turns < 2`.
    pub fn from_proportional(
        schedule: &ProportionalSchedule,
        explicit_turns: usize,
    ) -> Result<Self> {
        if explicit_turns < 2 {
            return Err(Error::domain(format!(
                "lowering needs at least two explicit turns, got {explicit_turns}"
            )));
        }
        let cone = schedule.cone();
        let robots = (0..schedule.n())
            .map(|i| {
                let seed = schedule.seed_for_robot(i);
                let mut turns = Vec::with_capacity(explicit_turns);
                let mut p = seed;
                turns.push(p.x.abs());
                for _ in 1..explicit_turns {
                    p = cone.next_turning_point(p);
                    turns.push(p.x.abs());
                }
                FreeRobot::new(seed.x.signum(), turns, seed.t)
            })
            .collect::<Result<Vec<_>>>()?;
        FreeSchedule::new(robots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;
    use crate::params::Params;
    use crate::ratio;

    fn doubling_robot() -> FreeRobot {
        // Classic doubling: turns at +1, -2, +4, ... reached like a
        // beta = 3 zig-zag (first turn at t = 3).
        FreeRobot::new(1.0, vec![1.0, 2.0, 4.0], 3.0).unwrap()
    }

    #[test]
    fn validation_rejects_malformed_robots() {
        assert!(FreeRobot::new(0.5, vec![1.0, 2.0], 1.0).is_err(), "side must be ±1");
        assert!(FreeRobot::new(1.0, vec![1.0], 1.0).is_err(), "needs two turns");
        assert!(FreeRobot::new(1.0, vec![1.0, 0.5], 1.0).is_err(), "must increase");
        assert!(FreeRobot::new(1.0, vec![1.0, 1.0], 1.0).is_err(), "strictly");
        assert!(FreeRobot::new(1.0, vec![-1.0, 2.0], 1.0).is_err(), "positive");
        assert!(FreeRobot::new(1.0, vec![f64::NAN, 2.0], 1.0).is_err(), "finite");
        assert!(FreeRobot::new(1.0, vec![1.0, 2.0], 0.5).is_err(), "speed limit");
        assert!(FreeRobot::new(1.0, vec![1.0, 2.0], f64::NAN).is_err());
        assert!(FreeRobot::new(1.0, vec![1e-9, 2e3], 1.0).is_err(), "tail ratio bound");
        assert!(FreeSchedule::new(vec![]).is_err(), "empty schedule");
    }

    #[test]
    fn turn_times_follow_unit_speed_legs() {
        let r = doubling_robot();
        // t_0 = 3, t_1 = 3 + (1 + 2) = 6, t_2 = 6 + (2 + 4) = 12.
        assert_eq!(r.turn_time(0), 3.0);
        assert_eq!(r.turn_time(1), 6.0);
        assert_eq!(r.turn_time(2), 12.0);
        // Tail: m_3 = 8 at t = 12 + (4 + 8) = 24.
        assert_eq!(r.turn_magnitude(3), 8.0);
        assert_eq!(r.turn_time(3), 24.0);
        assert_eq!(r.turn_position(3), -8.0);
    }

    #[test]
    fn free_plan_materializes_like_the_doubling_zigzag() {
        use crate::cone::Cone;
        use crate::zigzag::ZigZagPlan;
        let zig = ZigZagPlan::new(Cone::new(3.0).unwrap(), 1.0).unwrap();
        let free = FreePlan::new(doubling_robot());
        for horizon in [1.5, 3.0, 7.0, 50.0, 200.0] {
            let a = zig.materialize(horizon).unwrap();
            let b = free.materialize(horizon).unwrap();
            for k in 0..=40 {
                let t = horizon * k as f64 / 40.0;
                let (pa, pb) = (a.position_at(t), b.position_at(t));
                match (pa, pb) {
                    (Some(x), Some(y)) => {
                        assert!(approx_eq(x, y, 1e-9), "t = {t}: zig {x} vs free {y}")
                    }
                    _ => assert_eq!(pa, pb, "definedness differs at t = {t}"),
                }
            }
        }
    }

    #[test]
    fn lowered_proportional_schedule_matches_zigzag_fleet() {
        // The A(n, f) lowering must reproduce the ZigZagPlan fleet's
        // trajectories exactly (within float noise), including the slow
        // initial legs — this is what makes the optimizer's seed
        // measure at the Theorem 1 ratio.
        for (n, f) in [(3usize, 1usize), (5, 3), (4, 2)] {
            let params = Params::new(n, f).unwrap();
            let beta = ratio::optimal_beta(params).unwrap();
            let schedule = ProportionalSchedule::new(n, beta).unwrap();
            let free = FreeSchedule::from_proportional(&schedule, 8).unwrap();
            let horizon = schedule.required_horizon(f + 1, 20.0);
            let zig_plans = schedule.plans();
            let free_plans = free.plans();
            assert_eq!(free_plans.len(), zig_plans.len());
            for (zp, fp) in zig_plans.iter().zip(&free_plans) {
                let a = zp.materialize(horizon).unwrap();
                let b = fp.materialize(horizon).unwrap();
                for k in 0..=200 {
                    let t = horizon * k as f64 / 200.0;
                    let x = a.position_at(t).unwrap();
                    let y = b.position_at(t).unwrap();
                    assert!(
                        approx_eq(x, y, 1e-6 * (1.0 + x.abs())),
                        "(n = {n}, f = {f}) t = {t}: zigzag {x} vs free {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn tail_extends_geometrically_beyond_explicit_turns() {
        let r = FreeRobot::new(-1.0, vec![1.0, 3.0], 2.0).unwrap();
        assert!(approx_eq(r.tail_ratio(), 3.0, 1e-12));
        assert!(approx_eq(r.turn_magnitude(4), 81.0, 1e-9));
        let plan = FreePlan::new(r);
        let traj = plan.materialize(500.0).unwrap();
        // -1, +3, -9, +27, -81 must all be visited.
        for (k, x) in [(0usize, -1.0), (1, 3.0), (2, -9.0), (3, 27.0), (4, -81.0)] {
            assert!(
                traj.first_visit(x).is_some(),
                "turn {k} at {x} not visited within the horizon"
            );
        }
    }

    #[test]
    fn horizon_hint_covers_the_window() {
        let schedule = FreeSchedule::new(vec![
            FreeRobot::new(1.0, vec![1.0, 2.0], 1.0).unwrap(),
            FreeRobot::new(-1.0, vec![0.5, 1.5], 0.75).unwrap(),
        ])
        .unwrap();
        let xmax = 20.0;
        let horizon = schedule.horizon_hint(xmax);
        for plan in schedule.plans() {
            let traj = plan.materialize(horizon).unwrap();
            assert!(traj.max_excursion() >= xmax, "{}", plan.label());
        }
    }

    /// The hint as one loop over robots, before `FreeRobot::reach`.
    fn reference_hint(schedule: &FreeSchedule, xmax: f64) -> f64 {
        let mut worst = 4.0 * xmax;
        for r in schedule.robots() {
            let mut k = 0usize;
            while r.turn_magnitude(k) < xmax && k < 4096 {
                k += 1;
            }
            worst = worst.max(r.turn_time(k + 1) + r.turn_magnitude(k + 1));
        }
        worst
    }

    /// `schedule` with every gap and glide scaled by a SplitMix64 draw
    /// in `[1/2, 2]`.
    fn perturbed(schedule: &FreeSchedule, seed: u64) -> FreeSchedule {
        let mut state = seed;
        let mut draw = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            2f64.powf(2.0 * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 1.0)
        };
        let robots = schedule.robots().iter().map(|r| {
            let mut turns = vec![r.turns[0] * draw()];
            for w in r.turns.windows(2) {
                let gap = (w[1] / w[0]).powf(draw()).min(MAX_TAIL_RATIO.sqrt());
                turns.push(turns[turns.len() - 1] * gap);
            }
            let first_turn_time = (r.first_turn_time / r.turns[0] * draw()).max(1.0) * turns[0];
            FreeRobot::new(r.side, turns, first_turn_time).unwrap()
        });
        FreeSchedule::new(robots.collect()).unwrap()
    }

    /// The 8-turn lowering of every Table-1 pair whose `A(n, f)` is
    /// proportional, then three [`perturbed`] copies of it, labelled.
    fn table1_schedules() -> Vec<(String, FreeSchedule)> {
        let pairs = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (11, 5), (41, 20)];
        let mut out = Vec::new();
        for (n, f) in pairs {
            let params = Params::new(n, f).unwrap();
            let beta = ratio::optimal_beta(params).unwrap();
            let lowered =
                FreeSchedule::from_proportional(&ProportionalSchedule::new(n, beta).unwrap(), 8)
                    .unwrap();
            for seed in 0..4u64 {
                let schedule = if seed == 0 { lowered.clone() } else { perturbed(&lowered, seed) };
                out.push((format!("(n = {n}, f = {f}), seed {seed}"), schedule));
            }
        }
        out
    }

    #[test]
    fn horizon_hint_is_the_fold_of_robot_reaches_bit_for_bit() {
        for (label, schedule) in table1_schedules() {
            for xmax in [2.5, 25.0, 25.0 * (1.0 + 2e-9), 400.0] {
                let hint = schedule.horizon_hint(xmax);
                assert_eq!(hint.to_bits(), reference_hint(&schedule, xmax).to_bits());
                // Leaving any robot out and folding it back in
                // reproduces the hint: what a leave-one-out probe
                // relies on.
                for (r, robot) in schedule.robots().iter().enumerate() {
                    let others = schedule.robots().iter().enumerate().filter(|&(i, _)| i != r);
                    let without = others.fold(4.0 * xmax, |worst, (_, o)| worst.max(o.reach(xmax)));
                    assert_eq!(
                        without.max(robot.reach(xmax)).to_bits(),
                        hint.to_bits(),
                        "{label}, xmax {xmax}, robot {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_at_is_the_last_waypoint_of_materialize_bit_for_bit() {
        let same = |a: SpaceTime, b: SpaceTime| {
            a.x.to_bits() == b.x.to_bits() && a.t.to_bits() == b.t.to_bits()
        };
        for (label, schedule) in table1_schedules() {
            for (r, robot) in schedule.robots().iter().enumerate() {
                let turns = robot.turns.len();
                let mut horizons = vec![robot.first_turn_time / 3.0, robot.first_turn_time];
                for k in 1..turns + 4 {
                    let (before, at) = (robot.turn_time(k - 1), robot.turn_time(k));
                    // Exactly at a turn time, and inside the leg that
                    // ends there: explicit legs, then the geometric tail.
                    horizons.extend([at, 0.5 * (before + at)]);
                }
                for xmax in [2.5, 25.0 * (1.0 + 2e-9), 400.0] {
                    horizons.push(robot.reach(xmax));
                }
                for h in horizons {
                    let trajectory = robot.materialize(h).unwrap();
                    let last = *trajectory.waypoints().last().unwrap();
                    let cut = robot.cut_at(h).unwrap();
                    assert!(
                        same(cut, last),
                        "{label}, robot {r}, horizon {h}: {cut:?} vs {last:?}"
                    );
                }
            }
        }
        let robot = doubling_robot();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(robot.cut_at(bad).is_err(), "horizon {bad}");
        }
    }

    #[test]
    fn serde_roundtrips_and_revalidates() {
        let schedule = FreeSchedule::new(vec![doubling_robot()]).unwrap();
        let json = serde_json::to_string(&schedule).unwrap();
        let back: FreeSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(schedule, back);
        // A tampered document must be rejected on deserialization.
        let bad = json.replace("3.0", "0.1");
        assert!(
            serde_json::from_str::<FreeSchedule>(&bad).is_err(),
            "speed-limit violation must not deserialize: {bad}"
        );
    }

    #[test]
    fn plans_are_trajectory_plans() {
        let schedule = FreeSchedule::new(vec![doubling_robot()]).unwrap();
        let plans = schedule.plans();
        assert!(plans[0].label().contains("free"));
        assert!(plans[0].materialize(10.0).is_ok());
        assert!(plans[0].materialize(0.0).is_err());
    }
}
