//! Proportional schedules `S_beta(n)` (Definition 2, Lemma 2) and their
//! conversion into concrete per-robot zig-zag plans (Definition 4).
//!
//! In a proportional schedule all `n` robots zig-zag inside the same
//! cone `C_beta`; the interleaved sequence of their positive turning
//! points `tau_0 < tau_1 < tau_2 < ...` is geometric with
//! *proportionality ratio*
//!
//! ```text
//! r = ((beta + 1) / (beta - 1))^(2/n)          (Lemma 2, Eq. 2)
//! ```
//!
//! so `tau_j = tau_0 * r^j`, and the robot owning `tau_j` is `a_(j mod n)`.

use serde::{Deserialize, Serialize};

use crate::cone::Cone;
use crate::error::{Error, Result};
use crate::plan::Plan;
use crate::spacetime::SpaceTime;

/// The proportional schedule `S_beta(n)`: `n` robots zig-zagging in the
/// cone `C_beta` with interleaved geometric turning points.
///
/// The schedule is normalized so that robot `a_0` has a positive turning
/// point at `base` (default 1, matching the paper's assumption that the
/// target is at distance at least one).
///
/// ```
/// use faultline_core::ProportionalSchedule;
/// // A(3, 1): beta* = 8/3 - 1 = 5/3, expansion factor 4.
/// let s = ProportionalSchedule::new(3, 5.0 / 3.0)?;
/// assert!((s.expansion_factor() - 4.0).abs() < 1e-12);
/// assert!((s.competitive_ratio(1) - 5.233) .abs() < 1e-3);
/// # Ok::<(), faultline_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProportionalSchedule {
    n: usize,
    cone: Cone,
    base: f64,
}

// Deserialization re-validates `n >= 1` and `base > 0` (the cone
// validates its own `beta`).
impl<'de> Deserialize<'de> for ProportionalSchedule {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            n: usize,
            cone: Cone,
            base: f64,
        }
        let raw = Raw::deserialize(deserializer)?;
        ProportionalSchedule::with_base(raw.n, raw.cone.beta(), raw.base)
            .map_err(serde::de::Error::custom)
    }
}

impl ProportionalSchedule {
    /// Creates the schedule `S_beta(n)` with `base = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when `n == 0` and
    /// [`Error::InvalidBeta`] when `beta <= 1`.
    pub fn new(n: usize, beta: f64) -> Result<Self> {
        Self::with_base(n, beta, 1.0)
    }

    /// Creates the schedule with an explicit normalization `base > 0`:
    /// robot `a_0` turns at position `base` at time `beta * base`.
    ///
    /// # Errors
    ///
    /// As [`ProportionalSchedule::new`], plus [`Error::Domain`] for a
    /// non-positive `base`.
    pub(crate) fn with_base(n: usize, beta: f64, base: f64) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid_params(0, 0, "a schedule needs at least one robot"));
        }
        if !(base > 0.0) || !base.is_finite() {
            return Err(Error::domain(format!("schedule base must be positive, got {base}")));
        }
        let cone = Cone::new(beta)?;
        Ok(ProportionalSchedule { n, cone, base })
    }

    /// Number of robots in the schedule.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The cone `C_beta` confining every robot.
    #[must_use]
    pub fn cone(&self) -> Cone {
        self.cone
    }

    /// The cone slope parameter `beta`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.cone.beta()
    }

    /// Normalization: the position of robot `a_0`'s reference turning
    /// point.
    #[must_use]
    pub(crate) fn base(&self) -> f64 {
        self.base
    }

    /// The per-robot expansion factor `kappa = (beta + 1)/(beta - 1)`.
    #[must_use]
    pub fn expansion_factor(&self) -> f64 {
        self.cone.expansion_factor()
    }

    /// The proportionality ratio `r = kappa^(2/n)` (Lemma 2, Eq. 2).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.expansion_factor().powf(2.0 / self.n as f64)
    }

    /// The `j`-th interleaved positive turning point `tau_j = base * r^j`
    /// (negative `j` extends the sequence backwards).
    #[must_use]
    pub fn turning_position(&self, j: i64) -> f64 {
        self.base * self.ratio().powi(j as i32)
    }

    /// The robot owning turning point `tau_j`: `a_(j mod n)`.
    #[must_use]
    pub(crate) fn robot_of_turning_point(&self, j: i64) -> usize {
        j.rem_euclid(self.n as i64) as usize
    }

    /// The first `count` interleaved positive turning points, as
    /// `(robot index, space–time point)` pairs, starting at `tau_0`.
    #[must_use]
    pub fn interleaved_turning_points(&self, count: usize) -> Vec<(usize, SpaceTime)> {
        (0..count as i64)
            .map(|j| {
                let x = self.turning_position(j);
                (self.robot_of_turning_point(j), self.cone.boundary_point(x))
            })
            .collect()
    }

    /// The seed turning point `tau_i'` of robot `a_i` per Definition 4:
    /// robot `a_0` seeds at `base`; every other robot extends its
    /// zig-zag backwards inside the cone until the first turning point of
    /// magnitude strictly below `base`.
    #[must_use]
    pub fn seed_for_robot(&self, i: usize) -> SpaceTime {
        assert!(i < self.n, "robot index {i} out of range for n = {}", self.n);
        let start = self.cone.boundary_point(self.base * self.ratio().powi(i as i32));
        if i == 0 {
            return start;
        }
        let mut p = start;
        loop {
            p = self.cone.previous_turning_point(p);
            // Strictly below base, with a relative tolerance: for even n
            // the walk lands on magnitude exactly `base` (e.g. robot
            // n/2's predecessor of tau_(n/2) is -base), where round-off
            // must not end the walk one step early.
            if p.x.abs() < self.base * (1.0 - 1e-9) {
                return p;
            }
        }
    }

    /// The complete set of per-robot zig-zag plans of the algorithm
    /// `A(n, f)` built on this schedule (Definition 4).
    ///
    /// Robot `a_i` travels from the origin at speed `1/beta` to its seed
    /// and then zig-zags inside the cone.
    #[must_use]
    pub fn plans(&self) -> Vec<Plan> {
        (0..self.n)
            .map(|i| {
                let seed = self.seed_for_robot(i);
                Plan::zigzag(self.cone, seed.x)
                    .expect("seed positions are non-zero by construction")
            })
            .collect()
    }

    /// Lemma 5: the competitive ratio of this schedule against `f`
    /// faulty robots,
    /// `CR = (beta+1)^((2f+2)/n) (beta-1)^(1-(2f+2)/n) + 1`.
    ///
    /// The value is `lemma4_visit_time(f) / base` and is independent of
    /// the normalization.
    #[must_use]
    pub fn competitive_ratio(&self, f: usize) -> f64 {
        self.ratio().powi(f as i32 + 1) * (self.beta() - 1.0) + 1.0
    }

    /// A materialization horizon guaranteed to contain the `k`-th
    /// distinct robot visit of every point with `base <= |x| <= xmax`.
    ///
    /// The `k`-th visitor of `x` arrives no later than
    /// `x * (r^k (beta-1) + 1)` scaled by one extra ratio step for the
    /// discontinuity, doubled for safety.
    #[must_use]
    pub fn required_horizon(&self, k: usize, xmax: f64) -> f64 {
        let r = self.ratio();
        2.0 * xmax * r.powi(k as i32 + 1) * (self.beta() + 1.0)
    }
}

impl std::fmt::Display for ProportionalSchedule {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            fmt,
            "S_beta(n = {}, beta = {}, r = {}, base = {})",
            self.n,
            self.beta(),
            self.ratio(),
            self.base
        )
    }
}

#[cfg(test)]
impl ProportionalSchedule {
    /// Lemma 4 closed form: the limit, as `x` approaches the turning
    /// point `tau_0 = base` from above, of the time at which the
    /// `(f+1)`-st distinct robot visits `x`:
    ///
    /// ```text
    /// T_(f+1) = base * ((beta+1)^((2f+2)/n) (beta-1)^(1-(2f+2)/n) + 1)
    ///         = base * (r^(f+1) (beta - 1) + 1)
    /// ```
    #[must_use]
    pub(crate) fn lemma4_visit_time(&self, f: usize) -> f64 {
        self.base * (self.ratio().powi(f as i32 + 1) * (self.beta() - 1.0) + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    fn a31() -> ProportionalSchedule {
        // A(3, 1): beta* = (4*1+4)/3 - 1 = 5/3.
        ProportionalSchedule::new(3, 5.0 / 3.0).unwrap()
    }

    #[test]
    fn validates_inputs() {
        assert!(ProportionalSchedule::new(0, 2.0).is_err());
        assert!(ProportionalSchedule::new(3, 1.0).is_err());
        assert!(ProportionalSchedule::with_base(3, 2.0, 0.0).is_err());
        assert!(ProportionalSchedule::with_base(3, 2.0, -1.0).is_err());
    }

    #[test]
    fn ratio_formula_lemma2() {
        let s = a31();
        // kappa = 4, r = 4^(2/3).
        assert!(approx_eq(s.ratio(), 4.0_f64.powf(2.0 / 3.0), 1e-13));
    }

    #[test]
    fn turning_positions_are_geometric() {
        let s = a31();
        for j in -3..10 {
            let ratio = s.turning_position(j + 1) / s.turning_position(j);
            assert!(approx_eq(ratio, s.ratio(), 1e-12));
        }
    }

    #[test]
    fn robot_assignment_wraps() {
        let s = a31();
        assert_eq!(s.robot_of_turning_point(0), 0);
        assert_eq!(s.robot_of_turning_point(1), 1);
        assert_eq!(s.robot_of_turning_point(2), 2);
        assert_eq!(s.robot_of_turning_point(3), 0);
        assert_eq!(s.robot_of_turning_point(-1), 2);
    }

    #[test]
    fn seed_for_robot_zero_is_base() {
        let s = a31();
        let seed = s.seed_for_robot(0);
        assert_eq!(seed.x, 1.0);
        assert!(approx_eq(seed.t, 5.0 / 3.0, 1e-12));
    }

    #[test]
    fn seeds_have_magnitude_below_base() {
        for (n, beta) in [(2, 3.0), (3, 5.0 / 3.0), (4, 2.0), (5, 1.4), (7, 1.2), (8, 1.5)] {
            let s = ProportionalSchedule::new(n, beta).unwrap();
            for i in 1..n {
                let seed = s.seed_for_robot(i);
                assert!(
                    seed.x.abs() < s.base(),
                    "n = {n}, robot {i}: seed {} not below base",
                    seed.x
                );
                // The seed is a genuine turning point of robot i: walking
                // forwards must reach tau_i = r^i exactly.
                let mut p = seed;
                let target = s.turning_position(i as i64);
                let mut hit = false;
                for _ in 0..4 {
                    p = s.cone().next_turning_point(p);
                    if approx_eq(p.x, target, 1e-9) {
                        hit = true;
                        break;
                    }
                }
                assert!(hit, "n = {n}, robot {i}: seed does not lead back to tau_i");
            }
        }
    }

    #[test]
    fn plans_have_distinct_turning_points() {
        let s = a31();
        let plans = s.plans();
        assert_eq!(plans.len(), 3);
        let mut all_turns: Vec<f64> = Vec::new();
        for plan in &plans {
            for p in plan.materialize(1_000.0).unwrap().turning_points() {
                all_turns.push(p.x);
            }
        }
        all_turns.sort_by(f64::total_cmp);
        for w in all_turns.windows(2) {
            assert!(
                (w[0] - w[1]).abs() > 1e-9,
                "two robots share turning point {} (paper assumes distinct)",
                w[0]
            );
        }
    }

    #[test]
    fn interleaved_positive_turning_points_are_covered_by_plans() {
        // Every interleaved turning point tau_j must actually be a
        // turning point of the materialized trajectory of robot j mod n.
        let s = ProportionalSchedule::new(4, 2.0).unwrap();
        let horizon = s.required_horizon(4, 30.0);
        let trajs: Vec<_> = s.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
        for (robot, pt) in s.interleaved_turning_points(9) {
            let turns = trajs[robot].turning_points();
            let found =
                turns.iter().any(|q| approx_eq(q.x, pt.x, 1e-9) && approx_eq(q.t, pt.t, 1e-9));
            assert!(found, "tau at x = {} missing from robot {robot}", pt.x);
        }
    }

    #[test]
    fn lemma2_time_recurrence() {
        // t_{i+1} = t_i + tau_i * beta * (r - 1) for the interleaved
        // sequence (second part of Lemma 2).
        let s = ProportionalSchedule::new(5, 1.4).unwrap();
        let pts = s.interleaved_turning_points(12);
        let r = s.ratio();
        for w in pts.windows(2) {
            let (tau_i, t_i) = (w[0].1.x, w[0].1.t);
            let t_next = w[1].1.t;
            assert!(
                approx_eq(t_next, t_i + tau_i * s.beta() * (r - 1.0), 1e-9),
                "time recurrence violated at tau = {tau_i}"
            );
        }
    }

    #[test]
    fn lemma5_competitive_ratio_closed_forms_agree() {
        // r^(f+1)(beta-1) + 1 == (beta+1)^e (beta-1)^(1-e) + 1.
        for (n, f, beta) in [(3usize, 1usize, 5.0 / 3.0), (5, 2, 1.4), (5, 3, 2.2), (2, 1, 3.0)] {
            let s = ProportionalSchedule::new(n, beta).unwrap();
            let e = (2 * f + 2) as f64 / n as f64;
            let direct = (beta + 1.0).powf(e) * (beta - 1.0).powf(1.0 - e) + 1.0;
            assert!(approx_eq(s.competitive_ratio(f), direct, 1e-12), "n = {n}, f = {f}");
        }
    }

    #[test]
    fn base_scales_positions_not_ratio() {
        let unit = ProportionalSchedule::new(3, 5.0 / 3.0).unwrap();
        let scaled = ProportionalSchedule::with_base(3, 5.0 / 3.0, 10.0).unwrap();
        assert!(approx_eq(scaled.turning_position(2), 10.0 * unit.turning_position(2), 1e-12));
        assert!(approx_eq(scaled.competitive_ratio(1), unit.competitive_ratio(1), 1e-12));
    }

    #[test]
    fn single_robot_schedule_is_classic_cow_path() {
        // n = 1, beta = 3: doubling with CR 9 (f = 0).
        let s = ProportionalSchedule::new(1, 3.0).unwrap();
        assert!(approx_eq(s.competitive_ratio(0), 9.0, 1e-12));
        assert!(approx_eq(s.expansion_factor(), 2.0, 1e-12));
        assert!(approx_eq(s.ratio(), 4.0, 1e-12));
    }

    #[test]
    fn horizon_is_generous() {
        let s = a31();
        let h = s.required_horizon(2, 100.0);
        // Must exceed the Lemma 4 visit time at xmax by a comfortable margin.
        assert!(h > 100.0 * s.competitive_ratio(1) * s.ratio());
    }
}
