//! The inner worst-case-CR objective with its soundness floor.
//!
//! [`Objective::eval`] wraps `faultline_analysis::measure_free_schedule_cr`
//! — the same supremum scan the rest of the workspace uses — into a
//! totalized function suitable for golden-section line search: every
//! failure mode (invalid candidate, incomplete coverage, non-finite
//! measurement, *or a measurement below the certified lower bound*)
//! maps to the large finite [`PENALTY`] instead of an error or
//! infinity, because `golden_min` rejects non-finite interior values.
//!
//! The lower-bound floor is the crate's soundness guard: a finite
//! window `[1, xmax]` can under-estimate a schedule's true supremum,
//! so any measurement that "beats" the proven `alpha(n)` bound is
//! evidence of window overfitting, not of a breakthrough, and is
//! rejected rather than accepted as progress.

use faultline_analysis::{
    measure_free_schedule_cr, measure_free_schedule_expected_cr, measure_free_schedule_profile,
    FreeScheduleProfile, LeaveOneOut, MeasuredCr,
};
use faultline_core::certificate::certify_alpha;
use faultline_core::lower_bound::alpha;
use faultline_core::{Error, FreeRobot, FreeSchedule, Params, Regime, Result};
use faultline_sim::FaultKind;

/// Large finite sentinel returned by [`Objective::eval`] for
/// candidates that cannot be honestly measured. Finite so it can pass
/// through `golden_min`, large enough that no real schedule competes.
pub const PENALTY: f64 = 1e12;

/// Weight of the peak-pressure tie-breaker in [`Objective::eval`].
///
/// The paper's proportional schedules equalize every worst-case peak,
/// so the hard supremum is a plateau under any single-coordinate move
/// and pure greedy descent stalls at the seed. Adding a small multiple
/// of the pressure (the power-mean mass of near-supremum peaks, in
/// `(0, 1]`) turns "lower one of the tied peaks" into strict progress,
/// letting descent drain the plateau before pushing the supremum
/// itself. The weight keeps the term strictly below any meaningful CR
/// difference, so ranking by `eval` never contradicts ranking by the
/// hard supremum beyond this resolution.
pub const PRESSURE_WEIGHT: f64 = 1e-3;

/// The measurement context shared by every candidate evaluation of an
/// optimizer run: the `(n, f)` pair, the target window, and the
/// certified lower-bound floor.
#[derive(Debug, Clone)]
pub struct Objective {
    params: Params,
    xmax: f64,
    floor: f64,
    detect_probability: Option<f64>,
}

impl Objective {
    /// Builds the objective for `(n, f)` over the window `[1, xmax]`.
    ///
    /// For pairs in the lower-bound regime (`n < 2f + 2`) the certified
    /// `alpha(n)` interval's lower end becomes the soundness floor. The
    /// exact engine maximizes over every point of the window, so the
    /// paper's adversarial placements need no probes of their own.
    ///
    /// The floor is deliberately `alpha(n)` and not the tighter
    /// single-robot bound 9 when `n = f + 1`: that bound is attained
    /// only asymptotically, so even the exact `A(n, f)` seed measures
    /// *below* 9 in any finite window. The driver instead reports such
    /// pairs as `gap_closed`, so their in-window "gains" are never
    /// claimed as improvements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `xmax <= 1` or is non-finite.
    pub fn new(params: Params, xmax: f64) -> Result<Self> {
        if !(xmax > 1.0) || !xmax.is_finite() {
            return Err(Error::domain(format!(
                "objective window must satisfy 1 < xmax < inf, got {xmax}"
            )));
        }
        let n = params.n();
        let floor = if params.regime() == Regime::Proportional && n < 2 * params.f() + 2 {
            certify_alpha(n)?.lo
        } else {
            0.0
        };
        Ok(Objective { params, xmax, floor, detect_probability: None })
    }

    /// Builds an *expected*-CR objective: every robot is p-faulty with
    /// the given per-visit detection probability and candidates are
    /// scored by the supremum over the window of the exact expected
    /// competitive ratio instead of the worst-case one.
    ///
    /// No certified floor applies: the worst-case lower bound does not
    /// bound an expectation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for a window rejected by
    /// [`Objective::new`], or a probability outside `[0, 1]`.
    pub fn with_detect_probability(
        params: Params,
        xmax: f64,
        detect_probability: f64,
    ) -> Result<Self> {
        FaultKind::PFaulty { detect_probability }.validate()?;
        let mut objective = Objective::new(params, xmax)?;
        objective.floor = 0.0;
        objective.detect_probability = Some(detect_probability);
        Ok(objective)
    }

    /// The default measurement window for `(n, f)`: wide enough to
    /// reach past the adversary's first placement `x_0 = 2/(alpha-3)`
    /// with slack, never narrower than `[1, 25]`.
    #[must_use]
    pub fn default_xmax(params: Params) -> f64 {
        let base = 25.0f64;
        match alpha(params.n()) {
            Ok(a) if a > 3.0 => base.max(1.5 * 2.0 / (a - 3.0)),
            _ => base,
        }
    }

    /// The `(n, f)` pair being optimized.
    #[must_use]
    pub fn params(&self) -> Params {
        self.params
    }

    /// The right end of the measurement window.
    #[must_use]
    pub fn xmax(&self) -> f64 {
        self.xmax
    }

    /// The certified lower-bound floor (0 when no bound applies).
    #[must_use]
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// The p-faulty detection probability, or `None` for the default
    /// worst-case objective.
    #[must_use]
    pub fn detect_probability(&self) -> Option<f64> {
        self.detect_probability
    }

    /// Raw measurement of a schedule's worst-case ratio over the
    /// window, without the penalty totalization — used for reporting
    /// and for the final cross-check.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures (invalid `(n, f)` vs. schedule
    /// size, degenerate window).
    pub fn measure(&self, schedule: &FreeSchedule) -> Result<MeasuredCr> {
        match self.detect_probability {
            Some(p) => measure_free_schedule_expected_cr(schedule, p, self.xmax),
            None => measure_free_schedule_cr(schedule, self.params.f(), self.xmax),
        }
    }

    /// Raw measurement plus the peak-pressure tie-breaker.
    ///
    /// In the expected-CR regime the pressure has no analogue — the
    /// expectation already averages over every peak — so it is pinned
    /// to `1.0` (the maximal value), keeping `eval`'s tie-breaker inert
    /// without branching downstream code.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures.
    pub fn profile(&self, schedule: &FreeSchedule) -> Result<FreeScheduleProfile> {
        if let Some(p) = self.detect_probability {
            let measured = measure_free_schedule_expected_cr(schedule, p, self.xmax)?;
            return Ok(FreeScheduleProfile { measured, pressure: 1.0 });
        }
        measure_free_schedule_profile(schedule, self.params.f(), self.xmax)
    }

    /// Totalized objective value: the measured supremum plus
    /// [`PRESSURE_WEIGHT`] times the peak pressure (so tied suprema
    /// rank by how many peaks still bind), or [`PENALTY`] when the
    /// candidate is invalid, leaves targets uncovered, measures
    /// non-finite, or measures *below* the certified lower bound
    /// (window overfitting).
    #[must_use]
    pub fn eval(&self, schedule: &FreeSchedule) -> f64 {
        self.score(self.profile(schedule))
    }

    /// The totalization behind [`Objective::eval`].
    fn score(&self, profile: Result<FreeScheduleProfile>) -> f64 {
        match profile {
            Ok(p)
                if p.measured.uncovered == 0
                    && p.measured.empirical.is_finite()
                    && p.measured.empirical >= self.floor =>
            {
                p.measured.empirical + PRESSURE_WEIGHT * p.pressure
            }
            _ => PENALTY,
        }
    }

    /// `schedule` with robot `robot` left out and measured once, for
    /// scoring candidates for that robot through
    /// [`Objective::eval_held`]; `None` for the expected-CR objective,
    /// which has no such path, or when the profile cannot be built.
    #[must_use]
    pub fn hold_others(&self, schedule: &FreeSchedule, robot: usize) -> Option<LeaveOneOut> {
        if self.detect_probability.is_some() {
            return None;
        }
        LeaveOneOut::new(schedule, robot, self.params.f(), self.xmax).ok()
    }

    /// [`Objective::eval`] of the held schedule with `candidate` in
    /// the left-out robot's place, bit for bit, whatever horizon the
    /// candidate gives the schedule, or `None` when `held` cannot serve
    /// the candidate (see [`LeaveOneOut::profile`]: chiefly a window
    /// left uncovered at the first horizon) and the caller must
    /// evaluate the swapped schedule in full.
    #[must_use]
    pub fn eval_held(&self, held: &LeaveOneOut, candidate: &FreeRobot) -> Option<f64> {
        held.profile(candidate).map(|p| self.score(Ok(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::{Algorithm, FreeSchedule};

    fn lowered(n: usize, f: usize, turns: usize) -> FreeSchedule {
        let algorithm = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
        FreeSchedule::from_proportional(algorithm.schedule().unwrap(), turns).unwrap()
    }

    #[test]
    fn objective_scores_the_proportional_seed_near_theorem_1() {
        let params = Params::new(3, 1).unwrap();
        let objective = Objective::new(params, 10.0).unwrap();
        let seed = lowered(3, 1, 6);
        let value = objective.eval(&seed);
        let raw = objective.measure(&seed).unwrap().empirical;
        let analytic = Algorithm::design(params).unwrap().analytic_cr();
        assert!(value.is_finite() && value < PENALTY);
        assert!(raw <= analytic + 1e-9, "measured {raw} vs Thm 1 {analytic}");
        // The score adds at most PRESSURE_WEIGHT (pressure lives in (0, 1]).
        assert!(value > raw && value <= raw + PRESSURE_WEIGHT, "eval {value} vs raw {raw}");
        assert!(value >= objective.floor(), "eval {value} under floor {}", objective.floor());
    }

    #[test]
    fn window_and_resolution_are_validated() {
        let params = Params::new(3, 1).unwrap();
        assert!(Objective::new(params, 1.0).is_err());
        assert!(Objective::new(params, f64::NAN).is_err());
        // No measurement reads the resolution, but the config that
        // builds the objective still rejects a zero grid.
        let mut config = crate::OptimizeConfig::new(3, 1);
        config.xmax = Some(10.0);
        config.grid_points = Some(0);
        assert!(config.objective().is_err());
    }

    #[test]
    fn default_window_reaches_past_the_first_adversarial_placement() {
        for (n, f) in [(3usize, 1usize), (5, 3), (41, 20)] {
            let params = Params::new(n, f).unwrap();
            let xmax = Objective::default_xmax(params);
            let a = alpha(n).unwrap();
            assert!(xmax >= 25.0);
            assert!(xmax >= 2.0 / (a - 3.0), "window {xmax} too narrow for n = {n}");
        }
    }

    #[test]
    fn mismatched_schedule_size_is_penalized_not_propagated() {
        let params = Params::new(5, 3).unwrap();
        let objective = Objective::new(params, 10.0).unwrap();
        // A 3-robot schedule cannot support f = 3 (needs f + 1 = 4 visits).
        let small = lowered(3, 1, 5);
        assert_eq!(objective.eval(&small), PENALTY);
        assert!(objective.measure(&small).is_err());
    }

    #[test]
    fn bailed_out_schedule_is_penalized_explicitly() {
        use faultline_core::FreeRobot;
        // Two robots whose zigzags never reach the window leave every
        // interval short of the f + 1 = 2 required visits, so the
        // measurement bails out after eight horizon doublings with
        // `uncovered > 0` and an infinite ratio. The objective must
        // map that surfaced bailout to the explicit PENALTY instead of
        // letting the infinity leak into the golden-section search.
        let params = Params::new(3, 1).unwrap();
        let objective = Objective::new(params, 2.0).unwrap();
        let stunted = |side: f64| FreeRobot::new(side, vec![0.5, 0.5 + 5e-8], 0.5).unwrap();
        let doubler = FreeRobot::new(1.0, vec![1.0, 2.0], 1.0).unwrap();
        let schedule = FreeSchedule::new(vec![doubler, stunted(1.0), stunted(-1.0)]).unwrap();
        let measured = objective.measure(&schedule).unwrap();
        assert!(measured.empirical.is_infinite());
        assert!(measured.uncovered > 0, "bailout must surface its uncovered intervals");
        assert_eq!(objective.eval(&schedule), PENALTY);
    }

    #[test]
    fn expected_cr_objective_validates_and_scores_monotonically() {
        let params = Params::new(3, 1).unwrap();
        assert!(Objective::with_detect_probability(params, 10.0, -0.1).is_err());
        assert!(Objective::with_detect_probability(params, 10.0, 1.5).is_err());
        assert!(Objective::with_detect_probability(params, 10.0, f64::NAN).is_err());
        let seed = lowered(3, 1, 6);
        let mut prev = f64::INFINITY;
        for p in [0.25, 0.5, 1.0] {
            let objective = Objective::with_detect_probability(params, 10.0, p).unwrap();
            assert_eq!(objective.detect_probability(), Some(p));
            assert_eq!(objective.floor(), 0.0);
            let value = objective.eval(&seed);
            assert!(value.is_finite() && value < PENALTY);
            assert!(
                value <= prev + 1e-12,
                "expected-CR score must not increase with p: eval({p}) = {value} > {prev}"
            );
            prev = value;
        }
    }

    #[test]
    fn worst_case_objective_reports_no_detect_probability() {
        let objective = Objective::new(Params::new(3, 1).unwrap(), 10.0).unwrap();
        assert_eq!(objective.detect_probability(), None);
    }

    #[test]
    fn floor_applies_only_in_the_lower_bound_regime() {
        let proportional = Objective::new(Params::new(3, 1).unwrap(), 10.0).unwrap();
        assert!(proportional.floor() > 3.0);
        let two_group = Objective::new(Params::new(4, 1).unwrap(), 10.0).unwrap();
        assert_eq!(two_group.floor(), 0.0);
    }
}
