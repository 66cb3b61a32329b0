//! Time-staggered baselines: spread the robots in *time* rather than in
//! space.
//!
//! A natural first idea for tolerating faults is to keep the optimal
//! single-robot trajectory but launch the robots at staggered times (or
//! mirrored), so that the `(f+1)`-st visit of any point lags the first
//! by a bounded delay. These baselines make that idea concrete — and
//! measurably worse than the paper's proportional schedules, which
//! spread robots in space at zero marginal delay.

use faultline_core::{Error, Params, Plan, Result};

use crate::Strategy;

/// All robots run the classic doubling trajectory, robot `i` launching
/// at time `i * delay`.
///
/// The `(f+1)`-st visit of any point lags the herd's first visit by
/// exactly `f * delay`, so the competitive ratio is
/// `sup_x (W(x) + f·delay)/x` — strictly worse than the herd's 9 for
/// any positive delay, and unboundedly worse as `delay` grows. Spreading
/// in time buys nothing; the paper spreads in space instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DelayedDoublingStrategy {
    delay: f64,
}

impl DelayedDoublingStrategy {
    /// Creates the strategy with the given per-robot launch delay.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for a negative or non-finite delay.
    pub(crate) fn new(delay: f64) -> Result<Self> {
        if !(delay >= 0.0) || !delay.is_finite() {
            return Err(Error::domain(format!("delay must be >= 0, got {delay}")));
        }
        Ok(DelayedDoublingStrategy { delay })
    }
}

impl Strategy for DelayedDoublingStrategy {
    fn name(&self) -> &'static str {
        "delayed-doubling"
    }

    fn description(&self) -> String {
        format!(
            "classic doubling, robot i launches at t = i * {} (spreads robots in time)",
            self.delay
        )
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        (0..params.n()).map(|i| Plan::sweep(1.0, 2.0)?.launched_at(i as f64 * self.delay)).collect()
    }

    fn analytic_cr(&self, _params: Params) -> Option<f64> {
        None // measured; >= 9 + lag effects
    }

    fn horizon_hint(&self, params: Params, xmax: f64) -> f64 {
        20.0 * xmax + params.n() as f64 * self.delay
    }
}

/// Robots work in mirrored pairs: pair `j` runs classic doubling with
/// robot `2j` starting rightwards and robot `2j + 1` starting leftwards
/// (a leftover odd robot joins rightwards).
///
/// Mirroring halves the first-visit time on the "wrong" side but the
/// two members of a pair still visit any fixed point at well-separated
/// times, so the fault-tolerant ratio remains doubling-like.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MirroredPairsStrategy;

impl MirroredPairsStrategy {
    /// Creates the strategy.
    #[must_use]
    pub(crate) fn new() -> Self {
        MirroredPairsStrategy
    }
}

impl Strategy for MirroredPairsStrategy {
    fn name(&self) -> &'static str {
        "mirrored-pairs"
    }

    fn description(&self) -> String {
        "doubling in mirrored pairs: even robots start right, odd robots start left".to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        (0..params.n()).map(|i| Plan::sweep(if i % 2 == 0 { 1.0 } else { -1.0 }, 2.0)).collect()
    }

    fn analytic_cr(&self, _params: Params) -> Option<f64> {
        None
    }

    fn horizon_hint(&self, _params: Params, xmax: f64) -> f64 {
        40.0 * xmax
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use faultline_core::coverage::Fleet;

    /// Measures the worst ratio of a strategy over a coarse adversarial
    /// grid (test helper shared by baseline comparisons).
    pub(crate) fn measure(strategy: &dyn Strategy, params: Params, xmax: f64) -> Option<f64> {
        let plans = strategy.plans(params).ok()?;
        let fleet = Fleet::from_plans(&plans, strategy.horizon_hint(params, xmax)).ok()?;
        let turning: Vec<f64> =
            fleet.trajectories().iter().flat_map(|t| t.turning_points()).map(|p| p.x).collect();
        let targets =
            faultline_core::coverage::adversarial_targets(&turning, xmax, 48, 1e-9).ok()?;
        let scan = fleet.supremum(&targets, params.required_visits()).ok()?;
        Some(scan.ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::coverage::Fleet;
    use faultline_core::SpaceTime;

    #[test]
    fn delayed_plan_holds_then_runs() {
        let plan = Plan::sweep(1.0, 2.0).unwrap().launched_at(3.0).unwrap();
        let traj = plan.materialize(20.0).unwrap();
        assert_eq!(traj.position_at(2.0), Some(0.0));
        assert_eq!(traj.position_at(4.0), Some(1.0)); // launched at t = 3
        assert_eq!(traj.first_visit(1.0), Some(4.0));
        assert_eq!(traj.horizon(), 20.0);
    }

    #[test]
    fn delayed_plan_zero_delay_is_identity() {
        let inner = Plan::sweep(1.0, 2.0).unwrap();
        let plan = inner.clone().launched_at(0.0).unwrap();
        assert_eq!(plan.materialize(10.0).unwrap(), inner.materialize(10.0).unwrap());
    }

    #[test]
    fn delayed_plan_before_launch() {
        let plan = Plan::sweep(1.0, 2.0).unwrap().launched_at(5.0).unwrap();
        let traj = plan.materialize(2.0).unwrap();
        assert_eq!(traj.waypoints(), &[SpaceTime::new(0.0, 0.0), SpaceTime::new(0.0, 2.0)]);
    }

    #[test]
    fn delayed_plan_validates() {
        assert!(Plan::ray(true).launched_at(-1.0).is_err());
        assert!(Plan::ray(true).launched_at(f64::NAN).is_err());
        assert!(DelayedDoublingStrategy::new(f64::NAN).is_err());
    }

    #[test]
    fn delayed_doubling_lags_by_f_delays() {
        let params = Params::new(3, 2).unwrap();
        let strategy = DelayedDoublingStrategy::new(0.5).unwrap();
        let plans = strategy.plans(params).unwrap();
        let fleet = Fleet::from_plans(&plans, strategy.horizon_hint(params, 40.0)).unwrap();
        // T_3(x) = herd first visit + 2 * 0.5 exactly.
        let herd = Plan::sweep(1.0, 2.0).unwrap().materialize(1_000.0).unwrap();
        for x in [1.5, -3.0, 7.0] {
            let lagged = fleet.visit_time(x, 3).unwrap();
            let base = herd.first_visit(x).unwrap();
            assert!((lagged - (base + 1.0)).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    fn delayed_doubling_is_worse_than_paper() {
        let params = Params::new(3, 1).unwrap();
        let strategy = DelayedDoublingStrategy::new(1.0).unwrap();
        let m = super::tests_support::measure(&strategy, params, 40.0).expect("measurable");
        let paper = faultline_core::ratio::cr_upper(params);
        assert!(m > paper, "delayed doubling {m} should lose to the paper {paper}");
    }

    #[test]
    fn mirrored_pairs_cover_both_sides_quickly() {
        let params = Params::new(4, 1).unwrap();
        let plans = MirroredPairsStrategy::new().plans(params).unwrap();
        let fleet = Fleet::from_plans(&plans, 200.0).unwrap();
        // Both sides get a first visit at distance-time 1 for |x| = 1.
        assert_eq!(fleet.visit_time(1.0, 1), Some(1.0));
        assert_eq!(fleet.visit_time(-1.0, 1), Some(1.0));
        // Two robots per side arrive simultaneously (the pairs overlap),
        // so the 2nd distinct visit is also at t = 1.
        assert_eq!(fleet.visit_time(1.0, 2), Some(1.0));
    }
}
