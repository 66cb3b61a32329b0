//! Doubling baselines: the classical cow-path strategy of Beck and
//! Bellman, run by a single robot or a whole herd, and a staggered
//! per-robot variant.

use faultline_core::{Params, Plan, Result};

use crate::Strategy;

/// All `n` robots move together following the classic doubling
/// trajectory.
///
/// The paper remarks (Section 1.1) that "a competitive ratio of 9 is
/// also achieved by all robots starting at the same time, and moving
/// together while following a doubling strategy" — every point is
/// visited by all `n` robots at once, so any `f < n` faults are
/// harmless and the ratio is the single-robot 9 regardless of `f`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HerdDoublingStrategy;

impl HerdDoublingStrategy {
    /// Creates the strategy.
    #[must_use]
    pub(crate) fn new() -> Self {
        HerdDoublingStrategy
    }
}

impl Strategy for HerdDoublingStrategy {
    fn name(&self) -> &'static str {
        "herd-doubling"
    }

    fn description(&self) -> String {
        "all robots move together following the classic doubling strategy (CR 9 for any f < n)"
            .to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        Ok(vec![Plan::sweep(1.0, 2.0)?; params.n()])
    }

    fn analytic_cr(&self, _params: Params) -> Option<f64> {
        Some(9.0)
    }
}

/// Each robot runs a doubling strategy with its first leg staggered
/// geometrically: robot `i` starts with first leg `2^(i/n)`.
///
/// A plausible hand-rolled heuristic that spreads the robots without
/// the cone discipline of the paper's proportional schedules; its
/// competitive ratio is measured empirically and is consistently worse
/// than `A(n, f)` — the motivating ablation for Definition 4's careful
/// seed placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StaggeredDoublingStrategy;

impl StaggeredDoublingStrategy {
    /// Creates the strategy.
    #[must_use]
    pub(crate) fn new() -> Self {
        StaggeredDoublingStrategy
    }
}

impl Strategy for StaggeredDoublingStrategy {
    fn name(&self) -> &'static str {
        "staggered-doubling"
    }

    fn description(&self) -> String {
        "each robot doubles with first leg 2^(i/n): spread out, but without cone discipline"
            .to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        let n = params.n();
        (0..n)
            .map(|i| {
                let first = 2.0_f64.powf(i as f64 / n as f64);
                // Alternate the initial direction so both sides are
                // covered early.
                let signed = if i % 2 == 0 { first } else { -first };
                Plan::sweep(signed, 2.0)
            })
            .collect()
    }

    fn analytic_cr(&self, _params: Params) -> Option<f64> {
        None // measured empirically
    }

    fn horizon_hint(&self, _params: Params, xmax: f64) -> f64 {
        40.0 * xmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::coverage::Fleet;
    use faultline_core::Params;

    #[test]
    fn classic_doubling_turning_points() {
        let plan = Plan::sweep(1.0, 2.0).unwrap();
        let traj = plan.materialize(100.0).unwrap();
        let xs: Vec<f64> = traj.turning_points().iter().map(|p| p.x).collect();
        assert_eq!(&xs[..5], &[1.0, -2.0, 4.0, -8.0, 16.0]);
        // Full speed from the start.
        for leg in traj.waypoints().windows(2) {
            let speed = (leg[1].x - leg[0].x).abs() / (leg[1].t - leg[0].t);
            assert!((speed - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_doubling_worst_ratio_approaches_nine() {
        let plan = Plan::sweep(1.0, 2.0).unwrap();
        let traj = plan.materialize(100_000.0).unwrap();
        // Target just past turning point 2^k on the positive side.
        let x = 1024.0 + 1e-6;
        let ratio = traj.first_visit(x).unwrap() / x;
        assert!((ratio - 9.0).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn plan_validation() {
        assert!(Plan::sweep(0.0, 2.0).is_err());
        assert!(Plan::sweep(f64::INFINITY, 2.0).is_err());
        assert!(Plan::sweep(1.0, 1.0).is_err());
        assert!(Plan::sweep(1.0, 0.5).is_err());
        assert!(Plan::sweep(1.0, 2.0).unwrap().materialize(-1.0).is_err());
    }

    #[test]
    fn herd_doubling_has_ratio_nine_under_adversary() {
        let params = Params::new(3, 2).unwrap();
        let strategy = HerdDoublingStrategy::new();
        let plans = strategy.plans(params).unwrap();
        assert_eq!(plans.len(), 3);
        let fleet = Fleet::from_plans(&plans, 100_000.0).unwrap();
        // All robots coincide: T_(f+1) = T_1 and the worst ratio is 9-ish.
        // Positive turning points of doubling sit at powers of 4; the
        // worst case is just past one of them.
        let x = 1024.0 + 1e-6;
        let t = fleet.visit_time(x, 3).unwrap();
        assert!((t / x - 9.0).abs() < 0.05);
    }

    #[test]
    fn staggered_plans_are_distinct() {
        let params = Params::new(4, 2).unwrap();
        let plans = StaggeredDoublingStrategy::new().plans(params).unwrap();
        assert_eq!(plans.len(), 4);
        for (i, a) in plans.iter().enumerate() {
            assert!(plans[i + 1..].iter().all(|b| a != b), "each robot gets its own first leg");
        }
    }

    #[test]
    fn negative_first_leg_starts_left() {
        let plan = Plan::sweep(-1.0, 2.0).unwrap();
        let traj = plan.materialize(50.0).unwrap();
        assert_eq!(traj.first_visit(-1.0), Some(1.0));
        assert_eq!(traj.first_visit(2.0), Some(4.0));
    }
}
