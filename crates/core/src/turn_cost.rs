//! Extension: search with **turn cost** (after Demaine, Fekete and Gal,
//! *Online searching with turn cost*, cited by the paper as \[19\]).
//!
//! Each direction reversal costs an additional `c >= 0` time units
//! (mechanical deceleration, sensor re-calibration, ...). The cost of
//! finding a target at `x` with `f` faulty robots becomes
//!
//! ```text
//! cost(x) = T_(f+1)(x) + c * turns(x)
//! ```
//!
//! where `turns(x)` counts the reversals performed by the `(f+1)`-st
//! distinct visitor strictly before it reaches `x`. The turn-cost
//! competitive ratio is `sup_x cost(x) / |x|`.
//!
//! The paper leaves this combination (faults × turn cost) open; this
//! module prices one target, and `faultline-analysis::turncost`
//! measures the exact supremum over a window and studies whether the
//! optimal cone parameter drifts as `c` grows.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::trajectory::PiecewiseTrajectory;

/// The turn-cost model: a fixed cost per direction reversal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TurnCost {
    cost_per_turn: f64,
}

impl TurnCost {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for a negative or non-finite cost.
    pub fn new(cost_per_turn: f64) -> Result<Self> {
        if !(cost_per_turn >= 0.0) || !cost_per_turn.is_finite() {
            return Err(Error::domain(format!(
                "turn cost must be finite and non-negative, got {cost_per_turn}"
            )));
        }
        Ok(TurnCost { cost_per_turn })
    }

    /// The zero-cost model (reduces to the paper's setting).
    #[must_use]
    pub fn free() -> Self {
        TurnCost { cost_per_turn: 0.0 }
    }

    /// The per-reversal cost.
    #[must_use]
    pub fn cost_per_turn(&self) -> f64 {
        self.cost_per_turn
    }

    /// Number of reversals a trajectory performs strictly before time
    /// `t`.
    #[must_use]
    pub fn turns_before(&self, traj: &PiecewiseTrajectory, t: f64) -> usize {
        traj.turning_points().iter().filter(|p| p.t < t).count()
    }
}

/// A detection cost breakdown under the turn-cost model.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DetectionCost {
    /// Index of the `(f+1)`-st distinct visitor.
    pub(crate) robot: usize,
    /// Its arrival time at the target.
    pub(crate) time: f64,
    /// Reversals it performed strictly before arrival.
    pub(crate) turns: usize,
    /// Total cost `time + c * turns`.
    pub(crate) cost: f64,
}

#[cfg(test)]
impl TurnCost {
    /// The turn-cost detection cost for target `x` with `k` required
    /// distinct visits: the `k`-th visitor's arrival time plus `c`
    /// times the reversals it made on the way.
    ///
    /// Returns `None` when fewer than `k` robots reach `x` within their
    /// horizons.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] for `k == 0` or an empty
    /// fleet.
    pub(crate) fn detection_cost(
        &self,
        trajectories: &[PiecewiseTrajectory],
        x: f64,
        k: usize,
    ) -> Result<Option<DetectionCost>> {
        if k == 0 || trajectories.is_empty() {
            return Err(Error::invalid_params(
                trajectories.len(),
                k,
                "detection cost needs k >= 1 and a non-empty fleet",
            ));
        }
        let mut arrivals: Vec<(usize, f64)> = trajectories
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.first_visit(x).map(|time| (i, time)))
            .collect();
        arrivals.sort_by(|a, b| a.1.total_cmp(&b.1));
        let Some(&(robot, time)) = arrivals.get(k - 1) else {
            return Ok(None);
        };
        let turns = self.turns_before(&trajectories[robot], time);
        Ok(Some(DetectionCost {
            robot,
            time,
            turns,
            cost: time + self.cost_per_turn * turns as f64,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::params::Params;
    use crate::trajectory::TrajectoryBuilder;
    use proptest::prelude::*;

    fn doubling(horizon_targets: usize) -> PiecewiseTrajectory {
        let mut b = TrajectoryBuilder::from_origin();
        let mut side = 1.0;
        let mut mag = 1.0;
        for _ in 0..horizon_targets {
            b.sweep_to(side * mag);
            side = -side;
            mag *= 2.0;
        }
        b.finish().unwrap()
    }

    #[test]
    fn validates_cost() {
        assert!(TurnCost::new(-1.0).is_err());
        assert!(TurnCost::new(f64::NAN).is_err());
        assert_eq!(TurnCost::free().cost_per_turn(), 0.0);
    }

    #[test]
    fn free_model_reduces_to_plain_detection_time() {
        let t = doubling(10);
        let model = TurnCost::free();
        let d = model.detection_cost(std::slice::from_ref(&t), 3.0, 1).unwrap().unwrap();
        assert_eq!(d.cost, d.time);
        assert_eq!(d.time, t.first_visit(3.0).unwrap());
    }

    #[test]
    fn turns_are_counted_strictly_before_arrival() {
        let t = doubling(10);
        let model = TurnCost::new(1.0).unwrap();
        // Target +3 is reached on the sweep from -2 to 4, after turning
        // at +1 and at -2: exactly 2 turns.
        let d = model.detection_cost(&[t], 3.0, 1).unwrap().unwrap();
        assert_eq!(d.turns, 2);
        assert_eq!(d.cost, d.time + 2.0);
    }

    #[test]
    fn cost_grows_linearly_in_c() {
        let t = doubling(12);
        let base =
            TurnCost::free().detection_cost(std::slice::from_ref(&t), -5.0, 1).unwrap().unwrap();
        for c in [0.5, 1.0, 2.0, 10.0] {
            let model = TurnCost::new(c).unwrap();
            let d = model.detection_cost(std::slice::from_ref(&t), -5.0, 1).unwrap().unwrap();
            assert_eq!(d.turns, base.turns);
            assert!((d.cost - (base.time + c * base.turns as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn kth_visitor_selection_matches_plain_coverage() {
        let params = Params::new(3, 1).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(10.0).unwrap();
        let trajs: Vec<_> = alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
        let fleet = crate::coverage::Fleet::new(trajs.clone()).unwrap();
        let model = TurnCost::free();
        for x in [1.5, -2.5, 7.0] {
            let d = model.detection_cost(&trajs, x, 2).unwrap().unwrap();
            assert!((d.time - fleet.visit_time(x, 2).unwrap()).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn uncovered_targets_reported() {
        let t = TrajectoryBuilder::from_origin().sweep_to(5.0).finish().unwrap();
        let model = TurnCost::new(1.0).unwrap();
        assert!(model.detection_cost(std::slice::from_ref(&t), -2.0, 1).unwrap().is_none());
    }

    #[test]
    fn input_validation() {
        let t = doubling(6);
        let model = TurnCost::free();
        assert!(model.detection_cost(&[], 1.0, 1).is_err());
        assert!(model.detection_cost(std::slice::from_ref(&t), 1.0, 0).is_err());
    }

    #[test]
    fn larger_expansion_pays_fewer_turns() {
        // The expansion factor kappa = (beta+1)/(beta-1) DEcreases in
        // beta: a small beta means huge excursions and few reversals, a
        // large beta means tight oscillation and many reversals before
        // reaching a far target — the trade-off the turn-cost
        // experiment quantifies.
        let params = Params::new(3, 1).unwrap();
        let few_turns = Algorithm::design_with_beta(params, 1.2).unwrap(); // kappa = 11
        let many_turns = Algorithm::design_with_beta(params, 4.0).unwrap(); // kappa = 5/3
        let x = 40.0;
        let count = |alg: &Algorithm| {
            let horizon = alg.required_horizon(50.0).unwrap();
            let trajs: Vec<_> =
                alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
            TurnCost::free().detection_cost(&trajs, x, 2).unwrap().unwrap().turns
        };
        assert!(count(&many_turns) > count(&few_turns));
    }

    /// Valid proportional-regime parameters (`f < n < 2f + 2`).
    fn proportional_params() -> impl Strategy<Value = Params> {
        (1usize..24).prop_flat_map(|f| {
            ((f + 1)..(2 * f + 2)).prop_map(move |n| Params::new(n, f).expect("valid by range"))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Turn-cost detection costs are consistent: non-negative turn
        /// counts, cost = time + c * turns, monotone in c, and equal to the
        /// plain detection time at c = 0.
        #[test]
        fn turn_cost_consistency(
            params in proportional_params(),
            x in 1.0f64..15.0,
            c in 0.0f64..5.0,
        ) {
            let alg = Algorithm::design(params).unwrap();
            let horizon = alg.required_horizon(16.0).unwrap();
            let trajs: Vec<_> = alg
                .plans()
                .iter()
                .map(|p| p.materialize(horizon).unwrap())
                .collect();
            let k = params.required_visits();
            let free = TurnCost::free().detection_cost(&trajs, x, k).unwrap().unwrap();
            let priced = TurnCost::new(c).unwrap().detection_cost(&trajs, x, k).unwrap().unwrap();
            prop_assert_eq!(free.robot, priced.robot);
            prop_assert_eq!(free.turns, priced.turns);
            prop_assert!((priced.cost - (free.time + c * free.turns as f64)).abs() < 1e-9);
            prop_assert!(free.cost == free.time);
        }
    }
}
