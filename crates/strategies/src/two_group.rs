//! The trivial optimal strategy for `n >= 2f + 2`: two groups of at
//! least `f + 1` robots sweep in opposite directions.

use faultline_core::{Error, Params, Plan, Regime, Result};

use crate::Strategy;

/// Two groups of at least `f + 1` robots each, sent left and right at
/// full speed. Competitive ratio 1 — optimal — but only applicable when
/// `n >= 2f + 2`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TwoGroupStrategy;

impl TwoGroupStrategy {
    /// Creates the strategy.
    #[must_use]
    pub(crate) fn new() -> Self {
        TwoGroupStrategy
    }
}

impl Strategy for TwoGroupStrategy {
    fn name(&self) -> &'static str {
        "two-group"
    }

    fn description(&self) -> String {
        "two groups of >= f+1 robots sweep opposite directions (CR 1, needs n >= 2f+2)".to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        if params.regime() != Regime::TwoGroup {
            return Err(Error::invalid_params(
                params.n(),
                params.f(),
                "two-group strategy requires n >= 2f + 2 (each group needs f + 1 robots)",
            ));
        }
        let right = params.n().div_ceil(2);
        Ok((0..params.n()).map(|i| Plan::ray(i < right)).collect())
    }

    fn analytic_cr(&self, params: Params) -> Option<f64> {
        (params.regime() == Regime::TwoGroup).then_some(1.0)
    }

    fn horizon_hint(&self, _params: Params, xmax: f64) -> f64 {
        1.5 * xmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::coverage::Fleet;

    #[test]
    fn rejects_insufficient_robots() {
        let strategy = TwoGroupStrategy::new();
        assert!(strategy.plans(Params::new(3, 1).unwrap()).is_err());
        assert!(strategy.analytic_cr(Params::new(3, 1).unwrap()).is_none());
    }

    #[test]
    fn achieves_ratio_one() {
        let params = Params::new(6, 2).unwrap();
        let strategy = TwoGroupStrategy::new();
        let plans = strategy.plans(params).unwrap();
        let fleet = Fleet::from_plans(&plans, strategy.horizon_hint(params, 50.0)).unwrap();
        for x in [1.0, -1.0, 25.0, -50.0] {
            let t = fleet.visit_time(x, params.required_visits()).unwrap();
            assert!((t - x.abs()).abs() < 1e-9, "x = {x}");
        }
        assert_eq!(strategy.analytic_cr(params), Some(1.0));
    }

    #[test]
    fn odd_fleet_splits_with_majority_right() {
        let params = Params::new(7, 2).unwrap();
        let plans = TwoGroupStrategy::new().plans(params).unwrap();
        let right = plans.iter().filter(|p| **p == Plan::ray(true)).count();
        let left = plans.iter().filter(|p| **p == Plan::ray(false)).count();
        assert_eq!((right, left), (4, 3));
    }
}
