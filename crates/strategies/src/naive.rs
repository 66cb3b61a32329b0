//! Deliberately weak baselines that demonstrate *why* the problem is
//! non-trivial: strategies that ignore the fault budget and pay for it
//! with an unbounded competitive ratio.

use faultline_core::{Params, Plan, Result};

use crate::Strategy;

/// Splits the fleet into two opposite sweeping groups regardless of
/// `f`.
///
/// Correct (CR 1) when both groups have at least `f + 1` robots, but
/// when `n < 2f + 2` the adversary concentrates its faults in one group
/// and the target on that group's side is **never** confirmed: the
/// competitive ratio is unbounded. This is the canonical mistake the
/// paper's proportional schedules exist to avoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PessimalSplitStrategy;

impl PessimalSplitStrategy {
    /// Creates the strategy.
    #[must_use]
    pub(crate) fn new() -> Self {
        PessimalSplitStrategy
    }

    /// Whether the split is actually safe for these parameters.
    #[must_use]
    pub(crate) fn is_safe(&self, params: Params) -> bool {
        params.n() / 2 > params.f()
    }
}

impl Strategy for PessimalSplitStrategy {
    fn name(&self) -> &'static str {
        "pessimal-split"
    }

    fn description(&self) -> String {
        "always split into two sweeping groups, ignoring f (unbounded CR when n < 2f+2)".to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        let right = params.n().div_ceil(2);
        Ok((0..params.n()).map(|i| Plan::ray(i < right)).collect())
    }

    fn analytic_cr(&self, params: Params) -> Option<f64> {
        self.is_safe(params).then_some(1.0)
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
    fn safe_when_groups_are_large_enough() {
        let strategy = PessimalSplitStrategy::new();
        assert!(strategy.is_safe(Params::new(6, 2).unwrap()));
        assert_eq!(strategy.analytic_cr(Params::new(6, 2).unwrap()), Some(1.0));
    }

    #[test]
    fn unsafe_when_fault_budget_exceeds_group_size() {
        let strategy = PessimalSplitStrategy::new();
        let params = Params::new(3, 1).unwrap(); // groups of 2 and 1
        assert!(!strategy.is_safe(params));
        assert_eq!(strategy.analytic_cr(params), None);

        // Demonstrate the failure: with the left group of size 1 <= f,
        // a left-side target is never visited by f + 1 = 2 robots.
        let plans = strategy.plans(params).unwrap();
        let fleet = Fleet::from_plans(&plans, 100.0).unwrap();
        assert_eq!(fleet.visit_time(-5.0, 2), None);
        // The right side is fine (2 robots sweep right).
        assert_eq!(fleet.visit_time(5.0, 2), Some(5.0));
    }
}
