//! The paper's strategies: `A(n, f)` with the optimal cone parameter,
//! a fixed-`beta` ablation variant, and the regime-dispatching
//! "paper" strategy.

use faultline_core::{Algorithm, Params, Plan, Regime, Result};

use crate::Strategy;

/// The proportional schedule algorithm `A(n, f)` with the optimal
/// `beta* = (4f+4)/n - 1` (Theorem 1). Only valid in the proportional
/// regime `f < n < 2f + 2`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProportionalStrategy;

impl ProportionalStrategy {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        ProportionalStrategy
    }
}

impl Strategy for ProportionalStrategy {
    fn name(&self) -> &'static str {
        "proportional"
    }

    fn description(&self) -> String {
        "proportional schedule A(n, f) with optimal beta (Theorem 1)".to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        // Force the proportional construction even where two-group would
        // apply is not allowed here; that dispatch lives in PaperStrategy.
        faultline_core::ratio::optimal_beta(params)?;
        Ok(Algorithm::design(params)?.plans())
    }

    fn analytic_cr(&self, params: Params) -> Option<f64> {
        (params.regime() == Regime::Proportional).then(|| faultline_core::ratio::cr_upper(params))
    }

    fn horizon_hint(&self, params: Params, xmax: f64) -> f64 {
        Algorithm::design(params)
            .and_then(|a| a.required_horizon(xmax.max(1.0 + 1e-6)))
            .unwrap_or(32.0 * xmax)
    }
}

/// A proportional schedule with an explicitly chosen (possibly
/// sub-optimal) `beta` — the knob behind the beta-ablation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedBetaStrategy {
    beta: f64,
}

impl FixedBetaStrategy {
    /// Creates the strategy with the given cone parameter.
    ///
    /// # Errors
    ///
    /// Returns [`faultline_core::Error::InvalidBeta`] for `beta <= 1`.
    pub fn new(beta: f64) -> Result<Self> {
        faultline_core::Cone::new(beta)?;
        Ok(FixedBetaStrategy { beta })
    }

    /// The cone parameter.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Strategy for FixedBetaStrategy {
    fn name(&self) -> &'static str {
        "fixed-beta"
    }

    fn description(&self) -> String {
        format!("proportional schedule with fixed beta = {} (ablation)", self.beta)
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        Ok(Algorithm::design_with_beta(params, self.beta)?.plans())
    }

    fn analytic_cr(&self, params: Params) -> Option<f64> {
        faultline_core::ratio::cr_of_beta(params, self.beta).ok()
    }

    fn horizon_hint(&self, params: Params, xmax: f64) -> f64 {
        Algorithm::design_with_beta(params, self.beta)
            .and_then(|a| a.required_horizon(xmax.max(1.0 + 1e-6)))
            .unwrap_or(32.0 * xmax)
    }
}

/// The complete algorithm of the paper, dispatching by regime:
/// two-group when `n >= 2f + 2`, proportional `A(n, f)` otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperStrategy;

impl PaperStrategy {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        PaperStrategy
    }
}

impl Strategy for PaperStrategy {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn description(&self) -> String {
        "the paper's algorithm: two-group for n >= 2f+2, proportional A(n, f) otherwise".to_owned()
    }

    fn plans(&self, params: Params) -> Result<Vec<Plan>> {
        Ok(Algorithm::design(params)?.plans())
    }

    fn analytic_cr(&self, params: Params) -> Option<f64> {
        Some(faultline_core::ratio::cr_upper(params))
    }

    fn horizon_hint(&self, params: Params, xmax: f64) -> f64 {
        Algorithm::design(params)
            .and_then(|a| a.required_horizon(xmax.max(1.0 + 1e-6)))
            .unwrap_or(32.0 * xmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::coverage::Fleet;

    #[test]
    fn proportional_rejects_two_group_regime() {
        let strategy = ProportionalStrategy::new();
        assert!(strategy.plans(Params::new(4, 1).unwrap()).is_err());
        assert!(strategy.analytic_cr(Params::new(4, 1).unwrap()).is_none());
    }

    #[test]
    fn paper_strategy_handles_both_regimes() {
        let strategy = PaperStrategy::new();
        let trivial = Params::new(4, 1).unwrap();
        assert_eq!(strategy.analytic_cr(trivial), Some(1.0));
        assert_eq!(strategy.plans(trivial).unwrap().len(), 4);

        let hard = Params::new(3, 1).unwrap();
        let cr = strategy.analytic_cr(hard).unwrap();
        assert!((cr - 5.233).abs() < 1e-3);
    }

    #[test]
    fn fixed_beta_matches_optimal_at_beta_star() {
        let params = Params::new(3, 1).unwrap();
        let optimal = ProportionalStrategy::new();
        let fixed = FixedBetaStrategy::new(5.0 / 3.0).unwrap();
        let a = optimal.analytic_cr(params).unwrap();
        let b = fixed.analytic_cr(params).unwrap();
        assert!((a - b).abs() < 1e-12);
        assert_eq!(fixed.beta(), 5.0 / 3.0);
    }

    #[test]
    fn fixed_beta_is_worse_off_optimum() {
        let params = Params::new(3, 1).unwrap();
        let optimal_cr = ProportionalStrategy::new().analytic_cr(params).unwrap();
        for beta in [1.2, 2.5, 4.0] {
            let cr = FixedBetaStrategy::new(beta).unwrap().analytic_cr(params).unwrap();
            assert!(cr > optimal_cr, "beta = {beta}");
        }
        assert!(FixedBetaStrategy::new(1.0).is_err());
    }

    #[test]
    fn fixed_beta_fleet_respects_its_analytic_cr() {
        let params = Params::new(3, 1).unwrap();
        let strategy = FixedBetaStrategy::new(2.5).unwrap();
        let plans = strategy.plans(params).unwrap();
        let horizon = strategy.horizon_hint(params, 20.0);
        let fleet = Fleet::from_plans(&plans, horizon).unwrap();
        let cr = strategy.analytic_cr(params).unwrap();
        for x in [1.0, -2.0, 5.5, -19.0] {
            let t = fleet.visit_time(x, 2).unwrap();
            assert!(t / x.abs() <= cr + 1e-9, "x = {x}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ProportionalStrategy::new().name(), "proportional");
        assert_eq!(PaperStrategy::new().name(), "paper");
        assert_eq!(FixedBetaStrategy::new(2.0).unwrap().name(), "fixed-beta");
    }
}
