//! The paper's complete algorithm for every parameter regime: the
//! trivial two-group strategy for `n >= 2f + 2` and the proportional
//! schedule algorithm `A(n, f)` for `f < n < 2f + 2` (Definition 4,
//! Theorem 1).

use crate::error::{Error, Result};
use crate::params::{Params, Regime};
use crate::plan::Plan;
use crate::ratio;
use crate::schedule::ProportionalSchedule;

/// A fully designed search algorithm for a validated `(n, f)` pair.
///
/// ```
/// use faultline_core::{Algorithm, Params};
/// let alg = Algorithm::design(Params::new(5, 2)?)?;
/// assert!((alg.analytic_cr() - 4.434).abs() < 1e-3);
/// assert_eq!(alg.plans().len(), 5);
/// # Ok::<(), faultline_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm {
    params: Params,
    inner: Inner,
}

#[derive(Debug, Clone, PartialEq)]
enum Inner {
    /// Two groups of at least `f + 1` robots sent in opposite directions.
    TwoGroup { right: usize, left: usize },
    /// Proportional schedule `S_beta(n)` with per-robot plans from
    /// Definition 4.
    Proportional(ProportionalSchedule),
}

impl Algorithm {
    /// Designs the paper's algorithm for `params`: two-group when
    /// `n >= 2f + 2`, otherwise `A(n, f)` with the optimal
    /// `beta* = (4f+4)/n - 1`.
    ///
    /// # Errors
    ///
    /// Never fails for validated [`Params`]; the `Result` accommodates
    /// downstream construction errors.
    pub fn design(params: Params) -> Result<Self> {
        match params.regime() {
            Regime::TwoGroup => {
                // Split as evenly as possible; both halves have >= f + 1
                // robots because n >= 2f + 2.
                let right = params.n().div_ceil(2);
                let left = params.n() - right;
                debug_assert!(right > params.f() && left > params.f());
                Ok(Algorithm { params, inner: Inner::TwoGroup { right, left } })
            }
            Regime::Proportional => {
                let beta = ratio::optimal_beta(params)?;
                let schedule = ProportionalSchedule::new(params.n(), beta)?;
                Ok(Algorithm { params, inner: Inner::Proportional(schedule) })
            }
        }
    }

    /// Designs a proportional schedule algorithm with an explicit,
    /// possibly sub-optimal `beta` — the knob used by the beta-ablation
    /// experiment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBeta`] for `beta <= 1`.
    pub fn design_with_beta(params: Params, beta: f64) -> Result<Self> {
        let schedule = ProportionalSchedule::new(params.n(), beta)?;
        Ok(Algorithm { params, inner: Inner::Proportional(schedule) })
    }

    /// The parameters the algorithm was designed for.
    #[must_use]
    pub fn params(&self) -> Params {
        self.params
    }

    /// The underlying proportional schedule, when in that regime.
    #[must_use]
    pub fn schedule(&self) -> Option<&ProportionalSchedule> {
        match &self.inner {
            Inner::Proportional(s) => Some(s),
            Inner::TwoGroup { .. } => None,
        }
    }

    /// Per-robot motion plans, one per robot, in robot order.
    #[must_use]
    pub fn plans(&self) -> Vec<Plan> {
        match &self.inner {
            Inner::TwoGroup { right, left } => {
                (0..right + left).map(|i| Plan::ray(i < *right)).collect()
            }
            Inner::Proportional(schedule) => schedule.plans(),
        }
    }

    /// The analytic competitive ratio of the designed algorithm:
    /// 1 for the two-group regime, Lemma 5's closed form otherwise.
    #[must_use]
    pub fn analytic_cr(&self) -> f64 {
        match &self.inner {
            Inner::TwoGroup { .. } => 1.0,
            Inner::Proportional(s) => s.competitive_ratio(self.params.f()),
        }
    }

    /// A horizon guaranteed to contain the `(f+1)`-st visit of every
    /// target with `1 <= |x| <= xmax`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for `xmax <= 1`.
    pub fn required_horizon(&self, xmax: f64) -> Result<f64> {
        if !(xmax > 1.0) {
            return Err(Error::domain(format!("xmax must exceed 1, got {xmax}")));
        }
        Ok(match &self.inner {
            Inner::TwoGroup { .. } => xmax * 1.5,
            Inner::Proportional(s) => s.required_horizon(self.params.f() + 1, xmax),
        })
    }

    /// Human-readable description of the designed algorithm.
    #[must_use]
    pub fn describe(&self) -> String {
        match &self.inner {
            Inner::TwoGroup { right, left } => format!(
                "two-group strategy for {}: {right} robots right, {left} robots left, CR = 1",
                self.params
            ),
            Inner::Proportional(s) => format!(
                "proportional schedule A{} with beta = {:.6}, expansion factor {:.6}, CR = {:.6}",
                self.params,
                s.beta(),
                s.expansion_factor(),
                self.analytic_cr()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Fleet;
    use crate::numeric::approx_eq;

    #[test]
    fn two_group_design_splits_evenly() {
        let alg = Algorithm::design(Params::new(7, 2).unwrap()).unwrap();
        assert_eq!(alg.analytic_cr(), 1.0);
        assert_eq!(alg.plans().len(), 7);
        assert!(alg.schedule().is_none());
        assert!(alg.describe().contains("two-group"));
    }

    #[test]
    fn two_group_fleet_achieves_ratio_one() {
        let params = Params::new(6, 2).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(50.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        for x in [1.0, -1.0, 10.0, -49.0] {
            let t = fleet.visit_time(x, params.f() + 1).unwrap();
            assert!(approx_eq(t, x.abs(), 1e-12), "x = {x}");
        }
    }

    #[test]
    fn proportional_design_uses_optimal_beta() {
        let alg = Algorithm::design(Params::new(3, 1).unwrap()).unwrap();
        let s = alg.schedule().unwrap();
        assert!(approx_eq(s.beta(), 5.0 / 3.0, 1e-12));
        assert!(approx_eq(alg.analytic_cr(), 5.233, 1e-3));
        assert!(alg.describe().contains("proportional"));
    }

    #[test]
    fn design_with_beta_is_suboptimal() {
        let params = Params::new(3, 1).unwrap();
        let optimal = Algorithm::design(params).unwrap();
        for beta in [1.2, 1.4, 2.0, 3.0, 5.0] {
            let ablated = Algorithm::design_with_beta(params, beta).unwrap();
            assert!(
                ablated.analytic_cr() >= optimal.analytic_cr() - 1e-12,
                "beta = {beta} beat the optimum"
            );
        }
        assert!(Algorithm::design_with_beta(params, 1.0).is_err());
    }

    #[test]
    fn plans_count_matches_n() {
        for (n, f) in [(1usize, 0usize), (2, 1), (3, 2), (5, 2), (8, 3), (9, 1)] {
            let alg = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
            assert_eq!(alg.plans().len(), n, "(n = {n}, f = {f})");
        }
    }

    #[test]
    fn required_horizon_validates() {
        let alg = Algorithm::design(Params::new(3, 1).unwrap()).unwrap();
        assert!(alg.required_horizon(1.0).is_err());
        assert!(alg.required_horizon(10.0).unwrap() > 10.0);
    }

    #[test]
    fn single_robot_design_is_doubling() {
        let alg = Algorithm::design(Params::new(1, 0).unwrap()).unwrap();
        let s = alg.schedule().unwrap();
        assert!(approx_eq(s.beta(), 3.0, 1e-12));
        assert!(approx_eq(s.expansion_factor(), 2.0, 1e-12));
        assert!(approx_eq(alg.analytic_cr(), 9.0, 1e-12));
    }
}
