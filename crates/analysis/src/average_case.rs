//! Average-case analysis: the expected ratio `E[K(x)]` for a target
//! drawn log-uniformly from `[1, X]` (random side), computed **exactly**
//! by integrating the piecewise closed form of
//! [`faultline_core::ClosedForm`] — and cross-validated against the
//! Monte-Carlo simulator.
//!
//! The log-uniform law matches the simulator's sampling
//! ([`faultline_sim::run_sweep`]): `x = ±exp(U)`,
//! `U ~ Uniform[0, ln X]`, so
//!
//! ```text
//! E[K] = (1 / (2 ln X)) * ∫_0^{ln X} (K(e^u) + K(-e^u)) du .
//! ```
//!
//! This quantifies how pessimistic the worst case is: typical targets
//! cost well under half the competitive ratio.

use faultline_core::closed_form::ClosedForm;
use faultline_core::{numeric, Algorithm, Params, Result};
use serde::{Deserialize, Serialize};

/// Exact and worst-case ratios for one parameter pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AverageCase {
    /// Robots.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// The log-uniform range upper end `X`.
    pub xmax: f64,
    /// Exact expected ratio `E[K(x)]` under the worst-case fault
    /// adversary.
    pub expected: f64,
    /// Theorem 1's worst-case competitive ratio.
    pub worst_case: f64,
}

impl AverageCase {
    /// How much the worst case overstates the typical cost.
    #[must_use]
    pub fn pessimism(&self) -> f64 {
        self.worst_case / self.expected
    }
}

/// Computes the exact expected ratio by Simpson integration of the
/// closed form over the log-uniform law.
///
/// # Errors
///
/// Fails outside the proportional regime or for `xmax <= 1`.
pub fn exact_average(params: Params, xmax: f64, panels: usize) -> Result<AverageCase> {
    if !(xmax > 1.0) {
        return Err(faultline_core::Error::domain(format!(
            "average-case analysis needs xmax > 1, got {xmax}"
        )));
    }
    let alg = Algorithm::design(params)?;
    let schedule = alg.schedule().ok_or_else(|| {
        faultline_core::Error::invalid_params(
            params.n(),
            params.f(),
            "average-case closed form needs the proportional regime",
        )
    })?;
    let cf = ClosedForm::new(schedule);
    let f = params.f();
    let integrand = |u: f64| {
        let x = u.exp();
        let right = cf.ratio_at(x, f).expect("x >= 1 in range");
        let left = cf.ratio_at(-x, f).expect("x >= 1 in range");
        0.5 * (right + left)
    };
    // Node evaluations run on the work-stealing engine; the result is
    // bit-identical to the serial Simpson rule.
    let integral = numeric::integrate_simpson_par(integrand, 0.0, xmax.ln(), panels)?;
    Ok(AverageCase {
        n: params.n(),
        f: params.f(),
        xmax,
        expected: integral / xmax.ln(),
        worst_case: faultline_core::ratio::cr_upper(params),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_strategies::{PaperStrategy, Strategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expected_is_between_beta_and_worst_case() {
        for (n, f) in [(2usize, 1usize), (3, 1), (5, 2), (5, 3)] {
            let params = Params::new(n, f).unwrap();
            let avg = exact_average(params, 100.0, 4096).unwrap();
            let beta = faultline_core::ratio::optimal_beta(params).unwrap();
            assert!(
                avg.expected > beta,
                "(n={n}, f={f}): E[K] = {} below the cone floor beta = {beta}",
                avg.expected
            );
            assert!(avg.expected < avg.worst_case, "(n={n}, f={f})");
            assert!(avg.pessimism() > 1.0);
        }
    }

    #[test]
    fn exact_average_matches_monte_carlo() {
        // Cross-validate the Simpson/closed-form path against the
        // discrete-event simulator with the worst-case adversary,
        // emulated by Bernoulli-with-budget... no: use the adversarial
        // detection directly via coverage on sampled targets.
        let params = Params::new(3, 1).unwrap();
        let xmax = 50.0;
        let exact = exact_average(params, xmax, 8192).unwrap();

        // Monte Carlo with the same target law and the worst-case
        // adversary: sample x, evaluate T_2(x)/x via the fleet.
        use rand::Rng;
        let strategy = PaperStrategy::new();
        let plans = strategy.plans(params).unwrap();
        let horizon = strategy.horizon_hint(params, xmax * 1.01);
        let fleet = faultline_core::Fleet::from_plans(&plans, horizon).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let samples = 20_000;
        let mut sum = 0.0;
        for _ in 0..samples {
            let x = rng.random_range(0.0..xmax.ln()).exp();
            let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let t = fleet.visit_time(side * x, 2).unwrap();
            sum += t / x;
        }
        let mc = sum / samples as f64;
        assert!((mc - exact.expected).abs() < 0.03, "Monte Carlo {mc} vs exact {}", exact.expected);
    }

    #[test]
    fn average_is_insensitive_to_xmax_for_large_ranges() {
        // K is multiplicatively periodic in x (period r on each side),
        // so the log-uniform average converges as X spans many periods.
        let params = Params::new(3, 1).unwrap();
        let a = exact_average(params, 1e4, 16_384).unwrap().expected;
        let b = exact_average(params, 1e6, 16_384).unwrap().expected;
        assert!((a - b).abs() < 0.02, "{a} vs {b}");
    }

    #[test]
    fn validates_inputs() {
        let params = Params::new(3, 1).unwrap();
        assert!(exact_average(params, 1.0, 128).is_err());
        assert!(exact_average(Params::new(4, 1).unwrap(), 10.0, 128).is_err());
    }
}
