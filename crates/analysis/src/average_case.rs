//! Average-case analysis: the expected ratio `E[K(x)]` for a target
//! drawn log-uniformly from `[1, X]` (random side), computed **exactly**
//! from the affine pieces of `T_(f+1)` — and cross-validated against
//! the piecewise closed form of [`faultline_core::ClosedForm`] and the
//! Monte-Carlo simulator.
//!
//! The log-uniform law matches the simulator's sampling
//! ([`faultline_sim::run_sweep`]): `x = ±exp(U)`,
//! `U ~ Uniform[0, ln X]`, so
//!
//! ```text
//! E[K] = (1 / (2 ln X)) * ∫_1^X (K(x) + K(-x)) dx / x .
//! ```
//!
//! On a piece `[lo, hi]` where `T_(f+1)(x) = s·x + b`, the integral is
//! `s·ln(hi/lo) + b·(1/lo − 1/hi)`, so the expectation is a finite sum
//! with no quadrature error, jumps of `K` included.
//!
//! This quantifies how pessimistic the worst case is: typical targets
//! cost well under half the competitive ratio.

use faultline_core::{Algorithm, Fleet, Params, Result};
use serde::{Deserialize, Serialize};

use crate::exact::kth_pieces;

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

/// Computes the exact expected ratio of the paper's algorithm over the
/// log-uniform law: the closed-form integral of each affine piece of
/// `T_(f+1)` over the closed window `1 <= |x| <= xmax`.
///
/// # Errors
///
/// Fails outside the proportional regime, for `xmax <= 1`, and when
/// the fleet leaves part of the window uncovered.
pub fn exact_average(params: Params, xmax: f64) -> Result<AverageCase> {
    if !(xmax > 1.0) {
        return Err(faultline_core::Error::domain(format!(
            "average-case analysis needs xmax > 1, got {xmax}"
        )));
    }
    let alg = Algorithm::design(params)?;
    if alg.schedule().is_none() {
        return Err(faultline_core::Error::invalid_params(
            params.n(),
            params.f(),
            "average-case analysis needs the proportional regime",
        ));
    }
    let fleet = Fleet::from_plans(&alg.plans(), alg.required_horizon(xmax)?)?;
    let mut integral = 0.0;
    let uncovered = kth_pieces(fleet.trajectories(), params.required_visits(), xmax, true, |p| {
        integral +=
            p.visit.slope * (p.hi / p.lo).ln() + p.visit.intercept * (1.0 / p.lo - 1.0 / p.hi);
    })?;
    if uncovered > 0 {
        return Err(faultline_core::Error::domain(format!(
            "average-case analysis: {uncovered} intervals of [1, {xmax}] are uncovered"
        )));
    }
    Ok(AverageCase {
        n: params.n(),
        f: params.f(),
        xmax,
        expected: integral / (2.0 * xmax.ln()),
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
            let avg = exact_average(params, 100.0).unwrap();
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
        // Cross-validate the exact sum against sampled targets, each
        // detected at T_(f+1) by the worst-case adversary.
        let params = Params::new(3, 1).unwrap();
        let xmax = 50.0;
        let exact = exact_average(params, xmax).unwrap();

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
        let a = exact_average(params, 1e4).unwrap().expected;
        let b = exact_average(params, 1e6).unwrap().expected;
        assert!((a - b).abs() < 0.02, "{a} vs {b}");
    }

    /// A 10^6-point log-midpoint sum of [`ClosedForm::ratio_at`], its
    /// panels split at the ladder points where `K` jumps, so that the
    /// rule converges on every panel.
    fn closed_form_average(params: Params, xmax: f64) -> f64 {
        let alg = Algorithm::design(params).unwrap();
        let schedule = alg.schedule().unwrap();
        let cf = faultline_core::ClosedForm::new(schedule);
        let (ln_r, top) = (schedule.ratio().ln(), xmax.ln());
        let mut sum = 0.0;
        // The negative side's ladder is shifted by n/2 steps.
        for (side, offset) in [(1.0, 0.0), (-1.0, schedule.n() as f64 / 2.0)] {
            let mut cuts = vec![0.0];
            for j in -(schedule.n() as i32).. {
                let u = schedule.base().ln() + (j as f64 + offset) * ln_r;
                if u >= top {
                    break;
                }
                if u > 0.0 {
                    cuts.push(u);
                }
            }
            cuts.push(top);
            for w in cuts.windows(2) {
                let points = (500_000.0 * (w[1] - w[0]) / top).ceil();
                let h = (w[1] - w[0]) / points;
                for i in 0..points as usize {
                    let x = (w[0] + (i as f64 + 0.5) * h).exp();
                    sum += h * cf.ratio_at(side * x, params.f()).unwrap();
                }
            }
        }
        sum / (2.0 * top)
    }

    #[test]
    fn exact_average_matches_a_dense_closed_form_sum() {
        for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 2), (5, 3), (11, 5)] {
            let params = Params::new(n, f).unwrap();
            let exact = exact_average(params, 100.0).unwrap().expected;
            let reference = closed_form_average(params, 100.0);
            assert!((exact - reference).abs() < 1e-9, "(n = {n}, f = {f}): {exact} vs {reference}");
        }
    }

    #[test]
    fn validates_inputs() {
        let params = Params::new(3, 1).unwrap();
        assert!(exact_average(params, 1.0).is_err());
        assert!(exact_average(Params::new(4, 1).unwrap(), 10.0).is_err());
    }
}
