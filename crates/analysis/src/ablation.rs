//! Ablation experiments for the design choices called out in DESIGN.md:
//!
//! * **A1 — beta sweep**: the closed-form optimum `beta* = (4f+4)/n - 1`
//!   really minimizes the competitive ratio; sweeping `beta` shows the
//!   bowl shape and its minimum.
//! * **A3 — fault misestimation**: running `A(n, f_design)` against a
//!   true fault count `f_true != f_design` quantifies the price of a
//!   wrong fault budget (A2, the expansion-factor identities, is a pure
//!   closed-form check covered by unit tests in `faultline-core`).

use faultline_core::{numeric, ratio, Params, ProportionalSchedule, Result};
use faultline_strategies::FixedBetaStrategy;
use serde::{Deserialize, Serialize};

use crate::supremum::measure_strategy_cr;

/// One sample of the beta-ablation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaSample {
    /// The swept cone parameter.
    pub beta: f64,
    /// Closed-form competitive ratio at this `beta` (Lemma 5).
    pub analytic: f64,
    /// Empirically measured supremum, when requested.
    pub measured: Option<f64>,
}

/// Result of the beta ablation for one `(n, f)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BetaAblation {
    /// The parameters swept.
    pub(crate) n: usize,
    /// Fault budget.
    pub(crate) f: usize,
    /// The closed-form optimum `beta*`.
    pub beta_star: f64,
    /// Competitive ratio at `beta*`.
    pub cr_star: f64,
    /// Sweep samples, in increasing `beta`.
    pub samples: Vec<BetaSample>,
}

/// Sweeps `beta` over a geometric neighbourhood of `beta*` and records
/// the analytic (and optionally measured) competitive ratio.
///
/// # Errors
///
/// Propagates parameter and measurement failures.
pub fn beta_sweep(params: Params, points: usize, measure: bool) -> Result<BetaAblation> {
    let beta_star = ratio::optimal_beta(params)?;
    let lo = 1.0 + 0.25 * (beta_star - 1.0);
    let hi = 1.0 + 4.0 * (beta_star - 1.0);
    let betas: Vec<f64> =
        numeric::logspace(lo - 1.0, hi - 1.0, points)?.into_iter().map(|d| 1.0 + d).collect();
    // Measurement cost rises with beta (larger cones → longer horizons),
    // so the sweep runs on the work-stealing engine rather than in
    // contiguous per-core chunks.
    let samples: Vec<BetaSample> = faultline_core::par_map(&betas, |&beta| {
        let analytic = ratio::cr_of_beta(params, beta)?;
        let measured = if measure {
            let strategy = FixedBetaStrategy::new(beta)?;
            Some(measure_strategy_cr(&strategy, params, 30.0)?.empirical)
        } else {
            None
        };
        Ok(BetaSample { beta, analytic, measured })
    })
    .into_iter()
    .collect::<Result<_>>()?;
    Ok(BetaAblation {
        n: params.n(),
        f: params.f(),
        beta_star,
        cr_star: ratio::cr_of_beta(params, beta_star)?,
        samples,
    })
}

/// One sample of the fault-misestimation ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MisestimationSample {
    /// The fault budget the schedule was designed for.
    pub f_design: usize,
    /// The true number of faults injected by the adversary.
    pub f_true: usize,
    /// The resulting worst-case competitive ratio
    /// (`r^(f_true + 1) (beta - 1) + 1` with `beta` optimized for
    /// `f_design`).
    pub cr: f64,
    /// The ratio achievable had the designer known `f_true`.
    pub cr_oracle: f64,
}

/// For a fixed `n`, designs `A(n, f_design)` and evaluates it against
/// every true fault count `f_true < n` that keeps the pair in the
/// proportional regime, quantifying the penalty of a wrong fault
/// budget.
///
/// # Errors
///
/// Propagates parameter validation failures.
pub fn fault_misestimation(n: usize, f_design: usize) -> Result<Vec<MisestimationSample>> {
    let design_params = Params::new(n, f_design)?;
    let beta = ratio::optimal_beta(design_params)?;
    let schedule = ProportionalSchedule::new(n, beta)?;
    let mut out = Vec::new();
    for f_true in 0..n {
        let true_params = Params::new(n, f_true)?;
        let cr = schedule.competitive_ratio(f_true);
        let cr_oracle = ratio::cr_upper(true_params);
        out.push(MisestimationSample { f_design, f_true, cr, cr_oracle });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_sweep_bowl_has_minimum_at_beta_star() {
        let params = Params::new(3, 1).unwrap();
        let ablation = beta_sweep(params, 31, false).unwrap();
        assert!((ablation.beta_star - 5.0 / 3.0).abs() < 1e-12);
        // Every swept sample is at least the optimum.
        for s in &ablation.samples {
            assert!(s.analytic >= ablation.cr_star - 1e-12, "beta = {} beat beta*", s.beta);
        }
        // The sweep brackets the optimum.
        assert!(ablation.samples.first().unwrap().beta < ablation.beta_star);
        assert!(ablation.samples.last().unwrap().beta > ablation.beta_star);
    }

    #[test]
    fn beta_sweep_measured_matches_analytic() {
        let params = Params::new(3, 1).unwrap();
        let ablation = beta_sweep(params, 7, true).unwrap();
        for s in &ablation.samples {
            let m = s.measured.unwrap();
            assert!(
                (m - s.analytic).abs() < 5e-3,
                "beta = {}: measured {m} vs analytic {}",
                s.beta,
                s.analytic
            );
        }
    }

    #[test]
    fn misestimation_is_monotone_in_true_faults() {
        let samples = fault_misestimation(5, 2).unwrap();
        assert_eq!(samples.len(), 5);
        for w in samples.windows(2) {
            assert!(w[1].cr > w[0].cr, "more faults must cost more");
        }
        // Exact design point: the schedule meets its oracle bound.
        let at_design = &samples[2];
        assert!((at_design.cr - at_design.cr_oracle).abs() < 1e-9);
    }

    #[test]
    fn underestimating_faults_is_worse_than_oracle() {
        // Design for f = 2 but face f = 3 (n = 5): the mis-designed
        // schedule must be strictly worse than A(5, 3).
        let samples = fault_misestimation(5, 2).unwrap();
        let s = samples.iter().find(|s| s.f_true == 3).unwrap();
        assert!(s.cr > s.cr_oracle + 1e-6, "cr = {}, oracle = {}", s.cr, s.cr_oracle);
    }

    #[test]
    fn misestimation_requires_proportional_design() {
        // (5, 1) is in the two-group regime: no beta* exists.
        assert!(fault_misestimation(5, 1).is_err());
    }

    #[test]
    fn overestimating_faults_also_costs() {
        // Design for f = 3 but face f = 2 (n = 5): still worse than the
        // oracle A(5, 2) (the schedule is too conservative).
        let samples = fault_misestimation(5, 3).unwrap();
        let s = samples.iter().find(|s| s.f_true == 2).unwrap();
        assert!(s.cr > s.cr_oracle + 1e-6);
    }
}
