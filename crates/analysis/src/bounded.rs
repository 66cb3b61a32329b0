//! Extension experiment: competitive ratio with a **known distance
//! bound** `D` (the paper's reference \[10\] transplanted to the faulty
//! setting).
//!
//! For each bound `D`, every robot's plan is clamped to `[-D, D]` and
//! the bounded competitive ratio `sup_{1 <= |x| <= D} T_(f+1)(x)/|x|`
//! is measured.
//!
//! **Finding:** clamping improves the ratio only while `D` clips the
//! *early* turning points (roughly `D` below the second interleaved
//! turning point). The supremum of `K` is attained on *outbound*
//! sweeps, which clamping never shortens, so once `D` clears the first
//! few excursions the bounded ratio equals the unbounded Theorem 1
//! value exactly. Improving the large-`D` case would require
//! redesigning `beta` as a function of `D` (as \[10\] does for a single
//! robot) — recorded as future work in DESIGN.md.

use faultline_core::coverage::adversarial_targets;
use faultline_core::{BoundedAlgorithm, Fleet, Params, Result};
use serde::{Deserialize, Serialize};

/// One sample of the bounded-distance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundedSample {
    /// The known distance bound `D`.
    pub bound: f64,
    /// Measured bounded competitive ratio.
    pub measured_cr: f64,
    /// The unbounded Theorem 1 ratio, for reference.
    pub unbounded_cr: f64,
}

/// Measures the bounded competitive ratio for one `D`.
///
/// # Errors
///
/// Propagates construction and scan failures.
pub fn bounded_cr(params: Params, bound: f64, grid: usize) -> Result<BoundedSample> {
    let algorithm = BoundedAlgorithm::design(params, bound)?;
    let horizon = algorithm.required_horizon();
    let plans = algorithm.plans()?;
    let fleet = Fleet::from_plans(&plans, horizon)?;
    // Turning points of the clamped fleet (includes the ±D shuttles).
    let turning: Vec<f64> =
        fleet.trajectories().iter().flat_map(|t| t.turning_points()).map(|p| p.x).collect();
    let targets: Vec<f64> = adversarial_targets(&turning, bound * (1.0 + 1e-9), grid, 1e-9)?
        .into_iter()
        .filter(|x| x.abs() <= bound)
        .collect();
    let scan = fleet.supremum(&targets, params.required_visits())?;
    Ok(BoundedSample {
        bound,
        measured_cr: scan.ratio,
        unbounded_cr: faultline_core::ratio::cr_upper(params),
    })
}

/// Sweeps the distance bound.
///
/// # Errors
///
/// Propagates per-bound failures.
pub fn bound_sweep(params: Params, bounds: &[f64], grid: usize) -> Result<Vec<BoundedSample>> {
    bounds.iter().map(|&d| bounded_cr(params, d, grid)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cr_below_unbounded_and_increasing() {
        let params = Params::new(3, 1).unwrap();
        let samples = bound_sweep(params, &[1.5, 3.0, 8.0, 30.0], 48).unwrap();
        for s in &samples {
            assert!(s.measured_cr.is_finite(), "D = {}: coverage incomplete", s.bound);
            assert!(
                s.measured_cr <= s.unbounded_cr + 1e-6,
                "D = {}: {} above unbounded {}",
                s.bound,
                s.measured_cr,
                s.unbounded_cr
            );
        }
        // Larger D is (weakly) harder.
        for w in samples.windows(2) {
            assert!(
                w[1].measured_cr >= w[0].measured_cr - 1e-9,
                "D = {} vs {}",
                w[0].bound,
                w[1].bound
            );
        }
    }

    #[test]
    fn bounded_cr_converges_to_unbounded() {
        let params = Params::new(3, 1).unwrap();
        let far = bounded_cr(params, 200.0, 64).unwrap();
        assert!(
            (far.measured_cr - far.unbounded_cr).abs() < 0.05,
            "D = 200: {} vs {}",
            far.measured_cr,
            far.unbounded_cr
        );
    }

    #[test]
    fn works_for_n_equals_f_plus_one() {
        // The single-group regime (doubling) also benefits from a bound.
        let params = Params::new(2, 1).unwrap();
        let s = bounded_cr(params, 4.0, 48).unwrap();
        assert!(s.measured_cr < 9.0);
        assert!(s.measured_cr.is_finite());
    }
}
