//! Extension experiment: competitive ratio with a **known distance
//! bound** `D` (the paper's reference \[10\] transplanted to the faulty
//! setting).
//!
//! For each bound `D`, every robot's plan is clamped to `[-D, D]` and
//! the bounded competitive ratio `sup_{1 <= |x| <= D} T_(f+1)(x)/|x|`
//! is measured exactly, from the affine pieces of `T_(f+1)` over the
//! closed window: the clamped robots never pass `±D`, so there is no
//! right-hand limit at the edge to score.
//!
//! **Finding:** clamping improves the ratio only while `D` clips the
//! *early* turning points: below `D = 2` for A(3, 1), and likewise for
//! the doubling regime `n = f + 1`, which reads 8 at `D = 1.5` and 9 at
//! every `D >= 2`. The supremum of `K` is attained on *outbound*
//! sweeps, which clamping never shortens, so once `D` clears the first
//! few excursions the bounded ratio equals the unbounded Theorem 1
//! value, to a few ulps. Improving the large-`D` case would require
//! redesigning `beta` as a function of `D` (as \[10\] does for a single
//! robot) — recorded as future work in DESIGN.md.

use faultline_core::{BoundedAlgorithm, Fleet, Params, Result, TurnCost};
use serde::{Deserialize, Serialize};

use crate::exact::kth_cost_supremum;

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
/// Propagates construction and scan failures; the scan rejects
/// `D <= 1`.
pub fn bounded_cr(params: Params, bound: f64) -> Result<BoundedSample> {
    let algorithm = BoundedAlgorithm::design(params, bound)?;
    let fleet = Fleet::from_plans(&algorithm.plans()?, algorithm.required_horizon())?;
    let k = params.required_visits();
    Ok(BoundedSample {
        bound,
        measured_cr: kth_cost_supremum(fleet.trajectories(), k, bound, TurnCost::free(), true)?,
        unbounded_cr: faultline_core::ratio::cr_upper(params),
    })
}

/// Sweeps the distance bound.
///
/// # Errors
///
/// Propagates per-bound failures.
pub fn bound_sweep(params: Params, bounds: &[f64]) -> Result<Vec<BoundedSample>> {
    bounds.iter().map(|&d| bounded_cr(params, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cr_below_unbounded_and_increasing() {
        let params = Params::new(3, 1).unwrap();
        let samples = bound_sweep(params, &[1.5, 3.0, 8.0, 30.0]).unwrap();
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
        let far = bounded_cr(params, 200.0).unwrap();
        assert!(
            (far.measured_cr - far.unbounded_cr).abs() < 0.05,
            "D = 200: {} vs {}",
            far.measured_cr,
            far.unbounded_cr
        );
    }

    #[test]
    fn works_for_n_equals_f_plus_one() {
        // The doubling regime gains from a bound only below D = 2, like
        // A(3, 1): it reads 8 at D = 1.5 and exactly 9 from D = 2 on.
        for (n, f) in [(2, 1), (3, 2)] {
            let params = Params::new(n, f).unwrap();
            assert_eq!(bounded_cr(params, 1.5).unwrap().measured_cr, 8.0, "(n = {n}, f = {f})");
            for bound in [2.0, 4.0, 16.0] {
                let s = bounded_cr(params, bound).unwrap();
                assert_eq!(s.measured_cr, 9.0, "(n = {n}, f = {f}), D = {bound}");
            }
        }
    }

    #[test]
    fn clears_the_early_turns_at_theorem_1() {
        // Once D >= 2 the bounded ratio is the unbounded Theorem 1
        // value of A(3, 1), up to the rounding of the scan.
        let params = Params::new(3, 1).unwrap();
        let cr = faultline_core::ratio::cr_upper(params);
        for bound in [2.0, 4.0, 16.0, 64.0] {
            let measured = bounded_cr(params, bound).unwrap().measured_cr;
            let ulps = measured.to_bits().abs_diff(cr.to_bits());
            assert!(ulps <= 4, "D = {bound}: {measured} is {ulps} ulps from {cr}");
        }
    }
}
