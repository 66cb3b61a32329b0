//! Extension experiment: **does randomization help against faults?**
//!
//! For a single reliable robot, randomizing the sweep phase drops the
//! competitive ratio from 9 to ≈ 4.591 (Kao–Reif–Tate). This experiment
//! measures the *expected* ratio of the randomized sweep in the faulty
//! parallel setting: for each target `x`, average `T_(f+1)(x)/|x|` over
//! many independent coin draws (with the fault adversary choosing the
//! worst `f` robots per draw), then take the supremum over targets.
//!
//! Expected shape: at `(1, 0)` the measurement recovers ≈ 4.59; for
//! `f >= 1` randomization still beats the corresponding deterministic
//! doubling-style baselines, while the paper's (deterministic,
//! worst-case-optimal) schedule remains the benchmark in the worst
//! case — randomized guarantees are only in expectation.

use faultline_core::coverage::Fleet;
use faultline_core::{numeric, Params, Result};
use faultline_strategies::RandomizedSweepStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Result of an expected-ratio measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpectedCr {
    /// The supremum over targets of the per-target expected ratio.
    pub expected_cr: f64,
    /// The target achieving it.
    pub argmax: f64,
    /// Number of (draw, target) pairs where `f + 1` robots did not
    /// reach the target within the horizon (counted as failures; any
    /// non-zero value makes the estimate unreliable).
    pub uncovered: usize,
    /// Coin draws per target.
    pub draws: usize,
}

/// Estimates `sup_x E[T_(f+1)(x)] / |x|` for a randomized strategy by
/// Monte-Carlo over the strategy's coins, with the fault adversary
/// re-optimized per draw.
///
/// # Errors
///
/// Propagates sampling and evaluation failures; rejects `draws == 0`.
pub fn expected_cr(
    strategy: &RandomizedSweepStrategy,
    params: Params,
    xmax: f64,
    grid: usize,
    draws: usize,
    seed: u64,
) -> Result<ExpectedCr> {
    if draws == 0 {
        return Err(faultline_core::Error::domain("expected CR needs at least one draw"));
    }
    let mut targets: Vec<f64> = Vec::new();
    for x in numeric::logspace(1.0, xmax, grid)? {
        targets.push(x);
        targets.push(-x);
    }
    let horizon = strategy.horizon_hint(params, xmax);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sums = vec![0.0f64; targets.len()];
    let mut uncovered = 0usize;
    for _ in 0..draws {
        let plans = strategy.sample_plans(params, &mut rng)?;
        let fleet = Fleet::from_plans(&plans, horizon)?;
        for (i, &x) in targets.iter().enumerate() {
            match fleet.visit_time(x, params.required_visits()) {
                Some(t) => sums[i] += t / x.abs(),
                None => uncovered += 1,
            }
        }
    }
    let mut best = (0.0f64, targets[0]);
    for (i, &x) in targets.iter().enumerate() {
        let mean = sums[i] / draws as f64;
        if mean > best.0 {
            best = (mean, x);
        }
    }
    Ok(ExpectedCr { expected_cr: best.0, argmax: best.1, uncovered, draws })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_kao_value_for_single_robot() {
        // (n, f) = (1, 0): the classic randomized cow-path. The
        // phase-averaged ratio must approach 1 + (1 + r*)/ln r* ≈ 4.591
        // (finite-draw and finite-grid effects keep it merely close).
        let strategy = RandomizedSweepStrategy::kao_optimal();
        let params = Params::new(1, 0).unwrap();
        let result = expected_cr(&strategy, params, 40.0, 24, 400, 7).unwrap();
        assert_eq!(result.uncovered, 0);
        let kao = strategy.single_robot_expected_cr();
        assert!(
            (result.expected_cr - kao).abs() < 0.35,
            "measured {} vs Kao {kao}",
            result.expected_cr
        );
        // Far below the deterministic 9.
        assert!(result.expected_cr < 5.5);
    }

    #[test]
    fn randomization_beats_deterministic_doubling_at_f1() {
        // (3, 1): expected ratio of the randomized sweep vs the
        // deterministic herd-doubling worst case (9) — randomization
        // should clearly win in expectation.
        let strategy = RandomizedSweepStrategy::kao_optimal();
        let params = Params::new(3, 1).unwrap();
        let result = expected_cr(&strategy, params, 30.0, 16, 150, 11).unwrap();
        assert_eq!(result.uncovered, 0);
        assert!(
            result.expected_cr < 9.0,
            "randomized expected CR {} should beat doubling's 9",
            result.expected_cr
        );
    }

    #[test]
    fn rejects_zero_draws() {
        let strategy = RandomizedSweepStrategy::kao_optimal();
        let params = Params::new(1, 0).unwrap();
        assert!(expected_cr(&strategy, params, 10.0, 8, 0, 1).is_err());
    }

    #[test]
    fn estimate_is_reproducible() {
        let strategy = RandomizedSweepStrategy::new(3.0).unwrap();
        let params = Params::new(2, 1).unwrap();
        let a = expected_cr(&strategy, params, 10.0, 8, 50, 5).unwrap();
        let b = expected_cr(&strategy, params, 10.0, 8, 50, 5).unwrap();
        assert_eq!(a, b);
    }
}
