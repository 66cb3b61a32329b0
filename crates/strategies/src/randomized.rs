//! Randomized zig-zag strategies (after Kao, Reif and Tate's optimal
//! randomized cow-path algorithm), extended to the faulty parallel
//! setting.
//!
//! A randomized geometric sweep draws a uniform phase `u ∈ [0, 1)` and
//! a random initial direction, then sweeps with turning magnitudes
//! `r^(u), r^(u+1), r^(u+2), ...`. For a single reliable robot the
//! expected competitive ratio is `1 + (1 + r)/ln r`, minimized at
//! `r* ≈ 3.59112` with value `≈ 4.59112` — beating every deterministic
//! strategy's 9. Whether (and how much) randomization helps against
//! `f` faults is open; `faultline-analysis::randomized` measures it.

use faultline_core::{Error, Params, Plan, Result};
use rand::Rng;

/// The randomized geometric sweep: every robot independently draws a
/// phase and a direction, all sharing the expansion factor `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedSweepStrategy {
    expansion: f64,
}

impl RandomizedSweepStrategy {
    /// Creates the strategy with expansion factor `r > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for `r <= 1` or non-finite.
    pub fn new(expansion: f64) -> Result<Self> {
        if !(expansion > 1.0) || !expansion.is_finite() {
            return Err(Error::domain(format!(
                "randomized sweep needs expansion > 1, got {expansion}"
            )));
        }
        Ok(RandomizedSweepStrategy { expansion })
    }

    /// The Kao–Reif–Tate optimal expansion factor for a single
    /// reliable robot: the minimizer of `1 + (1 + r)/ln r`.
    #[must_use]
    pub fn kao_optimal() -> Self {
        RandomizedSweepStrategy { expansion: kao_optimal_expansion() }
    }

    /// The expansion factor.
    #[must_use]
    pub fn expansion(&self) -> f64 {
        self.expansion
    }

    /// Samples one concrete plan assignment for `params`: unlike a
    /// [`crate::Strategy`], each call draws fresh coins from `rng`.
    ///
    /// # Errors
    ///
    /// Cannot fail for a validated expansion; the `Result` carries
    /// [`Plan::sweep`]'s validation.
    pub fn sample_plans(&self, params: Params, rng: &mut dyn rand::RngCore) -> Result<Vec<Plan>> {
        (0..params.n())
            .map(|_| {
                let phase: f64 = rng.random_range(0.0..1.0);
                let magnitude = self.expansion.powf(phase);
                let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                Plan::sweep(sign * magnitude, self.expansion)
            })
            .collect()
    }

    /// A horizon sufficient to confirm targets up to `xmax` with any
    /// coin outcome.
    #[must_use]
    pub fn horizon_hint(&self, params: Params, xmax: f64) -> f64 {
        // Worst coin outcome: every robot starts with the maximal first
        // leg on the wrong side; a few expansion steps past xmax suffice
        // for f + 1 distinct visits.
        let r = self.expansion;
        4.0 * xmax * r.powi(params.f() as i32 + 3)
    }

    /// The single-robot expected competitive ratio of this expansion,
    /// `1 + (1 + r)/ln r` (asymptotic, phase-averaged).
    #[must_use]
    pub fn single_robot_expected_cr(&self) -> f64 {
        1.0 + (1.0 + self.expansion) / self.expansion.ln()
    }
}

/// The minimizer of `1 + (1 + r)/ln r` over `r > 1` (≈ 3.59112).
#[must_use]
pub fn kao_optimal_expansion() -> f64 {
    faultline_core::numeric::golden_min(|r| 1.0 + (1.0 + r) / r.ln(), 1.0 + 1e-9, 20.0, 1e-12, 500)
        .expect("the objective is unimodal on (1, 20)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::coverage::Fleet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validates_expansion() {
        assert!(RandomizedSweepStrategy::new(1.0).is_err());
        assert!(RandomizedSweepStrategy::new(f64::NAN).is_err());
        assert!(RandomizedSweepStrategy::new(2.0).is_ok());
    }

    #[test]
    fn kao_optimum_matches_literature() {
        let r = kao_optimal_expansion();
        assert!((r - 3.59112).abs() < 1e-3, "r* = {r}");
        let cr = RandomizedSweepStrategy::kao_optimal().single_robot_expected_cr();
        assert!((cr - 4.59112).abs() < 1e-3, "expected CR = {cr}");
    }

    #[test]
    fn sampling_is_seeded_and_reproducible() {
        let strategy = RandomizedSweepStrategy::new(2.0).unwrap();
        let params = Params::new(3, 1).unwrap();
        let plans = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            strategy.sample_plans(params, &mut rng).unwrap()
        };
        assert_eq!(plans(1), plans(1));
        assert_ne!(plans(1), plans(2));
    }

    #[test]
    fn sampled_phases_are_within_one_expansion_step() {
        let strategy = RandomizedSweepStrategy::new(3.0).unwrap();
        let params = Params::new(5, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let plans = strategy.sample_plans(params, &mut rng).unwrap();
            assert_eq!(plans.len(), 5);
            for plan in &plans {
                let traj = plan.materialize(100.0).unwrap();
                let first_turn = traj.turning_points()[0].x.abs();
                assert!((1.0..3.0).contains(&first_turn), "first leg {first_turn}");
            }
        }
    }

    #[test]
    fn sampled_fleets_always_cover_with_generous_horizon() {
        let strategy = RandomizedSweepStrategy::kao_optimal();
        let params = Params::new(3, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let horizon = strategy.horizon_hint(params, 10.0);
        for _ in 0..10 {
            let plans = strategy.sample_plans(params, &mut rng).unwrap();
            let fleet = Fleet::from_plans(&plans, horizon).unwrap();
            for x in [1.0, -5.0, 10.0] {
                assert!(
                    fleet.visit_time(x, 2).is_some(),
                    "uncovered x = {x} within horizon {horizon}"
                );
            }
        }
    }
}
