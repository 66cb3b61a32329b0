//! Monte-Carlo experiments: random target placement and random fault
//! assignment, with summary statistics.
//!
//! The paper analyzes the worst case; these experiments quantify how
//! much slack typical (random) instances leave relative to the
//! worst-case competitive ratio.

use faultline_core::{Error, PiecewiseTrajectory, Plan, Result};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::{SimConfig, Simulation};
use crate::fault::FaultModel;
use crate::outcome::SearchOutcome;
use crate::target::Target;

/// Configuration of a Monte-Carlo sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of simulated searches.
    pub samples: usize,
    /// Targets are drawn log-uniformly from `[1, xmax]`, with a random
    /// sign.
    pub xmax: f64,
}

impl MonteCarloConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for `samples == 0` or `xmax <= 1`.
    pub fn new(samples: usize, xmax: f64) -> Result<Self> {
        if samples == 0 {
            return Err(Error::domain("Monte-Carlo sweep needs at least one sample"));
        }
        if !(xmax > 1.0) {
            return Err(Error::domain(format!("xmax must exceed 1, got {xmax}")));
        }
        Ok(MonteCarloConfig { samples, xmax })
    }
}

/// Summary statistics over the sampled ratios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioStats {
    /// Number of samples (detected runs only).
    pub detected: usize,
    /// Number of runs where the target was never detected.
    pub undetected: usize,
    /// Mean ratio over detected runs.
    pub mean: f64,
    /// Maximum ratio over detected runs.
    pub max: f64,
    /// Median ratio.
    pub p50: f64,
    /// 95th-percentile ratio.
    pub p95: f64,
}

impl RatioStats {
    /// Computes statistics from raw ratios (infinite entries count as
    /// undetected).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when every sample is undetected.
    pub fn from_ratios(ratios: &[f64]) -> Result<Self> {
        let mut finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
        let undetected = ratios.len() - finite.len();
        if finite.is_empty() {
            return Err(Error::domain("no detected runs: cannot summarize ratios"));
        }
        finite.sort_by(f64::total_cmp);
        let sum: f64 = finite.iter().sum();
        let quantile = |q: f64| -> f64 {
            let idx = ((finite.len() - 1) as f64 * q).round() as usize;
            finite[idx]
        };
        Ok(RatioStats {
            detected: finite.len(),
            undetected,
            mean: sum / finite.len() as f64,
            max: *finite.last().expect("non-empty"),
            p50: quantile(0.5),
            p95: quantile(0.95),
        })
    }
}

/// Runs a Monte-Carlo sweep and returns the raw achieved ratios, one
/// per sample (summarize them with [`RatioStats::from_ratios`]): for
/// each sample, draws a random target (log-uniform magnitude in
/// `[1, xmax]`, random side) and a fault mask from `faults`, and
/// simulates the search. The target stream is a `StdRng` seeded with
/// `seed`, so the same seed always draws the same targets; the fault
/// model carries its own seed.
///
/// # Errors
///
/// Propagates materialization and simulation errors.
pub fn run_sweep(
    plans: &[Plan],
    faults: &mut dyn FaultModel,
    config: MonteCarloConfig,
    horizon: f64,
    seed: u64,
) -> Result<Vec<f64>> {
    sweep_outcomes(plans, faults, config, horizon, seed, SimConfig::default(), |outcome| {
        outcome.ratio()
    })
}

/// The sweep of [`run_sweep`], with every simulation run under `sim`
/// and its outcome reduced by `read`; one value per sample, in draw
/// order. The draws are [`run_sweep`]'s for the same seeds.
///
/// # Errors
///
/// Propagates materialization and simulation errors.
pub fn sweep_outcomes<T: Send>(
    plans: &[Plan],
    faults: &mut dyn FaultModel,
    config: MonteCarloConfig,
    horizon: f64,
    seed: u64,
    sim: SimConfig,
    read: impl Fn(SearchOutcome) -> T + Sync,
) -> Result<Vec<T>> {
    let trajectories: Vec<PiecewiseTrajectory> =
        plans.iter().map(|p| p.materialize(horizon)).collect::<Result<_>>()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Every sample's target and fault mask is drawn serially first, in
    // the exact order the historical serial loop used, so a given seed
    // produces identical draws. The simulations themselves are
    // deterministic and run on the work-stealing engine.
    let mut draws = Vec::with_capacity(config.samples);
    for _ in 0..config.samples {
        let magnitude = (rng.random_range(0.0..config.xmax.ln())).exp();
        let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
        let target = Target::new(side * magnitude.max(1.0))?;
        let mask = faults.assign(trajectories.len());
        draws.push((target, mask));
    }
    faultline_core::par_map(&draws, |(target, mask)| {
        Ok(read(Simulation::new(trajectories.clone(), *target, mask, sim)?.run()))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BernoulliFaults, FixedFaults};
    use faultline_core::{Algorithm, Params};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_from_ratios() {
        let stats = RatioStats::from_ratios(&[1.0, 2.0, 3.0, f64::INFINITY]).unwrap();
        assert_eq!(stats.detected, 3);
        assert_eq!(stats.undetected, 1);
        assert_eq!(stats.mean, 2.0);
        assert_eq!(stats.max, 3.0);
        assert_eq!(stats.p50, 2.0);
    }

    #[test]
    fn stats_reject_all_undetected() {
        assert!(RatioStats::from_ratios(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(MonteCarloConfig::new(0, 10.0).is_err());
        assert!(MonteCarloConfig::new(5, 1.0).is_err());
        assert!(MonteCarloConfig::new(5, 10.0).is_ok());
    }

    #[test]
    fn random_faults_never_beat_worst_case_cr() {
        // Monte-Carlo ratios with random faults stay below the analytic
        // worst-case competitive ratio of A(3, 1).
        let params = Params::new(3, 1).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(11.0).unwrap();
        let plans = alg.plans();
        let mut faults = BernoulliFaults::new(0.4, params.f(), StdRng::seed_from_u64(1)).unwrap();
        let config = MonteCarloConfig::new(200, 10.0).unwrap();
        let ratios = run_sweep(&plans, &mut faults, config, horizon, 2).unwrap();
        let stats = RatioStats::from_ratios(&ratios).unwrap();
        assert_eq!(stats.undetected, 0);
        assert!(stats.max <= alg.analytic_cr() + 1e-9, "max = {}", stats.max);
        assert!(stats.mean >= 1.0);
        assert!(stats.p95 >= stats.p50);
    }

    #[test]
    fn seeded_sweep_matches_explicit_rng() {
        // The target stream is a `StdRng` seeded with `seed`: drawing
        // the targets by hand and simulating each reproduces the sweep.
        let alg = Algorithm::design(Params::new(3, 1).unwrap()).unwrap();
        let horizon = alg.required_horizon(11.0).unwrap();
        let plans = alg.plans();
        let config = MonteCarloConfig::new(40, 10.0).unwrap();
        let mut faults = FixedFaults::new(vec![0]);
        let seeded = run_sweep(&plans, &mut faults, config, horizon, 7).unwrap();
        let trajectories: Vec<_> = plans.iter().map(|p| p.materialize(horizon).unwrap()).collect();
        let mask = FixedFaults::new(vec![0]).assign(3);
        let mut rng = StdRng::seed_from_u64(7);
        let explicit: Vec<f64> = (0..40)
            .map(|_| {
                let magnitude = rng.random_range(0.0..10f64.ln()).exp();
                let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                let target = Target::new(side * magnitude.max(1.0)).unwrap();
                let sim =
                    Simulation::new(trajectories.clone(), target, &mask, SimConfig::default());
                sim.unwrap().run().ratio()
            })
            .collect();
        assert_eq!(seeded, explicit);
    }

    #[test]
    fn sweep_is_reproducible() {
        let alg = Algorithm::design(Params::new(3, 1).unwrap()).unwrap();
        let horizon = alg.required_horizon(11.0).unwrap();
        let plans = alg.plans();
        let config = MonteCarloConfig::new(50, 10.0).unwrap();
        let run = |seed: u64| {
            let mut faults = FixedFaults::new(vec![0]);
            run_sweep(&plans, &mut faults, config, horizon, seed).unwrap()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
