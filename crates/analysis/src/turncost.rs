//! Extension experiment: competitive ratio under **turn cost** (the
//! open combination of the paper's fault model with Demaine–Fekete–Gal
//! turn costs, the paper's reference \[19\]).
//!
//! For each per-reversal cost `c`, we measure the turn-cost competitive
//! ratio of the proportional schedule as a function of `beta` and
//! locate the empirically best `beta`.
//!
//! **Finding (negative result):** re-optimizing `beta` does *not* help.
//! The worst-case target sits just past the first turning point
//! (`x -> 1+`), where the `(f+1)`-st visitor has performed a fixed,
//! `beta`-independent number of reversals (2 for `A(3,1)`); the
//! turn-cost supremum is therefore `CR(beta) + c * turns`, minimized by
//! the paper's own `beta*`. Turn costs shift the achievable ratio up by
//! an additive `c * turns` but do not move the optimal cone. (Targets
//! far out pay more reversals, but `turns/x -> 0`, so they never
//! dominate.)

use faultline_core::coverage::Fleet;
use faultline_core::{numeric, ratio, Params, Result, TurnCost};
use faultline_strategies::{FixedBetaStrategy, Strategy};
use serde::{Deserialize, Serialize};

use crate::supremum::fleet_targets;

/// Measures the turn-cost competitive ratio of the proportional
/// schedule `S_beta(n)` for `params` under per-turn cost `c`.
///
/// # Errors
///
/// Propagates construction and evaluation failures.
pub fn cost_cr(params: Params, beta: f64, c: f64, xmax: f64, grid: usize) -> Result<f64> {
    let strategy = FixedBetaStrategy::new(beta)?;
    let plans = strategy.plans(params)?;
    let horizon = strategy.horizon_hint(params, xmax * 1.001);
    let fleet = Fleet::from_plans(&plans, horizon)?;
    let targets = fleet_targets(&fleet, xmax, grid)?;
    let model = TurnCost::new(c)?;
    let (sup, _) = model.supremum(fleet.trajectories(), &targets, params.required_visits())?;
    Ok(sup)
}

/// One row of the turn-cost sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TurnCostSample {
    /// Per-reversal cost.
    pub c: f64,
    /// The empirically best cone parameter for this cost.
    pub best_beta: f64,
    /// The turn-cost competitive ratio at `best_beta`.
    pub best_cr: f64,
    /// The turn-cost ratio when naively keeping the paper's `beta*`.
    pub cr_at_paper_beta: f64,
}

/// Sweeps the per-turn cost and, for each value, golden-section
/// searches the empirically best `beta`.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn sweep(params: Params, costs: &[f64], xmax: f64, grid: usize) -> Result<Vec<TurnCostSample>> {
    let paper_beta = ratio::optimal_beta(params)?;
    costs
        .iter()
        .map(|&c| {
            let objective =
                |beta: f64| cost_cr(params, beta, c, xmax, grid).unwrap_or(f64::INFINITY);
            let best_beta =
                numeric::golden_min(objective, 1.0 + 1e-6, 8.0 * paper_beta, 1e-4, 200)?;
            Ok(TurnCostSample {
                c,
                best_beta,
                best_cr: cost_cr(params, best_beta, c, xmax, grid)?,
                cr_at_paper_beta: cost_cr(params, paper_beta, c, xmax, grid)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_reduces_to_the_paper() {
        let params = Params::new(3, 1).unwrap();
        let paper_beta = ratio::optimal_beta(params).unwrap();
        let sup = cost_cr(params, paper_beta, 0.0, 25.0, 48).unwrap();
        let cr = ratio::cr_upper(params);
        assert!((sup - cr).abs() < 5e-3, "sup = {sup}, CR = {cr}");
    }

    #[test]
    fn cost_cr_is_monotone_in_c() {
        let params = Params::new(3, 1).unwrap();
        let beta = ratio::optimal_beta(params).unwrap();
        let mut prev = 0.0;
        for c in [0.0, 0.25, 1.0, 4.0] {
            let sup = cost_cr(params, beta, c, 25.0, 48).unwrap();
            assert!(sup > prev, "c = {c}: {sup} <= {prev}");
            prev = sup;
        }
    }

    #[test]
    fn sweep_confirms_beta_star_stays_optimal() {
        let params = Params::new(3, 1).unwrap();
        let samples = sweep(params, &[0.0, 2.0, 8.0], 25.0, 32).unwrap();
        assert_eq!(samples.len(), 3);
        let paper_beta = ratio::optimal_beta(params).unwrap();
        let cr = ratio::cr_upper(params);
        for s in &samples {
            // The negative result: the best beta never drifts away from
            // the paper's beta* ...
            assert!(
                (s.best_beta - paper_beta).abs() < 0.05,
                "c = {}: best beta {} vs paper {paper_beta}",
                s.c,
                s.best_beta
            );
            // ... and re-optimizing buys (essentially) nothing.
            assert!(s.best_cr <= s.cr_at_paper_beta + 1e-9, "c = {}", s.c);
            assert!(s.best_cr >= s.cr_at_paper_beta - 5e-3, "c = {}", s.c);
            // The penalty is additive: CR + c * 2 reversals for A(3,1).
            assert!(
                (s.cr_at_paper_beta - (cr + 2.0 * s.c)).abs() < 5e-3,
                "c = {}: {} vs {}",
                s.c,
                s.cr_at_paper_beta,
                cr + 2.0 * s.c
            );
        }
    }
}
