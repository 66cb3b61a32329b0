//! Extension experiment: the **arrival-index spectrum** `CR_k`.
//!
//! The paper's objective is `T_(f+1)` — the `(f+1)`-st distinct robot
//! arrival. Generalizing the index `k` interpolates between classic
//! search (`k = 1`, first arrival) and *group search* (`k = n`, last
//! arrival — the objective of Chrobak et al., SOFSEM 2015, the paper's
//! reference \[14\]). This experiment measures
//! `CR_k = sup_x T_k(x)/|x|` exactly, with the critical-point engine at
//! each `k`, for every `k` on the paper's schedule and on the
//! herd-doubling baseline, showing where each schedule's redundancy
//! budget goes.

use faultline_core::coverage::Fleet;
use faultline_core::{Params, Result};
use faultline_strategies::Strategy;
use serde::{Deserialize, Serialize};

use crate::exact::exact_supremum;

/// Measured `CR_k` for one arrival index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KSample {
    /// Arrival index (`1..=n`).
    pub k: usize,
    /// Measured supremum of `T_k(x)/|x|` (infinite when some target is
    /// not reached by `k` distinct robots within the horizon).
    pub cr: f64,
}

/// Measures the full arrival-index spectrum of a strategy: one
/// [`exact_supremum`] over `[-xmax, -1] ∪ [1, xmax]` per index.
///
/// # Errors
///
/// Propagates plan generation and scan failures.
pub fn k_spectrum(strategy: &dyn Strategy, params: Params, xmax: f64) -> Result<Vec<KSample>> {
    let plans = strategy.plans(params)?;
    // The last arrival needs far more time than T_(f+1): be generous.
    let horizon = 8.0 * strategy.horizon_hint(params, xmax * 1.001);
    let fleet = Fleet::from_plans(&plans, horizon)?;
    (1..=params.n())
        .map(|k| Ok(KSample { k, cr: exact_supremum(&fleet, k, xmax)?.ratio }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_strategies::{strategy_by_name, PaperStrategy};

    #[test]
    fn spectrum_is_monotone_in_k() {
        let params = Params::new(5, 2).unwrap();
        let spectrum = k_spectrum(&PaperStrategy::new(), params, 12.0).unwrap();
        assert_eq!(spectrum.len(), 5);
        for w in spectrum.windows(2) {
            assert!(
                w[1].cr >= w[0].cr - 1e-9,
                "CR_k must not decrease: k = {} -> {}",
                w[0].k,
                w[1].k
            );
        }
        // The paper's design point k = f + 1 = 3 matches Theorem 1.
        let at_design = spectrum.iter().find(|s| s.k == 3).unwrap();
        let cr = faultline_core::ratio::cr_upper(params);
        assert!((at_design.cr - cr).abs() < 5e-3, "{} vs {cr}", at_design.cr);
    }

    #[test]
    fn herd_spectrum_is_flat() {
        // All herd robots coincide: every arrival index costs the same.
        let params = Params::new(3, 1).unwrap();
        let spectrum =
            k_spectrum(&*strategy_by_name("herd-doubling").unwrap(), params, 80.0).unwrap();
        let first = spectrum[0].cr;
        for s in &spectrum {
            assert!((s.cr - first).abs() < 1e-9, "herd CR_k must be flat");
        }
    }

    #[test]
    fn paper_beats_herd_at_design_index_but_not_at_last_arrival() {
        // The proportional schedule spends its redundancy on k = f + 1;
        // the herd spends it nowhere (flat 9-ish everywhere). At the
        // design index the paper wins.
        let params = Params::new(3, 1).unwrap();
        let paper = k_spectrum(&PaperStrategy::new(), params, 40.0).unwrap();
        let herd = k_spectrum(&*strategy_by_name("herd-doubling").unwrap(), params, 40.0).unwrap();
        let at = |v: &[KSample], k: usize| v.iter().find(|s| s.k == k).unwrap().cr;
        assert!(at(&paper, 2) < at(&herd, 2), "design index k = f + 1");
        // At the last arrival the spread-out schedule pays a premium.
        assert!(at(&paper, 3) > at(&paper, 2));
    }
}
