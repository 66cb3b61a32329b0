//! Integration test: the lower-bound machinery of Section 4 holds
//! against real strategies — the adversary forces at least `alpha(n)`
//! on every complete strategy, and the sandwich
//! `alpha(n) <= forced <= CR(A(n,f))` is respected.

use faultline_suite::core::{lower_bound, ratio, Params, Regime};
use faultline_suite::strategies::all_strategies;

#[test]
fn adversary_sandwiches_the_paper_algorithm() {
    for f in 1..8usize {
        for n in (f + 2)..(2 * f + 2) {
            let params = Params::new(n, f).unwrap();
            assert_eq!(params.regime(), Regime::Proportional);
            let alpha = lower_bound::alpha(n).unwrap();
            let points = lower_bound::adversary_points(n, alpha).unwrap();
            let xmax = points[0] * 1.1;

            let strategy = faultline_suite::strategies::PaperStrategy::new();
            use faultline_suite::strategies::Strategy;
            let plans = strategy.plans(params).unwrap();
            let horizon = strategy.horizon_hint(params, xmax);
            let trajectories: Vec<_> =
                plans.iter().map(|p| p.materialize(horizon).unwrap()).collect();
            let outcome = lower_bound::adversarial_ratio(&trajectories, f, n, alpha).unwrap();
            let upper = ratio::cr_upper(params);
            assert!(
                outcome.ratio >= alpha - 1e-6,
                "(n={n}, f={f}): forced {} below alpha {alpha}",
                outcome.ratio
            );
            assert!(
                outcome.ratio <= upper + 1e-6,
                "(n={n}, f={f}): forced {} above Theorem 1 bound {upper}",
                outcome.ratio
            );
        }
    }
}

#[test]
fn adversary_forces_alpha_on_every_complete_strategy() {
    let params = Params::new(3, 1).unwrap();
    let alpha = lower_bound::alpha(3).unwrap();
    for strategy in all_strategies() {
        let Ok(plans) = strategy.plans(params) else { continue };
        let horizon = strategy.horizon_hint(params, 10.0);
        let trajectories: Vec<_> = plans.iter().map(|p| p.materialize(horizon).unwrap()).collect();
        let outcome = lower_bound::adversarial_ratio(&trajectories, 1, 3, alpha).unwrap();
        // Theorem 2: EVERY algorithm (complete or not) is forced to at
        // least alpha; incomplete ones are forced to infinity.
        assert!(
            outcome.ratio >= alpha - 1e-6,
            "{}: forced only {}",
            strategy.name(),
            outcome.ratio
        );
    }
}

#[test]
fn corollary2_is_a_valid_asymptote() {
    // alpha(n) - corollary2(n) -> 0+ and stays nonnegative.
    let mut prev_gap = f64::INFINITY;
    for n in [10usize, 100, 1000, 10_000] {
        let gap = lower_bound::alpha(n).unwrap() - lower_bound::corollary2_lower(n).unwrap();
        assert!(gap >= -1e-12, "n = {n}");
        assert!(gap < prev_gap, "gap must shrink at n = {n}");
        prev_gap = gap;
    }
    assert!(prev_gap < 1e-3);
}
