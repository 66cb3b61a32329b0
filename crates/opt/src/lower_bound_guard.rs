//! The soundness satellite: a randomly generated valid
//! [`FreeSchedule`] whose *measured* CR beats `alpha(n)` is always
//! rejected by the certificate cross-check, and the optimizer's
//! objective refuses to score it — the optimizer can never "prove" a
//! schedule below the Theorem 2 lower bound, no matter how narrow the
//! measurement window that produced the flattering number.

use crate::driver::{cross_check, CrossCheck};
use crate::{Objective, PENALTY, PRESSURE_WEIGHT};
use faultline_core::certificate::certify_alpha;
use faultline_core::{FreeRobot, FreeSchedule, Params};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds a random valid schedule for `n` robots: random sides,
/// random first magnitudes, random expansion ratios, random glide —
/// valid by construction (magnitudes strictly increase).
fn random_schedule(n: usize, entropy: u64) -> FreeSchedule {
    let mut rng = StdRng::seed_from_u64(entropy);
    let robots = (0..n)
        .map(|_| {
            let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let mut turns = vec![rng.random_range(0.3..1.5)];
            for _ in 0..3 {
                let prev = *turns.last().unwrap();
                turns.push(prev * rng.random_range(1.3..4.0));
            }
            let glide = rng.random_range(1.0..3.0);
            FreeRobot::new(side, turns.clone(), glide * turns[0]).expect("valid by construction")
        })
        .collect();
    FreeSchedule::new(robots).expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cross-check verdict is exactly `measured < cert.lo ->
    /// Rejected`, and every rejected schedule is also unscoreable by
    /// the optimizer's objective.
    #[test]
    fn sub_alpha_measurements_are_always_rejected(
        n in 2usize..=4,
        entropy in any::<u64>(),
        xmax in 1.5f64..6.0,
    ) {
        // n = f + 1 < 2f + 2: the alpha bound applies.
        let f = n - 1;
        let params = Params::new(n, f).unwrap();
        let schedule = random_schedule(n, entropy);
        let objective = Objective::new(params, xmax).unwrap();
        let measured = objective.measure(&schedule).unwrap();
        prop_assume!(measured.uncovered == 0 && measured.empirical.is_finite());

        let cert = certify_alpha(n).unwrap();
        let verdict = cross_check(Some(&cert), measured.empirical);
        if measured.empirical < cert.lo {
            prop_assert_eq!(verdict, CrossCheck::Rejected);
            // The greedy search can never adopt such a schedule: its
            // objective value is the penalty, not the flattering
            // measurement.
            prop_assert_eq!(objective.eval(&schedule), PENALTY);
        } else {
            prop_assert_eq!(verdict, CrossCheck::Consistent);
            // A scoreable schedule evaluates to its supremum plus the
            // bounded pressure tie-breaker.
            let score = objective.eval(&schedule);
            prop_assert!(score > measured.empirical);
            prop_assert!(score <= measured.empirical + PRESSURE_WEIGHT);
        }
    }
}

/// A hand-built window-overfitted schedule: two robots sweep `[1,
/// 1.2]` on both sides so every target is double-visited with ratio
/// about 3.4 — "beating" `alpha(2) ≈ 3.93` inside the window. The
/// cross-check must call this out.
#[test]
fn a_window_overfitted_schedule_is_rejected_not_celebrated() {
    let params = Params::new(2, 1).unwrap();
    let right = FreeRobot::new(1.0, vec![1.201, 3.0], 1.201).unwrap();
    let left = FreeRobot::new(-1.0, vec![1.201, 3.0], 1.201).unwrap();
    let schedule = FreeSchedule::new(vec![right, left]).unwrap();

    let objective = Objective::new(params, 1.2).unwrap();
    let measured = objective.measure(&schedule).unwrap();
    assert_eq!(measured.uncovered, 0);

    let cert = certify_alpha(2).unwrap();
    assert!(
        measured.empirical < cert.lo,
        "expected a sub-bound in-window measurement, got {} vs certified lo {}",
        measured.empirical,
        cert.lo
    );
    assert_eq!(cross_check(Some(&cert), measured.empirical), CrossCheck::Rejected);
    assert_eq!(objective.eval(&schedule), PENALTY);
}
