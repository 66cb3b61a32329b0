//! Integration tests for the extension layer: bounded distance, turn
//! cost, arrival-index spectrum, randomized sweeps, certificates and
//! the verification matrix, exercised together through the facade.

use faultline_suite::analysis::{
    bounded, convergence, group_search, randomized, turncost, verification,
};
use faultline_suite::core::certificate;
use faultline_suite::core::{ratio, Params};
use faultline_suite::strategies::{PaperStrategy, RandomizedSweepStrategy};

#[test]
fn certificates_agree_with_measured_table() {
    // The certified intervals must contain the float closed forms AND
    // be consistent with the empirical supremum measurements.
    for (n, f) in [(3usize, 1usize), (5, 2), (11, 5)] {
        let params = Params::new(n, f).unwrap();
        let cert = certificate::certify_cr_upper(params).unwrap();
        let float_cr = ratio::cr_upper(params);
        assert!(cert.contains(float_cr));
        let measured =
            faultline_suite::analysis::measure_strategy_cr(&PaperStrategy::new(), params, 25.0)
                .unwrap()
                .empirical;
        // The measured supremum approaches the certified value from
        // below within the scan tolerance.
        assert!(measured <= cert.hi + 1e-6, "(n={n}, f={f})");
        assert!(measured >= cert.lo - 1e-2, "(n={n}, f={f})");
    }
}

#[test]
fn verification_matrix_is_machine_tight_across_the_board() {
    let pairs = [(2usize, 1usize), (3, 2), (5, 2), (7, 3)];
    let reports = verification::run_matrix_batch(&pairs, 25.0, 10).unwrap();
    for r in &reports {
        assert!(r.worst_gap < 1e-9, "(n={}, f={}): gap {}", r.n, r.f, r.worst_gap);
    }
}

#[test]
fn extension_experiments_compose() {
    let params = Params::new(3, 1).unwrap();

    // E1: bounded never worse, tight bound strictly better.
    let sweep = bounded::bound_sweep(params, &[1.5, 4.0]).unwrap();
    assert!(sweep[0].measured_cr < sweep[0].unbounded_cr);
    assert!(sweep[1].measured_cr <= sweep[1].unbounded_cr + 1e-6);

    // E2: turn cost is additive at the design point.
    let cr = ratio::cr_upper(params);
    let priced =
        turncost::cost_cr(params, ratio::optimal_beta(params).unwrap(), 1.0, 20.0).unwrap();
    assert!((priced - (cr + 2.0)).abs() < 5e-3, "{priced} vs {}", cr + 2.0);

    // E3: spectrum is monotone and anchored at Theorem 1 for k = f + 1.
    let spectrum = group_search::k_spectrum(&PaperStrategy::new(), params, 12.0).unwrap();
    assert!((spectrum[1].cr - cr).abs() < 5e-3);
    assert!(spectrum[2].cr > spectrum[1].cr);

    // E4: randomized expectation beats the deterministic worst case.
    let kao = RandomizedSweepStrategy::kao_optimal();
    let expected = randomized::expected_cr(&kao, params, 20.0, 10, 60, 3).unwrap();
    assert_eq!(expected.uncovered, 0);
    assert!(expected.expected_cr < cr + 1.0);
}

#[test]
fn convergence_rates_support_the_corollaries() {
    let sizes = [101usize, 1001, 10_001];
    let c1 = convergence::corollary1_rate(&sizes).unwrap();
    let c2 = convergence::corollary2_rate(&sizes).unwrap();
    for (u, l) in c1.iter().zip(&c2) {
        // Upper bound dominates lower bound at every size, and both
        // normalized gaps live near the shared constant 2.
        assert!(u.value >= l.value);
        assert!(u.normalized_gap <= 4.0, "Corollary 1 envelope");
        assert!(l.normalized_gap <= u.normalized_gap + 1e-9);
    }
    let fixed = convergence::fixed_proportion_rate(1.75, &[100, 1000]).unwrap();
    assert!((fixed[1].value - fixed[1].limit).abs() < (fixed[0].value - fixed[0].limit).abs());
}
