//! Closed-form competitive-ratio analytics: Theorem 1, its optimal cone
//! parameter `beta*`, Corollary 1 and the asymptotic expressions plotted
//! in Figure 5.

use crate::error::{Error, Result};
use crate::params::{Params, Regime};

/// Competitive ratio of the proportional schedule `S_beta(n)` against
/// `f` faulty robots (Lemma 5):
///
/// ```text
/// CR(beta) = (beta+1)^((2f+2)/n) * (beta-1)^(1-(2f+2)/n) + 1
/// ```
///
/// # Errors
///
/// Returns [`Error::InvalidBeta`] for `beta <= 1`.
///
/// ```
/// use faultline_core::{ratio, Params};
/// let p = Params::new(4, 2)?;
/// // beta* = 2 gives 3^(3/2) + 1 ≈ 6.196.
/// assert!((ratio::cr_of_beta(p, 2.0)? - 6.196).abs() < 1e-3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn cr_of_beta(params: Params, beta: f64) -> Result<f64> {
    if !beta.is_finite() || beta <= 1.0 {
        return Err(Error::InvalidBeta { beta });
    }
    let e = params.exponent();
    Ok((beta + 1.0).powf(e) * (beta - 1.0).powf(1.0 - e) + 1.0)
}

/// The optimal cone parameter `beta* = (4f+4)/n - 1` minimizing
/// [`cr_of_beta`] (derived by setting `F'(beta) = 0` in Section 3).
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] when the parameters are not in
/// the proportional regime (`n >= 2f + 2` gives `beta* <= 1`, where the
/// cone degenerates and the two-group strategy applies instead).
pub fn optimal_beta(params: Params) -> Result<f64> {
    if params.regime() != Regime::Proportional {
        return Err(Error::invalid_params(
            params.n(),
            params.f(),
            "beta* is only defined in the proportional regime f < n < 2f + 2",
        ));
    }
    Ok((4 * params.f() + 4) as f64 / params.n() as f64 - 1.0)
}

/// The competitive ratio of the paper's algorithm `A(n, f)`:
/// 1 in the two-group regime, otherwise Theorem 1's expression
///
/// ```text
/// ((4f+4)/n)^((2f+2)/n) * ((4f+4)/n - 2)^(1-(2f+2)/n) + 1.
/// ```
#[must_use]
pub fn cr_upper(params: Params) -> f64 {
    match params.regime() {
        Regime::TwoGroup => 1.0,
        Regime::Proportional => {
            let beta = (4 * params.f() + 4) as f64 / params.n() as f64 - 1.0;
            cr_of_beta(params, beta).expect("beta* > 1 in the proportional regime")
        }
    }
}

/// The expansion factor `(beta* + 1)/(beta* - 1) = (4f+4)/(4f+4-2n)` of
/// `A(n, f)`.
///
/// # Errors
///
/// As [`optimal_beta`].
pub fn expansion_factor(params: Params) -> Result<f64> {
    let beta = optimal_beta(params)?;
    Ok((beta + 1.0) / (beta - 1.0))
}

/// The proportionality ratio `r = kappa^(2/n)` of `A(n, f)`.
///
/// # Errors
///
/// As [`optimal_beta`].
pub fn proportionality_ratio(params: Params) -> Result<f64> {
    Ok(expansion_factor(params)?.powf(2.0 / params.n() as f64))
}

/// Figure 5 (left): competitive ratio of `A(2f+1, f)` as a function of
/// `n = 2f + 1`,
///
/// ```text
/// (2 + 2/n)^(1 + 1/n) * (2/n)^(-1/n) + 1,
/// ```
///
/// which tends to 3 as `n → ∞`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] unless `n` is odd and at least 3
/// (so that `n = 2f + 1` for some `f >= 1`).
pub fn cr_odd_n(n: usize) -> Result<f64> {
    if n < 3 || n.is_multiple_of(2) {
        return Err(Error::invalid_params(
            n,
            0,
            "cr_odd_n requires odd n >= 3 (n = 2f + 1 with f >= 1)",
        ));
    }
    let nf = n as f64;
    Ok((2.0 + 2.0 / nf).powf(1.0 + 1.0 / nf) * (2.0 / nf).powf(-1.0 / nf) + 1.0)
}

/// Figure 5 (right): the asymptotic competitive ratio when a fixed
/// proportion `a = n/f` of the robots may be reliable, `1 < a <= 2`:
///
/// ```text
/// (4/a)^(2/a) * (4/a - 2)^(1 - 2/a) + 1.
/// ```
///
/// At `a = 2` the expression is interpreted by continuity as 3 (the
/// `0^0`-style limit: `(1 - 2/a) ln(4/a - 2) → 0`).
///
/// # Errors
///
/// Returns [`Error::Domain`] for `a` outside `(1, 2]`.
pub fn asymptotic_cr(a: f64) -> Result<f64> {
    if !(a > 1.0 && a <= 2.0) {
        return Err(Error::domain(format!("asymptotic_cr requires 1 < a <= 2, got {a}")));
    }
    if a == 2.0 {
        return Ok(3.0);
    }
    Ok((4.0 / a).powf(2.0 / a) * (4.0 / a - 2.0).powf(1.0 - 2.0 / a) + 1.0)
}

/// Corollary 1: the upper bound `3 + 4 ln n / n` (excluding `O(1)/n`
/// terms) on the competitive ratio of `A(2f+1, f)`.
///
/// # Errors
///
/// As [`cr_odd_n`].
pub fn corollary1_upper(n: usize) -> Result<f64> {
    if n < 3 || n.is_multiple_of(2) {
        return Err(Error::invalid_params(n, 0, "corollary 1 applies to odd n >= 3"));
    }
    let nf = n as f64;
    Ok(3.0 + 4.0 * nf.ln() / nf)
}

/// Fleet planning: the smallest number of robots guaranteeing a
/// competitive ratio at most `target_cr` while tolerating `f` faults.
///
/// `cr_upper` is strictly decreasing in `n` for fixed `f` (down to 1 at
/// `n = 2f + 2`), so a linear scan from `n = f + 1` terminates.
///
/// # Errors
///
/// Returns [`Error::Domain`] when `target_cr < 1` (unachievable by any
/// fleet).
pub fn min_robots(f: usize, target_cr: f64) -> Result<usize> {
    if !(target_cr >= 1.0) {
        return Err(Error::domain(format!(
            "no fleet achieves a competitive ratio below 1, requested {target_cr}"
        )));
    }
    Ok((f + 1..=2 * f + 2)
        .find(|&n| cr_upper(Params::new(n, f).expect("n > f by construction")) <= target_cr)
        .unwrap_or(2 * f + 2))
}

/// Numerically minimizes [`cr_of_beta`] over `beta` by golden-section
/// search; used to cross-check the closed form [`optimal_beta`].
///
/// # Errors
///
/// Propagates solver failures and regime errors.
#[cfg(test)]
pub(crate) fn optimal_beta_numeric(params: Params) -> Result<f64> {
    if params.regime() != Regime::Proportional {
        return Err(Error::invalid_params(
            params.n(),
            params.f(),
            "numeric beta search is only meaningful in the proportional regime",
        ));
    }
    let objective = |beta: f64| cr_of_beta(params, beta).unwrap_or(f64::INFINITY);
    crate::numeric::golden_min(objective, 1.0 + 1e-9, 64.0, 1e-12, 500)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    fn p(n: usize, f: usize) -> Params {
        Params::new(n, f).unwrap()
    }

    #[test]
    fn theorem1_matches_paper_table() {
        // (n, f, expected CR) from Table 1.
        let cases = [
            (2, 1, 9.0),
            (3, 1, 5.233),
            (3, 2, 9.0),
            (4, 2, 6.196),
            (4, 3, 9.0),
            (5, 2, 4.434),
            (5, 3, 6.76),
            (5, 4, 9.0),
            (11, 5, 3.736),
            (41, 20, 3.24),
        ];
        for (n, f, expect) in cases {
            let cr = cr_upper(p(n, f));
            assert!(
                (cr - expect).abs() < 5e-3,
                "(n = {n}, f = {f}): CR = {cr}, paper says {expect}"
            );
        }
    }

    #[test]
    fn two_group_regime_is_one() {
        assert_eq!(cr_upper(p(4, 1)), 1.0);
        assert_eq!(cr_upper(p(5, 1)), 1.0);
        assert_eq!(cr_upper(p(100, 3)), 1.0);
    }

    #[test]
    fn optimal_beta_closed_form() {
        assert!(approx_eq(optimal_beta(p(3, 1)).unwrap(), 5.0 / 3.0, 1e-12));
        assert!(approx_eq(optimal_beta(p(2, 1)).unwrap(), 3.0, 1e-12));
        assert!(approx_eq(optimal_beta(p(4, 2)).unwrap(), 2.0, 1e-12));
        assert!(optimal_beta(p(4, 1)).is_err());
    }

    #[test]
    fn optimal_beta_agrees_with_numeric_minimum() {
        for (n, f) in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (11, 5), (41, 20)] {
            let params = p(n, f);
            let closed = optimal_beta(params).unwrap();
            let numeric = optimal_beta_numeric(params).unwrap();
            assert!(
                (closed - numeric).abs() < 1e-5,
                "(n = {n}, f = {f}): beta* = {closed}, numeric = {numeric}"
            );
        }
    }

    #[test]
    fn expansion_factors_match_table1() {
        let cases = [
            (2, 1, 2.0),
            (3, 1, 4.0),
            (3, 2, 2.0),
            (4, 2, 3.0),
            (5, 2, 6.0),
            (5, 3, 8.0 / 3.0),
            (5, 4, 2.0),
            (11, 5, 12.0),
            (41, 20, 42.0),
        ];
        for (n, f, expect) in cases {
            let kappa = expansion_factor(p(n, f)).unwrap();
            assert!(
                approx_eq(kappa, expect, 1e-9),
                "(n = {n}, f = {f}): kappa = {kappa}, expected {expect}"
            );
        }
    }

    #[test]
    fn expansion_factor_for_n_2f_plus_1_is_n_plus_1() {
        // Paper, Section 1.1: "for n = 2f+1 ... the expansion factor ...
        // is always n + 1".
        for f in 1..40usize {
            let n = 2 * f + 1;
            let kappa = expansion_factor(p(n, f)).unwrap();
            assert!(approx_eq(kappa, (n + 1) as f64, 1e-9), "f = {f}");
        }
    }

    #[test]
    fn expansion_factor_for_n_f_plus_1_is_2() {
        for f in 1..40usize {
            let kappa = expansion_factor(p(f + 1, f)).unwrap();
            assert!(approx_eq(kappa, 2.0, 1e-9), "f = {f}");
        }
    }

    #[test]
    fn n_equals_f_plus_one_gives_nine() {
        for f in 0..40usize {
            let cr = cr_upper(p(f + 1, f));
            assert!(approx_eq(cr, 9.0, 1e-9), "f = {f}: CR = {cr}");
        }
    }

    #[test]
    fn cr_odd_n_matches_general_formula() {
        for f in 1..30usize {
            let n = 2 * f + 1;
            let from_general = cr_upper(p(n, f));
            let from_odd = cr_odd_n(n).unwrap();
            assert!(
                approx_eq(from_general, from_odd, 1e-10),
                "n = {n}: {from_general} vs {from_odd}"
            );
        }
    }

    #[test]
    fn cr_odd_n_tends_to_three_from_above() {
        let mut prev = f64::INFINITY;
        for n in (3..2001usize).step_by(2) {
            let cr = cr_odd_n(n).unwrap();
            assert!(cr > 3.0, "n = {n}");
            assert!(cr < prev, "sequence must decrease at n = {n}");
            prev = cr;
        }
        assert!(prev < 3.03, "CR(1999) = {prev} should be close to 3");
    }

    #[test]
    fn corollary1_bounds_cr_odd_n_asymptotically() {
        for n in (31..500usize).step_by(2) {
            let cr = cr_odd_n(n).unwrap();
            // The paper's bound excludes O(1)/n terms; allow that slack.
            let bound = corollary1_upper(n).unwrap() + 6.0 / n as f64;
            assert!(cr <= bound, "n = {n}: CR = {cr} > bound {bound}");
        }
    }

    #[test]
    fn cr_odd_n_rejects_even_or_small() {
        assert!(cr_odd_n(4).is_err());
        assert!(cr_odd_n(1).is_err());
        assert!(corollary1_upper(2).is_err());
    }

    #[test]
    fn asymptotic_cr_limits() {
        // a -> 1+: ratio approaches the single-group value 9.
        assert!((asymptotic_cr(1.0 + 1e-9).unwrap() - 9.0).abs() < 1e-6);
        // a = 2: ratio is 3 by continuity.
        assert_eq!(asymptotic_cr(2.0).unwrap(), 3.0);
        // Approaching 2 from below converges to 3.
        assert!((asymptotic_cr(2.0 - 1e-7).unwrap() - 3.0).abs() < 1e-4);
        assert!(asymptotic_cr(1.0).is_err());
        assert!(asymptotic_cr(2.5).is_err());
    }

    #[test]
    fn asymptotic_cr_is_monotone_decreasing() {
        let grid = crate::numeric::linspace(1.01, 2.0, 200);
        for w in grid.windows(2) {
            let hi = asymptotic_cr(w[0]).unwrap();
            let lo = asymptotic_cr(w[1]).unwrap();
            assert!(hi > lo, "not decreasing at a = {}", w[0]);
        }
    }

    #[test]
    fn cr_of_beta_validates() {
        assert!(cr_of_beta(p(3, 1), 1.0).is_err());
        assert!(cr_of_beta(p(3, 1), f64::NAN).is_err());
    }

    #[test]
    fn min_robots_planning() {
        // Tolerating 2 faults: ratio 1 needs 6 robots; ratio 5 needs 5;
        // ratio 7 is met by 4 (CR 6.196); ratio 9 by 3 (CR 9).
        assert_eq!(min_robots(2, 1.0).unwrap(), 6);
        assert_eq!(min_robots(2, 5.0).unwrap(), 5);
        assert_eq!(min_robots(2, 7.0).unwrap(), 4);
        assert_eq!(min_robots(2, 9.0).unwrap(), 3);
        assert!(min_robots(2, 0.5).is_err());
        // The returned fleet really meets the target, and one fewer
        // robot really does not.
        for f in 1..12usize {
            for target in [1.0, 3.9, 5.0, 9.0] {
                let n = min_robots(f, target).unwrap();
                assert!(cr_upper(p(n, f)) <= target, "f = {f}, target = {target}");
                if n > f + 1 {
                    assert!(cr_upper(p(n - 1, f)) > target, "f = {f}, target = {target}");
                }
            }
        }
    }

    #[test]
    fn asymptotic_formula_is_limit_of_finite_formula() {
        // For a = n/f fixed, cr_upper(n, f) -> asymptotic_cr(a).
        let a = 1.5;
        let mut last_gap = f64::INFINITY;
        for f in [10usize, 100, 1000] {
            let n = (a * f as f64).round() as usize;
            let finite = cr_upper(p(n, f));
            let asym = asymptotic_cr(a).unwrap();
            let gap = (finite - asym).abs();
            assert!(gap < last_gap, "gap must shrink (f = {f})");
            last_gap = gap;
        }
        assert!(last_gap < 1e-2);
    }
}
