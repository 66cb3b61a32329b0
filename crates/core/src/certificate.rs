//! Certified enclosures of the paper's headline numbers, built on the
//! outward-rounded interval arithmetic of `crate::interval`.
//!
//! A *certificate* is an interval that provably contains the exact
//! real-arithmetic value. Certifying Theorem 1's ratio is a direct
//! interval evaluation of the closed form; certifying the lower-bound
//! root `alpha(n)` uses a sign argument: the defining function
//! `h(alpha) = n ln(alpha-1) + ln(alpha-3) - (n+1) ln 2` is strictly
//! increasing on `(3, ∞)`, so if interval evaluation shows
//! `h(a) < 0 < h(b)` with certainty, the root lies in `[a, b]`.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::params::{Params, Regime};

/// A certified enclosure of a named quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    /// What is certified, e.g. `"CR of A(3, 1)"`.
    pub quantity: String,
    /// Certified lower bound.
    pub lo: f64,
    /// Certified upper bound.
    pub hi: f64,
}

impl Certificate {
    /// Wraps a certified [`Interval`] enclosure as a named certificate
    /// — the bridge that lets *measured* quantities (the exact
    /// supremum engine's enclosed scans, the exploration engine's
    /// worst-case values) join the Table-1 closed forms in `repro
    /// certify` output.
    #[must_use]
    pub fn from_interval(quantity: impl Into<String>, enclosure: Interval) -> Certificate {
        Certificate { quantity: quantity.into(), lo: enclosure.lo(), hi: enclosure.hi() }
    }

    /// Whether two certificates overlap — the consistency check
    /// between a certified closed form and a certified measurement of
    /// the same quantity (disjoint enclosures prove a discrepancy).
    #[must_use]
    pub fn intersects(&self, other: &Certificate) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The width of the enclosure.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Certifies Theorem 1's competitive ratio
/// `((4f+4)/n)^((2f+2)/n) ((4f+4)/n - 2)^(1-(2f+2)/n) + 1` for a
/// proportional-regime pair, by interval evaluation of the closed form.
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] outside the proportional regime
/// and propagates interval-arithmetic domain failures.
pub(crate) fn certify_cr_upper(params: Params) -> Result<Certificate> {
    if params.regime() != Regime::Proportional {
        return Err(Error::invalid_params(
            params.n(),
            params.f(),
            "certification targets the proportional regime (two-group is exactly 1)",
        ));
    }
    // beta* + 1 = (4f+4)/n and beta* - 1 = (4f+4)/n - 2, both as exact
    // rationals evaluated with one rounding each.
    let four_f4 = (4 * params.f() + 4) as f64;
    let n = params.n() as f64;
    let beta_plus_1 = Interval::around(four_f4 / n)?;
    let beta_minus_1 = beta_plus_1.add_scalar(-2.0);
    if !beta_minus_1.is_positive() {
        return Err(Error::domain(
            "beta* - 1 must be positive in the proportional regime".to_owned(),
        ));
    }
    let e = Interval::around((2 * params.f() + 2) as f64 / n)?;
    let one_minus_e = Interval::point(1.0)?.sub(e);
    let cr =
        beta_plus_1.powi_interval(e)?.mul(beta_minus_1.powi_interval(one_minus_e)?).add_scalar(1.0);
    Ok(Certificate {
        quantity: format!("CR of A({}, {})", params.n(), params.f()),
        lo: cr.lo(),
        hi: cr.hi(),
    })
}

/// Interval evaluation of the lower-bound function
/// `h(alpha) = n ln(alpha-1) + ln(alpha-3) - (n+1) ln 2`.
fn h_interval(n: usize, alpha: f64) -> Result<Interval> {
    let a = Interval::around(alpha)?;
    let term1 = a.add_scalar(-1.0).ln()?.mul_scalar(n as f64);
    let term2 = a.add_scalar(-3.0).ln()?;
    let rhs = Interval::around(std::f64::consts::LN_2)?.mul_scalar((n + 1) as f64);
    Ok(term1.add(term2).sub(rhs))
}

/// Certifies the Theorem 2 root `alpha(n)` of
/// `(alpha-1)^n (alpha-3) = 2^(n+1)`.
///
/// Starting from the `f64` root, the enclosure `[root - eps, root + eps]`
/// is expanded until the interval evaluation proves
/// `h(lo) < 0 < h(hi)`; by strict monotonicity of `h` the exact root
/// lies inside.
///
/// # Errors
///
/// Propagates solver failures and reports certification failure when no
/// enclosure below width `1e-6` can be proven.
pub fn certify_alpha(n: usize) -> Result<Certificate> {
    let root = crate::lower_bound::alpha(n)?;
    let mut eps = 1e-13 * root.max(1.0);
    for _ in 0..40 {
        let lo = root - eps;
        let hi = root + eps;
        if lo > 3.0 {
            let h_lo = h_interval(n, lo)?;
            let h_hi = h_interval(n, hi)?;
            if h_lo.is_negative() && h_hi.is_positive() {
                return Ok(Certificate { quantity: format!("alpha({n})"), lo, hi });
            }
        }
        eps *= 2.0;
        if eps > 1e-6 {
            break;
        }
    }
    Err(Error::numerical(format!("could not certify alpha({n}) to width 1e-6")))
}

/// Certifies the *binding* lower bound on the competitive ratio for
/// `(n, f)` — the certified counterpart of
/// [`crate::lower_bound::lower_bound`]:
///
/// * `n >= 2f + 2`: the exact `[1, 1]` (two-group optimality),
/// * `n == f + 1`: `[9 - 1e-9, 9]` — the single-robot reduction's
///   exact bound 9, padded one measurement epsilon outward so
///   empirical suprema that equalize the bound to float precision
///   still sit inside the enclosure,
/// * otherwise: the [`certify_alpha`] enclosure of Theorem 2's root.
///
/// Note that for `n == f + 1` the Theorem 2 root `alpha(n)` is also a
/// valid lower bound, but it is dominated by 9: any measurement below
/// this certificate's `lo` is evidence of window under-measurement,
/// never of a real sub-9 schedule.
///
/// # Errors
///
/// Propagates [`certify_alpha`] failures.
pub fn certify_lower_bound(params: Params) -> Result<Certificate> {
    if params.regime() == Regime::TwoGroup {
        return Ok(Certificate {
            quantity: format!("lower bound for ({}, {}) (two-group)", params.n(), params.f()),
            lo: 1.0,
            hi: 1.0,
        });
    }
    if params.n() == params.f() + 1 {
        return Ok(Certificate {
            quantity: format!(
                "lower bound for ({}, {}) (single-robot reduction)",
                params.n(),
                params.f()
            ),
            lo: 9.0 - 1e-9,
            hi: 9.0,
        });
    }
    certify_alpha(params.n())
}

/// Certifies every proportional-regime row of the paper's Table 1:
/// both the Theorem 1 ratio and the Theorem 2 root.
///
/// # Errors
///
/// Propagates per-row failures.
pub fn certify_table1() -> Result<Vec<Certificate>> {
    let pairs: [(usize, usize); 10] =
        [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (11, 5), (41, 20)];
    let mut out = Vec::new();
    for (n, f) in pairs {
        out.push(certify_cr_upper(Params::new(n, f)?)?);
        out.push(certify_alpha(n)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encloses(cert: &Certificate, x: f64) -> bool {
        cert.lo <= x && x <= cert.hi
    }
    use crate::ratio;

    #[test]
    fn certified_cr_contains_float_value_and_is_tight() {
        for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 2), (5, 3), (11, 5), (41, 20)] {
            let params = Params::new(n, f).unwrap();
            let cert = certify_cr_upper(params).unwrap();
            let float_value = ratio::cr_upper(params);
            assert!(
                encloses(&cert, float_value),
                "(n={n}, f={f}): {float_value} outside [{}, {}]",
                cert.lo,
                cert.hi
            );
            assert!(cert.width() < 1e-9, "(n={n}, f={f}): width {}", cert.width());
        }
    }

    #[test]
    fn from_interval_and_intersects_bridge_measured_enclosures() {
        let enc = Interval::new(5.23, 5.24).unwrap();
        let measured = Certificate::from_interval("measured sup of A(3, 1)", enc);
        assert_eq!(measured.lo, 5.23);
        assert_eq!(measured.hi, 5.24);
        assert!(encloses(&measured, 5.233));
        let closed_form = certify_cr_upper(Params::new(3, 1).unwrap()).unwrap();
        assert!(measured.intersects(&closed_form));
        assert!(closed_form.intersects(&measured));
        let disjoint = Certificate { quantity: "other".into(), lo: 9.0, hi: 9.1 };
        assert!(!measured.intersects(&disjoint));
    }

    #[test]
    fn certified_cr_rejects_two_group() {
        assert!(certify_cr_upper(Params::new(4, 1).unwrap()).is_err());
    }

    #[test]
    fn certified_cr_matches_known_exact_values() {
        // A(f+1, f) has CR exactly 9 = 4^2 / 2 + 1.
        for f in [1usize, 2, 3, 10] {
            let cert = certify_cr_upper(Params::new(f + 1, f).unwrap()).unwrap();
            assert!(encloses(&cert, 9.0), "f = {f}: [{}, {}]", cert.lo, cert.hi);
        }
        // A(4, 2): beta* = 2, CR = 3^(3/2) + 1.
        let cert = certify_cr_upper(Params::new(4, 2).unwrap()).unwrap();
        assert!(encloses(&cert, 3.0_f64.powf(1.5) + 1.0));
    }

    #[test]
    fn certified_alpha_is_a_proven_enclosure() {
        for n in [1usize, 2, 3, 5, 11, 41, 101] {
            let cert = certify_alpha(n).unwrap();
            let float_root = crate::lower_bound::alpha(n).unwrap();
            assert!(encloses(&cert, float_root), "n = {n}");
            assert!(cert.width() < 1e-9, "n = {n}: width {}", cert.width());
            assert!(cert.lo > 3.0, "n = {n}");
            // Verify the sign argument directly at the certified bounds.
            assert!(h_interval(n, cert.lo).unwrap().is_negative());
            assert!(h_interval(n, cert.hi).unwrap().is_positive());
        }
    }

    #[test]
    fn certified_lower_bound_tracks_the_binding_regime() {
        // Two-group: exactly 1.
        let two_group = certify_lower_bound(Params::new(4, 1).unwrap()).unwrap();
        assert_eq!((two_group.lo, two_group.hi), (1.0, 1.0));
        // n = f + 1: the single-robot 9, not the dominated alpha(n).
        for f in [1usize, 2, 4] {
            let cert = certify_lower_bound(Params::new(f + 1, f).unwrap()).unwrap();
            assert!(encloses(&cert, 9.0), "f = {f}");
            assert!(cert.lo > crate::lower_bound::alpha(f + 1).unwrap(), "f = {f}");
            // `9.0 - 1e-9` rounds, so the width is 1e-9 only up to one
            // ulp of 9.
            assert!(cert.width() <= 1e-9 + f64::EPSILON * 9.0, "f = {f}");
        }
        // Mid-regime: the alpha(n) enclosure.
        let mid = certify_lower_bound(Params::new(5, 3).unwrap()).unwrap();
        assert_eq!(mid, certify_alpha(5).unwrap());
        // Every regime's certificate contains the float lower bound.
        for (n, f) in [(4usize, 1usize), (2, 1), (5, 4), (3, 1), (5, 2), (41, 20)] {
            let params = Params::new(n, f).unwrap();
            let cert = certify_lower_bound(params).unwrap();
            assert!(
                encloses(&cert, crate::lower_bound::lower_bound(params).unwrap()),
                "({n}, {f})"
            );
        }
    }

    #[test]
    fn table1_certificates_cover_paper_values() {
        let certs = certify_table1().unwrap();
        assert_eq!(certs.len(), 20);
        // Spot checks against the paper's printed (2-decimal) values:
        // every certificate must be consistent with the printed value to
        // print precision.
        let find = |q: &str| certs.iter().find(|c| c.quantity == q).unwrap();
        assert!((find("CR of A(3, 1)").lo - 5.24).abs() < 1e-2);
        assert!((find("alpha(3)").lo - 3.76).abs() < 5e-3);
        assert!((find("alpha(41)").lo - 3.1357).abs() < 5e-4);
    }
}
