//! Numerical substrate: tolerant comparisons, grids, root finding and
//! one-dimensional minimization.
//!
//! Every closed form in the paper is cross-checked numerically somewhere
//! in this workspace (the proportionality ratio `r`, the lower-bound root
//! `alpha(n)`, the optimal cone parameter `beta*`), so the solvers here are
//! written defensively: they validate their brackets, bound their
//! iteration counts and report failures as [`Error::Numerical`] instead of
//! looping forever or returning `NaN`.

use crate::error::{Error, Result};

/// Default relative tolerance used by solvers in this module.
pub const DEFAULT_TOL: f64 = 1e-13;

/// Default iteration cap for bracketing solvers.
pub const DEFAULT_MAX_ITER: usize = 200;

/// Returns `true` when `a` and `b` agree up to relative tolerance `tol`
/// (with an absolute floor of `tol` for values near zero).
///
/// ```
/// use faultline_core::numeric::approx_eq;
/// assert!(approx_eq(1.0 + 1e-15, 1.0, 1e-12));
/// assert!(!approx_eq(1.0, 1.1, 1e-12));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

/// Returns `k` evenly spaced values covering `[lo, hi]` inclusive.
///
/// Returns an empty vector for `k == 0` and `[lo]` for `k == 1`.
///
/// ```
/// use faultline_core::numeric::linspace;
/// assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
/// ```
#[must_use]
pub fn linspace(lo: f64, hi: f64, k: usize) -> Vec<f64> {
    match k {
        0 => Vec::new(),
        1 => vec![lo],
        _ => {
            let step = (hi - lo) / (k - 1) as f64;
            (0..k).map(|i| if i + 1 == k { hi } else { lo + step * i as f64 }).collect()
        }
    }
}

/// Returns `k` logarithmically spaced values covering `[lo, hi]`,
/// both strictly positive.
///
/// # Errors
///
/// Returns [`Error::Domain`] if `lo <= 0`, `hi <= 0` or `lo > hi`.
pub fn logspace(lo: f64, hi: f64, k: usize) -> Result<Vec<f64>> {
    if lo <= 0.0 || hi <= 0.0 || lo > hi {
        return Err(Error::domain(format!(
            "logspace requires 0 < lo <= hi, got lo = {lo}, hi = {hi}"
        )));
    }
    Ok(linspace(lo.ln(), hi.ln(), k).into_iter().map(f64::exp).collect())
}

/// Finds a root of `f` inside the bracket `[lo, hi]` by bisection.
///
/// The function values at the bracket ends must have opposite signs
/// (one of them may be zero, in which case that end is returned).
///
/// # Errors
///
/// Returns [`Error::Numerical`] when the bracket is invalid, when either
/// endpoint evaluates to a non-finite value, or when `max_iter` halvings
/// do not reach the requested tolerance.
///
/// ```
/// use faultline_core::numeric::bisect;
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-14, 200)?;
/// assert!((root - std::f64::consts::SQRT_2).abs() < 1e-12);
/// # Ok::<(), faultline_core::Error>(())
/// ```
pub fn bisect(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64, max_iter: usize) -> Result<f64> {
    if !(lo < hi) {
        return Err(Error::numerical(format!("bisect: invalid bracket [{lo}, {hi}]")));
    }
    let flo = f(lo);
    let fhi = f(hi);
    if !flo.is_finite() || !fhi.is_finite() {
        return Err(Error::numerical(format!(
            "bisect: non-finite endpoint values f({lo}) = {flo}, f({hi}) = {fhi}"
        )));
    }
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(Error::numerical(format!(
            "bisect: no sign change over [{lo}, {hi}] (f = {flo}, {fhi})"
        )));
    }
    let (mut lo, mut hi, mut flo) = (lo, hi, flo);
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if !fmid.is_finite() {
            return Err(Error::numerical(format!("bisect: f({mid}) is not finite")));
        }
        if fmid == 0.0 || (hi - lo) <= tol * mid.abs().max(1.0) {
            return Ok(mid);
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Minimizes a unimodal function on `[lo, hi]` by golden-section search
/// and returns the minimizing abscissa.
///
/// Used to cross-check the closed-form optimum `beta* = (4f+4)/n - 1`
/// of the competitive-ratio expression (Theorem 1).
///
/// # Errors
///
/// Returns [`Error::Numerical`] when the bracket is invalid or the
/// function evaluates to a non-finite value inside it.
pub fn golden_min(
    f: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64> {
    if !(lo < hi) {
        return Err(Error::numerical(format!("golden_min: invalid bracket [{lo}, {hi}]")));
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..max_iter {
        if !fc.is_finite() || !fd.is_finite() {
            return Err(Error::numerical("golden_min: non-finite interior value".to_owned()));
        }
        if (b - a) <= tol * a.abs().max(1.0) {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    Ok(0.5 * (a + b))
}

/// Newton's method with a bisection fallback bracket.
///
/// Performs Newton iterations from `x0`; whenever an iterate escapes
/// `[lo, hi]` or the derivative is tiny, falls back to a bisection step
/// on the bracket. The bracket must contain a sign change.
///
/// # Errors
///
/// Propagates bracket errors from [`bisect`] and reports non-finite
/// evaluations.
pub fn newton_bracketed(
    f: impl Fn(f64) -> f64,
    df: impl Fn(f64) -> f64,
    x0: f64,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64> {
    let mut x = x0.clamp(lo, hi);
    for _ in 0..max_iter {
        let fx = f(x);
        if !fx.is_finite() {
            return Err(Error::numerical(format!("newton: f({x}) is not finite")));
        }
        if fx.abs() <= tol {
            return Ok(x);
        }
        let dfx = df(x);
        let next =
            if dfx.abs() > f64::MIN_POSITIVE && dfx.is_finite() { x - fx / dfx } else { f64::NAN };
        if next.is_finite() && next > lo && next < hi {
            if (next - x).abs() <= tol * x.abs().max(1.0) {
                return Ok(next);
            }
            x = next;
        } else {
            // Newton stepped outside the bracket: finish with bisection.
            return bisect(f, lo, hi, tol, max_iter);
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let xs = linspace(1.0, 3.0, 11);
        assert_eq!(xs.len(), 11);
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[10], 3.0);
    }

    #[test]
    fn linspace_degenerate_counts() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(2.0, 5.0, 1), vec![2.0]);
    }

    #[test]
    fn logspace_is_geometric() {
        let xs = logspace(1.0, 100.0, 3).unwrap();
        assert!(approx_eq(xs[1], 10.0, 1e-12));
        assert!(approx_eq(xs[2], 100.0, 1e-12));
    }

    #[test]
    fn logspace_rejects_nonpositive() {
        assert!(logspace(0.0, 1.0, 4).is_err());
        assert!(logspace(-1.0, 1.0, 4).is_err());
        assert!(logspace(2.0, 1.0, 4).is_err());
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-14, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn bisect_accepts_root_at_endpoint() {
        let r = bisect(|x| x, 0.0, 1.0, 1e-14, 100).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).is_err());
        assert!(bisect(|x| x, 1.0, 1.0, 1e-12, 100).is_err());
    }

    #[test]
    fn golden_min_finds_parabola_vertex() {
        let m = golden_min(|x| (x - 1.25) * (x - 1.25) + 3.0, 0.0, 4.0, 1e-12, 500).unwrap();
        assert!((m - 1.25).abs() < 1e-6, "m = {m}");
    }

    #[test]
    fn newton_matches_bisection() {
        let f = |x: f64| x.powi(3) - 5.0;
        let df = |x: f64| 3.0 * x * x;
        let newton = newton_bracketed(f, df, 2.0, 1.0, 3.0, 1e-14, 100).unwrap();
        let bis = bisect(f, 1.0, 3.0, 1e-14, 200).unwrap();
        assert!(approx_eq(newton, bis, 1e-10));
    }

    #[test]
    fn newton_falls_back_outside_bracket() {
        // Flat derivative at the start pushes Newton far away; fallback
        // bisection must still find the root of x - 0.5 on [0, 1].
        let f = |x: f64| x - 0.5;
        let df = |_: f64| 1e-300;
        let r = newton_bracketed(f, df, 0.9, 0.0, 1.0, 1e-13, 100).unwrap();
        assert!(approx_eq(r, 0.5, 1e-10));
    }
}
