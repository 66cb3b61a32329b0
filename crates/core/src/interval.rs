//! Outward-rounded interval arithmetic.
//!
//! The reproduction's headline numbers (Theorem 1 ratios, the
//! lower-bound roots `alpha(n)`) are computed in `f64`. This module
//! provides conservative interval enclosures — every operation widens
//! its result by one ULP in each direction after the `f64` computation,
//! so the true real-arithmetic value is guaranteed to lie inside the
//! returned interval (for the monotone operations used here). The
//! [`crate::certificate`] module uses it to *certify* the paper's
//! Table 1 to provable precision.

use std::fmt;

use crate::error::{Error, Result};

/// A closed interval `[lo, hi]` of finite `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `lo > hi` or either bound is not
    /// finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(Error::domain(format!("invalid interval [{lo}, {hi}]")));
        }
        Ok(Interval { lo, hi })
    }

    /// The degenerate interval `[x, x]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for non-finite `x`.
    pub fn point(x: f64) -> Result<Self> {
        Interval::new(x, x)
    }

    /// An interval around `x` widened by one ULP on each side — the
    /// correct enclosure for a value computed by a single rounded
    /// `f64` operation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for non-finite `x`.
    pub(crate) fn around(x: f64) -> Result<Self> {
        if !x.is_finite() {
            return Err(Error::domain(format!("cannot enclose non-finite value {x}")));
        }
        Ok(Interval { lo: x.next_down(), hi: x.next_up() })
    }

    /// Lower bound.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Whether the interval contains `x`.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether every point of the interval is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.lo > 0.0
    }

    /// Whether every point of the interval is strictly negative.
    #[must_use]
    pub(crate) fn is_negative(&self) -> bool {
        self.hi < 0.0
    }

    fn outward(lo: f64, hi: f64) -> Interval {
        Interval { lo: lo.next_down(), hi: hi.next_up() }
    }

    /// Interval addition (outward rounded).
    #[must_use]
    pub(crate) fn add(&self, other: Interval) -> Interval {
        Interval::outward(self.lo + other.lo, self.hi + other.hi)
    }

    /// Adds a scalar (outward rounded).
    #[must_use]
    pub(crate) fn add_scalar(&self, x: f64) -> Interval {
        Interval::outward(self.lo + x, self.hi + x)
    }

    /// Interval subtraction (outward rounded).
    #[must_use]
    pub(crate) fn sub(&self, other: Interval) -> Interval {
        Interval::outward(self.lo - other.hi, self.hi - other.lo)
    }

    /// Interval multiplication (outward rounded).
    #[must_use]
    pub(crate) fn mul(&self, other: Interval) -> Interval {
        let products =
            [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi];
        let lo = products.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = products.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval::outward(lo, hi)
    }

    /// Multiplies by a scalar (outward rounded).
    #[must_use]
    pub(crate) fn mul_scalar(&self, x: f64) -> Interval {
        let (a, b) = (self.lo * x, self.hi * x);
        Interval::outward(a.min(b), a.max(b))
    }

    /// Interval division (outward rounded).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when the divisor contains zero.
    pub fn div(&self, other: Interval) -> Result<Interval> {
        if other.contains(0.0) {
            return Err(Error::domain(format!(
                "interval division by [{}, {}] containing zero",
                other.lo, other.hi
            )));
        }
        let quotients =
            [self.lo / other.lo, self.lo / other.hi, self.hi / other.lo, self.hi / other.hi];
        let lo = quotients.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = quotients.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(Interval::outward(lo, hi))
    }

    /// Natural logarithm (requires a strictly positive interval).
    ///
    /// `ln` is increasing, so the enclosure is `[ln lo, ln hi]` widened
    /// outward by one ULP to absorb the rounding of `f64::ln` (which is
    /// faithfully rounded to within 1 ULP on all mainstream platforms;
    /// we widen by 2 ULPs for margin).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] unless the interval is strictly
    /// positive.
    pub(crate) fn ln(&self) -> Result<Interval> {
        if !self.is_positive() {
            return Err(Error::domain(format!(
                "ln of non-positive interval [{}, {}]",
                self.lo, self.hi
            )));
        }
        let lo = self.lo.ln().next_down().next_down();
        let hi = self.hi.ln().next_up().next_up();
        Ok(Interval { lo, hi })
    }

    /// Exponential (increasing; same 2-ULP widening as [`Interval::ln`]).
    #[must_use]
    pub(crate) fn exp(&self) -> Interval {
        let lo = self.lo.exp().next_down().next_down();
        let hi = self.hi.exp().next_up().next_up();
        Interval { lo, hi }
    }

    /// Interval power `self^exponent` for a strictly positive base,
    /// computed as `exp(exponent * ln(self))`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] unless the base is strictly positive.
    pub(crate) fn powi_interval(&self, exponent: Interval) -> Result<Interval> {
        Ok(self.ln()?.mul(exponent).exp())
    }

    /// Enclosure of the affine ratio `slope + intercept / x` over every
    /// `x` in the positive interval `xs` — the range form used to
    /// bracket a supremum near an imprecisely known critical point
    /// (e.g. a pairwise crossing enclosed by [`Interval::around`]
    /// arithmetic).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `xs` contains zero or the inputs
    /// are non-finite.
    pub(crate) fn affine_ratio_over(slope: f64, intercept: f64, xs: Interval) -> Result<Interval> {
        Ok(Interval::point(intercept)?.div(xs)?.add_scalar(slope))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fmt, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn width(i: Interval) -> f64 {
        i.hi() - i.lo()
    }

    #[test]
    fn construction_validation() {
        assert!(Interval::new(2.0, 1.0).is_err());
        assert!(Interval::new(f64::NAN, 1.0).is_err());
        assert!(Interval::new(0.0, f64::INFINITY).is_err());
        assert!(Interval::point(f64::NAN).is_err());
    }

    #[test]
    fn around_encloses_and_is_tight() {
        let x = 1.234_567_890_123;
        let i = Interval::around(x).unwrap();
        assert!(i.contains(x));
        assert!(width(i) < 1e-12);
    }

    #[test]
    fn arithmetic_encloses_exact_results() {
        let a = iv(1.0, 2.0);
        let b = iv(3.0, 4.0);
        let sum = a.add(b);
        assert!(sum.contains(4.0) && sum.contains(6.0));
        let diff = a.sub(b);
        assert!(diff.contains(-3.0) && diff.contains(-1.0));
        let prod = a.mul(b);
        assert!(prod.contains(3.0) && prod.contains(8.0));
        let quot = a.div(b).unwrap();
        assert!(quot.contains(0.25) && quot.contains(2.0 / 3.0));
    }

    #[test]
    fn mul_handles_signs() {
        let a = iv(-2.0, 3.0);
        let b = iv(-5.0, 4.0);
        let p = a.mul(b);
        // Extremes: -2*4 = -8 ... wait min is 3 * -5 = -15, max -2*-5 = 10 or 3*4 = 12.
        assert!(p.contains(-15.0) && p.contains(12.0));
    }

    #[test]
    fn division_by_zero_interval_rejected() {
        assert!(iv(1.0, 2.0).div(iv(-1.0, 1.0)).is_err());
        assert!(iv(1.0, 2.0).div(iv(0.0, 1.0)).is_err());
    }

    #[test]
    fn ln_exp_roundtrip_contains_identity() {
        let a = iv(0.5, 3.0);
        let round = a.ln().unwrap().exp();
        assert!(round.lo <= 0.5 && round.hi >= 3.0);
        assert!(width(round) < 3.0 * 1e-12 + width(a) * 1.001);
        assert!(iv(-1.0, 1.0).ln().is_err());
    }

    #[test]
    fn pow_encloses_known_values() {
        // 2^10 = 1024.
        let pow = |base: Interval, e: f64| base.powi_interval(Interval::point(e).unwrap()).unwrap();
        let p = pow(Interval::point(2.0).unwrap(), 10.0);
        assert!(p.contains(1024.0));
        assert!(width(p) < 1e-9);
        // (8/3)^(4/3) * (2/3)^(-1/3) + 1 = CR of A(3, 1) ~ 5.2331.
        let b = Interval::around(8.0 / 3.0).unwrap();
        let c = Interval::around(2.0 / 3.0).unwrap();
        let cr = pow(b, 4.0 / 3.0).mul(pow(c, -1.0 / 3.0)).add_scalar(1.0);
        assert!(cr.contains(5.233_069_471_915_2), "{cr}");
        assert!(width(cr) < 1e-10, "{cr}");
    }

    #[test]
    fn scalar_helpers() {
        let a = iv(1.0, 2.0).mul_scalar(-3.0);
        assert!(a.contains(-6.0) && a.contains(-3.0));
        let b = iv(1.0, 2.0).add_scalar(10.0);
        assert!(b.contains(11.0) && b.contains(12.0));
    }

    #[test]
    fn affine_ratio_over_covers_the_whole_range() {
        let xs = iv(2.0, 4.0);
        let enc = Interval::affine_ratio_over(1.5, 6.0, xs).unwrap();
        for i in 0..=10 {
            let x = 2.0 + 2.0 * i as f64 / 10.0;
            assert!(enc.contains(1.5 + 6.0 / x), "x = {x}");
        }
        assert!(Interval::affine_ratio_over(1.0, 1.0, iv(-1.0, 1.0)).is_err());
    }

    #[test]
    fn sign_predicates() {
        assert!(iv(0.1, 0.2).is_positive());
        assert!(iv(-0.2, -0.1).is_negative());
        assert!(!iv(-0.1, 0.1).is_positive());
    }
}
