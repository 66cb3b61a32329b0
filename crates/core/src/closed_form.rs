//! Exact piecewise closed form of the visit-time function `T_(f+1)(x)`
//! for a proportional schedule — an O(1) evaluator that complements the
//! numeric coverage machinery.
//!
//! ## Derivation
//!
//! Fix the schedule `S_beta(n)` normalized to `tau_0 = base`, with
//! proportionality ratio `r` (Lemma 2). On the positive side the
//! interleaved turning points are `tau_j = base * r^j`; on the negative
//! side the turning magnitudes are `base * r^(j + n/2)` (one half-cycle
//! offset — robot `a_0` turns at `+base`, sweeps left, and turns at
//! `-kappa * base = -base * r^(n/2)`).
//!
//! For a target `x` with `|x| >= base`, let `tau_(j*)` be the smallest
//! turning point on `x`'s side with `tau_(j*) >= |x|`. Every robot
//! first reaches `x` on its *outbound* sweep towards its next turning
//! point at or beyond `x`, arriving at
//!
//! ```text
//! W_i = t(tau_(j*+i)) - (tau_(j*+i) - |x|) = tau_(j*+i) * (beta - 1) + |x|
//! ```
//!
//! (using `t(tau) = beta * tau` on the cone boundary). The `(f+1)`-st
//! distinct visitor is `i = f` (consecutive ladder turning points belong
//! to distinct robots as long as `f <= n - 1`), hence **exactly**
//!
//! ```text
//! T_(f+1)(x) = base * r^(j* + f + offset) * (beta - 1) + |x|,
//! ```
//!
//! with `offset = 0` on the positive side and `n/2` on the negative
//! side. Lemmas 3–5 all follow: `K` is decreasing between ladder points,
//! jumps at them, and its supremum (the right-hand limit at any ladder
//! point) is `r^(f+1) (beta - 1) + 1` — Theorem 1's value at
//! `beta = beta*`.

use crate::error::{Error, Result};
use crate::schedule::ProportionalSchedule;

/// Exact piecewise-closed-form evaluator for a proportional schedule's
/// visit times, equivalent to (but O(1) instead of) materializing the
/// fleet of [`crate::algorithm::Algorithm::plans`] and querying
/// [`crate::coverage::Fleet::visit_time`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedForm<'a> {
    schedule: &'a ProportionalSchedule,
}

impl<'a> ClosedForm<'a> {
    /// Wraps a schedule.
    #[must_use]
    pub fn new(schedule: &'a ProportionalSchedule) -> Self {
        ClosedForm { schedule }
    }

    /// The ladder exponent offset for the side of `x`: 0 on the
    /// positive side, `n/2` on the negative side.
    fn side_offset(&self, x: f64) -> f64 {
        if x >= 0.0 {
            0.0
        } else {
            self.schedule.n() as f64 / 2.0
        }
    }

    /// The smallest ladder index `j*` (possibly fractional exponent
    /// `j* + offset`) whose turning point is at or beyond `|x|` on
    /// `x`'s side, returned as the full exponent `j* + offset`.
    fn ladder_exponent(&self, x: f64) -> f64 {
        let r = self.schedule.ratio();
        let offset = self.side_offset(x);
        let magnitude = x.abs() / self.schedule.base();
        // Smallest integer j with r^(j + offset) >= magnitude.
        let raw = magnitude.ln() / r.ln() - offset;
        let mut j = raw.ceil();
        // Guard against floating-point: ensure r^(j + offset) >= magnitude,
        // and that j - 1 is strictly below (tight ladder choice).
        while r.powf(j + offset) < magnitude * (1.0 - 1e-12) {
            j += 1.0;
        }
        while j >= 1.0 && r.powf(j - 1.0 + offset) >= magnitude * (1.0 + 1e-12) {
            j -= 1.0;
        }
        j + offset
    }

    /// Exact `T_(f+1)(x)`: the time at which the `(f+1)`-st distinct
    /// robot first visits `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `|x| < base` (the schedule's
    /// guarantee only covers targets at distance at least `base`) or
    /// [`Error::InvalidParameters`] when `f >= n`.
    pub fn visit_time(&self, x: f64, f: usize) -> Result<f64> {
        if f >= self.schedule.n() {
            return Err(Error::invalid_params(
                self.schedule.n(),
                f,
                "the closed form needs f + 1 <= n distinct visitors",
            ));
        }
        if x.abs() < self.schedule.base() * (1.0 - 1e-12) {
            return Err(Error::domain(format!(
                "closed form covers |x| >= base = {}, got {x}",
                self.schedule.base()
            )));
        }
        let r = self.schedule.ratio();
        let beta = self.schedule.beta();
        let exponent = self.ladder_exponent(x) + f as f64;
        Ok(self.schedule.base() * r.powf(exponent) * (beta - 1.0) + x.abs())
    }

    /// Exact `K(x) = T_(f+1)(x) / |x|`.
    ///
    /// # Errors
    ///
    /// As [`ClosedForm::visit_time`].
    pub fn ratio_at(&self, x: f64, f: usize) -> Result<f64> {
        Ok(self.visit_time(x, f)? / x.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::coverage::Fleet;
    use crate::numeric::{approx_eq, logspace};
    use crate::params::Params;

    fn fleet_for(alg: &Algorithm, xmax: f64) -> Fleet {
        let horizon = alg.required_horizon(xmax).unwrap();
        Fleet::new(alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect()).unwrap()
    }

    #[test]
    fn matches_fleet_on_dense_grids_both_sides() {
        for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (7, 3)] {
            let params = Params::new(n, f).unwrap();
            let alg = Algorithm::design(params).unwrap();
            let schedule = alg.schedule().unwrap();
            let cf = ClosedForm::new(schedule);
            let fleet = fleet_for(&alg, 33.0);
            for x in logspace(1.0, 30.0, 40).unwrap() {
                for target in [x, -x] {
                    let exact = cf.visit_time(target, f).unwrap();
                    let numeric = fleet.visit_time(target, f + 1).unwrap();
                    assert!(
                        approx_eq(exact, numeric, 1e-9),
                        "(n={n}, f={f}), x={target}: closed {exact} vs fleet {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_fleet_at_and_just_past_turning_points() {
        let params = Params::new(3, 1).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let schedule = alg.schedule().unwrap();
        let cf = ClosedForm::new(schedule);
        let fleet = fleet_for(&alg, 70.0);
        for j in 0..4i64 {
            let tau = schedule.turning_position(j);
            for x in [tau, tau * (1.0 + 1e-9)] {
                let exact = cf.visit_time(x, 1).unwrap();
                let numeric = fleet.visit_time(x, 2).unwrap();
                assert!(
                    approx_eq(exact, numeric, 1e-6),
                    "x = {x}: closed {exact} vs fleet {numeric}"
                );
            }
        }
    }

    #[test]
    fn lemma4_is_the_right_hand_limit() {
        let schedule = ProportionalSchedule::new(5, 1.4).unwrap();
        let cf = ClosedForm::new(&schedule);
        for f in 0..4usize {
            let just_past = cf.ratio_at(1.0 + 1e-12, f).unwrap();
            assert!(
                approx_eq(just_past, schedule.competitive_ratio(f), 1e-6),
                "f = {f}: {just_past}"
            );
        }
    }

    #[test]
    fn ratio_never_exceeds_supremum() {
        let schedule = ProportionalSchedule::new(4, 2.0).unwrap();
        let cf = ClosedForm::new(&schedule);
        let sup = schedule.competitive_ratio(2);
        for x in logspace(1.0, 500.0, 300).unwrap() {
            for target in [x, -x] {
                let k = cf.ratio_at(target, 2).unwrap();
                assert!(k <= sup + 1e-9, "K({target}) = {k} above sup {sup}");
            }
        }
    }

    #[test]
    fn domain_validation() {
        let schedule = ProportionalSchedule::new(3, 5.0 / 3.0).unwrap();
        let cf = ClosedForm::new(&schedule);
        assert!(cf.visit_time(0.5, 1).is_err());
        assert!(cf.visit_time(2.0, 3).is_err());
        assert!(cf.visit_time(1.0, 1).is_ok());
        assert!(cf.visit_time(-1.0, 1).is_ok());
    }

    #[test]
    fn scaled_base_shifts_the_domain() {
        let schedule = ProportionalSchedule::with_base(3, 5.0 / 3.0, 10.0).unwrap();
        let cf = ClosedForm::new(&schedule);
        assert!(cf.visit_time(5.0, 1).is_err());
        let t = cf.visit_time(10.0, 1).unwrap();
        // Scale invariance: 10x the unit-base answer at x = 1.
        let unit = ProportionalSchedule::new(3, 5.0 / 3.0).unwrap();
        let unit_t = ClosedForm::new(&unit).visit_time(1.0, 1).unwrap();
        assert!(approx_eq(t, 10.0 * unit_t, 1e-9));
    }

    #[test]
    fn negative_side_uses_half_cycle_offset() {
        // For even n the negative ladder aligns with integer powers; for
        // odd n it interleaves at half-integer powers. Check against the
        // fleet at a point just past the first negative turning point.
        for n in [3usize, 4] {
            let f = n - 2;
            let params = Params::new(n, f).unwrap();
            let alg = Algorithm::design(params).unwrap();
            let schedule = alg.schedule().unwrap();
            let cf = ClosedForm::new(schedule);
            let first_negative = schedule.ratio().powf(n as f64 / 2.0);
            let fleet = fleet_for(&alg, first_negative * 4.0);
            let x = -(first_negative * (1.0 + 1e-9));
            let exact = cf.visit_time(x, f).unwrap();
            let numeric = fleet.visit_time(x, f + 1).unwrap();
            assert!(approx_eq(exact, numeric, 1e-6), "n = {n}: closed {exact} vs fleet {numeric}");
        }
    }
}
