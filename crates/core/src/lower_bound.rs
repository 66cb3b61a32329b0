//! Lower-bound machinery (Section 4): the root `alpha(n)` of
//! `(alpha-1)^n (alpha-3) = 2^(n+1)`, the adversarial target placements
//! of Theorem 2, positive/negative trajectory classification (Lemmas
//! 6–7), and Corollary 2's asymptotic expression.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::numeric::bisect;
use crate::params::{Params, Regime};
use crate::trajectory::PiecewiseTrajectory;

/// Solves `(alpha - 1)^n (alpha - 3) = 2^(n+1)` for the unique
/// `alpha > 3` (Theorem 2). Every search algorithm with `n < 2f + 2`
/// robots has competitive ratio at least this `alpha`.
///
/// The computation is performed in log space,
/// `n ln(alpha-1) + ln(alpha-3) = (n+1) ln 2`, so it is stable for
/// large `n`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] for `n == 0` and propagates
/// solver failures.
///
/// ```
/// use faultline_core::lower_bound::alpha;
/// // Theorem 2 for n = 3 gives the paper's ≈ 3.76 bound.
/// assert!((alpha(3)? - 3.76).abs() < 5e-3);
/// # Ok::<(), faultline_core::Error>(())
/// ```
pub fn alpha(n: usize) -> Result<f64> {
    if n == 0 {
        return Err(Error::invalid_params(0, 0, "alpha(n) requires n >= 1"));
    }
    let nf = n as f64;
    let h = |a: f64| nf * (a - 1.0).ln() + (a - 3.0).ln() - (nf + 1.0) * 2.0_f64.ln();
    // h is strictly increasing on (3, ∞), h(3+) = -∞ and h(16) > 0 for
    // every n >= 1: at alpha = 16, n ln 15 + ln 13 > (n+1) ln 2.
    bisect(h, 3.0 + 1e-14, 16.0, 1e-14, 300)
}

/// The paper's lower bound on the competitive ratio for a given `(n, f)`:
///
/// * `n >= 2f + 2`: 1 (the two-group strategy is optimal),
/// * `n == f + 1`: 9 (single-robot reduction, Section 1.1),
/// * otherwise (`f + 1 < n < 2f + 2`): `alpha(n)` from Theorem 2.
///
/// # Errors
///
/// Propagates solver failures from [`alpha`].
pub fn lower_bound(params: Params) -> Result<f64> {
    if params.regime() == Regime::TwoGroup {
        return Ok(1.0);
    }
    if params.n() == params.f() + 1 {
        return Ok(9.0);
    }
    alpha(params.n())
}

/// Corollary 2: the asymptotic lower bound
/// `3 + 2 ln n / n - 2 ln ln n / n` (valid for `n >= 3` so that
/// `ln ln n > 0`).
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] for `n < 3`.
pub fn corollary2_lower(n: usize) -> Result<f64> {
    if n < 3 {
        return Err(Error::invalid_params(n, 0, "corollary 2 applies for n >= 3"));
    }
    let nf = n as f64;
    Ok(3.0 + 2.0 * nf.ln() / nf - 2.0 * nf.ln().ln() / nf)
}

/// The adversarial target magnitudes of Theorem 2,
/// `x_i = 2^(i+1) / ((alpha-1)^i (alpha-3))` for `i = 0, ..., n-1`
/// (Figure 7). They satisfy `x_0 > x_1 > ... > x_(n-1) > 1` and
/// `x_i = (alpha-1)/2 * x_(i+1)`.
///
/// Computed in log space for numerical stability at large `n`.
///
/// # Errors
///
/// Returns [`Error::Domain`] when `alpha <= 3` or the assumption
/// `(alpha-1)^n (alpha-3) <= 2^(n+1)` of Theorem 2 fails (which would
/// break `x_(n-1) > 1`).
pub fn adversary_points(n: usize, alpha: f64) -> Result<Vec<f64>> {
    if !(alpha > 3.0) {
        return Err(Error::domain(format!("adversary points require alpha > 3, got {alpha}")));
    }
    let nf = n as f64;
    let assumption = nf * (alpha - 1.0).ln() + (alpha - 3.0).ln() - (nf + 1.0) * 2.0_f64.ln();
    if assumption > 1e-9 {
        return Err(Error::domain(format!(
            "alpha = {alpha} violates (alpha-1)^n (alpha-3) <= 2^(n+1) for n = {n}"
        )));
    }
    Ok((0..n)
        .map(|i| {
            let ifl = i as f64;
            ((ifl + 1.0) * 2.0_f64.ln() - ifl * (alpha - 1.0).ln() - (alpha - 3.0).ln()).exp()
        })
        .collect())
}

/// Classification of a robot trajectory relative to a distance `x > 1`,
/// following Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrajectoryClass {
    /// First visits to `{-x, -1, 1, x}` occur in the order
    /// `1, x, -1, -x`.
    Positive,
    /// First visits occur in the order `-1, -x, 1, x`.
    Negative,
}

/// Classifies a trajectory as positive or negative for `x` (Figure 6),
/// or returns `None` when it visits the four reference points in
/// neither canonical order (or misses some of them).
///
/// # Errors
///
/// Returns [`Error::Domain`] unless `x > 1`.
pub fn classify(traj: &PiecewiseTrajectory, x: f64) -> Result<Option<TrajectoryClass>> {
    if !(x > 1.0) {
        return Err(Error::domain(format!("classification requires x > 1, got {x}")));
    }
    let first = |p: f64| traj.first_visit(p);
    let (v_pos1, v_posx, v_neg1, v_negx) = match (first(1.0), first(x), first(-1.0), first(-x)) {
        (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
        _ => return Ok(None),
    };
    if v_pos1 <= v_posx && v_posx <= v_neg1 && v_neg1 <= v_negx {
        Ok(Some(TrajectoryClass::Positive))
    } else if v_neg1 <= v_negx && v_negx <= v_pos1 && v_pos1 <= v_posx {
        Ok(Some(TrajectoryClass::Negative))
    } else {
        Ok(None)
    }
}

/// The best (largest) ratio an adversary can force on a fleet of
/// trajectories by placing the target at one of `±1, ±x_(n-1), ..., ±x_0`
/// and declaring faulty the `f` robots that reach it first.
///
/// This is the constructive counterpart of Theorem 2's proof: the value
/// returned is a certified lower bound on the fleet's competitive ratio.
/// Placements never visited by `f + 1` distinct robots within the fleet
/// horizon count as an infinite ratio.
///
/// # Errors
///
/// Propagates errors from [`adversary_points`].
pub fn adversarial_ratio(
    trajectories: &[PiecewiseTrajectory],
    f: usize,
    n_for_points: usize,
    alpha_for_points: f64,
) -> Result<AdversaryOutcome> {
    let mut placements = vec![1.0, -1.0];
    for x in adversary_points(n_for_points, alpha_for_points)? {
        placements.push(x);
        placements.push(-x);
    }
    let mut best = AdversaryOutcome { placement: 1.0, ratio: 0.0, visit_time: Some(0.0) };
    for &x in &placements {
        let mut visits: Vec<f64> = trajectories.iter().filter_map(|t| t.first_visit(x)).collect();
        visits.sort_by(f64::total_cmp);
        match visits.get(f) {
            Some(&t) => {
                let ratio = t / x.abs();
                if ratio > best.ratio {
                    best = AdversaryOutcome { placement: x, ratio, visit_time: Some(t) };
                }
            }
            None => {
                return Ok(AdversaryOutcome {
                    placement: x,
                    ratio: f64::INFINITY,
                    visit_time: None,
                });
            }
        }
    }
    Ok(best)
}

/// Result of the adversary game of [`adversarial_ratio`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryOutcome {
    /// The chosen target placement.
    pub placement: f64,
    /// The forced ratio `T_(f+1)(placement) / |placement|` (infinite if
    /// the placement is never confirmed).
    pub ratio: f64,
    /// The forced detection time, `None` if never confirmed within the
    /// fleet horizon.
    pub(crate) visit_time: Option<f64>,
}

/// Lemma 6 as an executable check: if the trajectory visits both `x` and
/// `-x` strictly before time `3x + 2`, it must follow a positive or a
/// negative trajectory for `x`. Returns `true` when the lemma's
/// conclusion holds (vacuously or otherwise).
///
/// # Errors
///
/// As [`classify`].
#[cfg(test)]
pub(crate) fn lemma6_holds(traj: &PiecewiseTrajectory, x: f64) -> Result<bool> {
    if !(x > 1.0) {
        return Err(Error::domain(format!("lemma 6 requires x > 1, got {x}")));
    }
    let deadline = 3.0 * x + 2.0;
    let both_early = matches!(
        (traj.first_visit(x), traj.first_visit(-x)),
        (Some(a), Some(b)) if a < deadline && b < deadline
    );
    if !both_early {
        return Ok(true); // premise does not apply
    }
    Ok(classify(traj, x)?.is_some())
}

/// Lemma 7 as an executable check: a robot following a positive or
/// negative trajectory for `x` cannot reach both `y` and `-y` before
/// time `2x + y`. Returns `true` when the conclusion holds (vacuously
/// when the trajectory is unclassified for `x`).
///
/// # Errors
///
/// As [`classify`]; additionally requires `y >= 1`.
#[cfg(test)]
pub(crate) fn lemma7_holds(traj: &PiecewiseTrajectory, x: f64, y: f64) -> Result<bool> {
    if !(y >= 1.0) {
        return Err(Error::domain(format!("lemma 7 requires y >= 1, got {y}")));
    }
    if classify(traj, x)?.is_none() {
        return Ok(true);
    }
    let deadline = 2.0 * x + y;
    let both_early = matches!(
        (traj.first_visit(y), traj.first_visit(-y)),
        (Some(a), Some(b)) if a < deadline && b < deadline
    );
    Ok(!both_early)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;
    use crate::trajectory::TrajectoryBuilder;
    use crate::{cone::Cone, plan::Plan};
    use proptest::prelude::*;

    #[test]
    fn alpha_matches_paper_values() {
        // Lower-bound column of Table 1 (proportional, n > f+1 rows).
        let cases = [(3usize, 3.76), (4, 3.649), (5, 3.57), (11, 3.345)];
        for (n, expect) in cases {
            let a = alpha(n).unwrap();
            assert!((a - expect).abs() < 5e-3, "n = {n}: alpha = {a}, paper {expect}");
        }
        // The paper prints 3.12 for n = 41, but the defining equation's
        // root is 3.1357 (the printed value is rounded conservatively);
        // we check the equation, not the print-out.
        let a41 = alpha(41).unwrap();
        assert!((a41 - 3.1357).abs() < 5e-4, "alpha(41) = {a41}");
    }

    #[test]
    fn alpha_satisfies_defining_equation() {
        for n in [1usize, 2, 3, 7, 20, 100, 1000] {
            let a = alpha(n).unwrap();
            let lhs = n as f64 * (a - 1.0).ln() + (a - 3.0).ln();
            let rhs = (n as f64 + 1.0) * 2.0_f64.ln();
            assert!(approx_eq(lhs, rhs, 1e-9), "n = {n}");
        }
    }

    #[test]
    fn alpha_decreases_towards_three() {
        let mut prev = f64::INFINITY;
        for n in 1..200usize {
            let a = alpha(n).unwrap();
            assert!(a > 3.0);
            assert!(a < prev, "alpha must decrease at n = {n}");
            prev = a;
        }
        assert!(prev < 3.06);
    }

    #[test]
    fn corollary2_asymptotically_bounds_alpha_from_below() {
        for n in [10usize, 50, 100, 1000, 10_000] {
            let a = alpha(n).unwrap();
            let c2 = corollary2_lower(n).unwrap();
            assert!(c2 <= a + 1e-12, "n = {n}: corollary {c2} vs alpha {a}");
        }
        assert!(corollary2_lower(2).is_err());
    }

    #[test]
    fn alpha_agrees_with_corollary2_asymptotically() {
        // Corollary 2 is not just a lower envelope: the gap
        // alpha(n) - (3 + 2 ln n / n - 2 ln ln n / n) shrinks
        // monotonically across decades and is negligible by n = 1e6.
        let mut prev_gap = f64::INFINITY;
        for n in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
            let gap = alpha(n).unwrap() - corollary2_lower(n).unwrap();
            assert!(gap >= 0.0, "corollary must stay below alpha at n = {n}");
            assert!(gap < prev_gap, "gap must shrink with n, stalled at n = {n}");
            prev_gap = gap;
        }
        assert!(prev_gap < 1e-4, "gap at n = 1e6 is {prev_gap}, expected < 1e-4");
    }

    #[test]
    fn single_robot_reduction_pins_the_tight_nine() {
        // n = f + 1: only one robot's report can be trusted, so the
        // classical single-searcher bound 9 applies for every f.
        for f in [0usize, 1, 2, 5, 20, 40] {
            let params = Params::new(f + 1, f).unwrap();
            assert_eq!(lower_bound(params).unwrap(), 9.0, "f = {f}");
        }
    }

    #[test]
    fn degenerate_n_is_an_error_not_a_bound() {
        assert!(alpha(0).is_err());
        assert!(corollary2_lower(0).is_err());
        assert!(adversary_points(0, 4.0).is_ok_and(|xs| xs.is_empty()));
        assert!(Params::new(0, 0).is_err(), "no params exist to ask lower_bound about n = 0");
    }

    #[test]
    fn lower_bound_by_regime() {
        assert_eq!(lower_bound(Params::new(4, 1).unwrap()).unwrap(), 1.0);
        assert_eq!(lower_bound(Params::new(2, 1).unwrap()).unwrap(), 9.0);
        assert_eq!(lower_bound(Params::new(5, 4).unwrap()).unwrap(), 9.0);
        let lb = lower_bound(Params::new(3, 1).unwrap()).unwrap();
        assert!((lb - 3.76).abs() < 5e-3);
    }

    #[test]
    fn lower_bound_never_exceeds_upper_bound() {
        for n in 1..60usize {
            for f in 0..n {
                let params = Params::new(n, f).unwrap();
                let lb = lower_bound(params).unwrap();
                let ub = crate::ratio::cr_upper(params);
                assert!(lb <= ub + 1e-9, "(n = {n}, f = {f}): lower {lb} > upper {ub}");
            }
        }
    }

    #[test]
    fn adversary_points_structure() {
        let n = 5;
        let a = alpha(n).unwrap();
        let xs = adversary_points(n, a).unwrap();
        assert_eq!(xs.len(), n);
        // Strictly decreasing and all above 1 (Eq. 20).
        for w in xs.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(*xs.last().unwrap() > 1.0 - 1e-12);
        // Recurrence x_i = (alpha-1)/2 * x_(i+1) (Eq. 16).
        for w in xs.windows(2) {
            assert!(approx_eq(w[0], (a - 1.0) / 2.0 * w[1], 1e-9));
        }
        // x_0 = 2 / (alpha - 3) (proof of Theorem 2).
        assert!(approx_eq(xs[0], 2.0 / (a - 3.0), 1e-9));
    }

    #[test]
    fn adversary_points_validate_alpha() {
        assert!(adversary_points(3, 3.0).is_err());
        assert!(adversary_points(3, 2.5).is_err());
        // Slightly larger alpha than alpha(n) violates the assumption.
        let a = alpha(3).unwrap();
        assert!(adversary_points(3, a + 0.1).is_err());
    }

    fn positive_traj(x: f64) -> PiecewiseTrajectory {
        // 0 -> x (through 1) -> -x (through -1): canonical positive.
        TrajectoryBuilder::from_origin().sweep_to(x).sweep_to(-x).finish().unwrap()
    }

    fn negative_traj(x: f64) -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin().sweep_to(-x).sweep_to(x).finish().unwrap()
    }

    #[test]
    fn classify_canonical_orders() {
        let x = 2.0;
        assert_eq!(classify(&positive_traj(x), x).unwrap(), Some(TrajectoryClass::Positive));
        assert_eq!(classify(&negative_traj(x), x).unwrap(), Some(TrajectoryClass::Negative));
        assert!(classify(&positive_traj(x), 0.5).is_err());
    }

    #[test]
    fn classify_rejects_mixed_order() {
        // 0 -> -1.5 -> 3 -> -3: visits -1 first but x before -x finishes;
        // order is -1, 1, x, -x: neither canonical.
        let t = TrajectoryBuilder::from_origin()
            .sweep_to(-1.5)
            .sweep_to(3.0)
            .sweep_to(-3.0)
            .finish()
            .unwrap();
        assert_eq!(classify(&t, 3.0).unwrap(), None);
    }

    #[test]
    fn classify_none_when_points_missed() {
        let t = TrajectoryBuilder::from_origin().sweep_to(5.0).finish().unwrap();
        assert_eq!(classify(&t, 2.0).unwrap(), None);
    }

    #[test]
    fn lemma6_on_fast_visitors() {
        // A robot visiting both ±x before 3x + 2 must be classifiable.
        let x = 2.0;
        let t = positive_traj(x);
        // Visits x at t = 2 and -x at t = 6 < 3*2 + 2 = 8: premise holds.
        assert!(lemma6_holds(&t, x).unwrap());
    }

    #[test]
    fn lemma6_vacuous_when_slow() {
        let x = 2.0;
        // Dawdle far left first: misses the deadline, lemma vacuous.
        let t = TrajectoryBuilder::from_origin()
            .sweep_to(-20.0)
            .sweep_to(2.0)
            .sweep_to(-2.0)
            .finish()
            .unwrap();
        assert!(lemma6_holds(&t, x).unwrap());
    }

    #[test]
    fn lemma7_on_canonical_trajectories() {
        let x = 4.0;
        let t = positive_traj(x);
        for y in [1.0, 2.0, 3.0] {
            assert!(
                lemma7_holds(&t, x, y).unwrap(),
                "positive trajectory reached ±{y} before 2x + y"
            );
        }
    }

    #[test]
    fn adversarial_ratio_on_single_doubling_robot() {
        // One reliable robot (f = 0) following doubling: the adversary's
        // placements force a ratio well above the Theorem 2 bound for
        // n = 1 and below the doubling worst case 9.
        let mut b = TrajectoryBuilder::from_origin();
        let mut side = 1.0;
        let mut mag = 1.0;
        for _ in 0..16 {
            b.sweep_to(side * mag);
            side = -side;
            mag *= 2.0;
        }
        let t = b.finish().unwrap();
        let a1 = alpha(1).unwrap();
        let outcome = adversarial_ratio(std::slice::from_ref(&t), 0, 1, a1).unwrap();
        assert!(outcome.ratio >= a1 - 1e-6, "forced {}", outcome.ratio);
        assert!(outcome.ratio <= 9.0 + 1e-9);
    }

    #[test]
    fn adversarial_ratio_detects_uncovered_placement() {
        // A fleet that never goes left cannot confirm negative targets.
        let t = TrajectoryBuilder::from_origin().sweep_to(100.0).finish().unwrap();
        let outcome = adversarial_ratio(&[t], 0, 2, alpha(2).unwrap()).unwrap();
        assert!(outcome.ratio.is_infinite());
        assert!(outcome.visit_time.is_none());
    }

    #[test]
    fn lemmas_6_and_7_hold_on_every_plan_family() {
        // The plan families the strategy registry builds for (5, 2):
        // the paper's design, fixed-beta and randomized zig-zags, herd,
        // staggered, delayed and mirrored doubling sweeps, and rays.
        let params = crate::params::Params::new(5, 2).unwrap();
        let mut plans = crate::algorithm::Algorithm::design(params).unwrap().plans();
        plans.push(Plan::zigzag(Cone::new(1.5).unwrap(), 0.7).unwrap());
        for i in 0..5 {
            let side = if i % 2 == 0 { 1.0 } else { -1.0 };
            plans.push(Plan::sweep(side, 2.0).unwrap());
            plans.push(Plan::sweep(side * (1.0 + 0.3 * f64::from(i)), 3.59).unwrap());
            plans.push(Plan::sweep(1.0, 2.0).unwrap().launched_at(f64::from(i) * 0.5).unwrap());
        }
        plans.extend([Plan::ray(true), Plan::ray(false)]);
        for plan in &plans {
            let traj = plan.materialize(400.0).unwrap();
            for x in [1.5, 2.0, 3.7, 8.0] {
                assert!(lemma6_holds(&traj, x).unwrap(), "{plan:?}: Lemma 6 violated at x = {x}");
                for y in [1.0, 1.2, x / 2.0] {
                    assert!(
                        lemma7_holds(&traj, x, y.max(1.0)).unwrap(),
                        "{plan:?}: Lemma 7 violated at x = {x}, y = {y}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lemma 6 holds on every materialized zig-zag trajectory: whenever
        /// both ±x are visited before 3x + 2, the trajectory is classifiable
        /// as positive or negative for x.
        #[test]
        fn lemma6_never_violated_by_zigzags(
            beta in 1.05f64..6.0,
            seed in prop_oneof![0.1f64..2.0, -2.0f64..-0.1],
            x in 1.01f64..10.0,
        ) {
            let plan = Plan::zigzag(Cone::new(beta).unwrap(), seed).unwrap();
            let traj = plan.materialize(40.0 * x).unwrap();
            prop_assert!(lemma6_holds(&traj, x).unwrap());
        }
    }
}
