//! Property-based tests for the core invariants of the paper.

use faultline_core::closed_form::ClosedForm;
use faultline_core::coverage::Fleet;
use faultline_core::lower_bound;
use faultline_core::ratio;
use faultline_core::{Algorithm, BoundedAlgorithm, Cone, Params, Plan, ProportionalSchedule};
use proptest::prelude::*;

/// Strategy generating valid proportional-regime parameters
/// (`f < n < 2f + 2`, `f >= 1`).
fn proportional_params() -> impl Strategy<Value = Params> {
    (1usize..24).prop_flat_map(|f| {
        ((f + 1)..(2 * f + 2)).prop_map(move |n| Params::new(n, f).expect("valid by range"))
    })
}

/// Strategy generating arbitrary valid parameters (both regimes).
fn any_params() -> impl Strategy<Value = Params> {
    (1usize..40).prop_flat_map(|n| (0usize..n).prop_map(move |f| Params::new(n, f).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Materialized zig-zag trajectories never exceed unit speed and
    /// never leave the cone.
    #[test]
    fn zigzag_respects_speed_and_cone(
        beta in 1.05f64..10.0,
        seed in prop_oneof![0.1f64..5.0, -5.0f64..-0.1],
        horizon in 10.0f64..500.0,
    ) {
        let cone = Cone::new(beta).unwrap();
        let plan = Plan::zigzag(cone, seed).unwrap();
        let traj = plan.materialize(horizon).unwrap();
        prop_assert!((traj.horizon() - horizon).abs() < 1e-9);
        for leg in traj.waypoints().windows(2) {
            let speed = (leg[1].x - leg[0].x).abs() / (leg[1].t - leg[0].t);
            prop_assert!(speed <= 1.0 + 1e-9);
        }
        for step in 0..200 {
            let t = horizon * step as f64 / 199.0;
            if let Some(x) = traj.position_at(t) {
                prop_assert!(t + 1e-9 >= beta * x.abs(), "({x}, {t}) outside the cone");
            }
        }
    }

    /// Lemma 2: the interleaved turning points of a proportional
    /// schedule form a geometric sequence in position, and the time
    /// recurrence `t_{i+1} = t_i + tau_i * beta * (r - 1)` holds.
    #[test]
    fn proportional_schedule_is_proportional(
        n in 1usize..12,
        beta in 1.05f64..8.0,
    ) {
        let s = ProportionalSchedule::new(n, beta).unwrap();
        let r = s.ratio();
        let pts = s.interleaved_turning_points(3 * n);
        for w in pts.windows(2) {
            let ratio = w[1].1.x / w[0].1.x;
            prop_assert!((ratio - r).abs() < 1e-9 * r);
            let dt_expect = w[0].1.x * beta * (r - 1.0);
            prop_assert!((w[1].1.t - w[0].1.t - dt_expect).abs() < 1e-9 * w[1].1.t.max(1.0));
        }
    }

    /// Theorem 1 + Lemma 5: for the designed algorithm A(n, f), the
    /// empirically measured ratio K(x) never exceeds the closed-form
    /// competitive ratio, for random targets on both sides.
    #[test]
    fn measured_ratio_below_analytic_cr(
        params in proportional_params(),
        xs in prop::collection::vec(1.0f64..30.0, 1..6),
        negate in prop::collection::vec(any::<bool>(), 6),
    ) {
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(31.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        let cr = alg.analytic_cr();
        for (i, &x) in xs.iter().enumerate() {
            let target = if negate[i % negate.len()] { -x } else { x };
            let t = fleet.visit_time(target, params.required_visits());
            prop_assert!(t.is_some(), "target {target} uncovered within horizon");
            let ratio = t.unwrap() / x;
            prop_assert!(
                ratio <= cr + 1e-6,
                "{params}: K({target}) = {ratio} > CR = {cr}"
            );
        }
    }

    /// The detection time is always at least the target distance
    /// (no algorithm is faster than distance / unit speed), and at
    /// least beta * |x| for cone-confined schedules.
    #[test]
    fn detection_time_at_least_distance(
        params in proportional_params(),
        x in 1.0f64..20.0,
    ) {
        let alg = Algorithm::design(params).unwrap();
        let beta = alg.schedule().unwrap().beta();
        let horizon = alg.required_horizon(21.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        let t = fleet.visit_time(x, params.required_visits()).unwrap();
        prop_assert!(t >= x);
        // Every visit by every robot happens inside the cone.
        let t1 = fleet.visit_time(x, 1).unwrap();
        prop_assert!(t1 >= beta * x - 1e-9);
    }

    /// Lower bound <= upper bound for every valid parameter pair, and
    /// the two-group regime achieves exactly 1.
    #[test]
    fn bounds_are_ordered(params in any_params()) {
        let lb = lower_bound::lower_bound(params).unwrap();
        let ub = ratio::cr_upper(params);
        prop_assert!(lb <= ub + 1e-9, "{params}: lb = {lb}, ub = {ub}");
        if params.regime() == faultline_core::Regime::TwoGroup {
            prop_assert!((ub - 1.0).abs() < 1e-12);
        } else {
            prop_assert!(ub >= 3.0, "{params}: proportional CR is always above 3");
        }
    }

    /// The closed-form optimal beta really is a minimum of cr_of_beta:
    /// perturbing beta in either direction cannot decrease the ratio.
    #[test]
    fn beta_star_is_locally_optimal(
        params in proportional_params(),
        delta in 0.001f64..0.5,
    ) {
        let beta_star = ratio::optimal_beta(params).unwrap();
        let at_star = ratio::cr_of_beta(params, beta_star).unwrap();
        let up = ratio::cr_of_beta(params, beta_star + delta).unwrap();
        prop_assert!(up >= at_star - 1e-12);
        if beta_star - delta > 1.0 {
            let down = ratio::cr_of_beta(params, beta_star - delta).unwrap();
            prop_assert!(down >= at_star - 1e-12);
        }
    }

    /// The exact closed form of T_(f+1)(x) agrees with the numeric
    /// coverage evaluation at random targets on both sides.
    #[test]
    fn closed_form_matches_coverage(
        params in proportional_params(),
        x in 1.0f64..25.0,
        negative in any::<bool>(),
    ) {
        let target = if negative { -x } else { x };
        let alg = Algorithm::design(params).unwrap();
        let schedule = alg.schedule().unwrap();
        let cf = ClosedForm::new(schedule);
        let horizon = alg.required_horizon(26.0).unwrap();
        let fleet = Fleet::from_plans(&alg.plans(), horizon).unwrap();
        let exact = cf.visit_time(target, params.f()).unwrap();
        let numeric = fleet.visit_time(target, params.required_visits()).unwrap();
        prop_assert!(
            (exact - numeric).abs() <= 1e-9 * numeric.max(1.0),
            "{params}, x = {target}: closed {exact} vs fleet {numeric}"
        );
        // And it never exceeds the schedule's supremum.
        prop_assert!(exact / x <= schedule.competitive_ratio(params.f()) + 1e-9);
    }

    /// The bounded algorithm is never worse than the unbounded one on
    /// its own domain.
    #[test]
    fn bounded_algorithm_never_worse(
        params in proportional_params(),
        bound in 1.2f64..10.0,
        x in 1.0f64..10.0,
    ) {
        prop_assume!(x <= bound);
        let bounded = BoundedAlgorithm::design(params, bound).unwrap();
        let horizon = bounded.required_horizon();
        let fleet = Fleet::from_plans(&bounded.plans().unwrap(), horizon).unwrap();
        let t = fleet.visit_time(x, params.required_visits());
        prop_assert!(t.is_some(), "{params}, D = {bound}: x = {x} unconfirmed");
        let cr = ratio::cr_upper(params);
        prop_assert!(
            t.unwrap() / x <= cr + 1e-6,
            "{params}, D = {bound}, x = {x}: bounded ratio above Theorem 1"
        );
    }

    /// The adversary of Theorem 2 forces at least ratio alpha(n) on the
    /// fleet designed by A(n, f) — i.e. the lower bound is real — while
    /// the fleet stays below its upper bound.
    #[test]
    fn adversary_forces_at_least_alpha(params in proportional_params()) {
        prop_assume!(params.n() >= 2);
        let alg = Algorithm::design(params).unwrap();
        let alpha = lower_bound::alpha(params.n()).unwrap();
        let points = lower_bound::adversary_points(params.n(), alpha).unwrap();
        let xmax = points[0].max(2.0) * 1.1;
        let horizon = alg.required_horizon(xmax).unwrap();
        let plans = alg.plans();
        let trajs: Vec<_> = plans
            .iter()
            .map(|p| p.materialize(horizon).unwrap())
            .collect();
        let outcome = lower_bound::adversarial_ratio(
            &trajs,
            params.f(),
            params.n(),
            alpha,
        )
        .unwrap();
        prop_assert!(outcome.ratio.is_finite());
        prop_assert!(
            outcome.ratio >= alpha - 1e-6,
            "{params}: adversary only forced {} < alpha = {alpha}",
            outcome.ratio
        );
        prop_assert!(outcome.ratio <= alg.analytic_cr() + 1e-6);
    }
}
