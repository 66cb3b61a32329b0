//! Numeric extremes of the exact engine: `exact_supremum`,
//! `exact_supremum_enclosed`, `exact_expected_supremum` and
//! `explore_fleet` answer with a typed error or a result that is not
//! NaN, and never panic, on windows out to `f64::MAX`, on one-robot
//! fleets whose speed limits span 1e-300 to 1e300, and on paper fleets
//! up to `A(201, 100)`.

use faultline_analysis::{exact_expected_supremum, exact_supremum, exact_supremum_enclosed};
use faultline_core::{Algorithm, Fleet, Params, PiecewiseTrajectory, Plan, Result, SpaceTime};
use faultline_explore::{explore_fleet, ExploreConfig};

/// Fails on a NaN inside a result; an error passes.
fn assert_not_nan<T>(what: &str, result: Result<T>, value: impl Fn(&T) -> Vec<f64>) {
    if let Ok(result) = result {
        for v in value(&result) {
            assert!(!v.is_nan(), "{what}: NaN in the result");
        }
    }
}

/// Runs the four entry points on `fleet` with `f` faults over `xmax`.
fn probe(what: &str, fleet: &Fleet, f: usize, xmax: f64) {
    let what = format!("{what}, f = {f}, xmax = {xmax:e}");
    assert_not_nan(&what, exact_supremum(fleet, f + 1, xmax), |s| {
        vec![s.ratio, s.argmax, s.pressure]
    });
    assert_not_nan(&what, exact_supremum_enclosed(fleet, f + 1, xmax), |e| {
        vec![e.scan.ratio, e.enclosure.lo(), e.enclosure.hi()]
    });
    for p in [0.25, 1.0] {
        assert_not_nan(&what, exact_expected_supremum(fleet, p, xmax), |s| vec![s.ratio, s.argmax]);
    }
    assert_not_nan(&what, explore_fleet(fleet, f, xmax, &ExploreConfig::default()), |r| {
        vec![r.worst.value, r.worst.enclosure_lo, r.worst.enclosure_hi]
    });
}

fn paper_fleet(n: usize, f: usize, horizon_for: f64) -> Result<Fleet> {
    let algorithm = Algorithm::design(Params::new(n, f)?)?;
    let horizon = algorithm.required_horizon(horizon_for * (1.0 + 1e-6))?;
    Fleet::from_plans(&algorithm.plans(), horizon)
}

#[test]
fn huge_windows_answer_without_panicking() {
    // A(3, 1) for [1, 1e15]: covered on the smallest window, uncovered
    // on the larger ones. Materialized for a larger window, its
    // all-visit cover takes seconds to scan in an unoptimized build.
    let paper = paper_fleet(3, 1, 1e15).unwrap();
    for xmax in [1e15, 1e100, 1e300, f64::MAX] {
        // Two rays reaching past the window; at f64::MAX their horizon
        // overflows and materialization refuses it.
        match Fleet::from_plans(&[Plan::ray(true), Plan::ray(false)], 4.0 * xmax) {
            Ok(rays) => probe("two rays", &rays, 0, xmax),
            Err(e) => assert!(xmax == f64::MAX, "two rays at {xmax:e}: {e}"),
        }
        probe("A(3, 1) for 1e15", &paper, 1, xmax);
    }
    assert!(paper_fleet(3, 1, f64::MAX).is_err(), "an infinite horizon is refused");
}

#[test]
fn extreme_speed_limits_answer_without_panicking() {
    for speed in [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300] {
        // A doubling zig-zag at the speed limit, covering [-4, 8].
        let mut at = SpaceTime::origin();
        let mut waypoints = vec![at];
        for x in [2.0, -4.0, 8.0] {
            at = SpaceTime::new(x, at.t + (x - at.x).abs() / speed);
            waypoints.push(at);
        }
        let robot = PiecewiseTrajectory::with_speed_limit(waypoints, speed);
        let fleet = robot.and_then(|r| Fleet::new(vec![r]));
        let fleet = fleet.unwrap_or_else(|e| panic!("speed {speed:e}: {e}"));
        for xmax in [3.0, 6.0] {
            probe(&format!("speed {speed:e}"), &fleet, 0, xmax);
        }
    }
}

#[test]
fn large_paper_fleets_answer_without_panicking() {
    // The enclosure's range pass costs the cube of an interval's
    // affine count, so A(201, 100) scans a narrow window.
    for (n, f, xmax) in [(2, 1, 25.0), (11, 5, 25.0), (41, 20, 8.0), (201, 100, 1.1)] {
        let fleet = paper_fleet(n, f, xmax).unwrap();
        probe(&format!("A({n}, {f})"), &fleet, f, xmax);
    }
}
