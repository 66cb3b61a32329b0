//! Local search moves: coordinate descent with golden-section line
//! search, and a seeded multiplicative annealing sweep.
//!
//! Both moves are strictly greedy against [`Objective::eval`] — a
//! candidate is only accepted when it measures strictly better than
//! the incumbent — so a sweep can never make a start worse, and both
//! are deterministic functions of their inputs (the annealer consumes
//! a caller-provided RNG stream in a fixed draw order, independent of
//! which proposals are accepted).

use std::cell::{Cell, RefCell};

use faultline_analysis::LeaveOneOut;
use faultline_core::numeric::golden_min;
use faultline_core::{FreeRobot, FreeSchedule};
use rand::{rngs::StdRng, Rng};

use crate::objective::{Objective, PENALTY};

/// Relative tolerance for each golden-section line search.
const LINE_SEARCH_TOL: f64 = 1e-4;
/// Iteration cap for each golden-section line search.
const LINE_SEARCH_ITERS: usize = 40;
/// Margin a candidate must beat the incumbent by to be accepted;
/// keeps float noise from flapping accept decisions across replays.
const ACCEPT_MARGIN: f64 = 1e-12;
/// Keep-out factor separating neighbouring turning magnitudes.
const SEPARATION: f64 = 1e-9;
/// How far below its seed value the first turning magnitude may move.
const FIRST_TURN_SHRINK: f64 = 8.0;
/// How far past the previous magnitude the tail magnitude may move.
const TAIL_STRETCH: f64 = 32.0;
/// Cap on `first_turn_time / turns[0]` (the initial glide slowdown).
const MAX_GLIDE: f64 = 8.0;

/// Robot `robot` with magnitude `k` set to `value` (adjusting the
/// glide time when `k == 0` so unit speed is preserved), or `None`
/// when the result fails validation.
fn with_turn(robot: &FreeRobot, k: usize, value: f64) -> Option<FreeRobot> {
    let mut turns = robot.turns.clone();
    turns[k] = value;
    let first_turn_time =
        if k == 0 { robot.first_turn_time.max(value) } else { robot.first_turn_time };
    FreeRobot::new(robot.side, turns, first_turn_time).ok()
}

/// Robot `robot` with its glide time set to `value`.
fn with_glide(robot: &FreeRobot, value: f64) -> Option<FreeRobot> {
    FreeRobot::new(robot.side, robot.turns.clone(), value).ok()
}

/// The objective on `schedule` with robot `r` swapped for
/// `candidate`, through `held` (robot `r` left out of `schedule`),
/// which serves every candidate that covers the window whether or not
/// it moves the horizon, and otherwise in full. The schedule is
/// restored before returning, and the candidate handed back with its
/// value for the caller to keep.
fn eval_swapped(
    objective: &Objective,
    held: Option<&LeaveOneOut>,
    schedule: &mut FreeSchedule,
    r: usize,
    candidate: FreeRobot,
) -> (f64, FreeRobot) {
    if let Some(value) = held.and_then(|held| objective.eval_held(held, &candidate)) {
        return (value, candidate);
    }
    let incumbent = std::mem::replace(&mut schedule.robots_mut()[r], candidate);
    let value = objective.eval(schedule);
    (value, std::mem::replace(&mut schedule.robots_mut()[r], incumbent))
}

/// Line-searches one coordinate of robot `r` through `change` over
/// `[lo, hi]`, then keeps the minimizer when it strictly improves on
/// `cr`. `held` leaves robot `r` out of `schedule`. Returns the number
/// of objective evaluations performed.
fn descend_coordinate(
    objective: &Objective,
    held: Option<&LeaveOneOut>,
    schedule: &mut FreeSchedule,
    cr: &mut f64,
    r: usize,
    (lo, hi): (f64, f64),
    change: impl Fn(&FreeRobot, f64) -> Option<FreeRobot>,
) -> u64 {
    let evals = Cell::new(0u64);
    let working = RefCell::new(&mut *schedule);
    let probe = |v: f64| {
        evals.set(evals.get() + 1);
        let mut working = working.borrow_mut();
        match change(&working.robots()[r], v) {
            Some(candidate) => eval_swapped(objective, held, &mut working, r, candidate).0,
            None => PENALTY,
        }
    };
    let Ok(best_v) = golden_min(probe, lo, hi, LINE_SEARCH_TOL, LINE_SEARCH_ITERS) else {
        return evals.get();
    };
    let mut evals = evals.get();
    if let Some(candidate) = change(&schedule.robots()[r], best_v) {
        evals += 1;
        let (value, candidate) = eval_swapped(objective, held, schedule, r, candidate);
        if value < *cr - ACCEPT_MARGIN {
            schedule.robots_mut()[r] = candidate;
            *cr = value;
        }
    }
    evals
}

/// The line-search bracket for robot `r`'s magnitude `k`, or `None`
/// when neighbouring magnitudes squeeze it shut.
fn turn_bracket(robot: &FreeRobot, k: usize) -> Option<(f64, f64)> {
    let turns = &robot.turns;
    let lo = if k == 0 {
        (turns[0] / FIRST_TURN_SHRINK).max(1e-3)
    } else {
        turns[k - 1] * (1.0 + SEPARATION)
    };
    let hi = if k + 1 < turns.len() {
        turns[k + 1] * (1.0 - SEPARATION)
    } else {
        turns[k - 1] * TAIL_STRETCH
    };
    (lo < hi).then_some((lo, hi))
}

/// One full coordinate-descent sweep: for every robot, line-search
/// each turning magnitude and the initial glide time in turn, keeping
/// any strict improvement. Returns the number of objective
/// evaluations performed.
pub(crate) fn coordinate_descent_sweep(
    objective: &Objective,
    schedule: &mut FreeSchedule,
    cr: &mut f64,
) -> u64 {
    let mut evals = 0u64;
    for r in 0..schedule.n() {
        // Only robot r moves until the next robot's turn, so one
        // leave-one-out profile serves all its line searches.
        let held = objective.hold_others(schedule, r);
        let held = held.as_ref();
        let coords = schedule.robots()[r].turns.len();
        for k in 0..coords {
            let Some(bracket) = turn_bracket(&schedule.robots()[r], k) else {
                continue;
            };
            evals += descend_coordinate(objective, held, schedule, cr, r, bracket, |robot, v| {
                with_turn(robot, k, v)
            });
        }
        // The glide coordinate: how long the robot dawdles before its
        // first turn (Definition 4's slow initial leg, generalized).
        let first = schedule.robots()[r].turns[0];
        let (lo, hi) = (first, first * MAX_GLIDE);
        if lo < hi {
            evals += descend_coordinate(objective, held, schedule, cr, r, (lo, hi), with_glide);
        }
    }
    evals
}

/// Applies one multiplicative log-space perturbation to robot `r`,
/// drawing a fixed number of variates from `rng` (independent of
/// whether the result validates).
///
/// The robot is re-parameterized as `(turns[0], log-gaps, glide
/// multiplier, side)`; each component is scaled by `exp(sigma * u)`
/// with `u` uniform in `[-1, 1]`, which preserves positivity and
/// strict monotonicity by construction. The side flips with small
/// probability to explore different interleavings.
pub(crate) fn perturb_robot(robot: &FreeRobot, sigma: f64, rng: &mut StdRng) -> Option<FreeRobot> {
    let first = robot.turns[0] * (sigma * rng.random_range(-1.0..=1.0)).exp();
    let mut turns = Vec::with_capacity(robot.turns.len());
    turns.push(first);
    for w in robot.turns.windows(2) {
        let gap = (w[1] / w[0]).ln() * (sigma * rng.random_range(-1.0..=1.0)).exp();
        let prev = *turns.last().expect("turns is seeded with the first magnitude");
        turns.push(prev * gap.exp());
    }
    let glide = robot.first_turn_time / robot.turns[0];
    let glide =
        (1.0 + (glide - 1.0) * (sigma * rng.random_range(-1.0..=1.0)).exp()).clamp(1.0, MAX_GLIDE);
    let side = if rng.random_bool(0.1) { -robot.side } else { robot.side };
    FreeRobot::new(side, turns, glide * first).ok()
}

/// One annealing sweep: `steps` greedy perturbation proposals at step
/// size `sigma`, each targeting an RNG-chosen robot. Returns the
/// number of objective evaluations performed.
pub(crate) fn anneal_sweep(
    objective: &Objective,
    schedule: &mut FreeSchedule,
    cr: &mut f64,
    steps: usize,
    sigma: f64,
    rng: &mut StdRng,
) -> u64 {
    let mut evals = 0u64;
    for _ in 0..steps {
        let r = rng.random_range(0..schedule.n());
        let Some(robot) = perturb_robot(&schedule.robots()[r], sigma, rng) else {
            continue;
        };
        evals += 1;
        let (value, robot) = eval_swapped(objective, None, schedule, r, robot);
        if value < *cr - ACCEPT_MARGIN {
            schedule.robots_mut()[r] = robot;
            *cr = value;
        }
    }
    evals
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::{Algorithm, Params};
    use rand::SeedableRng;

    fn seed_schedule(n: usize, f: usize, turns: usize) -> FreeSchedule {
        let algorithm = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
        FreeSchedule::from_proportional(algorithm.schedule().unwrap(), turns).unwrap()
    }

    #[test]
    fn descent_never_worsens_the_incumbent() {
        let params = Params::new(3, 1).unwrap();
        let objective = Objective::new(params, 8.0).unwrap();
        let mut schedule = seed_schedule(3, 1, 5);
        let mut cr = objective.eval(&schedule);
        let before = cr;
        let evals = coordinate_descent_sweep(&objective, &mut schedule, &mut cr);
        assert!(evals > 0);
        assert!(cr <= before, "descent worsened {before} -> {cr}");
        assert!(cr >= objective.floor());
        assert!((objective.eval(&schedule) - cr).abs() < 1e-12, "cr out of sync with schedule");
    }

    #[test]
    fn descent_is_deterministic() {
        let params = Params::new(3, 1).unwrap();
        let objective = Objective::new(params, 8.0).unwrap();
        let run = || {
            let mut schedule = seed_schedule(3, 1, 5);
            let mut cr = objective.eval(&schedule);
            coordinate_descent_sweep(&objective, &mut schedule, &mut cr);
            (schedule, cr)
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        assert_eq!(s1, s2);
        assert_eq!(c1.to_bits(), c2.to_bits());
    }

    #[test]
    fn perturbation_draws_a_fixed_variate_count() {
        let robot = seed_schedule(3, 1, 5).robots()[0].clone();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let _ = perturb_robot(&robot, 0.3, &mut a);
        let _ = perturb_robot(&robot, 1e-6, &mut b);
        // Same number of draws regardless of perturbation size, so the
        // stream position stays in lockstep across replays.
        assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
    }

    #[test]
    fn anneal_is_greedy_and_deterministic() {
        let params = Params::new(3, 1).unwrap();
        let objective = Objective::new(params, 8.0).unwrap();
        let run = || {
            let mut schedule = seed_schedule(3, 1, 5);
            let mut cr = objective.eval(&schedule);
            let before = cr;
            let mut rng = StdRng::seed_from_u64(42);
            anneal_sweep(&objective, &mut schedule, &mut cr, 6, 0.2, &mut rng);
            assert!(cr <= before);
            (schedule, cr)
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        assert_eq!(s1, s2);
        assert_eq!(c1.to_bits(), c2.to_bits());
    }
}
