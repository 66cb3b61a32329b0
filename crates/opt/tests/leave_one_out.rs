//! A line-search probe scored through a leave-one-out profile
//! ([`Objective::eval_held`]) equals [`Objective::eval`] of the swapped
//! schedule bit for bit, whatever horizon the candidate gives the
//! schedule: candidates of the max-reach robot, which move the
//! horizon, are served like the rest. Only candidates the profile
//! cannot score fall back to the full path: the stunted-robot bailout
//! leaves the window uncovered, and the expected-CR objective has no
//! leave-one-out path at all.

use faultline_analysis::supremum::TURNING_POINT_EPS;
use faultline_core::{Algorithm, FreeRobot, FreeSchedule, Params};
use faultline_opt::search::perturb_robot;
use faultline_opt::{Budget, Objective, OptimizeConfig, PENALTY};
use rand::{rngs::StdRng, SeedableRng};

/// How many probes a leave-one-out profile served, how many of those
/// moved the schedule's horizon, and how many it handed back to the
/// full path.
#[derive(Debug, Default)]
struct Tally {
    served: usize,
    moved: usize,
    fallback: usize,
}

/// The horizon the schedule's first measurement uses, from its robots'
/// reaches: the largest, and at least four window widths.
fn first_horizon(reaches: impl Iterator<Item = f64>, xmax: f64) -> f64 {
    let window = xmax * (1.0 + 2.0 * TURNING_POINT_EPS);
    reaches.fold(4.0 * window, f64::max).max(4.0 * xmax)
}

/// Scores every candidate for robot `r` of `schedule` both ways.
fn probe_all(
    objective: &Objective,
    schedule: &FreeSchedule,
    r: usize,
    candidates: &[FreeRobot],
    tally: &mut Tally,
) {
    let held = objective.hold_others(schedule, r).expect("a worst-case objective holds robots");
    let window = objective.xmax() * (1.0 + 2.0 * TURNING_POINT_EPS);
    let others = schedule.robots().iter().enumerate().filter(|&(i, _)| i != r);
    let horizon = first_horizon(others.map(|(_, o)| o.reach(window)), objective.xmax());
    for candidate in candidates {
        let mut swapped = schedule.clone();
        swapped.robots_mut()[r] = candidate.clone();
        let full = objective.eval(&swapped);
        match objective.eval_held(&held, candidate) {
            Some(value) => {
                assert_eq!(value.to_bits(), full.to_bits(), "robot {r}: {candidate:?}");
                tally.served += 1;
                tally.moved += usize::from(candidate.reach(window) > horizon);
            }
            None => tally.fallback += 1,
        }
    }
}

/// Robot `robot` as is, moved along each coordinate the way a line
/// search probes it, and perturbed the way a start is.
fn candidates(robot: &FreeRobot, seed: u64) -> Vec<FreeRobot> {
    let mut out = vec![robot.clone()];
    for k in 0..robot.turns.len() {
        for factor in [0.999, 1.001, 1.05] {
            let mut turns = robot.turns.clone();
            turns[k] *= factor;
            let glide =
                if k == 0 { robot.first_turn_time.max(turns[0]) } else { robot.first_turn_time };
            out.extend(FreeRobot::new(robot.side, turns, glide).ok());
        }
    }
    out.extend(FreeRobot::new(robot.side, robot.turns.clone(), 1.5 * robot.first_turn_time).ok());
    let mut rng = StdRng::seed_from_u64(seed);
    for sigma in [0.02, 0.2] {
        out.extend(perturb_robot(robot, sigma, &mut rng));
    }
    out
}

fn seed_schedule(config: &OptimizeConfig) -> FreeSchedule {
    let algorithm = Algorithm::design(config.params().unwrap()).unwrap();
    let explicit_turns = config.budget.knobs().explicit_turns;
    FreeSchedule::from_proportional(algorithm.schedule().unwrap(), explicit_turns).unwrap()
}

#[test]
fn held_probes_score_like_eval_on_table_1_pairs() {
    for (n, f) in [(3usize, 1usize), (5, 3), (11, 5), (41, 20)] {
        let mut config = OptimizeConfig::new(n, f);
        config.budget = Budget::Tiny;
        let objective = config.objective().unwrap();
        let seed = seed_schedule(&config);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let perturbed = FreeSchedule::new(
            seed.robots().iter().map(|r| perturb_robot(r, 0.1, &mut rng).unwrap()).collect(),
        )
        .unwrap();
        let mut tally = Tally::default();
        for schedule in [&seed, &perturbed] {
            let window = objective.xmax() * (1.0 + 2.0 * TURNING_POINT_EPS);
            let reach: Vec<f64> = schedule.robots().iter().map(|r| r.reach(window)).collect();
            let max_reach = (0..n).max_by(|&a, &b| reach[a].total_cmp(&reach[b])).unwrap();
            // Every robot at the small pairs; at (41, 20) a spread of
            // robots and the max-reach one.
            let robots: Vec<usize> =
                if n <= 11 { (0..n).collect() } else { vec![0, 13, 27, 40, max_reach] };
            for r in robots {
                probe_all(
                    &objective,
                    schedule,
                    r,
                    &candidates(&schedule.robots()[r], r as u64),
                    &mut tally,
                );
            }
            // The max-reach robot sets the horizon, so scoring it as
            // is moves the others' horizon whenever it strictly leads;
            // the held profile serves it all the same.
            let held = objective.hold_others(schedule, max_reach).unwrap();
            let robot = &schedule.robots()[max_reach];
            let full = objective.eval(schedule);
            assert_eq!(objective.eval_held(&held, robot).map(f64::to_bits), Some(full.to_bits()));
        }
        assert_eq!(tally.fallback, 0, "({n}, {f}): {tally:?}");
        assert!(tally.moved > 0, "({n}, {f}): no served probe moved the horizon: {tally:?}");
    }
}

#[test]
fn stunted_bailout_falls_back_to_the_penalty() {
    // The stunted robot of the objective's bailout fixture never
    // reaches the window, so with f = 2 no horizon gets the window the
    // three visits it needs. Held without it, the doublers serve it as
    // a candidate only to find the window uncovered. It never clears
    // the window, so a hold that would keep it is refused.
    let objective = Objective::new(Params::new(3, 2).unwrap(), 2.0).unwrap();
    let stunted = FreeRobot::new(1.0, vec![0.5, 0.5 + 5e-8], 0.5).unwrap();
    let doubler = |side: f64| FreeRobot::new(side, vec![1.0, 2.0], 1.0).unwrap();
    let schedule = FreeSchedule::new(vec![doubler(1.0), doubler(-1.0), stunted.clone()]).unwrap();
    assert_eq!(objective.eval(&schedule), PENALTY);
    let held = objective.hold_others(&schedule, 2).unwrap();
    assert_eq!(objective.eval_held(&held, &stunted), None);
    for r in 0..2 {
        assert!(objective.hold_others(&schedule, r).is_none(), "robot {r}");
    }
}

#[test]
fn floor_rejected_candidate_scores_the_penalty() {
    // Two robots sweep [1, 1.2] on both sides and "beat" alpha(2)
    // inside the window; served or not, the floor rejects them.
    let objective = Objective::new(Params::new(2, 1).unwrap(), 1.2).unwrap();
    let right = FreeRobot::new(1.0, vec![1.201, 3.0], 1.201).unwrap();
    let left = FreeRobot::new(-1.0, vec![1.201, 3.0], 1.201).unwrap();
    let schedule = FreeSchedule::new(vec![right.clone(), left]).unwrap();
    let measured = objective.measure(&schedule).unwrap();
    assert!(measured.uncovered == 0 && measured.empirical < objective.floor());
    let held = objective.hold_others(&schedule, 0).unwrap();
    assert_eq!(objective.eval_held(&held, &right), Some(PENALTY));
    assert_eq!(objective.eval(&schedule), PENALTY);
}

#[test]
fn expected_cr_objective_takes_the_full_path() {
    let params = Params::new(3, 1).unwrap();
    let objective = Objective::with_detect_probability(params, 10.0, 0.5).unwrap();
    let config = OptimizeConfig::new(3, 1);
    assert!(objective.hold_others(&seed_schedule(&config), 0).is_none());
}
