//! Differential test for leave-one-out probes that move the horizon:
//! on random free schedules, [`LeaveOneOut::profile`] equals
//! [`measure_free_schedule_profile`] of the swapped schedule bit for
//! bit, and the held [`FleetScan`] of the other robots, each
//! materialized up to its own reach, scans like [`exact_supremum`] of
//! the joint fleet at the swapped schedule's horizon once the other
//! robots' positions at that horizon split it.
//!
//! The candidate's reach falls below, on, or above the other robots'.
//! Half the schedules have integer turns and glide times, so turn
//! times, horizons and the positions where robots stand are integers,
//! and a split lands on a cut of the other robots or of the candidate,
//! and a horizon on another robot's turn time, often enough to count.

use faultline_analysis::exact::{exact_supremum, FleetScan};
use faultline_analysis::supremum::{measure_free_schedule_profile, TURNING_POINT_EPS};
use faultline_analysis::{ExactScan, LeaveOneOut};
use faultline_core::exact::{first_visit_cover, mirrored};
use faultline_core::{FreeRobot, FreeSchedule, Geometry, PiecewiseTrajectory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Unit floats per robot: side, turn count, first magnitude, glide,
/// and one growth factor per later turn.
const ROBOT_FLOATS: usize = 8;

/// Decodes [`ROBOT_FLOATS`] unit floats into a robot with two to five
/// explicit turns, each 1.3 to 4 times the last; `integral` rounds
/// every magnitude and the glide time up to an integer.
fn decode_robot(u: &[f64], integral: bool) -> FreeRobot {
    let side = if u[0] < 0.5 { 1.0 } else { -1.0 };
    let round = |x: f64| if integral { x.ceil() } else { x };
    let mut turns = vec![round(0.2 + 2.5 * u[2])];
    for &g in &u[4..4 + (u[1] * 4.0) as usize % 4 + 1] {
        let last = turns[turns.len() - 1];
        turns.push(round(last * (1.3 + 2.7 * g)).max(last + 1.0));
    }
    let glide = round(turns[0] * (1.0 + 2.0 * u[3]));
    FreeRobot::new(side, turns, glide).expect("decoded turns grow and respect unit speed")
}

/// A replacement for robot `r`, by `kind`: the left-out robot shrunk
/// (its reach falls below the others'), a copy of the other robot
/// with the largest reach, flipped to the other side (its reach is the
/// others' largest), that robot stretched by 1.25 to 3 (its reach
/// passes theirs), or a decoded robot.
fn candidate(
    schedule: &FreeSchedule,
    r: usize,
    kind: usize,
    u: &[f64],
    window: f64,
    integral: bool,
) -> FreeRobot {
    let others = schedule.robots().iter().enumerate().filter(|&(i, _)| i != r);
    let (_, widest) =
        others.max_by(|a, b| a.1.reach(window).total_cmp(&b.1.reach(window))).unwrap();
    let scaled = |robot: &FreeRobot, factor: f64| {
        let turns = robot.turns.iter().map(|m| m * factor).collect();
        FreeRobot::new(robot.side, turns, robot.first_turn_time * factor).unwrap()
    };
    match kind % 4 {
        0 => scaled(&schedule.robots()[r], 0.3 + 0.5 * u[0]),
        1 => FreeRobot::new(-widest.side, widest.turns.clone(), widest.first_turn_time).unwrap(),
        2 => scaled(widest, if integral { 2.0 } else { 1.25 + 1.75 * u[0] }),
        _ => decode_robot(u, integral),
    }
}

/// Every field of a scan, floats as bits.
fn bits(s: &ExactScan) -> (u64, u64, u64, usize, usize) {
    (s.ratio.to_bits(), s.argmax.to_bits(), s.pressure.to_bits(), s.uncovered, s.critical_points)
}

/// What a case exercised.
#[derive(Debug, Default, Clone, Copy)]
struct Exercised {
    /// The candidate's reach against the other robots' largest.
    below: bool,
    equal: bool,
    above: bool,
    /// The candidate moved the schedule's horizon.
    moved: bool,
    /// Some other robot stands inside the positive window at the
    /// horizon, or inside the negative one.
    split_pos: bool,
    split_neg: bool,
    /// Such a split point is also a cut of the other robots, or of the
    /// candidate.
    on_static_cut: bool,
    on_candidate_cut: bool,
    /// The moved horizon is exactly another robot's turn time.
    horizon_on_turn: bool,
}

/// The interior cuts of a window cover, on each side, of `trajectories`.
fn interior_cuts(trajectories: &[PiecewiseTrajectory], xmax: f64) -> [Vec<f64>; 2] {
    let side = |t: &[PiecewiseTrajectory]| {
        let cover = first_visit_cover(t, 1.0, xmax).unwrap();
        let cuts = cover.cuts();
        cuts[1..cuts.len() - 1].to_vec()
    };
    [side(trajectories), side(&mirrored(trajectories).unwrap())]
}

/// Puts `replacement` in robot `r`'s place and compares the held
/// profile with the full measurement, and the held scan with splits
/// with the joint fleet's scan at the swapped schedule's horizon.
fn check(
    schedule: &FreeSchedule,
    r: usize,
    replacement: &FreeRobot,
    k: usize,
    xmax: f64,
) -> Result<Exercised, TestCaseError> {
    let window = xmax * (1.0 + 2.0 * TURNING_POINT_EPS);
    let mut swapped = schedule.clone();
    swapped.robots_mut()[r] = replacement.clone();
    let others = schedule.robots().iter().enumerate().filter(|&(i, _)| i != r);
    let others: Vec<FreeRobot> = others.map(|(_, o)| o.clone()).collect();
    let others_reach = others.iter().map(|o| o.reach(window)).fold(f64::NEG_INFINITY, f64::max);
    let held_horizon =
        FreeSchedule::new(others.clone()).unwrap().horizon_hint(window).max(4.0 * xmax);
    let horizon = swapped.horizon_hint(window).max(4.0 * xmax);

    // The held scan: every other robot up to its own reach, split
    // where the other robots stand at the horizon.
    let held: Vec<PiecewiseTrajectory> =
        others.iter().map(|o| o.materialize(o.reach(window)).unwrap()).collect();
    let mut splits = [Vec::new(), Vec::new()];
    for o in &others {
        let x = o.cut_at(horizon).unwrap().x;
        if x.abs() > 1.0 && x.abs() < xmax {
            splits[usize::from(x < 0.0)].push(x.abs());
        }
    }
    splits.iter_mut().for_each(|s| s.sort_by(f64::total_cmp));
    let scan = FleetScan::new(&held, k, xmax, Geometry::Line).unwrap();
    let candidate = replacement.materialize(horizon).unwrap();
    let served = scan.scan_with(&candidate, [&splits[0], &splits[1]]).unwrap();
    let expected = exact_supremum(&swapped.fleet(horizon).unwrap(), k, xmax).unwrap();
    prop_assert_eq!(bits(&served), bits(&expected), "robot {}, k = {}, xmax = {}", r, k, xmax);

    let f = k - 1;
    let profile = LeaveOneOut::new(schedule, r, f, xmax).unwrap().profile(replacement);
    prop_assert_eq!(profile.is_some(), expected.uncovered == 0, "robot {}", r);
    if let Some(profile) = profile {
        let full = measure_free_schedule_profile(&swapped, f, xmax).unwrap();
        let key = |p: &faultline_analysis::FreeScheduleProfile| {
            (p.measured.empirical.to_bits(), p.measured.argmax.to_bits(), p.pressure.to_bits())
        };
        prop_assert_eq!(key(&profile), key(&full), "robot {}, k = {}, xmax = {}", r, k, xmax);
        prop_assert_eq!(full.measured.uncovered, 0);
    }

    let reach = replacement.reach(window);
    let statics = interior_cuts(&held, xmax);
    let own = interior_cuts(std::slice::from_ref(&candidate), xmax);
    let on = |cuts: &[Vec<f64>; 2]| {
        (0..2).any(|s| splits[s].iter().any(|x| cuts[s].iter().any(|c| c.to_bits() == x.to_bits())))
    };
    let moved = horizon.to_bits() != held_horizon.to_bits();
    let turn_times = |o: &FreeRobot| {
        (0..).map(|j| o.turn_time(j)).take_while(move |&t| t <= horizon).collect::<Vec<_>>()
    };
    Ok(Exercised {
        below: reach < others_reach,
        equal: reach == others_reach,
        above: reach > others_reach,
        moved,
        split_pos: !splits[0].is_empty(),
        split_neg: !splits[1].is_empty(),
        on_static_cut: on(&statics),
        on_candidate_cut: on(&own),
        horizon_on_turn: moved && others.iter().any(|o| turn_times(o).contains(&horizon)),
    })
}

/// A schedule of decoded robots.
fn decode_schedule(raw: &[Vec<f64>], integral: bool) -> FreeSchedule {
    FreeSchedule::new(raw.iter().map(|u| decode_robot(u, integral)).collect()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn held_profile_scores_moved_horizons_like_the_full_path(
        raw_robots in prop::collection::vec(prop::collection::vec(0.0f64..1.0, ROBOT_FLOATS), 2..8),
        integral in any::<bool>(),
        raw_candidate in prop::collection::vec(0.0f64..1.0, ROBOT_FLOATS),
        kind in 0usize..4,
        r_raw in 0usize..8,
        k_raw in 0usize..8,
        xmax in 2.0f64..30.0,
    ) {
        let schedule = decode_schedule(&raw_robots, integral);
        let n = schedule.n();
        let (r, k) = (r_raw % n, 1 + k_raw % n);
        let window = xmax * (1.0 + 2.0 * TURNING_POINT_EPS);
        let replacement = candidate(&schedule, r, kind, &raw_candidate, window, integral);
        check(&schedule, r, &replacement, k, xmax)?;
    }
}

#[test]
fn moved_horizon_cases_exercise_every_branch() {
    // The proptest above only means something if its cases reach the
    // branches of the split points; count them over a fixed stream.
    let mut rng = StdRng::seed_from_u64(43);
    let mut seen = [0usize; 9];
    for case in 0..400 {
        let integral = case % 2 == 0;
        let n = rng.random_range(2..8);
        let raw: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..ROBOT_FLOATS).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        let schedule = decode_schedule(&raw, integral);
        let (r, k) = (rng.random_range(0..n), rng.random_range(1..=n));
        let xmax = rng.random_range(2.0..30.0);
        let window = xmax * (1.0 + 2.0 * TURNING_POINT_EPS);
        let u: Vec<f64> = (0..ROBOT_FLOATS).map(|_| rng.random_range(0.0..1.0)).collect();
        let replacement = candidate(&schedule, r, rng.random_range(0..4), &u, window, integral);
        let e = check(&schedule, r, &replacement, k, xmax).unwrap();
        let hits = [
            e.below,
            e.equal,
            e.above,
            e.moved,
            e.split_pos,
            e.split_neg,
            e.on_static_cut,
            e.on_candidate_cut,
            e.horizon_on_turn,
        ];
        for (count, hit) in seen.iter_mut().zip(hits) {
            *count += usize::from(hit);
        }
    }
    // Splits on the candidate's cuts and horizons on turn times are
    // left to the fixture below.
    assert!(seen[..7].iter().all(|&count| count >= 5), "branch hits {seen:?} of 400 cases");
}

#[test]
fn splits_on_cuts_at_a_horizon_on_a_turn_time() {
    // Integer schedules over the window [1, 10]. The candidate C
    // reaches 124, past the others' 76, 122 and 120, which is the
    // time of A's turn 3 at -48. At 124, B stands at +2, A's first
    // turn, and D at +4, C's first turn.
    let a = FreeRobot::new(1.0, vec![2.0, 12.0, 24.0], 2.0).unwrap();
    let b = FreeRobot::new(1.0, vec![11.0, 50.0], 11.0).unwrap();
    let d = FreeRobot::new(1.0, vec![11.0, 49.0], 11.0).unwrap();
    let c = FreeRobot::new(1.0, vec![4.0, 12.0, 30.0], 36.0).unwrap();
    let window = 10.0 * (1.0 + 2.0 * TURNING_POINT_EPS);
    let reaches: Vec<f64> = [&a, &b, &d, &c].iter().map(|r| r.reach(window)).collect();
    assert_eq!(reaches, [76.0, 122.0, 120.0, 124.0]);
    assert_eq!(a.turn_time(3), 124.0);
    assert_eq!((b.cut_at(124.0).unwrap().x, d.cut_at(124.0).unwrap().x), (2.0, 4.0));
    let schedule = FreeSchedule::new(vec![a, b, d, c.clone()]).unwrap();
    for k in 1..=4 {
        let e = check(&schedule, 3, &c, k, 10.0).unwrap();
        assert!(e.moved && e.split_pos && e.horizon_on_turn, "k = {k}: {e:?}");
        assert!(e.on_static_cut && e.on_candidate_cut, "k = {k}: {e:?}");
    }
}

#[test]
fn robots_that_have_not_settled_by_their_reach_are_refused() {
    // Over [1, 25], a robot with turns at 1, 1e10 and 1e16 reaches
    // 2.000002e16, where its stop rounds to +2, inside the window. A
    // robot whose tail grows by 1e-7 per turn has not cleared the
    // window when `reach` stops at its turn cap. Neither can be held,
    // but either can be the candidate of a hold of settled robots.
    let doubler = |side: f64| FreeRobot::new(side, vec![1.0, 2.0], 1.0).unwrap();
    let far = FreeRobot::new(1.0, vec![1.0, 1e10, 1e16], 1.0).unwrap();
    let flat = FreeRobot::new(1.0, vec![0.5, 0.5 + 5e-8], 0.5).unwrap();
    let window = 25.0 * (1.0 + 2.0 * TURNING_POINT_EPS);
    assert_eq!(far.cut_at(far.reach(window)).unwrap().x, 2.0);
    for unsettled in [far, flat] {
        let schedule =
            FreeSchedule::new(vec![doubler(1.0), doubler(-1.0), unsettled.clone()]).unwrap();
        assert!(LeaveOneOut::new(&schedule, 0, 1, 25.0).is_err(), "{unsettled:?}");
        check(&schedule, 2, &unsettled, 2, 25.0).unwrap();
    }
}
