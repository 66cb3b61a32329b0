//! Differential test for the worst-case scan's crossing stage: on
//! random fleets, [`interval_crossings`] files exactly the candidates
//! of the per-interval O(n²) enumeration (every pair of every covered
//! in-window interval through [`push_crossings`]), and a scan driven by
//! that enumeration is bitwise equal to [`exact_supremum`].
//!
//! The fleets mix unit and non-unit speed limits, slow glide legs,
//! holds and duplicated robots, whose affines coincide. About half of
//! them have crossings inside their intervals, so the stage's
//! whole-side no-crossing certificate fails there and its per-run
//! filing does the work.

use faultline_analysis::exact::{
    exact_supremum, interval_crossings, push_crossings, scan_covers, CrossingStage,
};
use faultline_core::exact::{first_visit_cover, mirrored, WindowCover};
use faultline_core::{Algorithm, Fleet, FreeSchedule, Params, PiecewiseTrajectory, SpaceTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Speed limits a robot may carry; 1 is the paper's unit bound.
const SPEEDS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
/// Unit floats per robot: speed, first side, first magnitude, and
/// five legs of two floats each.
const ROBOT_FLOATS: usize = 13;

/// The reference crossing stage: every pair of every covered in-window
/// interval, divided on each interval.
fn reference_crossings(cover: &WindowCover, k: usize, out: &mut Vec<(u32, f64)>) {
    let mut xs = Vec::new();
    for i in 0..cover.interval_count() {
        if cover.is_beyond(i) || cover.affines(i).len() < k {
            continue;
        }
        let (lo, hi) = cover.interval_bounds(i);
        xs.clear();
        push_crossings(cover.affines(i), lo, hi, &mut xs);
        out.extend(xs.iter().map(|&x| (i as u32, x)));
    }
}

/// A stage's per-interval candidates as a sorted multiset of bits.
fn filed(stage: CrossingStage, cover: &WindowCover, k: usize) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    stage(cover, k, &mut out);
    let mut keyed: Vec<(u32, u64)> = out.iter().map(|&(i, x)| (i, x.to_bits())).collect();
    keyed.sort_unstable();
    keyed
}

/// Decodes [`ROBOT_FLOATS`] unit floats into a robot that starts at the
/// origin and alternates sides with growing magnitude. Each leg is a
/// sweep at the robot's speed limit or a slower glide, and may be
/// preceded by a hold.
fn decode_robot(u: &[f64]) -> PiecewiseTrajectory {
    let speed = SPEEDS[(u[0] * 4.0) as usize % 4];
    let mut side = if u[1] < 0.5 { 1.0 } else { -1.0 };
    let mut magnitude = 0.3 + 1.5 * u[2];
    let mut at = SpaceTime::origin();
    let mut waypoints = vec![at];
    for leg in u[3..].chunks(2) {
        let (kind, size) = (leg[0], leg[1]);
        if kind < 0.2 {
            at = SpaceTime::new(at.x, at.t + 0.25 + 2.0 * size);
            waypoints.push(at);
        }
        let leg_speed = if kind < 0.6 { speed } else { speed * (0.2 + 0.7 * size) };
        let x = side * magnitude;
        at = SpaceTime::new(x, at.t + (x - at.x).abs() / leg_speed);
        waypoints.push(at);
        side = -side;
        magnitude *= 1.2 + 1.8 * size;
    }
    PiecewiseTrajectory::with_speed_limit(waypoints, speed).expect("decoded legs respect the limit")
}

/// A fleet of decoded robots; when `duplicate < 0.5` one robot appears
/// twice, so some affines are identical.
fn decode_fleet(raw: &[Vec<f64>], duplicate: f64) -> Fleet {
    let mut robots: Vec<PiecewiseTrajectory> = raw.iter().map(|u| decode_robot(u)).collect();
    if duplicate < 0.5 {
        let copy = robots[(duplicate * 2.0 * robots.len() as f64) as usize % robots.len()].clone();
        robots.push(copy);
    }
    Fleet::new(robots).expect("a decoded fleet is non-empty")
}

/// Compares both stages on both sides of `fleet` and the two scans;
/// returns how many crossings the reference filed.
fn check(fleet: &Fleet, k: usize, xmax: f64) -> Result<usize, TestCaseError> {
    let pos = first_visit_cover(fleet.trajectories(), 1.0, xmax).unwrap();
    let neg = first_visit_cover(&mirrored(fleet.trajectories()).unwrap(), 1.0, xmax).unwrap();
    let mut reference_count = 0;
    for (side, cover) in [("positive", &pos), ("negative", &neg)] {
        let reference = filed(reference_crossings, cover, k);
        let fast = filed(interval_crossings, cover, k);
        prop_assert_eq!(&fast, &reference, "{} side, k = {}, xmax = {}", side, k, xmax);
        reference_count += reference.len();
    }
    let fast = exact_supremum(fleet, k, xmax).unwrap();
    let reference = scan_covers(&pos, Some(&neg), k, reference_crossings).unwrap();
    let bits = |s: &faultline_analysis::ExactScan| {
        (s.ratio.to_bits(), s.argmax.to_bits(), s.pressure.to_bits(), s.uncovered)
    };
    prop_assert_eq!(bits(&fast), bits(&reference), "k = {}, xmax = {}", k, xmax);
    prop_assert_eq!(fast.critical_points, reference.critical_points);
    Ok(reference_count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn crossing_stage_matches_the_pairwise_reference(
        raw_robots in prop::collection::vec(prop::collection::vec(0.0f64..1.0, ROBOT_FLOATS), 2..7),
        duplicate in 0.0f64..1.0,
        k_raw in 0usize..8,
        xmax in 2.0f64..30.0,
    ) {
        let fleet = decode_fleet(&raw_robots, duplicate);
        let k = 1 + k_raw % fleet.len();
        check(&fleet, k, xmax)?;
    }
}

#[test]
fn random_fleets_put_crossings_inside_intervals() {
    // Without in-window crossings the certificate would settle every
    // case above and the per-run filing would go untested.
    let mut rng = StdRng::seed_from_u64(13);
    let (mut cases, mut crossed) = (0, 0);
    for _ in 0..200 {
        let robots = rng.random_range(2..7);
        let raw: Vec<Vec<f64>> = (0..robots)
            .map(|_| (0..ROBOT_FLOATS).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        let fleet = decode_fleet(&raw, rng.random_range(0.0..1.0));
        let k = rng.random_range(1..=fleet.len());
        let filed = check(&fleet, k, rng.random_range(2.0..30.0)).unwrap();
        cases += 1;
        crossed += usize::from(filed > 0);
    }
    assert!(4 * crossed >= cases, "only {crossed} of {cases} fleets had in-window crossings");
}

#[test]
fn paper_and_lowered_fleets_match_the_reference() {
    for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 3), (6, 2), (11, 5)] {
        let algorithm = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
        let xmax = 25.0;
        let horizon = algorithm.required_horizon(xmax * (1.0 + 1e-6)).unwrap();
        let paper = Fleet::from_plans(&algorithm.plans(), horizon).unwrap();
        check(&paper, f + 1, xmax).unwrap();
        if let Some(schedule) = algorithm.schedule() {
            let lowered = FreeSchedule::from_proportional(schedule, 6).unwrap();
            let horizon = lowered.horizon_hint(xmax).max(4.0 * xmax);
            check(&Fleet::from_plans(&lowered.plans(), horizon).unwrap(), f + 1, xmax).unwrap();
        }
    }
}
