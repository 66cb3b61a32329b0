//! Differential tests of the crossing stage: on random fleets,
//! [`interval_crossings`] files exactly the candidates of the
//! per-interval O(n²) enumeration (every pair of every covered
//! in-window interval through [`push_crossings`]), on first-visit and
//! all-visit covers alike. Scans driven by that enumeration, the
//! worst-case [`scan_covers`] and an expected-cost scan, are bitwise
//! equal to [`exact_supremum`] and [`exact_expected_supremum`].
//!
//! The fleets mix unit and non-unit speed limits, slow glide legs,
//! holds and duplicated robots, whose affines coincide. About half of
//! them have crossings inside their intervals, so the stage's
//! whole-side no-crossing certificate fails there and its per-run
//! filing does the work. Their all-visit covers hold intervals that one
//! robot passes more than once.
//!
//! The same fleets check [`FleetScan::scan_with`]: the scan of a fleet
//! with one robot left out, given a replacement robot, must be bitwise
//! [`exact_supremum`] of the fleet with the replacement in its place.

use super::*;
use faultline_core::{Algorithm, FreeSchedule, Params, SpaceTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Speed limits a robot may carry; 1 is the paper's unit bound.
const SPEEDS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
/// Unit floats per robot: speed, first side, first magnitude, and
/// five legs of two floats each.
const ROBOT_FLOATS: usize = 13;

/// Pushes the pairwise crossings of `affines` that fall strictly
/// inside `(lo, hi)` onto `candidates`: every pair, divided once per
/// interval.
fn push_crossings(affines: &[Affine], lo: f64, hi: f64, candidates: &mut Vec<f64>) {
    for (i, a) in affines.iter().enumerate() {
        for b in &affines[i + 1..] {
            if let Some(x) = a.crossing(b) {
                if x > lo && x < hi {
                    candidates.push(x);
                }
            }
        }
    }
}

/// A crossing stage: appends to `out`, as `(interval, x)`, every
/// pairwise crossing `x` of two affines of one in-window interval that
/// holds at least `k` affines, where `x` falls strictly inside that
/// interval.
type CrossingStage = fn(&WindowCover, usize, &mut Vec<(u32, f64)>);

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

/// The reference scan of one side: the supremum of `T_k(x) / x` over
/// `[1, xmax]` including the right-hand limit at `xmax` (the
/// beyond-window interval evaluated at its lower endpoint), every
/// candidate's k-th time selected from all of its interval's affines.
fn scan_side_worst_case(cover: &WindowCover, k: usize, crossings: CrossingStage) -> SideScan {
    let mut side = SideScan::new(Some(cover));
    let mut filed = Vec::new();
    crossings(cover, k, &mut filed);
    filed.sort_unstable_by_key(|&(i, _)| i);
    let mut filed = filed.into_iter().peekable();
    let mut candidates: Vec<f64> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for i in 0..cover.interval_count() {
        let (lo, hi) = cover.interval_bounds(i);
        let affines = cover.affines(i);
        if affines.len() < k {
            side.mark_uncovered(lo);
            continue;
        }
        candidates.clear();
        candidates.push(lo);
        if !cover.is_beyond(i) {
            // Inside the window both limits and every crossing are
            // candidates; the beyond interval is only ever evaluated
            // at the window edge (the right-hand limit at xmax).
            candidates.push(hi);
            while let Some((_, x)) = filed.next_if(|&(j, _)| j as usize == i) {
                candidates.push(x);
            }
        }
        let best = best_over_candidates(&candidates, |x| {
            times.clear();
            times.extend(affines.iter().map(|a| a.eval(x)));
            Some(*times.select_nth_unstable_by(k - 1, f64::total_cmp).1)
        })
        .expect("worst-case evaluation is total over covered intervals");
        side.record(best);
    }
    side
}

/// The reference worst-case scan of a line from its two prebuilt
/// first-visit covers, `crossings` supplying the crossing candidates.
fn scan_covers(
    pos: &WindowCover,
    neg: &WindowCover,
    k: usize,
    crossings: CrossingStage,
) -> ExactScan {
    merge_sides(scan_side_worst_case(pos, k, crossings), scan_side_worst_case(neg, k, crossings))
}

/// The reference expected-cost scan of one side of an all-visit cover:
/// interval endpoints, every pair's crossing through
/// [`push_crossings`], and horizon crossings.
fn scan_side_expected_reference(cover: &WindowCover, p: f64, horizon: f64) -> SideScan {
    let mut side = SideScan::new(Some(cover));
    let mut candidates: Vec<f64> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for i in 0..cover.interval_count() {
        let (lo, hi) = cover.interval_bounds(i);
        let affines = cover.affines(i);
        if affines.is_empty() {
            side.mark_uncovered(lo);
            continue;
        }
        candidates.clear();
        candidates.push(lo);
        if !cover.is_beyond(i) {
            candidates.push(hi);
            push_crossings(affines, lo, hi, &mut candidates);
            for a in affines {
                if let Some(x) = a.position_of_time(horizon) {
                    if x > lo && x < hi {
                        candidates.push(x);
                    }
                }
            }
        }
        match best_over_candidates(&candidates, |x| {
            expected_value_at(affines, x, p, horizon, &mut times)
        }) {
            Some(best) => side.record(best),
            None => side.mark_uncovered(lo),
        }
    }
    side
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
    let mut at = SpaceTime::new(0.0, 0.0);
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

/// What [`check`] compared.
#[derive(Debug, Clone, Copy)]
struct Filed {
    /// Crossings the reference filed on the first-visit covers.
    first_visit: usize,
    /// All-visit intervals that one robot passes more than once.
    passed_twice: usize,
}

/// Compares both stages on both sides of `fleet`, first-visit covers
/// against `k` and all-visit covers against 1, then the worst-case
/// scans and the expected-cost scans at `p` against their references.
fn check(fleet: &Fleet, k: usize, p: f64, xmax: f64) -> std::result::Result<Filed, TestCaseError> {
    let pos = first_visit_cover(fleet.trajectories(), 1.0, xmax).unwrap();
    let neg = first_visit_cover(&mirrored(fleet.trajectories()).unwrap(), 1.0, xmax).unwrap();
    let mut counts = Filed { first_visit: 0, passed_twice: 0 };
    for (side, cover) in [("positive", &pos), ("negative", &neg)] {
        let reference = filed(reference_crossings, cover, k);
        let fast = filed(interval_crossings, cover, k);
        prop_assert_eq!(&fast, &reference, "{} side, k = {}, xmax = {}", side, k, xmax);
        counts.first_visit += reference.len();
    }
    let fast = exact_supremum(fleet, k, xmax).unwrap();
    let reference = scan_covers(&pos, &neg, k, reference_crossings);
    prop_assert_eq!(bits(&fast), bits(&reference), "k = {}, xmax = {}", k, xmax);

    let pos = all_visit_cover(fleet.trajectories(), 1.0, xmax).unwrap();
    let neg = all_visit_cover(&mirrored(fleet.trajectories()).unwrap(), 1.0, xmax).unwrap();
    for (side, cover) in [("positive", &pos), ("negative", &neg)] {
        let reference = filed(reference_crossings, cover, 1);
        let fast = filed(interval_crossings, cover, 1);
        prop_assert_eq!(&fast, &reference, "all-visit {} side, xmax = {}", side, xmax);
        counts.passed_twice += (0..cover.interval_count())
            .filter(|&i| cover.robots(i).windows(2).any(|w| w[0] == w[1]))
            .count();
    }
    let horizon = fleet.horizon();
    let fast = exact_expected_supremum(fleet, p, xmax).unwrap();
    let reference = merge_expected(
        scan_side_expected_reference(&pos, p, horizon),
        scan_side_expected_reference(&neg, p, horizon),
    );
    prop_assert_eq!(bits(&fast), bits(&reference), "p = {}, xmax = {}", p, xmax);
    Ok(counts)
}

/// Every field of a scan, floats as bits.
fn bits(s: &ExactScan) -> (u64, u64, u64, usize, usize) {
    (s.ratio.to_bits(), s.argmax.to_bits(), s.pressure.to_bits(), s.uncovered, s.critical_points)
}

/// What a substitution case exercised.
#[derive(Debug, Default, Clone, Copy)]
struct Exercised {
    /// The replacement lifts some interval from `k - 1` affines to `k`.
    lifted: bool,
    /// On some side only the replacement reaches past the window.
    only_replacement_beyond: bool,
    /// On some side only the other robots reach past the window.
    only_others_beyond: bool,
    /// The replacement covers no interval of either side.
    covers_nothing: bool,
}

/// Leaves robot `r` out of `fleet`, puts `replacement` in its place,
/// and compares [`FleetScan::scan_with`] on the others against
/// [`exact_supremum`] of the joint fleet, and [`FleetScan::scan`] of
/// the joint fleet against both.
fn check_substitution(
    fleet: &Fleet,
    r: usize,
    replacement: &PiecewiseTrajectory,
    k: usize,
    xmax: f64,
) -> std::result::Result<Exercised, TestCaseError> {
    let mut joint = fleet.trajectories().to_vec();
    joint[r] = replacement.clone();
    let mut others = joint.clone();
    others.remove(r);
    let expected = exact_supremum(&Fleet::new(joint.clone()).unwrap(), k, xmax).unwrap();
    let held = FleetScan::new(&others, k, xmax, Geometry::Line).unwrap();
    let served = held.scan_with(replacement, [&[], &[]]).unwrap();
    prop_assert_eq!(bits(&served), bits(&expected), "robot {}, k = {}, xmax = {}", r, k, xmax);
    let whole = FleetScan::new(&joint, k, xmax, Geometry::Line).unwrap().scan();
    prop_assert_eq!(bits(&whole), bits(&expected));

    let mut exercised = Exercised { covers_nothing: true, ..Exercised::default() };
    let (mirror_joint, mirror_others) = (mirrored(&joint).unwrap(), mirrored(&others).unwrap());
    let mirror_replacement = mirrored(std::slice::from_ref(replacement)).unwrap();
    for (joint, others, alone) in [
        (&joint[..], &others[..], std::slice::from_ref(replacement)),
        (&mirror_joint[..], &mirror_others[..], &mirror_replacement[..]),
    ] {
        let joint = first_visit_cover(joint, 1.0, xmax).unwrap();
        let others = first_visit_cover(others, 1.0, xmax).unwrap();
        let alone = first_visit_cover(alone, 1.0, xmax).unwrap();
        exercised.lifted |= (0..joint.interval_count())
            .any(|i| joint.affines(i).len() == k && joint.robots(i).contains(&(r as u32)));
        exercised.only_replacement_beyond |= alone.beyond().is_some() && others.beyond().is_none();
        exercised.only_others_beyond |= alone.beyond().is_none() && others.beyond().is_some();
        exercised.covers_nothing &=
            (0..alone.interval_count()).all(|i| alone.affines(i).is_empty());
    }
    Ok(exercised)
}

/// A replacement for robot `r` of `fleet`, by `kind`: a decoded robot,
/// a time-shifted copy of a neighbour (every cut shared, no affine
/// shared), an exact copy of a neighbour, a robot that never leaves
/// `(-1, 1)`, or a neighbour stretched to twice its reach.
fn replacement(fleet: &Fleet, r: usize, kind: usize, u: &[f64]) -> PiecewiseTrajectory {
    let neighbour = &fleet.trajectories()[(r + 1) % fleet.trajectories().len()];
    match kind % 5 {
        0 => decode_robot(u),
        1 => {
            let delay = 0.25 + 3.0 * u[0];
            let mut waypoints = vec![SpaceTime::new(0.0, 0.0), SpaceTime::new(0.0, delay)];
            waypoints.extend(
                neighbour.waypoints()[1..].iter().map(|w| SpaceTime::new(w.x, w.t + delay)),
            );
            PiecewiseTrajectory::with_speed_limit(waypoints, 3.0).unwrap()
        }
        2 => neighbour.clone(),
        3 => PiecewiseTrajectory::new(vec![
            SpaceTime::new(0.0, 0.0),
            SpaceTime::new(0.9 * u[1], 0.9),
            SpaceTime::new(-0.9 * u[2], 3.0),
        ])
        .unwrap(),
        _ => {
            let stretched =
                neighbour.waypoints().iter().map(|w| SpaceTime::new(2.0 * w.x, 2.0 * w.t));
            PiecewiseTrajectory::with_speed_limit(stretched.collect(), 3.0).unwrap()
        }
    }
}

/// The window for a substitution case: a drawn `xmax`, or one between
/// the replacement's and the others' largest excursions, so that only
/// one of them reaches past it on the positive side.
fn window(fleet: &Fleet, r: usize, replacement: &PiecewiseTrajectory, mode: f64, xmax: f64) -> f64 {
    let reach = |t: &PiecewiseTrajectory| t.waypoints().iter().map(|w| w.x).fold(0.0, f64::max);
    let others = fleet
        .trajectories()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != r)
        .map(|(_, t)| reach(t))
        .fold(0.0, f64::max);
    let (a, b) = (others.min(reach(replacement)), others.max(reach(replacement)));
    if mode < 0.5 && a > 1.0 && a < b {
        a + (b - a) * (0.25 + 0.5 * mode)
    } else {
        xmax
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn crossing_stage_matches_the_pairwise_reference(
        raw_robots in prop::collection::vec(prop::collection::vec(0.0f64..1.0, ROBOT_FLOATS), 2..7),
        duplicate in 0.0f64..1.0,
        k_raw in 0usize..8,
        xmax in 2.0f64..30.0,
        p in 0.0f64..1.0,
    ) {
        let fleet = decode_fleet(&raw_robots, duplicate);
        let k = 1 + k_raw % fleet.trajectories().len();
        check(&fleet, k, p, xmax)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn substituted_robot_scans_like_the_joint_fleet(
        raw_robots in prop::collection::vec(prop::collection::vec(0.0f64..1.0, ROBOT_FLOATS), 2..7),
        duplicate in 0.0f64..1.0,
        raw_replacement in prop::collection::vec(0.0f64..1.0, ROBOT_FLOATS),
        kind in 0usize..5,
        r_raw in 0usize..8,
        k_raw in 0usize..9,
        mode in 0.0f64..1.0,
        xmax in 2.0f64..30.0,
    ) {
        let fleet = decode_fleet(&raw_robots, duplicate);
        let r = r_raw % fleet.trajectories().len();
        // One case in three measures with k = n.
        let k = if k_raw >= 6 { fleet.trajectories().len() } else { 1 + k_raw % fleet.trajectories().len() };
        let replacement = replacement(&fleet, r, kind, &raw_replacement);
        let xmax = window(&fleet, r, &replacement, mode, xmax);
        check_substitution(&fleet, r, &replacement, k, xmax)?;
    }
}

#[test]
fn substitution_cases_exercise_every_branch() {
    // The proptest above only means something if its cases reach the
    // branches of `scan_with`; count them over a fixed stream.
    let mut rng = StdRng::seed_from_u64(29);
    let mut seen = [0usize; 5];
    for _ in 0..400 {
        let robots = rng.random_range(2..7);
        let raw: Vec<Vec<f64>> = (0..robots)
            .map(|_| (0..ROBOT_FLOATS).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        let fleet = decode_fleet(&raw, rng.random_range(0.0..1.0));
        let r = rng.random_range(0..fleet.trajectories().len());
        let k = rng.random_range(1..=fleet.trajectories().len());
        let u: Vec<f64> = (0..ROBOT_FLOATS).map(|_| rng.random_range(0.0..1.0)).collect();
        let replacement = replacement(&fleet, r, rng.random_range(0..5), &u);
        let (mode, xmax) = (rng.random_range(0.0..1.0), rng.random_range(2.0..30.0));
        let xmax = window(&fleet, r, &replacement, mode, xmax);
        let exercised = check_substitution(&fleet, r, &replacement, k, xmax).unwrap();
        // A crossing filed on the joint fleet fails its certificate.
        let joint_crossings = {
            let mut joint = fleet.trajectories().to_vec();
            joint[r] = replacement.clone();
            let cover = first_visit_cover(&joint, 1.0, xmax).unwrap();
            let mut out = Vec::new();
            interval_crossings(&cover, k, &mut out);
            !out.is_empty()
        };
        for (count, hit) in seen.iter_mut().zip([
            exercised.lifted,
            exercised.only_replacement_beyond,
            exercised.only_others_beyond,
            exercised.covers_nothing,
            joint_crossings,
        ]) {
            *count += usize::from(hit);
        }
    }
    assert!(seen.iter().all(|&count| count >= 20), "branch hits {seen:?} of 400 cases");
}

#[test]
fn a_crossing_with_the_substituted_robot_can_be_the_supremum() {
    // A dashes to 1 at speed 3, then crawls outward at speed 1/2, so
    // its visit ratio rises with x; B leaves the origin at t = 1, so
    // its ratio falls. T_1 switches from A to B where they cross, at
    // x = 8/3, which is the supremum on both sides (C and D mirror A
    // and B). Either robot left out must find that crossing itself.
    let a = PiecewiseTrajectory::with_speed_limit(
        vec![
            SpaceTime::new(0.0, 0.0),
            SpaceTime::new(1.0, 1.0 / 3.0),
            SpaceTime::new(4.0, 1.0 / 3.0 + 6.0),
            SpaceTime::new(-4.0, 1.0 / 3.0 + 14.0),
        ],
        3.0,
    )
    .unwrap();
    let b = PiecewiseTrajectory::new(vec![
        SpaceTime::new(0.0, 0.0),
        SpaceTime::new(0.0, 1.0),
        SpaceTime::new(5.0, 6.0),
        SpaceTime::new(-5.0, 16.0),
    ])
    .unwrap();
    let mirror = mirrored(&[a.clone(), b.clone()]).unwrap();
    let fleet = Fleet::new(vec![a, b, mirror[0].clone(), mirror[1].clone()]).unwrap();
    let scan = exact_supremum(&fleet, 1, 3.5).unwrap();
    assert!((scan.argmax - 8.0 / 3.0).abs() < 1e-12, "argmax {}", scan.argmax);
    assert!((scan.ratio - 1.375).abs() < 1e-12, "ratio {}", scan.ratio);
    // At p = 1 the expected cost is the first visit, so the all-visit
    // scan must find the same crossing.
    let expected = exact_expected_supremum(&fleet, 1.0, 3.5).unwrap();
    assert_eq!((expected.ratio, expected.argmax), (scan.ratio, scan.argmax));
    check(&fleet, 1, 1.0, 3.5).unwrap();
    for r in 0..fleet.trajectories().len() {
        check_substitution(&fleet, r, &fleet.trajectories()[r].clone(), 1, 3.5).unwrap();
    }
}

#[test]
fn paper_fleets_substitute_every_robot() {
    for (n, f) in [(3usize, 1usize), (5, 3), (11, 5)] {
        let algorithm = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
        let xmax = 25.0;
        let horizon = algorithm.required_horizon(xmax * (1.0 + 1e-6)).unwrap();
        let paper = Fleet::from_plans(&algorithm.plans(), horizon).unwrap();
        for r in 0..n {
            let neighbour = paper.trajectories()[(r + 1) % n].clone();
            check_substitution(&paper, r, &paper.trajectories()[r].clone(), f + 1, xmax).unwrap();
            check_substitution(&paper, r, &neighbour, f + 1, xmax).unwrap();
        }
    }
}

/// Detection probabilities the fixed cases cycle through.
const PROBABILITIES: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];

#[test]
fn random_fleets_put_crossings_inside_intervals() {
    // Without in-window crossings the certificate would settle every
    // case above and the per-run filing would go untested; without
    // repeated passes the all-visit covers would be first-visit ones.
    let mut rng = StdRng::seed_from_u64(13);
    let (mut cases, mut crossed, mut repeated) = (0, 0, 0);
    for case in 0..200 {
        let robots = rng.random_range(2..7);
        let raw: Vec<Vec<f64>> = (0..robots)
            .map(|_| (0..ROBOT_FLOATS).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        let fleet = decode_fleet(&raw, rng.random_range(0.0..1.0));
        let k = rng.random_range(1..=fleet.trajectories().len());
        let p = PROBABILITIES[case % PROBABILITIES.len()];
        let filed = check(&fleet, k, p, rng.random_range(2.0..30.0)).unwrap();
        cases += 1;
        crossed += usize::from(filed.first_visit > 0);
        repeated += usize::from(filed.passed_twice > 0);
    }
    assert!(4 * crossed >= cases, "only {crossed} of {cases} fleets had in-window crossings");
    assert!(2 * repeated >= cases, "only {repeated} of {cases} fleets passed an interval twice");
}

#[test]
fn paper_and_lowered_fleets_match_the_reference() {
    for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 3), (6, 2), (11, 5)] {
        let algorithm = Algorithm::design(Params::new(n, f).unwrap()).unwrap();
        let xmax = 25.0;
        let horizon = algorithm.required_horizon(xmax * (1.0 + 1e-6)).unwrap();
        let paper = Fleet::from_plans(&algorithm.plans(), horizon).unwrap();
        for p in PROBABILITIES {
            check(&paper, f + 1, p, xmax).unwrap();
        }
        if let Some(schedule) = algorithm.schedule() {
            let lowered = FreeSchedule::from_proportional(schedule, 6).unwrap();
            let horizon = lowered.horizon_hint(xmax).max(4.0 * xmax);
            let lowered = Fleet::from_plans(&lowered.plans(), horizon).unwrap();
            for p in PROBABILITIES {
                check(&lowered, f + 1, p, xmax).unwrap();
            }
        }
    }
}
