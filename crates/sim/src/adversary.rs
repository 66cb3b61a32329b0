//! The worst-case fault adversary.
//!
//! The paper's adversary may declare any `f` robots faulty; since a
//! target is confirmed by the first reliable visitor, the worst choice
//! is always "the first `f` distinct robots to reach the target". The
//! resulting search time is exactly `T_(f+1)(x)` of Definition 3.

use faultline_core::{Error, PiecewiseTrajectory, Plan, Result};

use crate::engine::{SimConfig, Simulation};
use crate::fault::{check_adversary_budget, FaultPlan};
use crate::outcome::SearchOutcome;
use crate::target::Target;

/// Computes the worst-case fault plan for a fleet against a target:
/// the first `f` distinct robots to visit the target carry a
/// [`crate::FaultKind::Sensor`] fault.
///
/// Robots that never reach the target within their horizon are never
/// wasted as faults (declaring them faulty would not delay detection).
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] when `f >=` fleet size.
pub fn worst_case_plan(
    trajectories: &[PiecewiseTrajectory],
    target: Target,
    f: usize,
) -> Result<FaultPlan> {
    check_adversary_budget(trajectories.len(), f)?;
    let mut arrivals: Vec<(usize, f64)> = trajectories
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.first_visit(target.position()).map(|time| (i, time)))
        .collect();
    arrivals.sort_by(|a, b| a.1.total_cmp(&b.1));
    let faulty: Vec<usize> = arrivals.into_iter().take(f).map(|(i, _)| i).collect();
    FaultPlan::sensor_faults(trajectories.len(), &faulty)
}

/// Runs the search against the worst-case adversary with `f` faults
/// and returns the outcome. The detection time (if any) equals
/// `T_(f+1)(target)`.
///
/// # Errors
///
/// Propagates plan and simulation construction failures.
pub fn worst_case_outcome(
    trajectories: &[PiecewiseTrajectory],
    target: Target,
    f: usize,
    config: SimConfig,
) -> Result<SearchOutcome> {
    let plan = worst_case_plan(trajectories, target, f)?;
    Ok(Simulation::new(trajectories, target, &plan, &[], 0, config, None)?.run())
}

/// Measures the empirical competitive ratio of a set of plans against
/// the worst-case adversary over the given target positions: the
/// maximum, over targets, of `T_(f+1)(x) / |x|`.
///
/// Returns infinity when some target is never confirmed within
/// `horizon` — incomplete coverage is an honest failure, not a skipped
/// sample.
///
/// # Errors
///
/// Propagates materialization and simulation failures; rejects an empty
/// target list.
pub fn empirical_competitive_ratio(
    plans: &[Plan],
    f: usize,
    targets: &[f64],
    horizon: f64,
) -> Result<EmpiricalCr> {
    if targets.is_empty() {
        return Err(Error::domain("empirical CR needs at least one target"));
    }
    let trajectories: Vec<PiecewiseTrajectory> =
        plans.iter().map(|p| p.materialize(horizon)).collect::<Result<_>>()?;
    let mut worst = EmpiricalCr { ratio: 0.0, argmax: targets[0], undetected: 0 };
    for &x in targets {
        let outcome = worst_case_outcome(&trajectories, Target::new(x)?, f, SimConfig::default())?;
        let ratio = outcome.ratio();
        if ratio.is_infinite() {
            worst.undetected += 1;
        }
        if ratio > worst.ratio {
            worst.ratio = ratio;
            worst.argmax = x;
        }
    }
    Ok(worst)
}

/// Result of an empirical competitive-ratio measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalCr {
    /// Largest observed ratio.
    pub ratio: f64,
    /// Target achieving it.
    pub argmax: f64,
    /// Number of targets never detected within the horizon.
    pub undetected: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::coverage::Fleet;
    use faultline_core::{Algorithm, Params, TrajectoryBuilder};

    #[test]
    fn worst_case_marks_earliest_visitors() {
        // Robot 0 arrives at t = 2, robot 1 at t = 4, robot 2 at t = 6;
        // all trajectories run to t >= 8 so the common horizon covers
        // every visit.
        let t0 = TrajectoryBuilder::from_origin().sweep_to(8.0).finish().unwrap();
        let t1 = TrajectoryBuilder::from_origin().sweep_to(-1.0).sweep_to(8.0).finish().unwrap();
        let t2 = TrajectoryBuilder::from_origin().sweep_to(-2.0).sweep_to(8.0).finish().unwrap();
        let target = Target::new(2.0).unwrap();
        let plan = worst_case_plan(&[t0.clone(), t1.clone(), t2.clone()], target, 2).unwrap();
        assert_eq!(plan.faulty_indices(), vec![0, 1]);

        let outcome = worst_case_outcome(&[t0, t1, t2], target, 2, SimConfig::default()).unwrap();
        // Detection by robot 2 at t = 2 + 2 + 2 = ... robot 2 path:
        // 0 -> -2 (t = 2) -> +4; reaches +2 at t = 2 + 4 = 6.
        assert_eq!(outcome.detection.unwrap().time, 6.0);
        assert_eq!(outcome.ratio(), 3.0);
    }

    #[test]
    fn adversary_cannot_waste_faults_on_absent_robots() {
        // Robot 1 never reaches the target; the adversary must burn its
        // single fault on robot 0.
        let t0 = TrajectoryBuilder::from_origin().sweep_to(4.0).finish().unwrap();
        let t1 = TrajectoryBuilder::from_origin().sweep_to(-4.0).finish().unwrap();
        let plan = worst_case_plan(&[t0, t1], Target::new(2.0).unwrap(), 1).unwrap();
        assert_eq!(plan.faulty_indices(), vec![0]);
    }

    #[test]
    fn rejects_too_many_faults() {
        let t0 = TrajectoryBuilder::from_origin().sweep_to(4.0).finish().unwrap();
        assert!(worst_case_plan(&[t0], Target::new(2.0).unwrap(), 1).is_err());
    }

    #[test]
    fn worst_case_detection_equals_t_fplus1() {
        // The simulator's worst-case detection time must agree with the
        // analytic coverage computation, for the real algorithm A(3, 1).
        let params = Params::new(3, 1).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(12.0).unwrap();
        let plans = alg.plans();
        let trajectories: Vec<PiecewiseTrajectory> =
            plans.iter().map(|p| p.materialize(horizon).unwrap()).collect();
        let fleet = Fleet::new(trajectories.clone()).unwrap();
        for x in [1.0, -1.5, 2.5, 7.0, -11.0] {
            let outcome =
                worst_case_outcome(&trajectories, Target::new(x).unwrap(), 1, SimConfig::default())
                    .unwrap();
            let analytic = fleet.visit_time(x, 2).unwrap();
            let simulated = outcome.detection.unwrap().time;
            assert!(
                (analytic - simulated).abs() < 1e-9,
                "x = {x}: sim {simulated} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn empirical_cr_of_two_group_is_one() {
        let alg = Algorithm::design(Params::new(4, 1).unwrap()).unwrap();
        let plans = alg.plans();
        let result = empirical_competitive_ratio(&plans, 1, &[1.0, -2.0, 5.0, -9.5], 20.0).unwrap();
        assert!((result.ratio - 1.0).abs() < 1e-12);
        assert_eq!(result.undetected, 0);
    }

    #[test]
    fn empirical_cr_flags_uncovered_targets() {
        let alg = Algorithm::design(Params::new(3, 1).unwrap()).unwrap();
        let plans = alg.plans();
        // Tiny horizon: far targets cannot be confirmed.
        let result = empirical_competitive_ratio(&plans, 1, &[50.0], 10.0).unwrap();
        assert!(result.ratio.is_infinite());
        assert_eq!(result.undetected, 1);
    }

    #[test]
    fn empirical_cr_requires_targets() {
        let alg = Algorithm::design(Params::new(3, 1).unwrap()).unwrap();
        assert!(empirical_competitive_ratio(&alg.plans(), 1, &[], 10.0).is_err());
    }
}
