//! Crash faults: an alternative fault model from the robotics
//! literature the paper cites (gathering/patrolling with crash-prone
//! robots).
//!
//! The paper's faults are *sensor* faults: a faulty robot keeps moving
//! but never detects. A **crash** fault is different: the robot stops
//! dead at some time and contributes no further visits — but its sensor
//! was fine, so visits made *before* the crash still count.
//!
//! Detection semantics under crashes: the target is found by the first
//! robot that (a) reaches it and (b) has not crashed before arriving.
//! Unlike sensor faults, crashes genuinely remove future coverage, so a
//! non-adaptive schedule (no communication — the paper's model) can be
//! left with permanent holes. The experiment in
//! `faultline-analysis` quantifies how much worse crash faults are than
//! sensor faults for the same fault budget.

use faultline_core::{Error, PiecewiseTrajectory, Result};
use serde::{Deserialize, Serialize};

/// A crash schedule: for each robot, the time at which it stops
/// (`None` = never crashes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashPlan {
    times: Vec<Option<f64>>,
}

impl CrashPlan {
    /// Creates a crash plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when any crash time is negative or
    /// non-finite.
    pub(crate) fn new(times: Vec<Option<f64>>) -> Result<Self> {
        for t in times.iter().flatten() {
            if !(*t >= 0.0) || !t.is_finite() {
                return Err(Error::domain(format!("invalid crash time {t}")));
            }
        }
        Ok(CrashPlan { times })
    }
}

/// The worst-case crash adversary with budget `f`: for a fixed target,
/// crash the `f` earliest-arriving robots *just before* each reaches
/// the target, maximizing the delay to detection.
///
/// Returns the crash plan and the resulting detection time (`None`
/// when no surviving robot reaches the target within the horizon).
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] when `f >= n`.
pub fn worst_case_crashes(
    trajectories: &[PiecewiseTrajectory],
    target: f64,
    f: usize,
) -> Result<(CrashPlan, Option<f64>)> {
    crate::fault::check_adversary_budget(trajectories.len(), f)?;
    let mut arrivals: Vec<(usize, f64)> = trajectories
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.first_visit(target).map(|time| (i, time)))
        .collect();
    arrivals.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut times = vec![None; trajectories.len()];
    for &(robot, arrival) in arrivals.iter().take(f) {
        // Crash an instant before arrival: all earlier visits (to other
        // points) still happened, but the target visit does not.
        times[robot] = Some((arrival - 1e-9).max(0.0));
    }
    let detection = arrivals.get(f).map(|&(_, t)| t);
    Ok((CrashPlan::new(times)?, detection))
}

#[cfg(test)]
impl CrashPlan {
    /// No robot ever crashes.
    #[must_use]
    pub(crate) fn none(n: usize) -> Self {
        CrashPlan { times: vec![None; n] }
    }

    /// The crash time of robot `i`, if any.
    #[must_use]
    pub(crate) fn crash_time(&self, i: usize) -> Option<f64> {
        self.times.get(i).copied().flatten()
    }

    /// Number of crashing robots.
    #[must_use]
    pub(crate) fn crash_count(&self) -> usize {
        self.times.iter().filter(|t| t.is_some()).count()
    }

    /// Applies the crashes to a fleet: each crashing robot's trajectory
    /// is truncated at its crash time (it then stands still forever,
    /// which is equivalent to absent for first-visit queries at other
    /// positions — the truncated trajectory simply ends).
    ///
    /// Crash times at or before a trajectory's start, or beyond its
    /// horizon, leave it parked at the start or unchanged respectively.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when the plan's length does
    /// not match the fleet's.
    pub(crate) fn apply(
        &self,
        trajectories: &[PiecewiseTrajectory],
    ) -> Result<Vec<PiecewiseTrajectory>> {
        if self.times.len() != trajectories.len() {
            return Err(Error::invalid_params(
                trajectories.len(),
                self.crash_count(),
                format!(
                    "crash plan covers {} robots, fleet has {}",
                    self.times.len(),
                    trajectories.len()
                ),
            ));
        }
        trajectories
            .iter()
            .zip(&self.times)
            .map(|(traj, crash)| match crash {
                None => Ok(traj.clone()),
                Some(t) => {
                    if *t >= traj.horizon() {
                        Ok(traj.clone())
                    } else if *t <= traj.start_time() {
                        // Crashed before moving: a degenerate two-point
                        // trajectory parked at the start.
                        let start = traj.waypoints()[0];
                        PiecewiseTrajectory::new(vec![
                            start,
                            faultline_core::SpaceTime::new(start.x, traj.horizon()),
                        ])
                    } else {
                        // Truncate, then park at the crash position so
                        // the common fleet horizon is preserved.
                        let cut = traj.truncated(*t)?;
                        let mut wps = cut.waypoints().to_vec();
                        let last = *wps.last().expect("truncated keeps >= 2 waypoints");
                        if traj.horizon() > last.t {
                            wps.push(faultline_core::SpaceTime::new(last.x, traj.horizon()));
                        }
                        PiecewiseTrajectory::new(wps)
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::{Algorithm, Params, TrajectoryBuilder};

    #[test]
    fn validates_times() {
        assert!(CrashPlan::new(vec![Some(-1.0)]).is_err());
        assert!(CrashPlan::new(vec![Some(f64::NAN)]).is_err());
        assert!(CrashPlan::new(vec![None, Some(2.0)]).is_ok());
    }

    #[test]
    fn none_plan_is_identity() {
        let t = TrajectoryBuilder::from_origin().sweep_to(3.0).finish().unwrap();
        let plan = CrashPlan::none(1);
        assert_eq!(plan.crash_count(), 0);
        let out = plan.apply(std::slice::from_ref(&t)).unwrap();
        assert_eq!(out[0], t);
    }

    #[test]
    fn crash_truncates_and_parks() {
        let t = TrajectoryBuilder::from_origin().sweep_to(4.0).finish().unwrap();
        let plan = CrashPlan::new(vec![Some(1.5)]).unwrap();
        let out = plan.apply(&[t]).unwrap();
        // Parked at x = 1.5 from t = 1.5 to the original horizon.
        assert_eq!(out[0].horizon(), 4.0);
        assert_eq!(out[0].position_at(1.5), Some(1.5));
        assert_eq!(out[0].position_at(4.0), Some(1.5));
        assert_eq!(out[0].first_visit(2.0), None, "never reaches 2 after crashing");
        assert_eq!(out[0].first_visit(1.0), Some(1.0), "pre-crash visits preserved");
    }

    #[test]
    fn crash_at_zero_parks_at_origin() {
        let t = TrajectoryBuilder::from_origin().sweep_to(4.0).finish().unwrap();
        let out = CrashPlan::new(vec![Some(0.0)]).unwrap().apply(&[t]).unwrap();
        assert_eq!(out[0].position_at(3.0), Some(0.0));
    }

    #[test]
    fn crash_past_horizon_is_harmless() {
        let t = TrajectoryBuilder::from_origin().sweep_to(4.0).finish().unwrap();
        let out =
            CrashPlan::new(vec![Some(100.0)]).unwrap().apply(std::slice::from_ref(&t)).unwrap();
        assert_eq!(out[0], t);
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = TrajectoryBuilder::from_origin().sweep_to(1.0).finish().unwrap();
        assert!(CrashPlan::none(2).apply(&[t]).is_err());
    }

    #[test]
    fn crash_adversary_delays_like_sensor_adversary() {
        // With the same budget, crashing the f earliest visitors right
        // before the target reproduces the sensor-fault detection time
        // T_(f+1) — crashes are at least as harmful.
        let params = Params::new(3, 1).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(9.0).unwrap();
        let trajs: Vec<_> = alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
        let fleet = faultline_core::Fleet::new(trajs.clone()).unwrap();
        for x in [2.0, -5.0, 8.0] {
            let (plan, detection) = worst_case_crashes(&trajs, x, 1).unwrap();
            assert_eq!(plan.crash_count(), 1);
            let sensor_t = fleet.visit_time(x, 2).unwrap();
            assert!(
                (detection.unwrap() - sensor_t).abs() < 1e-9,
                "x = {x}: crash {detection:?} vs sensor {sensor_t}"
            );
            // And the crashed fleet really cannot detect earlier.
            let crashed = plan.apply(&trajs).unwrap();
            let crashed_fleet = faultline_core::Fleet::new(crashed).unwrap();
            let first_alive = crashed_fleet.visit_time(x, 1).unwrap();
            assert!((first_alive - sensor_t).abs() < 1e-6, "x = {x}");
        }
    }

    #[test]
    fn crashes_can_remove_coverage_entirely() {
        // Unlike sensor faults, crashing the only robot that ever goes
        // left leaves the left side permanently unconfirmed.
        let right = TrajectoryBuilder::from_origin().sweep_to(50.0).finish().unwrap();
        let left = TrajectoryBuilder::from_origin().sweep_to(-50.0).finish().unwrap();
        let (plan, detection) = worst_case_crashes(&[right, left], -10.0, 1).unwrap();
        assert_eq!(plan.crash_time(1).map(|t| t < 10.0), Some(true));
        assert_eq!(detection, None);
    }
}
