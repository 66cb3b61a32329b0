//! Fixed-rate position sampling and outcome replay verification.
//!
//! [`sample_positions`] turns a fleet of trajectories into a dense
//! time series of robot positions — the raw material for animations
//! and external plotting. [`replay_check`] independently re-derives a
//! [`SearchOutcome`]'s visit list from the trajectories, guarding the
//! event engine against bookkeeping bugs.

use faultline_core::{Error, PiecewiseTrajectory, Result};
use serde::{Deserialize, Serialize};

use crate::outcome::SearchOutcome;

/// Robot positions at one sampled instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Sample time.
    pub t: f64,
    /// Position of each robot (`None` once its trajectory has ended).
    pub positions: Vec<Option<f64>>,
}

/// The most snapshots one [`sample_positions`] grid may hold. This is
/// input validation, not a setting: the grid is built in memory, and a
/// million snapshots of a small fleet already take tens of megabytes,
/// so a `dt` far too fine for `until` is refused before anything is
/// allocated.
pub const MAX_SNAPSHOTS: usize = 1_000_000;

/// Samples all robot positions on a fixed grid `0, dt, 2dt, ...` up to
/// (and including, when divisible) `until`.
///
/// # Errors
///
/// Returns [`Error::Domain`] for a non-positive `dt`, a negative
/// `until`, or a grid of more than [`MAX_SNAPSHOTS`] snapshots (an
/// infinite `until` included), and [`Error::InvalidParameters`] for an
/// empty fleet.
pub fn sample_positions(
    trajectories: &[PiecewiseTrajectory],
    dt: f64,
    until: f64,
) -> Result<Vec<Snapshot>> {
    if trajectories.is_empty() {
        return Err(Error::invalid_params(0, 0, "sampling needs at least one robot"));
    }
    if !(dt > 0.0) || !dt.is_finite() || !(until >= 0.0) {
        return Err(Error::domain(format!(
            "sampling needs dt > 0 and until >= 0, got dt = {dt:?}, until = {until:?}"
        )));
    }
    let count = (until / dt).floor() + 1.0;
    if !(count <= MAX_SNAPSHOTS as f64) {
        return Err(Error::domain(format!(
            "sampling until {until:e} every dt = {dt:e} takes {count:e} snapshots, \
             more than the {MAX_SNAPSHOTS} a grid may hold"
        )));
    }
    let steps = (until / dt).floor() as usize;
    let mut out = Vec::with_capacity(steps + 1);
    for k in 0..=steps {
        let t = k as f64 * dt;
        out.push(Snapshot {
            t,
            positions: trajectories.iter().map(|traj| traj.position_at(t)).collect(),
        });
    }
    Ok(out)
}

/// Serializes snapshots as CSV: `t,robot0,robot1,...` with empty cells
/// after a trajectory's end.
#[must_use]
pub fn snapshots_to_csv(snapshots: &[Snapshot]) -> String {
    let robots = snapshots.first().map_or(0, |s| s.positions.len());
    let mut out = String::from("t");
    for i in 0..robots {
        out.push_str(&format!(",robot{i}"));
    }
    out.push('\n');
    for s in snapshots {
        out.push_str(&format!("{}", s.t));
        for p in &s.positions {
            match p {
                Some(x) => out.push_str(&format!(",{x}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Re-derives the distinct-robot visit sequence of `outcome` directly
/// from the trajectories (no event list) and checks it against the
/// engine's record. Returns the number of verified visits.
///
/// This check assumes classic crash/sensor-fault semantics (every
/// robot reports the instant it arrives, or never); outcomes produced
/// under the extended taxonomy — delayed reports or speed-degraded
/// robots — follow different timing and should be verified with
/// [`crate::trace::RunTrace::verify`] instead.
///
/// # Errors
///
/// Returns [`Error::Domain`] describing the first discrepancy found —
/// a failed replay means the simulation engine mis-ordered or dropped
/// an event.
pub fn replay_check(
    trajectories: &[PiecewiseTrajectory],
    outcome: &SearchOutcome,
) -> Result<usize> {
    let x = outcome.target.position();
    let mut arrivals: Vec<(usize, f64)> = trajectories
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.first_visit(x).map(|time| (i, time)))
        .collect();
    arrivals.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    for (idx, visit) in outcome.visits.iter().enumerate() {
        let Some(&(robot, time)) = arrivals.get(idx) else {
            return Err(Error::domain(format!(
                "replay: engine recorded visit #{idx} but only {} robots reach the target",
                arrivals.len()
            )));
        };
        if robot != visit.robot.0 {
            return Err(Error::domain(format!(
                "replay: visit #{idx} should be robot a{robot}, engine says a{}",
                visit.robot.0
            )));
        }
        if (time - visit.time).abs() > 1e-9 * time.max(1.0) {
            return Err(Error::domain(format!(
                "replay: visit #{idx} at t = {time}, engine says {}",
                visit.time
            )));
        }
    }
    if let Some(detection) = &outcome.detection {
        let last = outcome.visits.last().ok_or_else(|| {
            Error::domain("replay: detection recorded without any visit".to_owned())
        })?;
        if !last.reliable || last.robot != detection.robot || last.time != detection.time {
            return Err(Error::domain(
                "replay: detection does not match the final recorded visit".to_owned(),
            ));
        }
    }
    Ok(outcome.visits.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::fault::FaultPlan;
    use crate::target::Target;
    use faultline_core::{Algorithm, Params, TrajectoryBuilder};

    #[test]
    fn sampling_validates_inputs() {
        let t = TrajectoryBuilder::from_origin().sweep_to(2.0).finish().unwrap();
        assert!(sample_positions(&[], 0.1, 1.0).is_err());
        assert!(sample_positions(std::slice::from_ref(&t), 0.0, 1.0).is_err());
        assert!(sample_positions(&[t], 0.1, -1.0).is_err());
    }

    #[test]
    fn sampling_grid_and_end_of_life() {
        let t = TrajectoryBuilder::from_origin().sweep_to(2.0).finish().unwrap();
        let snaps = sample_positions(&[t], 0.5, 3.0).unwrap();
        assert_eq!(snaps.len(), 7);
        assert_eq!(snaps[2].positions[0], Some(1.0));
        assert_eq!(snaps[4].positions[0], Some(2.0));
        // Past the trajectory's horizon the robot reports None.
        assert_eq!(snaps[5].positions[0], None);
    }

    #[test]
    fn sampling_refuses_a_grid_it_cannot_hold() {
        // 1e15 and 1e302 snapshots overflow memory or `usize` if built;
        // an infinite `until` has no finite count at all.
        let t = TrajectoryBuilder::from_origin().sweep_to(2.0).finish().unwrap();
        for (dt, until) in [(1e-9, 1e6), (1e-300, 100.0), (1.0, f64::INFINITY)] {
            let err = sample_positions(std::slice::from_ref(&t), dt, until).unwrap_err();
            assert!(matches!(err, Error::Domain { .. }), "dt = {dt}, until = {until}: {err:?}");
        }
        // The bound is exact: the largest grid it admits is built, one
        // more snapshot is refused.
        let last = (MAX_SNAPSHOTS - 1) as f64;
        assert!(sample_positions(std::slice::from_ref(&t), 1.0, last + 1.0).is_err());
        assert_eq!(sample_positions(&[t], 1.0, last).unwrap().len(), MAX_SNAPSHOTS);
    }

    #[test]
    fn csv_export_shape() {
        let a = TrajectoryBuilder::from_origin().sweep_to(1.0).finish().unwrap();
        let b = TrajectoryBuilder::from_origin().sweep_to(-2.0).finish().unwrap();
        let snaps = sample_positions(&[a, b], 1.0, 2.0).unwrap();
        let csv = snapshots_to_csv(&snaps);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t,robot0,robot1"));
        assert_eq!(lines.next(), Some("0,0,0"));
        assert_eq!(lines.next(), Some("1,1,-1"));
        // Robot 0 ended at t = 1: empty cell afterwards.
        assert_eq!(lines.next(), Some("2,,-2"));
    }

    #[test]
    fn replay_confirms_engine_outcomes() {
        let params = Params::new(3, 1).unwrap();
        let alg = Algorithm::design(params).unwrap();
        let horizon = alg.required_horizon(9.0).unwrap();
        let trajectories: Vec<_> =
            alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
        for target in [2.0, -5.5, 8.3] {
            let outcome = crate::adversary::worst_case_outcome(
                &trajectories,
                Target::new(target).unwrap(),
                1,
                SimConfig::default(),
            )
            .unwrap();
            let verified = replay_check(&trajectories, &outcome).unwrap();
            assert_eq!(verified, outcome.visits.len());
            assert!(verified >= 2);
        }
    }

    #[test]
    fn replay_detects_tampering() {
        let t = TrajectoryBuilder::from_origin().sweep_to(5.0).finish().unwrap();
        let mut outcome = Simulation::new(
            std::slice::from_ref(&t),
            Target::new(3.0).unwrap(),
            &FaultPlan::all_reliable(1),
            &[],
            0,
            SimConfig::default(),
            None,
        )
        .unwrap()
        .run();
        // Corrupt the recorded visit time.
        outcome.visits[0].time += 1.0;
        outcome.detection = outcome.detection.map(|mut d| {
            d.time += 1.0;
            d
        });
        assert!(replay_check(std::slice::from_ref(&t), &outcome).is_err());
    }
}
