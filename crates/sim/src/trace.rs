//! Self-contained, replayable run traces.
//!
//! When a conformance oracle (or a user) finds an interesting run —
//! typically a violation of the adversary-dominance invariant — it
//! records a [`RunTrace`]: everything needed to re-execute the run
//! bit-for-bit (trajectories, target, fault plan, seed, engine
//! configuration) together with the observed [`SearchOutcome`]. The
//! trace serializes to a single JSON document, so a failure seen on one
//! machine can be replayed and debugged on another with
//! `repro replay <trace.json>`.
//!
//! Bit-for-bit means exactly that: the engine is deterministic (the
//! only randomness, intermittent-sensor coins, is a pure function of
//! the stored seed) and the JSON writer prints floats in
//! shortest-roundtrip form, so `replay` reproduces the recorded
//! detection time and visit order exactly, not just approximately.
//!
//! Traces also support deterministic *shrinking*: given a predicate
//! that characterizes the failure, [`RunTrace::shrunk`] removes faults
//! that do not contribute and walks the target toward the minimum
//! distance, yielding a smaller reproduction of the same failure.

use faultline_core::{Error, PiecewiseTrajectory, Result};
use serde::{Deserialize, Serialize};

use crate::engine::{QuorumConfig, SimConfig, Simulation};
use crate::fault::{FaultKind, FaultPlan};
use crate::outcome::SearchOutcome;
use crate::robot::RobotId;
use crate::target::Target;

/// Current trace schema version; bumped on incompatible changes.
pub(crate) const TRACE_VERSION: u32 = 1;

/// A recorded simulation run, replayable bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Trace schema version ([`TRACE_VERSION`]).
    pub(crate) version: u32,
    /// Why the trace was recorded (free text, e.g. "dominance
    /// violation at mask {0, 2}").
    pub reason: String,
    /// The fleet's materialized trajectories.
    pub trajectories: Vec<PiecewiseTrajectory>,
    /// The target position (validated on replay).
    pub target: f64,
    /// Per-robot fault kinds (validated on replay).
    pub plan: Vec<FaultKind>,
    /// Seed for the intermittent-sensor coins.
    pub seed: u64,
    /// Whether the engine recorded a full event trace.
    pub(crate) record_trace: bool,
    /// Whether the engine stopped at the first detection.
    pub(crate) stop_at_detection: bool,
    /// The claim quorum the run was executed under, when the voting
    /// layer was engaged. `None` — the paper's first-report rule —
    /// when absent, so legacy trace documents still load.
    #[serde(default)]
    pub(crate) quorum: Option<QuorumConfig>,
    /// The adversarial bound `T_(f+1)(x)` the outcome was compared
    /// against when the trace captures a dominance violation.
    pub bound: Option<f64>,
    /// The outcome observed when the trace was recorded.
    pub outcome: SearchOutcome,
}

impl RunTrace {
    /// Runs a simulation and records it as a trace. `quorum` engages
    /// the claim-quorum layer; `None` is the paper's first-report rule.
    ///
    /// # Errors
    ///
    /// Propagates simulation construction failures.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        reason: impl Into<String>,
        trajectories: Vec<PiecewiseTrajectory>,
        target: Target,
        plan: &FaultPlan,
        seed: u64,
        config: SimConfig,
        bound: Option<f64>,
        quorum: Option<QuorumConfig>,
    ) -> Result<Self> {
        let kinds: Vec<FaultKind> = (0..plan.len()).map(|i| plan.kind(RobotId(i))).collect();
        let outcome =
            Simulation::new(&trajectories, target, plan, &[], seed, config, quorum)?.run();
        Ok(RunTrace {
            version: TRACE_VERSION,
            reason: reason.into(),
            trajectories,
            target: target.position(),
            plan: kinds,
            seed,
            record_trace: config.record_trace,
            stop_at_detection: config.stop_at_detection,
            quorum,
            bound,
            outcome,
        })
    }

    /// The engine configuration stored in the trace.
    #[must_use]
    pub(crate) fn config(&self) -> SimConfig {
        SimConfig { record_trace: self.record_trace, stop_at_detection: self.stop_at_detection }
    }

    /// Re-executes the recorded run from its stored inputs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for an unsupported trace version or an
    /// invalid target, and propagates fault-plan and simulation
    /// validation failures — a hand-edited trace with out-of-range
    /// parameters is rejected, never panicked on.
    pub(crate) fn replay(&self) -> Result<SearchOutcome> {
        if self.version != TRACE_VERSION {
            return Err(Error::domain(format!(
                "unsupported trace version {} (this build reads version {TRACE_VERSION})",
                self.version
            )));
        }
        let target = Target::new(self.target)?;
        let plan = FaultPlan::new(self.plan.clone())?;
        Ok(Simulation::new(
            &self.trajectories,
            target,
            &plan,
            &[],
            self.seed,
            self.config(),
            self.quorum,
        )?
        .run())
    }

    /// Replays the trace and checks that the recorded outcome is
    /// reproduced exactly (bit-for-bit detection time, visit order and
    /// event trace).
    ///
    /// # Errors
    ///
    /// Propagates `Self::replay` failures; returns [`Error::Domain`]
    /// when the replayed outcome differs from the recorded one.
    pub fn verify(&self) -> Result<()> {
        let replayed = self.replay()?;
        if replayed != self.outcome {
            return Err(Error::domain(format!(
                "trace replay diverged from the recorded outcome: recorded detection {:?}, replayed {:?}",
                self.outcome.detection, replayed.detection
            )));
        }
        Ok(())
    }

    /// Parses a trace from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] describing the parse failure.
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text).map_err(|e| Error::domain(format!("trace parse failed: {e}")))
    }

    /// Re-records this trace with a different fault plan (all other
    /// inputs unchanged).
    fn with_plan(&self, kinds: Vec<FaultKind>) -> Result<Self> {
        RunTrace::record(
            self.reason.clone(),
            self.trajectories.clone(),
            Target::new(self.target)?,
            &FaultPlan::new(kinds)?,
            self.seed,
            self.config(),
            self.bound,
            self.quorum,
        )
    }

    /// Re-records this trace with a different target position.
    fn with_target(&self, position: f64) -> Result<Self> {
        RunTrace::record(
            self.reason.clone(),
            self.trajectories.clone(),
            Target::new(position)?,
            &FaultPlan::new(self.plan.clone())?,
            self.seed,
            self.config(),
            self.bound,
            self.quorum,
        )
    }

    /// Deterministically shrinks the trace while `still_failing` keeps
    /// holding, and returns the smallest failing trace found.
    ///
    /// Two passes, each re-running the simulation for every candidate:
    ///
    /// 1. **Fault minimization** — one faulty robot at a time is made
    ///    healthy; the change is kept if the failure persists, until a
    ///    fixed point.
    /// 2. **Target minimization** — the target's excess distance beyond
    ///    the minimum 1 is halved repeatedly while the failure
    ///    persists.
    ///
    /// The original trace is returned unchanged when nothing can be
    /// removed (it is assumed to satisfy `still_failing`).
    #[must_use]
    pub fn shrunk(&self, still_failing: impl Fn(&RunTrace) -> bool) -> RunTrace {
        let mut best = self.clone();
        loop {
            let mut improved = false;
            for i in 0..best.plan.len() {
                if !best.plan[i].is_faulty() {
                    continue;
                }
                let mut kinds = best.plan.clone();
                kinds[i] = FaultKind::Reliable;
                if let Ok(candidate) = best.with_plan(kinds) {
                    if still_failing(&candidate) {
                        best = candidate;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        // Halving converges geometrically; 64 steps take the excess
        // below any representable threshold.
        for _ in 0..64 {
            let excess = best.target.abs() - 1.0;
            if excess <= 1e-12 {
                break;
            }
            let position = best.target.signum() * (1.0 + excess / 2.0);
            match best.with_target(position) {
                Ok(candidate) if still_failing(&candidate) => best = candidate,
                _ => break,
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::TrajectoryBuilder;

    fn straight(to: f64) -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap()
    }

    fn sample_trace() -> RunTrace {
        let plan = FaultPlan::new(vec![
            FaultKind::Sensor,
            FaultKind::Intermittent { miss_probability: 0.5 },
            FaultKind::Reliable,
        ])
        .unwrap();
        RunTrace::record(
            "test",
            vec![straight(9.0), straight(9.0), straight(-9.0)],
            Target::new(3.0).unwrap(),
            &plan,
            1234,
            SimConfig { record_trace: true, stop_at_detection: true },
            Some(3.0),
            None,
        )
        .unwrap()
    }

    #[test]
    fn replay_reproduces_the_recorded_outcome() {
        let trace = sample_trace();
        assert_eq!(trace.replay().unwrap(), trace.outcome);
        trace.verify().unwrap();
    }

    #[test]
    fn json_round_trip_is_bit_for_bit() {
        let trace = sample_trace();
        let json = serde_json::to_string_pretty(&trace).unwrap();
        let parsed = RunTrace::from_json(&json).unwrap();
        assert_eq!(parsed, trace);
        parsed.verify().unwrap();
        // Serializing the parsed trace reproduces the same document.
        assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), json);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut trace = sample_trace();
        trace.version = TRACE_VERSION + 1;
        assert!(trace.replay().is_err());
    }

    #[test]
    fn corrupted_plan_is_rejected_not_panicked() {
        let mut trace = sample_trace();
        trace.plan[1] = FaultKind::Intermittent { miss_probability: 7.0 };
        assert!(trace.replay().is_err());
    }

    #[test]
    fn corrupted_target_is_rejected() {
        let mut trace = sample_trace();
        trace.target = 0.25;
        assert!(trace.replay().is_err());
    }

    #[test]
    fn malformed_json_is_a_domain_error() {
        assert!(RunTrace::from_json("{ not json").is_err());
        assert!(RunTrace::from_json("{}").is_err());
    }

    #[test]
    fn shrinking_drops_irrelevant_faults_and_walks_the_target_in() {
        // Robot 0 covers the positive ray, robot 1 never goes there:
        // only robot 0's fault matters for missing a positive target.
        let plan = FaultPlan::new(vec![FaultKind::Sensor, FaultKind::Sensor]).unwrap();
        let trace = RunTrace::record(
            "undetected target",
            vec![straight(9.0), straight(-9.0)],
            Target::new(3.0).unwrap(),
            &plan,
            0,
            SimConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(trace.outcome.detection.is_none());

        let shrunk = trace.shrunk(|t| t.outcome.detection.is_none());
        let faults: Vec<bool> = shrunk.plan.iter().map(FaultKind::is_faulty).collect();
        assert_eq!(faults, vec![true, false], "robot 1's fault was irrelevant");
        assert!(shrunk.target < 1.5, "target walked toward the minimum, got {}", shrunk.target);
        assert!(shrunk.outcome.detection.is_none(), "the shrunk trace still fails");
    }

    #[test]
    fn mask_round_trip_through_plan() {
        // A trace recorded from a mask stores one Sensor kind per
        // faulty robot, and records and replays the direct outcome.
        let plan = FaultPlan::sensor_faults(2, &[0]).unwrap();
        let trajectories = vec![straight(9.0), straight(5.0)];
        let target = Target::new(2.0).unwrap();
        let config = SimConfig::default();
        let direct =
            Simulation::new(&trajectories, target, &plan, &[], 0, config, None).unwrap().run();
        let trace =
            RunTrace::record("mask", trajectories, target, &plan, 0, config, None, None).unwrap();
        assert_eq!(trace.plan, vec![FaultKind::Sensor, FaultKind::Reliable]);
        assert_eq!(trace.outcome, direct);
        assert_eq!(trace.replay().unwrap(), direct);
    }
}
