//! Running versioned documents. Each `robots` entry resolves to a
//! [`RobotPhysics`] (speed, start delay, fault onset), and the one
//! scenario runner, [`faultline_analysis::Scenario::run_with`],
//! materializes and retimes each robot's plan under it
//! (`t ↦ delay + t / speed`). Seeded start delays are drawn here, from
//! the scenario seed on their own coin stream.

use faultline_analysis::{RobotPhysics, ScenarioResult};
use faultline_core::{PiecewiseTrajectory, Result};

use crate::document::{Activation, ScenarioDoc};

/// Seed salt separating activation-delay coins from the simulator's
/// sensor-miss and Byzantine-lie streams: reusing a seed across the
/// three must never correlate their draws.
const ACTIVATION_STREAM: u64 = 0x6A09_E667_F3BC_C909;

/// Deterministic coin in `[0, 1)` for seeded activation delays, keyed
/// by `(seed, robot)` (splitmix64 finalizer over the xor-combined key,
/// the same construction as the simulator's fault coins but on its own
/// stream).
fn activation_coin(seed: u64, robot: usize) -> f64 {
    let mut z = seed ^ ACTIVATION_STREAM ^ (robot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

impl ScenarioDoc {
    /// Each robot's physics, empty (the paper's fleet) when `robots`
    /// is omitted. Seeded delays draw from the scenario seed (default
    /// 0) on the activation coin stream, so the same document always
    /// resolves to the same fleet.
    #[must_use]
    pub(crate) fn physics(&self) -> Vec<RobotPhysics> {
        let seed = self.scenario.seed.unwrap_or(0);
        let specs = self.robots.as_deref().unwrap_or_default();
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| RobotPhysics {
                speed: spec.speed,
                delay: match spec.activation {
                    Activation::Immediate => 0.0,
                    Activation::DelayedStart(t) => t,
                    Activation::Seeded { max_delay } => activation_coin(seed, i) * max_delay,
                },
                fault_onset: spec.fault_onset,
            })
            .collect()
    }

    /// Validates the document and materializes its fleet in wall
    /// clock, as [`faultline_analysis::Scenario::fleet`].
    ///
    /// # Errors
    ///
    /// Propagates validation, strategy and trajectory failures.
    pub fn materialize_fleet(&self) -> Result<(Vec<PiecewiseTrajectory>, f64)> {
        self.validate()?;
        self.scenario.fleet(&self.physics())
    }

    /// Validates and runs the document on its fleet.
    ///
    /// # Errors
    ///
    /// Propagates validation, strategy, plan and simulation failures.
    pub fn run(&self) -> Result<Vec<ScenarioResult>> {
        self.validate()?;
        self.scenario.run_with(&self.physics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_analysis::scenario::results_to_json;
    use faultline_analysis::Scenario;

    fn doc(json: &str) -> ScenarioDoc {
        ScenarioDoc::from_json(json).unwrap()
    }

    #[test]
    fn unit_speed_document_reproduces_legacy_bytes() {
        // The canonical Byzantine quorum regime, spelled as a v1
        // document and as the legacy form; outputs must be identical
        // bytes, not merely approximately equal.
        let v1 = doc(r#"{"version": 1, "n": 5, "f": 2, "targets": [2.0, -4.5],
            "fault_plan": ["Reliable", "Reliable", "Reliable",
                           {"Byzantine": {"lie_rate": 0.75}},
                           {"Byzantine": {"lie_rate": 0.75}}],
            "quorum": 3, "seed": 9}"#);
        let legacy = Scenario::from_json(
            r#"{"n": 5, "f": 2, "targets": [2.0, -4.5],
                "fault_plan": ["Reliable", "Reliable", "Reliable",
                               {"Byzantine": {"lie_rate": 0.75}},
                               {"Byzantine": {"lie_rate": 0.75}}],
                "quorum": 3, "seed": 9}"#,
        )
        .unwrap();
        assert_eq!(v1.scenario, legacy);
        let via_doc = results_to_json(&v1.run().unwrap()).unwrap();
        let via_legacy = results_to_json(&legacy.run().unwrap()).unwrap();
        assert_eq!(via_doc, via_legacy);
    }

    #[test]
    fn explicit_default_robots_still_delegate() {
        // Spelled-out default robots are the paper's fleet: the same
        // bytes as the document without a robots array.
        let explicit = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0],
            "robots": [{"speed": 1.0}, {}, {"activation": "Immediate"}]}"#);
        assert!(explicit.physics().iter().all(|p| *p == RobotPhysics::default()));
        let implicit = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0]}"#);
        assert_eq!(
            results_to_json(&explicit.run().unwrap()).unwrap(),
            results_to_json(&implicit.run().unwrap()).unwrap()
        );
    }

    #[test]
    fn half_line_document_runs_one_sided() {
        let v1 =
            doc(r#"{"version": 1, "n": 3, "f": 1, "geometry": "HalfLine", "targets": [2.0, 4.5]}"#);
        let results = v1.run().unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.detection_time.is_some(), "target {}", r.target);
            assert!(r.ratio.is_finite());
        }
    }

    #[test]
    fn fast_robots_detect_no_later() {
        let base = r#"{"version": 1, "n": 3, "f": 1, "targets": [6.0]}"#;
        let slowdoc = doc(base);
        let fastdoc = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [6.0],
                "robots": [{"speed": 2.0}, {"speed": 2.0}, {"speed": 2.0}]}"#);
        let slow = slowdoc.run().unwrap();
        let fast = fastdoc.run().unwrap();
        let (ts, tf) = (slow[0].detection_time.unwrap(), fast[0].detection_time.unwrap());
        assert!(
            tf <= ts / 2.0 + 1e-9,
            "doubling every speed halves the detection time: {tf} vs {ts}"
        );
    }

    #[test]
    fn uniform_delay_shifts_detection_by_exactly_that_delay() {
        let base = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [4.0]}"#);
        let delayed = doc(r#"{"version": 1, "n": 3, "f": 1, "targets": [4.0],
                "robots": [{"activation": {"DelayedStart": 2.5}},
                           {"activation": {"DelayedStart": 2.5}},
                           {"activation": {"DelayedStart": 2.5}}]}"#);
        let t0 = base.run().unwrap()[0].detection_time.unwrap();
        let t1 = delayed.run().unwrap()[0].detection_time.unwrap();
        assert!((t1 - (t0 + 2.5)).abs() <= 1e-9, "{t1} vs {t0} + 2.5");
    }

    #[test]
    fn seeded_activation_replays_and_varies_with_seed() {
        let with_seed = |seed: u64| {
            doc(&format!(
                r#"{{"version": 1, "n": 3, "f": 1, "targets": [4.0], "seed": {seed},
                    "robots": [{{"activation": {{"Seeded": {{"max_delay": 3.0}}}}}},
                               {{"activation": {{"Seeded": {{"max_delay": 3.0}}}}}},
                               {{"activation": {{"Seeded": {{"max_delay": 3.0}}}}}}]}}"#
            ))
        };
        let a = with_seed(1).run().unwrap();
        assert_eq!(with_seed(1).run().unwrap(), a, "same seed replays bit-for-bit");
        let delays = |seed| with_seed(seed).physics().iter().map(|p| p.delay).collect::<Vec<_>>();
        let (delays_1, delays_2) = (delays(1), delays(2));
        assert_ne!(delays_1, delays_2, "different seeds draw different delays");
        assert!(delays_1.iter().all(|&d| (0.0..3.0).contains(&d)));
        // Distinct robots draw distinct coins under one seed.
        assert_ne!(delays_1[0], delays_1[1]);
    }

    #[test]
    fn onset_documents_route_through_with_onsets() {
        // Onset 0 means faulty from the first instant: identical to
        // the always-on plan. An onset past the horizon means the
        // fault never engages: identical to an all-Reliable plan.
        // Both equalities are plan-geometry independent.
        let onset = |t: f64| {
            doc(&format!(
                r#"{{"version": 1, "n": 2, "f": 1, "targets": [2.0, -4.5],
                    "fault_plan": ["Sensor", "Reliable"],
                    "robots": [{{"fault_onset": {t:?}}}, {{}}]}}"#
            ))
        };
        let always = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [2.0, -4.5],
                "fault_plan": ["Sensor", "Reliable"]}"#);
        let healthy = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [2.0, -4.5],
                "fault_plan": ["Reliable", "Reliable"]}"#);
        assert_eq!(onset(0.0).run().unwrap(), always.run().unwrap(), "onset 0 = always faulty");
        assert_eq!(
            onset(1.0e5).run().unwrap(),
            healthy.run().unwrap(),
            "onset past the horizon = never faulty"
        );
        // And switching the fault on mid-run changes *something*
        // relative to at least one of the extremes.
        let mid = onset(3.0).run().unwrap();
        assert!(
            mid != always.run().unwrap() || mid != healthy.run().unwrap(),
            "a mid-run onset is one of the two regimes per target"
        );
    }

    #[test]
    fn speed_changes_the_competitive_picture_end_to_end() {
        // One fast, one slow robot on the half-line with an explicit
        // fault: results stay deterministic and meaningful.
        let v1 = doc(r#"{"version": 1, "n": 2, "f": 1, "geometry": "HalfLine",
                "targets": [3.0], "faulty": [1],
                "robots": [{"speed": 2.0}, {"speed": 0.5}]}"#);
        let results = v1.run().unwrap();
        assert_eq!(v1.run().unwrap(), results, "deterministic");
        assert!(results[0].detection_time.is_some());
        assert_ne!(results[0].detected_by, Some(1), "robot 1 is faulty");
    }

    #[test]
    fn materialize_fleet_exposes_the_wall_clock_fleet() {
        let v1 = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [4.0],
                "robots": [{"speed": 2.0}, {"activation": {"DelayedStart": 1.5}}]}"#);
        let (fleet, horizon) = v1.materialize_fleet().unwrap();
        assert_eq!(fleet.len(), 2);
        assert!(horizon > 1.5);
        // The delayed robot is parked at the origin until its start.
        assert_eq!(fleet[1].position_at(1.0), Some(0.0));
        // The fast robot runs the same plan at twice the clock rate:
        // its position at t is the unit fleet's position at 2t.
        let base = doc(r#"{"version": 1, "n": 2, "f": 1, "targets": [4.0]}"#);
        let (unit_fleet, _) = base.materialize_fleet().unwrap();
        for t in [0.5, 1.0, 2.0, 3.5] {
            let fast = fleet[0].position_at(t).unwrap();
            let unit = unit_fleet[0].position_at(2.0 * t).unwrap();
            assert!((fast - unit).abs() <= 1e-9, "t = {t}: {fast} vs {unit}");
        }
    }
}
