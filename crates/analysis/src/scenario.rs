//! Scenarios: declarative JSON descriptions of a search experiment,
//! and the one runner that executes them.
//!
//! ```json
//! {
//!   "n": 3,
//!   "f": 1,
//!   "strategy": "paper",
//!   "targets": [2.0, -4.5, 7.25],
//!   "faulty": [0]
//! }
//! ```
//!
//! * `strategy` — any registry name (default `"paper"`),
//!   `"fixed-beta"` together with a `"beta"` field, or
//!   `"randomized-sweep"` with an optional `"seed"` field.
//! * `faulty` — explicit faulty robot indices; omit to use the
//!   worst-case adversary per target.
//! * `fault_plan` — one [`faultline_sim::FaultKind`] per robot (e.g.
//!   `["Reliable", {"Byzantine": {"lie_rate": 0.75}}]`), engaging the
//!   extended taxonomy; mutually exclusive with `faulty`.
//! * `quorum` — number of distinct claimants required to confirm a
//!   position (requires `fault_plan`); omit for the paper's
//!   first-report rule.
//! * `seed` — explicit RNG seed for `"randomized-sweep"` or for the
//!   per-visit coins of a coin-driven `fault_plan` (default 0); the
//!   same seed always reproduces the same coin flips.
//!
//! Any other key is an error. `geometry` and `robots` belong to the
//! versioned form (`"version": 1`, `faultline_scenario::ScenarioDoc`),
//! which wraps a [`Scenario`] with a geometry and per-robot physics.
//! Both forms run through [`Scenario::run_with`]: the legacy form with
//! the paper's unit fleet, the versioned form with the
//! [`RobotPhysics`] its `robots` resolve to.

use faultline_core::{json_float, Error, Geometry, Params, PiecewiseTrajectory, Plan, Result};
use faultline_sim::engine::SimConfig;
use faultline_sim::{
    worst_case_plan, FaultKind, FaultPlan, QuorumConfig, SearchOutcome, Simulation, Target,
};
use faultline_strategies::{RandomizedSweepStrategy, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::supremum::resolve_strategy;
use serde::{Deserialize, Serialize};

/// A declarative scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of robots.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
    /// Strategy name from the registry (default `"paper"`).
    #[serde(default = "default_strategy")]
    pub strategy: String,
    /// Cone parameter, only for `strategy = "fixed-beta"`.
    #[serde(default)]
    pub beta: Option<f64>,
    /// Target positions to search for (each simulated independently).
    pub targets: Vec<f64>,
    /// Explicit faulty robots; `None` = worst-case adversary.
    #[serde(default)]
    pub faulty: Option<Vec<usize>>,
    /// Explicit per-robot fault kinds from the extended taxonomy;
    /// mutually exclusive with `faulty`.
    #[serde(default)]
    pub fault_plan: Option<Vec<FaultKind>>,
    /// Claim-quorum votes (requires `fault_plan`); `None` = the
    /// paper's first-report rule.
    #[serde(default)]
    pub quorum: Option<usize>,
    /// Explicit RNG seed for `strategy = "randomized-sweep"` or for
    /// the coins of a coin-driven `fault_plan` (defaults to 0).
    #[serde(default)]
    pub seed: Option<u64>,
}

fn default_strategy() -> String {
    "paper".to_owned()
}

/// The keys of an unversioned scenario document.
const FIELDS: [&str; 9] =
    ["n", "f", "strategy", "beta", "targets", "faulty", "fault_plan", "quorum", "seed"];

/// One robot's physics in a scenario fleet. The default is the paper's
/// robot: unit speed, active from `t = 0`, its fault (if any) engaged
/// from the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobotPhysics {
    /// Maximum speed.
    pub speed: f64,
    /// Start delay: the robot waits at the origin until then.
    pub delay: f64,
    /// Time at which the robot's `fault_plan` entry switches on.
    pub fault_onset: Option<f64>,
}

impl Default for RobotPhysics {
    fn default() -> Self {
        RobotPhysics { speed: 1.0, delay: 0.0, fault_onset: None }
    }
}

/// The result of one scenario target.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The target searched for.
    pub target: f64,
    /// Detection time, `None` if undetected within the horizon.
    pub detection_time: Option<f64>,
    /// Achieved ratio (infinite if undetected).
    pub ratio: f64,
    /// Index of the detecting robot.
    pub detected_by: Option<usize>,
    /// Distinct robots that visited the target up to detection.
    pub(crate) distinct_visitors: usize,
    /// The position confirmed by the claim quorum, when one was
    /// configured and reached. Absent for legacy first-report runs.
    pub(crate) confirmed_position: Option<f64>,
    /// Number of false (Byzantine) claims asserted during the run.
    /// Zero — and absent from the JSON — outside Byzantine regimes.
    pub(crate) false_claims: usize,
}

// Manual serde impls: `ratio` is infinite for undetected targets; a
// derived impl would serialize that as JSON `null`, making honest
// "undetected" results indistinguishable from missing data after a
// round-trip. Non-finite ratios use the `faultline_core::json_float`
// string sentinels instead.
impl Serialize for ScenarioResult {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        let mut fields = vec![
            ("target".to_owned(), json_float::encode_f64(self.target)),
            (
                "detection_time".to_owned(),
                serde::to_value(&self.detection_time).map_err(S::Error::custom)?,
            ),
            ("ratio".to_owned(), json_float::encode_f64(self.ratio)),
            (
                "detected_by".to_owned(),
                serde::to_value(&self.detected_by).map_err(S::Error::custom)?,
            ),
            ("distinct_visitors".to_owned(), serde::Value::UInt(self.distinct_visitors as u64)),
        ];
        // Quorum fields appear only when a quorum run produced them,
        // keeping pre-quorum documents byte-identical.
        if let Some(confirmed) = self.confirmed_position {
            fields.push(("confirmed_position".to_owned(), json_float::encode_f64(confirmed)));
        }
        if self.false_claims > 0 {
            fields.push(("false_claims".to_owned(), serde::Value::UInt(self.false_claims as u64)));
        }
        serializer.serialize_value(serde::Value::Object(fields))
    }
}

impl<'de> Deserialize<'de> for ScenarioResult {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut fields = json_float::object_fields(deserializer.take_value()?, "ScenarioResult")
            .map_err(D::Error::custom)?;
        let mut take = |name: &str| {
            json_float::take_field(&mut fields, name, "ScenarioResult").map_err(D::Error::custom)
        };
        let target_raw = take("target")?;
        let detection_time =
            serde::from_value(take("detection_time")?).map_err(D::Error::custom)?;
        let ratio_raw = take("ratio")?;
        let detected_by = serde::from_value(take("detected_by")?).map_err(D::Error::custom)?;
        let distinct_visitors =
            serde::from_value(take("distinct_visitors")?).map_err(D::Error::custom)?;
        // Optional quorum fields: absent in pre-quorum documents.
        let confirmed_position =
            match fields.iter().position(|(key, _)| key == "confirmed_position") {
                Some(i) => {
                    let value = fields.remove(i).1;
                    Some(
                        json_float::decode_f64(&value, "confirmed_position")
                            .map_err(D::Error::custom)?,
                    )
                }
                None => None,
            };
        let false_claims = match fields.iter().position(|(key, _)| key == "false_claims") {
            Some(i) => serde::from_value(fields.remove(i).1).map_err(D::Error::custom)?,
            None => 0,
        };
        Ok(ScenarioResult {
            target: json_float::decode_f64(&target_raw, "target").map_err(D::Error::custom)?,
            detection_time,
            ratio: json_float::decode_f64(&ratio_raw, "ratio").map_err(D::Error::custom)?,
            detected_by,
            distinct_visitors,
            confirmed_position,
            false_claims,
        })
    }
}

impl ScenarioResult {
    /// The result of one target's simulated search.
    #[must_use]
    pub fn from_outcome(target: f64, outcome: &SearchOutcome) -> Self {
        ScenarioResult {
            target,
            detection_time: outcome.detection.as_ref().map(|d| d.time),
            ratio: outcome.ratio(),
            detected_by: outcome.detection.as_ref().map(|d| d.robot.0),
            distinct_visitors: outcome.distinct_visitors(),
            confirmed_position: outcome.confirmed_position,
            false_claims: outcome.claims.iter().filter(|c| !c.truthful).count(),
        }
    }
}

impl Scenario {
    /// Parses and validates a scenario from JSON.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_value`], plus malformed JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        let value = serde_json::from_str(json)
            .map_err(|e| Error::domain(format!("malformed scenario: {e}")))?;
        Self::from_value(value)
    }

    /// Builds and validates a scenario from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for an unknown key (naming it, and
    /// asking for `"version": 1` when it is `geometry` or `robots`), a
    /// mistyped or missing field, and every error of
    /// [`Scenario::validate`].
    pub fn from_value(value: serde::Value) -> Result<Self> {
        if let serde::Value::Object(fields) = &value {
            if let Some((key, _)) = fields.iter().find(|(key, _)| !FIELDS.contains(&key.as_str())) {
                return Err(Error::domain(match key.as_str() {
                    "geometry" | "robots" => format!(
                        "malformed scenario: \"{key}\" is only read from versioned documents; \
                         add \"version\": 1"
                    ),
                    _ => {
                        format!("malformed scenario: unknown field \"{key}\" in scenario document")
                    }
                }));
            }
        }
        let scenario: Scenario = serde::from_value(value)
            .map_err(|e| Error::domain(format!("malformed scenario: {e}")))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Validates the scenario's cross-field constraints, for targets
    /// on the full line.
    ///
    /// # Errors
    ///
    /// As [`Scenario::validate_in`].
    pub fn validate(&self) -> Result<()> {
        self.validate_in(Geometry::Line, false)
    }

    /// Validates the fields both scenario forms share: targets must
    /// lie in `geometry`'s adversary window, and a seed needs something
    /// that flips coins (a randomized sweep, a coin-driven fault plan,
    /// or a robot with a seeded start delay, as `seeded_activation`
    /// says).
    ///
    /// # Errors
    ///
    /// Reports invalid `(n, f)`, a fleet over [`Params::MAX_ROBOTS`],
    /// an empty or out-of-window target list, every strategy
    /// [`resolve_strategy`] refuses (an unknown name, a missing or extra
    /// `beta`, a `beta` whose cone cannot expand), a meaningless seed,
    /// or an inconsistent or over-budget fault set or quorum.
    pub fn validate_in(&self, geometry: Geometry, seeded_activation: bool) -> Result<()> {
        Params::fleet(self.n, self.f)?;
        if self.targets.is_empty() {
            return Err(Error::domain("scenario needs at least one target"));
        }
        for &x in &self.targets {
            if !x.is_finite() {
                return Err(Error::domain(format!("target {x} is not finite")));
            }
            if !geometry.admits_target(x) {
                return Err(Error::domain(format!(
                    "target {x} lies outside the {geometry} adversary window"
                )));
            }
        }
        // The randomized sweep is drawn from the seed, outside the
        // registry; every other name resolves as a supremum query's.
        if self.strategy != "randomized-sweep" {
            resolve_strategy(&self.strategy, self.beta)?;
        } else if self.beta.is_some() {
            return Err(Error::domain("\"beta\" is only meaningful with strategy \"fixed-beta\""));
        }
        let coin_driven_plan = self.fault_plan.as_ref().is_some_and(|kinds| {
            kinds.iter().any(|k| {
                matches!(
                    k,
                    FaultKind::Intermittent { .. }
                        | FaultKind::Byzantine { .. }
                        | FaultKind::PFaulty { .. }
                )
            })
        });
        if self.seed.is_some()
            && self.strategy != "randomized-sweep"
            && !coin_driven_plan
            && !seeded_activation
        {
            return Err(Error::domain(
                "\"seed\" is only meaningful with strategy \"randomized-sweep\", a \
                 coin-driven \"fault_plan\" or a \"Seeded\" activation",
            ));
        }
        if let Some(faulty) = &self.faulty {
            if self.fault_plan.is_some() {
                return Err(Error::domain("\"faulty\" and \"fault_plan\" are mutually exclusive"));
            }
            if faulty.len() > self.f {
                return Err(Error::invalid_params(
                    self.n,
                    self.f,
                    format!("{} explicit faults exceed the budget f = {}", faulty.len(), self.f),
                ));
            }
            FaultPlan::sensor_faults(self.n, faulty)?;
        }
        if let Some(kinds) = &self.fault_plan {
            if kinds.len() != self.n {
                return Err(Error::invalid_params(
                    self.n,
                    self.f,
                    format!(
                        "fault plan covers {} robots but the fleet has {}",
                        kinds.len(),
                        self.n
                    ),
                ));
            }
            FaultPlan::new(kinds.clone())?.check_budget(self.f)?;
        }
        if let Some(votes) = self.quorum {
            if self.fault_plan.is_none() {
                return Err(Error::domain("\"quorum\" requires an explicit \"fault_plan\""));
            }
            QuorumConfig::new(votes)?;
            if votes > self.n {
                return Err(Error::domain(format!(
                    "quorum of {votes} votes exceeds the fleet size n = {}",
                    self.n
                )));
            }
        }
        Ok(())
    }

    /// Generates the trajectory plans and a sufficient horizon for
    /// targets up to `xmax`. Deterministic strategies come from the
    /// registry; `"randomized-sweep"` draws its coins from the
    /// scenario's explicit seed (default 0).
    fn plans_and_horizon(&self, params: Params, xmax: f64) -> Result<(Vec<Plan>, f64)> {
        let reach = xmax * 1.01 + 1.0;
        if self.strategy == "randomized-sweep" {
            let sweep = RandomizedSweepStrategy::kao_optimal();
            let mut rng = StdRng::seed_from_u64(self.seed.unwrap_or(0));
            let plans = sweep.sample_plans(params, &mut rng)?;
            let horizon = sweep.horizon_hint(params, reach);
            return Ok((plans, horizon));
        }
        let strategy: Box<dyn Strategy> = resolve_strategy(&self.strategy, self.beta)?;
        let plans = strategy.plans(params)?;
        let horizon = strategy.horizon_hint(params, reach);
        Ok((plans, horizon))
    }

    /// The scenario's fleet in wall clock, with robot `i` moving under
    /// `physics[i]` (the paper's unit robot past the end of the slice,
    /// so `&[]` is the paper's fleet). Each plan is materialized to the
    /// plan horizon stretched by the robot's speed, then retimed by its
    /// speed and start delay. Returns the trajectories and the
    /// wall-clock horizon: the plan horizon plus the largest delay.
    ///
    /// Slow robots cover less ground within that horizon; a target
    /// only they could confirm goes undetected, and the result says so.
    ///
    /// # Errors
    ///
    /// Propagates strategy and trajectory failures.
    pub fn fleet(&self, physics: &[RobotPhysics]) -> Result<(Vec<PiecewiseTrajectory>, f64)> {
        let params = Params::fleet(self.n, self.f)?;
        let xmax = self.targets.iter().map(|x| x.abs()).fold(1.0f64, f64::max);
        let (plans, plan_horizon) = self.plans_and_horizon(params, xmax)?;
        let horizon = plan_horizon + physics.iter().fold(0.0f64, |a, p| a.max(p.delay));
        let trajectories = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let robot = physics.get(i).copied().unwrap_or_default();
                // A speed-s robot consumes plan time s times faster
                // than the wall clock, so its plan must extend that
                // much further to fill the shared horizon.
                plan.materialize(horizon * robot.speed)?.retimed(robot.speed, robot.delay)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok((trajectories, horizon))
    }

    /// Validates and runs the scenario on the paper's unit fleet: every
    /// target is searched independently, with the explicit fault set
    /// or plan, or the worst-case adversary.
    ///
    /// # Errors
    ///
    /// Propagates validation, strategy, plan and simulation failures.
    pub fn run(&self) -> Result<Vec<ScenarioResult>> {
        self.validate()?;
        self.run_with(&[])
    }

    /// Runs the scenario on the fleet of [`Scenario::fleet`] for
    /// `physics`, without validating it first: the scenario runner
    /// behind both scenario forms. Each target is an independent
    /// simulation, with fault onsets when any robot sets one, run in
    /// order on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates strategy, plan and simulation failures.
    pub fn run_with(&self, physics: &[RobotPhysics]) -> Result<Vec<ScenarioResult>> {
        let (trajectories, _) = self.fleet(physics)?;
        let onsets: Vec<Option<f64>> = if physics.iter().any(|p| p.fault_onset.is_some()) {
            physics.iter().map(|p| p.fault_onset).collect()
        } else {
            Vec::new()
        };
        let seed = self.seed.unwrap_or(0);
        let quorum = self.quorum.map(QuorumConfig::new).transpose()?;
        // An explicit plan holds for every target; the worst-case
        // adversary's depends on the target.
        let explicit = match (&self.fault_plan, &self.faulty) {
            (Some(kinds), _) => Some(FaultPlan::new(kinds.clone())?),
            (None, Some(faulty)) => Some(FaultPlan::sensor_faults(self.n, faulty)?),
            (None, None) => None,
        };
        // Scenarios carry a handful of targets, and simulating one costs
        // less than spawning a thread for it.
        let run = |&x: &f64| -> Result<ScenarioResult> {
            let target = Target::new(x)?;
            let worst;
            let plan = match &explicit {
                Some(plan) => plan,
                None => {
                    worst = worst_case_plan(&trajectories, target, self.f)?;
                    &worst
                }
            };
            let sim = Simulation::new(
                &trajectories,
                target,
                plan,
                &onsets,
                seed,
                SimConfig::default(),
                quorum,
            )?;
            Ok(ScenarioResult::from_outcome(x, &sim.run()))
        };
        self.targets.iter().map(run).collect()
    }
}

/// Serializes results back to pretty JSON (for piping to other tools).
///
/// # Errors
///
/// Returns [`Error::Domain`] on serialization failure (cannot happen
/// for well-formed results).
pub fn results_to_json(results: &[ScenarioResult]) -> Result<String> {
    serde_json::to_string_pretty(results)
        .map_err(|e| Error::domain(format!("serialization failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASIC: &str = r#"{
        "n": 3, "f": 1,
        "targets": [2.0, -4.5]
    }"#;

    #[test]
    fn parses_with_defaults() {
        let s = Scenario::from_json(BASIC).unwrap();
        assert_eq!(s.strategy, "paper");
        assert_eq!(s.faulty, None);
        assert_eq!(s.targets.len(), 2);
    }

    #[test]
    fn rejects_malformed_and_invalid() {
        assert!(Scenario::from_json("{").is_err());
        assert!(Scenario::from_json(r#"{"n": 1, "f": 3, "targets": [2.0]}"#).is_err());
        assert!(Scenario::from_json(r#"{"n": 3, "f": 1, "targets": []}"#).is_err());
        assert!(Scenario::from_json(r#"{"n": 3, "f": 1, "strategy": "nope", "targets": [2.0]}"#)
            .is_err());
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "targets": [2.0]}"#
        )
        .is_err());
        assert!(Scenario::from_json(r#"{"n": 3, "f": 1, "beta": 2.0, "targets": [2.0]}"#).is_err());
        assert!(
            Scenario::from_json(r#"{"n": 3, "f": 1, "targets": [2.0], "faulty": [0, 1]}"#).is_err()
        );
        // Targets are checked up front, not at simulation time.
        assert!(Scenario::from_json(r#"{"n": 3, "f": 1, "targets": [0.5]}"#).is_err());
        // Every key outside the legacy form is named; `geometry` and
        // `robots` also ask for the versioned form that reads them.
        for (field, version) in [
            (r#""geometry": "HalfLine""#, true),
            (r#""robots": [{"speed": 0.5}, {}, {}]"#, true),
            (r#""tragets": [4.0]"#, false),
        ] {
            let err =
                Scenario::from_json(&format!(r#"{{"n": 3, "f": 1, "targets": [2.0], {field}}}"#))
                    .unwrap_err()
                    .to_string();
            let name = field.split('"').nth(1).unwrap();
            assert!(err.contains(&format!("\"{name}\"")), "got: {err}");
            assert_eq!(err.contains("\"version\": 1"), version, "got: {err}");
        }
    }

    #[test]
    fn runs_with_worst_case_adversary() {
        let s = Scenario::from_json(BASIC).unwrap();
        let results = s.run().unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.detection_time.is_some(), "target {}", r.target);
            assert!(r.ratio <= 5.2331 + 1e-6);
            assert_eq!(r.distinct_visitors, 2, "f + 1 visits under the adversary");
        }
    }

    #[test]
    fn runs_with_explicit_faults() {
        let s =
            Scenario::from_json(r#"{"n": 3, "f": 1, "targets": [2.0], "faulty": [0]}"#).unwrap();
        let results = s.run().unwrap();
        assert!(results[0].detection_time.is_some());
        assert_ne!(results[0].detected_by, Some(0), "robot 0 is faulty");
    }

    #[test]
    fn seed_requires_randomized_sweep() {
        assert!(
            Scenario::from_json(r#"{"n": 3, "f": 1, "targets": [2.0], "seed": 7}"#).is_err(),
            "a seed on a deterministic strategy must be rejected"
        );
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "strategy": "randomized-sweep", "beta": 2.0, "targets": [2.0]}"#
        )
        .is_err());
    }

    #[test]
    fn randomized_sweep_is_seed_reproducible() {
        let doc = |seed: u64| {
            format!(
                r#"{{"n": 2, "f": 1, "strategy": "randomized-sweep",
                     "targets": [2.0, -3.5], "seed": {seed}}}"#
            )
        };
        let s = Scenario::from_json(&doc(11)).unwrap();
        let a = s.run().unwrap();
        let b = s.run().unwrap();
        assert_eq!(a, b, "same seed must reproduce bit-for-bit");
        // Different seeds draw different phases; detection times for at
        // least one target should differ (overwhelmingly likely for
        // continuous phases, and pinned here for these specific seeds).
        let c = Scenario::from_json(&doc(12)).unwrap().run().unwrap();
        assert_ne!(a, c, "seeds 11 and 12 draw different coin flips");
    }

    #[test]
    fn fixed_beta_scenario() {
        let s = Scenario::from_json(
            r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "beta": 2.5, "targets": [3.0]}"#,
        )
        .unwrap();
        let results = s.run().unwrap();
        assert!(results[0].ratio.is_finite());
    }

    #[test]
    fn incomplete_strategy_reports_honestly() {
        let s = Scenario::from_json(
            r#"{"n": 3, "f": 1, "strategy": "pessimal-split", "targets": [-5.0]}"#,
        )
        .unwrap();
        let results = s.run().unwrap();
        assert!(results[0].ratio.is_infinite());
        assert_eq!(results[0].detection_time, None);
    }

    #[test]
    fn byzantine_fault_plan_with_quorum_confirms_the_target() {
        // n = 5, f = 2, two liars, f + 1 = 3 quorum: the canonical
        // n >= 2f + 1 Byzantine regime.
        let s = Scenario::from_json(
            r#"{"n": 5, "f": 2, "targets": [2.0, -4.5],
                "fault_plan": ["Reliable", "Reliable", "Reliable",
                               {"Byzantine": {"lie_rate": 0.75}},
                               {"Byzantine": {"lie_rate": 0.75}}],
                "quorum": 3, "seed": 9}"#,
        )
        .unwrap();
        let results = s.run().unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.detection_time.is_some(), "honest majority confirms target {}", r.target);
            assert!(r.ratio.is_finite());
        }
        // Deterministic in the seed.
        assert_eq!(s.run().unwrap(), results);
    }

    #[test]
    fn pfaulty_fault_plan_runs_seeded() {
        let s = Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [3.0],
                "fault_plan": [{"PFaulty": {"detect_probability": 0.5}},
                               "Reliable", "Reliable"],
                "seed": 4}"#,
        )
        .unwrap();
        let results = s.run().unwrap();
        assert!(results[0].detection_time.is_some());
        assert_eq!(s.run().unwrap(), results);
    }

    #[test]
    fn fault_plan_validation_rejects_malformed_documents() {
        // Wrong plan length.
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0], "fault_plan": ["Reliable"]}"#
        )
        .is_err());
        // Out-of-range parameter: a typed error, not a panic.
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0],
                "fault_plan": [{"Byzantine": {"lie_rate": 7.0}}, "Reliable", "Reliable"]}"#
        )
        .is_err());
        // Over budget: two faults with f = 1.
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0],
                "fault_plan": ["Sensor", "Sensor", "Reliable"]}"#
        )
        .is_err());
        // fault_plan and faulty are mutually exclusive.
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0], "faulty": [0],
                "fault_plan": ["Sensor", "Reliable", "Reliable"]}"#
        )
        .is_err());
        // Quorum without a fault plan, zero votes, or more votes than
        // robots.
        assert!(Scenario::from_json(r#"{"n": 3, "f": 1, "targets": [2.0], "quorum": 2}"#).is_err());
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0],
                "fault_plan": ["Sensor", "Reliable", "Reliable"], "quorum": 0}"#
        )
        .is_err());
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0],
                "fault_plan": ["Sensor", "Reliable", "Reliable"], "quorum": 4}"#
        )
        .is_err());
        // A seed still needs something that flips coins.
        assert!(Scenario::from_json(
            r#"{"n": 3, "f": 1, "targets": [2.0],
                "fault_plan": ["Sensor", "Reliable", "Reliable"], "seed": 7}"#
        )
        .is_err());
    }

    #[test]
    fn results_serialize() {
        let s = Scenario::from_json(BASIC).unwrap();
        let json = results_to_json(&s.run().unwrap()).unwrap();
        assert!(json.contains("\"target\": 2.0"));
        let back: Vec<ScenarioResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn infinite_ratio_roundtrips_losslessly() {
        // An undetected target yields an infinite ratio; the JSON
        // encoding must preserve it instead of collapsing to `null`.
        let s = Scenario::from_json(
            r#"{"n": 3, "f": 1, "strategy": "pessimal-split", "targets": [-5.0]}"#,
        )
        .unwrap();
        let results = s.run().unwrap();
        assert!(results[0].ratio.is_infinite());
        let json = results_to_json(&results).unwrap();
        assert!(json.contains("\"inf\""), "expected the sentinel in: {json}");
        let back: Vec<ScenarioResult> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, results);
    }
}
