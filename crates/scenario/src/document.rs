//! Scenario documents: the versioned form's structure, serde and
//! validation, and [`Document`], which decides what kind of document a
//! JSON body is.
//!
//! A v1 document generalizes the legacy [`faultline_analysis::Scenario`]
//! form with an explicit `version` field, a `geometry` selector and an
//! optional per-robot `robots` array:
//!
//! ```json
//! {
//!   "version": 1,
//!   "n": 3, "f": 1,
//!   "geometry": "HalfLine",
//!   "targets": [2.0, 4.5],
//!   "robots": [
//!     {"speed": 2.0},
//!     {"speed": 1.0, "activation": {"DelayedStart": 0.5}},
//!     {"speed": 1.0, "activation": {"Seeded": {"max_delay": 2.0}}}
//!   ],
//!   "seed": 7
//! }
//! ```
//!
//! Every `f64` round-trips bit-exactly through the
//! [`faultline_core::json_float`] sentinels, unknown fields are
//! rejected (a typo never silently becomes a default), and parsing
//! never panics: malformed documents surface as
//! [`faultline_core::Error::Domain`].

use faultline_analysis::{Scenario, ScenarioResult};
use faultline_core::{json_float, Error, Geometry, Result};
use faultline_sim::{FaultKind, RunTrace};
use serde::{Deserialize, Serialize};

/// The document version this build reads and writes.
pub const SCENARIO_VERSION: u32 = 1;

/// Upper bound on robot speeds: generous, but keeps `speed * horizon`
/// well inside the finite range so compiled visit schedules stay exact.
pub const MAX_SPEED: f64 = 1e6;

/// Upper bound on activation delays: keeps `delay + t / speed` far
/// from the regime where adding the delay absorbs sub-ulp waypoint
/// gaps and retimed trajectories degenerate.
pub const MAX_DELAY: f64 = 1e6;

/// How a robot comes online.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Activation {
    /// Active from `t = 0` (the paper's model, and the default).
    #[default]
    Immediate,
    /// Parked at the origin until the given start time, then follows
    /// its plan with every waypoint shifted by that delay.
    DelayedStart(f64),
    /// Start delay drawn uniformly from `[0, max_delay)` by a
    /// deterministic per-`(seed, robot)` coin on its own stream, so
    /// runs replay bit-for-bit from the scenario `seed`.
    Seeded {
        /// Exclusive upper bound on the drawn delay; `>= 0`, finite.
        max_delay: f64,
    },
}

impl Serialize for Activation {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let value = match self {
            Activation::Immediate => serde::Value::String("Immediate".to_owned()),
            Activation::DelayedStart(t) => {
                serde::Value::Object(vec![("DelayedStart".to_owned(), json_float::encode_f64(*t))])
            }
            Activation::Seeded { max_delay } => serde::Value::Object(vec![(
                "Seeded".to_owned(),
                serde::Value::Object(vec![(
                    "max_delay".to_owned(),
                    json_float::encode_f64(*max_delay),
                )]),
            )]),
        };
        serializer.serialize_value(value)
    }
}

impl<'de> Deserialize<'de> for Activation {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        match deserializer.take_value()? {
            serde::Value::String(s) if s == "Immediate" => Ok(Activation::Immediate),
            serde::Value::String(s) => Err(D::Error::custom(format!("unknown activation \"{s}\""))),
            value @ serde::Value::Object(_) => {
                let mut fields =
                    json_float::object_fields(value, "Activation").map_err(D::Error::custom)?;
                if fields.len() != 1 {
                    return Err(D::Error::custom(
                        "activation objects carry exactly one variant key",
                    ));
                }
                let (key, value) = fields.remove(0);
                match key.as_str() {
                    "DelayedStart" => Ok(Activation::DelayedStart(
                        json_float::decode_f64(&value, "DelayedStart").map_err(D::Error::custom)?,
                    )),
                    "Seeded" => {
                        let mut inner =
                            json_float::object_fields(value, "Seeded").map_err(D::Error::custom)?;
                        let max_delay = json_float::take_field(&mut inner, "max_delay", "Seeded")
                            .map_err(D::Error::custom)?;
                        if let Some((stray, _)) = inner.first() {
                            return Err(D::Error::custom(format!(
                                "unknown field \"{stray}\" in Seeded activation"
                            )));
                        }
                        Ok(Activation::Seeded {
                            max_delay: json_float::decode_f64(&max_delay, "max_delay")
                                .map_err(D::Error::custom)?,
                        })
                    }
                    other => Err(D::Error::custom(format!("unknown activation \"{other}\""))),
                }
            }
            _ => Err(D::Error::custom(
                "activation must be \"Immediate\", {\"DelayedStart\": t} or \
                 {\"Seeded\": {\"max_delay\": d}}",
            )),
        }
    }
}

/// Per-robot overrides; an omitted `robots` array means every robot is
/// the paper's unit-speed, immediately-active, always-faulty-or-honest
/// searcher.
#[derive(Debug, Clone, PartialEq)]
pub struct RobotSpec {
    /// Maximum speed, `> 0`, finite, `<= MAX_SPEED` (default `1.0`).
    pub speed: f64,
    /// Activation schedule (default [`Activation::Immediate`]).
    pub activation: Activation,
    /// Time at which this robot's `fault_plan` entry switches on; the
    /// sensor is healthy before it. Requires a non-`Reliable` entry in
    /// `fault_plan`, and is incompatible with `SpeedDegraded` (a
    /// motion fault cannot switch on mid-run).
    pub fault_onset: Option<f64>,
}

impl Default for RobotSpec {
    fn default() -> Self {
        RobotSpec { speed: 1.0, activation: Activation::Immediate, fault_onset: None }
    }
}

impl Serialize for RobotSpec {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        let mut fields = vec![
            ("speed".to_owned(), json_float::encode_f64(self.speed)),
            ("activation".to_owned(), serde::to_value(&self.activation).map_err(S::Error::custom)?),
        ];
        if let Some(onset) = self.fault_onset {
            fields.push(("fault_onset".to_owned(), json_float::encode_f64(onset)));
        }
        serializer.serialize_value(serde::Value::Object(fields))
    }
}

impl<'de> Deserialize<'de> for RobotSpec {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut fields = json_float::object_fields(deserializer.take_value()?, "RobotSpec")
            .map_err(D::Error::custom)?;
        let mut optional =
            |name: &str| fields.iter().position(|(key, _)| key == name).map(|i| fields.remove(i).1);
        let speed = match optional("speed") {
            Some(v) => json_float::decode_f64(&v, "speed").map_err(D::Error::custom)?,
            None => 1.0,
        };
        let activation = match optional("activation") {
            Some(v) => serde::from_value(v).map_err(D::Error::custom)?,
            None => Activation::Immediate,
        };
        let fault_onset = match optional("fault_onset") {
            Some(v) => Some(json_float::decode_f64(&v, "fault_onset").map_err(D::Error::custom)?),
            None => None,
        };
        if let Some((stray, _)) = fields.first() {
            return Err(D::Error::custom(format!("unknown field \"{stray}\" in robot spec")));
        }
        Ok(RobotSpec { speed, activation, fault_onset })
    }
}

/// A versioned, validated scenario document: a legacy [`Scenario`]
/// plus a version, a geometry and per-robot overrides.
///
/// Construct with [`ScenarioDoc::from_json`] (which validates) or
/// field-by-field followed by [`ScenarioDoc::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    /// Document version; this build reads [`SCENARIO_VERSION`].
    pub version: u32,
    /// Search-domain geometry (default [`Geometry::Line`]); on the
    /// half-line every target must lie in `[1, ∞)`.
    pub geometry: Geometry,
    /// Per-robot overrides; `None` = the paper's fleet.
    pub robots: Option<Vec<RobotSpec>>,
    /// The fields both forms share: `(n, f)`, strategy, targets, faults
    /// and seed. A seed is also meaningful with a `Seeded` activation.
    pub scenario: Scenario,
}

impl Serialize for ScenarioDoc {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        // Resolved defaults (`strategy`, `geometry`) are always
        // emitted so the serialized form is canonical: two documents
        // meaning the same run serialize to the same bytes.
        let s = &self.scenario;
        let mut fields = vec![
            ("version".to_owned(), serde::Value::UInt(u64::from(self.version))),
            ("n".to_owned(), serde::Value::UInt(s.n as u64)),
            ("f".to_owned(), serde::Value::UInt(s.f as u64)),
            ("strategy".to_owned(), serde::Value::String(s.strategy.clone())),
            ("geometry".to_owned(), serde::to_value(&self.geometry).map_err(S::Error::custom)?),
            (
                "targets".to_owned(),
                serde::Value::Array(s.targets.iter().map(|&x| json_float::encode_f64(x)).collect()),
            ),
        ];
        if let Some(beta) = s.beta {
            fields.push(("beta".to_owned(), json_float::encode_f64(beta)));
        }
        if let Some(faulty) = &s.faulty {
            fields.push(("faulty".to_owned(), serde::to_value(faulty).map_err(S::Error::custom)?));
        }
        if let Some(plan) = &s.fault_plan {
            fields
                .push(("fault_plan".to_owned(), serde::to_value(plan).map_err(S::Error::custom)?));
        }
        if let Some(quorum) = s.quorum {
            fields.push(("quorum".to_owned(), serde::Value::UInt(quorum as u64)));
        }
        if let Some(seed) = s.seed {
            fields.push(("seed".to_owned(), serde::Value::UInt(seed)));
        }
        if let Some(robots) = &self.robots {
            fields.push(("robots".to_owned(), serde::to_value(robots).map_err(S::Error::custom)?));
        }
        serializer.serialize_value(serde::Value::Object(fields))
    }
}

impl<'de> Deserialize<'de> for ScenarioDoc {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut fields = json_float::object_fields(deserializer.take_value()?, "ScenarioDoc")
            .map_err(D::Error::custom)?;
        let mut optional =
            |name: &str| fields.iter().position(|(key, _)| key == name).map(|i| fields.remove(i).1);
        // Version gate first: a future-versioned document must fail
        // with a diagnostic naming the supported version, not with a
        // confusing field error from a shape this build never knew.
        let version: u32 = match optional("version") {
            Some(v) => serde::from_value(v).map_err(D::Error::custom)?,
            None => {
                return Err(D::Error::custom(
                    "scenario document needs an explicit \"version\" field \
                     (this build reads version 1)",
                ))
            }
        };
        if version != SCENARIO_VERSION {
            return Err(D::Error::custom(format!(
                "unsupported scenario version {version} (this build reads \
                 version {SCENARIO_VERSION})"
            )));
        }
        let n_raw = optional("n");
        let f_raw = optional("f");
        let targets_raw = optional("targets");
        let strategy = match optional("strategy") {
            Some(v) => serde::from_value(v).map_err(D::Error::custom)?,
            None => "paper".to_owned(),
        };
        let beta = match optional("beta") {
            Some(v) => Some(json_float::decode_f64(&v, "beta").map_err(D::Error::custom)?),
            None => None,
        };
        let geometry = match optional("geometry") {
            Some(v) => serde::from_value(v).map_err(D::Error::custom)?,
            None => Geometry::Line,
        };
        let faulty = match optional("faulty") {
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
            None => None,
        };
        let fault_plan = match optional("fault_plan") {
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
            None => None,
        };
        let quorum = match optional("quorum") {
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
            None => None,
        };
        let seed = match optional("seed") {
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
            None => None,
        };
        let robots = match optional("robots") {
            Some(v) => Some(serde::from_value(v).map_err(D::Error::custom)?),
            None => None,
        };
        // Stray fields are diagnosed before missing required ones: a
        // typo'd "tragets" should name the typo, not the absence.
        if let Some((stray, _)) = fields.first() {
            return Err(D::Error::custom(format!(
                "unknown field \"{stray}\" in scenario document"
            )));
        }
        let n: usize = match n_raw {
            Some(v) => serde::from_value(v).map_err(D::Error::custom)?,
            None => return Err(D::Error::custom("scenario document needs an \"n\" field")),
        };
        let f: usize = match f_raw {
            Some(v) => serde::from_value(v).map_err(D::Error::custom)?,
            None => return Err(D::Error::custom("scenario document needs an \"f\" field")),
        };
        let targets = match targets_raw {
            Some(serde::Value::Array(items)) => items
                .iter()
                .map(|v| json_float::decode_f64(v, "targets"))
                .collect::<std::result::Result<Vec<_>, _>>()
                .map_err(D::Error::custom)?,
            Some(_) => return Err(D::Error::custom("\"targets\" must be an array of numbers")),
            None => return Err(D::Error::custom("scenario document needs a \"targets\" field")),
        };
        Ok(ScenarioDoc {
            version,
            geometry,
            robots,
            scenario: Scenario { n, f, strategy, beta, targets, faulty, fault_plan, quorum, seed },
        })
    }
}

impl ScenarioDoc {
    /// Parses and validates a scenario document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for malformed or wrong-version JSON
    /// and [`Error::InvalidParameters`] for invalid `(n, f)`; never
    /// panics.
    pub fn from_json(json: &str) -> Result<Self> {
        let value = serde_json::from_str(json)
            .map_err(|e| Error::domain(format!("malformed scenario document: {e}")))?;
        Self::from_value(value)
    }

    /// Builds and validates a scenario document from a parsed JSON
    /// value.
    fn from_value(value: serde::Value) -> Result<Self> {
        let doc: ScenarioDoc = serde::from_value(value)
            .map_err(|e| Error::domain(format!("malformed scenario document: {e}")))?;
        doc.validate()?;
        Ok(doc)
    }

    /// Serializes the resolved document to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] on serialization failure (cannot
    /// happen for well-formed documents).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| Error::domain(format!("serialization failed: {e}")))
    }

    /// Whether any robot draws a seeded activation delay.
    #[must_use]
    pub fn has_seeded_activation(&self) -> bool {
        self.robots.as_ref().is_some_and(|specs| {
            specs.iter().any(|s| matches!(s.activation, Activation::Seeded { .. }))
        })
    }

    /// Validates every cross-field constraint of the document.
    ///
    /// # Errors
    ///
    /// Reports invalid `(n, f)`, unknown strategies, missing/extra
    /// `beta`, empty or out-of-domain targets, over-budget fault sets,
    /// malformed robot specs, and onsets without a matching fault.
    pub fn validate(&self) -> Result<()> {
        if self.version != SCENARIO_VERSION {
            return Err(Error::domain(format!(
                "unsupported scenario version {} (this build reads version {SCENARIO_VERSION})",
                self.version
            )));
        }
        self.scenario.validate_in(self.geometry, self.has_seeded_activation())?;
        if let Some(specs) = &self.robots {
            let (n, f) = (self.scenario.n, self.scenario.f);
            if specs.len() != n {
                return Err(Error::invalid_params(
                    n,
                    f,
                    format!("robots array covers {} robots but n = {n}", specs.len()),
                ));
            }
            for (i, spec) in specs.iter().enumerate() {
                if !spec.speed.is_finite() || spec.speed <= 0.0 || spec.speed > MAX_SPEED {
                    return Err(Error::domain(format!(
                        "robot {i} speed {} must be finite, positive and <= {MAX_SPEED}",
                        spec.speed
                    )));
                }
                match spec.activation {
                    Activation::Immediate => {}
                    Activation::DelayedStart(t) => {
                        if !t.is_finite() || !(0.0..=MAX_DELAY).contains(&t) {
                            return Err(Error::domain(format!(
                                "robot {i} start delay {t} must be finite, >= 0 and <= {MAX_DELAY}"
                            )));
                        }
                    }
                    Activation::Seeded { max_delay } => {
                        if !max_delay.is_finite() || !(0.0..=MAX_DELAY).contains(&max_delay) {
                            return Err(Error::domain(format!(
                                "robot {i} max_delay {max_delay} must be finite, >= 0 and <= \
                                 {MAX_DELAY}"
                            )));
                        }
                    }
                }
                if let Some(onset) = spec.fault_onset {
                    if !onset.is_finite() || onset < 0.0 {
                        return Err(Error::domain(format!(
                            "robot {i} fault onset {onset} must be finite and >= 0"
                        )));
                    }
                    match self.scenario.fault_plan.as_ref().map(|kinds| &kinds[i]) {
                        None | Some(FaultKind::Reliable) => {
                            return Err(Error::domain(format!(
                                "robot {i} has a fault onset but no fault to switch on \
                                 (needs a non-Reliable \"fault_plan\" entry)"
                            )));
                        }
                        Some(FaultKind::SpeedDegraded { .. }) => {
                            return Err(Error::domain(format!(
                                "robot {i}: a SpeedDegraded motion fault cannot switch on \
                                 mid-run; model it with \"speed\" instead"
                            )));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(())
    }
}

/// A JSON body `faultline` runs, by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Document {
    /// A versioned scenario document: `version` and `n` present.
    Versioned(ScenarioDoc),
    /// An unversioned (legacy) scenario: no `version` key.
    Legacy(Scenario),
    /// A recorded [`RunTrace`]: `version` without `n`.
    Trace(RunTrace),
}

impl Document {
    /// Parses a JSON body once and decides its kind, as
    /// [`Document::from_value`].
    ///
    /// # Errors
    ///
    /// As [`Document::from_value`], plus malformed JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        let value = serde_json::from_str(json)
            .map_err(|e| Error::domain(format!("malformed scenario: {e}")))?;
        Self::from_value(value)
    }

    /// Decides a parsed body's kind by its keys and builds it: a body
    /// without `version` is a legacy scenario, one with `version` and
    /// `n` a versioned document, and one with `version` alone a
    /// recorded trace. Scenarios of either form are validated.
    ///
    /// # Errors
    ///
    /// Returns the parse or validation error of the kind decided,
    /// never a panic.
    pub fn from_value(value: serde::Value) -> Result<Self> {
        let has = |key: &str| match &value {
            serde::Value::Object(fields) => fields.iter().any(|(k, _)| k == key),
            _ => false,
        };
        match (has("version"), has("n")) {
            (false, _) => Scenario::from_value(value).map(Document::Legacy),
            (true, true) => ScenarioDoc::from_value(value).map(Document::Versioned),
            (true, false) => serde::from_value(value)
                .map(Document::Trace)
                .map_err(|e| Error::domain(format!("trace parse failed: {e}"))),
        }
    }

    /// Runs the document. Scenarios of both forms go through
    /// [`Scenario::run_with`]; a trace is re-executed, checked bit for
    /// bit against its recorded outcome, and reported as one result.
    ///
    /// # Errors
    ///
    /// Propagates validation, strategy, plan and simulation failures,
    /// and rejects a trace whose replay diverges from its record.
    pub fn run(&self) -> Result<Vec<ScenarioResult>> {
        match self {
            Document::Versioned(doc) => doc.run(),
            Document::Legacy(scenario) => scenario.run(),
            Document::Trace(trace) => {
                trace.verify()?;
                Ok(vec![ScenarioResult::from_outcome(trace.target, &trace.outcome)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0, -4.5]}"#;

    #[test]
    fn parses_with_defaults() {
        let doc = ScenarioDoc::from_json(MINIMAL).unwrap();
        assert_eq!(doc.version, 1);
        assert_eq!(doc.scenario.strategy, "paper");
        assert_eq!(doc.geometry, Geometry::Line);
        assert_eq!(doc.robots, None);
        assert!(doc.physics().is_empty(), "no robots array: the paper's fleet");
    }

    #[test]
    fn version_gate_rejects_missing_and_future_versions() {
        let err = ScenarioDoc::from_json(r#"{"n": 3, "f": 1, "targets": [2.0]}"#).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
        let err = ScenarioDoc::from_json(r#"{"version": 2, "n": 3, "f": 1, "targets": [2.0]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("unsupported scenario version 2"), "got: {err}");
        assert!(err.to_string().contains("version 1"), "diagnostic names the supported version");
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        let err = ScenarioDoc::from_json(
            r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0], "tragets": []}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("tragets"), "got: {err}");
        let err = ScenarioDoc::from_json(
            r#"{"version": 1, "n": 1, "f": 0, "targets": [2.0], "robots": [{"sped": 2.0}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("sped"), "got: {err}");
    }

    #[test]
    fn half_line_rejects_negative_and_sub_unit_targets() {
        let doc = |targets: &str| {
            ScenarioDoc::from_json(&format!(
                r#"{{"version": 1, "n": 3, "f": 1, "geometry": "HalfLine", "targets": {targets}}}"#
            ))
        };
        assert!(doc("[2.0, 4.5]").is_ok());
        assert!(doc("[-2.0]").is_err());
        assert!(doc("[0.5]").is_err());
        // The full line admits both signs but still needs |x| >= 1.
        assert!(
            ScenarioDoc::from_json(r#"{"version": 1, "n": 3, "f": 1, "targets": [0.25]}"#).is_err()
        );
    }

    #[test]
    fn robot_spec_validation() {
        let doc = |robots: &str| {
            ScenarioDoc::from_json(&format!(
                r#"{{"version": 1, "n": 2, "f": 1, "targets": [2.0], "robots": {robots}}}"#
            ))
        };
        // Wrong arity.
        assert!(doc(r#"[{"speed": 1.0}]"#).is_err());
        // Bad speeds.
        assert!(doc(r#"[{"speed": 0.0}, {}]"#).is_err());
        assert!(doc(r#"[{"speed": -2.0}, {}]"#).is_err());
        assert!(doc(r#"[{"speed": "inf"}, {}]"#).is_err());
        assert!(doc(r#"[{"speed": 1e7}, {}]"#).is_err());
        // Bad delays.
        assert!(doc(r#"[{"activation": {"DelayedStart": -1.0}}, {}]"#).is_err());
        assert!(doc(r#"[{"activation": {"Seeded": {"max_delay": "nan"}}}, {}]"#).is_err());
        // Onset without a fault to switch on.
        assert!(doc(r#"[{"fault_onset": 3.0}, {}]"#).is_err());
        // Valid heterogeneous fleet (seed justified by Seeded activation).
        let ok = ScenarioDoc::from_json(
            r#"{"version": 1, "n": 2, "f": 1, "targets": [2.0], "seed": 5,
                "robots": [{"speed": 2.0}, {"activation": {"Seeded": {"max_delay": 1.5}}}]}"#,
        )
        .unwrap();
        assert!(ok.has_seeded_activation());
    }

    #[test]
    fn onset_requires_switchable_fault_kind() {
        let with_plan = |plan: &str| {
            ScenarioDoc::from_json(&format!(
                r#"{{"version": 1, "n": 2, "f": 1, "targets": [2.0], "fault_plan": {plan},
                    "robots": [{{"fault_onset": 3.0}}, {{}}]}}"#
            ))
        };
        assert!(with_plan(r#"["Sensor", "Reliable"]"#).is_ok());
        assert!(with_plan(r#"["Reliable", "Sensor"]"#).is_err(), "onset on a Reliable robot");
        assert!(
            with_plan(r#"[{"SpeedDegraded": {"factor": 0.5}}, "Reliable"]"#).is_err(),
            "motion faults cannot switch on"
        );
    }

    #[test]
    fn seed_meaningfulness_extends_to_seeded_activation() {
        // Legacy rule still applies...
        assert!(ScenarioDoc::from_json(
            r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0], "seed": 7}"#
        )
        .is_err());
        // ...but a Seeded activation legitimizes the seed.
        assert!(ScenarioDoc::from_json(
            r#"{"version": 1, "n": 1, "f": 0, "targets": [2.0], "seed": 7,
                "robots": [{"activation": {"Seeded": {"max_delay": 2.0}}}]}"#
        )
        .is_ok());
    }

    #[test]
    fn resolved_serialization_is_canonical() {
        // Two spellings of the same scenario (defaults omitted vs
        // explicit) serialize to identical bytes.
        let implicit = ScenarioDoc::from_json(MINIMAL).unwrap();
        let explicit = ScenarioDoc::from_json(
            r#"{"version": 1, "n": 3, "f": 1, "strategy": "paper", "geometry": "Line",
                "targets": [2.0, -4.5]}"#,
        )
        .unwrap();
        assert_eq!(implicit.to_json().unwrap(), explicit.to_json().unwrap());
    }

    #[test]
    fn round_trips_bit_exact_floats() {
        let doc = ScenarioDoc::from_json(
            r#"{"version": 1, "n": 2, "f": 1,
                "targets": [1.0000000000000002, -7.1],
                "robots": [{"speed": 0.30000000000000004,
                            "activation": {"DelayedStart": 2.220446049250313e-16}},
                           {"activation": {"Seeded": {"max_delay": 0.1}}}],
                "seed": 3}"#,
        )
        .unwrap();
        let back = ScenarioDoc::from_json(&doc.to_json().unwrap()).unwrap();
        assert_eq!(doc, back);
        let specs = back.robots.as_ref().unwrap();
        assert_eq!(specs[0].speed.to_bits(), 0.30000000000000004f64.to_bits());
        match specs[0].activation {
            Activation::DelayedStart(t) => {
                assert_eq!(t.to_bits(), 2.220446049250313e-16f64.to_bits());
            }
            _ => panic!("wrong activation"),
        }
    }

    #[test]
    fn scenario_value_discrimination() {
        let kind = |json: &str| match Document::from_json(json) {
            Ok(Document::Versioned(_)) => "versioned",
            Ok(Document::Legacy(_)) => "legacy",
            Ok(Document::Trace(_)) => "trace",
            Err(e) => {
                let e = e.to_string();
                if e.contains("trace parse failed") {
                    "bad trace"
                } else if e.contains("malformed scenario document") {
                    "bad versioned"
                } else {
                    "bad legacy"
                }
            }
        };
        assert_eq!(kind(MINIMAL), "versioned");
        // Legacy scenario: n without version.
        assert_eq!(kind(r#"{"n": 3, "f": 1, "targets": [2.0]}"#), "legacy");
        // Trace-shaped: version without n.
        assert_eq!(kind(r#"{"version": 1, "target": 2.0}"#), "bad trace");
        // A typo'd v1 document fails with the strict versioned parser.
        assert_eq!(kind(r#"{"version": 1, "n": 3, "f": 1, "tragets": [2.0]}"#), "bad versioned");
        assert_eq!(kind("null"), "bad legacy");
        assert_eq!(kind("{ not json"), "bad legacy");
    }

    #[test]
    fn documents_run_by_kind() {
        use faultline_analysis::scenario::results_to_json;
        use faultline_core::TrajectoryBuilder;
        use faultline_sim::engine::SimConfig;
        use faultline_sim::{FaultPlan, Target};

        // Both scenario spellings run through the one runner.
        let legacy = r#"{"n": 3, "f": 1, "targets": [2.0, -4.5]}"#;
        let run = |json: &str| results_to_json(&Document::from_json(json).unwrap().run().unwrap());
        assert_eq!(run(MINIMAL).unwrap(), run(legacy).unwrap());

        // A recorded trace replays bit-for-bit and reports one result.
        let straight = |to: f64| TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap();
        let trace = RunTrace::record(
            "suite replay test",
            vec![straight(9.0), straight(9.0)],
            Target::new(2.0).unwrap(),
            &FaultPlan::sensor_faults(2, &[0]).unwrap(),
            0,
            SimConfig::default(),
            None,
            None,
        )
        .unwrap();
        assert!(trace.outcome.detected(), "robot 1 reaches and reports the target");
        let results = Document::from_json(&trace.to_json().unwrap()).unwrap().run().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].target, 2.0);
        assert_eq!(results[0].detection_time, trace.outcome.detection.as_ref().map(|d| d.time));

        // A diverging trace (tampered outcome) is rejected, not panicked.
        let mut tampered = trace.clone();
        tampered.outcome.detection = None;
        assert!(Document::Trace(tampered).run().is_err());
    }
}
