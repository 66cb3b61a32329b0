//! Serde round-trip tests for the serializable data types (C-SERDE):
//! results and schedules survive JSON export/import bit-for-bit.

use faultline_core::lower_bound::{AdversaryOutcome, TrajectoryClass};
use faultline_core::turn_cost::DetectionCost;
use faultline_core::{
    Cone, Params, PiecewiseTrajectory, ProportionalSchedule, Regime, SpaceTime, TrajectoryBuilder,
};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn params_roundtrip() {
    let p = Params::new(11, 5).unwrap();
    assert_eq!(roundtrip(&p), p);
    assert_eq!(roundtrip(&p.regime()), Regime::Proportional);
}

#[test]
fn spacetime_roundtrip() {
    let p = SpaceTime::new(-3.25, 7.5);
    assert_eq!(roundtrip(&p), p);
}

#[test]
fn trajectory_roundtrip_preserves_queries() {
    let t = TrajectoryBuilder::from_origin()
        .sweep_to(1.0)
        .sweep_to(-2.0)
        .sweep_to(4.0)
        .finish()
        .unwrap();
    let back: PiecewiseTrajectory = roundtrip(&t);
    assert_eq!(back, t);
    assert_eq!(back.first_visit(-1.5), t.first_visit(-1.5));
    assert_eq!(back.horizon(), t.horizon());
}

#[test]
fn cone_and_schedule_roundtrip() {
    let cone = Cone::new(2.5).unwrap();
    assert_eq!(roundtrip(&cone), cone);

    let schedule = ProportionalSchedule::with_base(5, 1.4, 2.0).unwrap();
    let back: ProportionalSchedule = roundtrip(&schedule);
    assert_eq!(back, schedule);
    assert_eq!(back.ratio(), schedule.ratio());
    assert_eq!(back.turning_position(3), schedule.turning_position(3));
}

#[test]
fn result_records_roundtrip() {
    let adv = AdversaryOutcome { placement: -2.63, ratio: 5.05, visit_time: Some(13.3) };
    assert_eq!(roundtrip(&adv), adv);

    let cost = DetectionCost { robot: 2, time: 4.25, turns: 3, cost: 7.25 };
    assert_eq!(roundtrip(&cost), cost);

    assert_eq!(roundtrip(&TrajectoryClass::Positive), TrajectoryClass::Positive);
    assert_eq!(roundtrip(&TrajectoryClass::Negative), TrajectoryClass::Negative);
}

#[test]
fn control_characters_are_escaped_and_round_trip() {
    let text = "tab\t, bell\u{7}, unit separator\u{1f}".to_owned();
    let json = serde_json::to_string(&text).expect("serialize");
    assert_eq!(json, "\"tab\\t, bell\\u0007, unit separator\\u001f\"");
    assert_eq!(roundtrip(&text), text);
}

#[test]
fn invalid_json_is_rejected() {
    assert!(serde_json::from_str::<SpaceTime>("{\"x\": 1.0}").is_err());
    assert!(serde_json::from_str::<Params>("{\"n\": 3}").is_err());
}

#[test]
fn deserialization_revalidates_invariants() {
    // n <= f: invalid parameters must not sneak in through JSON.
    assert!(serde_json::from_str::<Params>("{\"n\": 2, \"f\": 5}").is_err());
    // beta <= 1: degenerate cone.
    assert!(serde_json::from_str::<Cone>("{\"beta\": 0.5}").is_err());
    // Superluminal trajectory: speed 5 over one time unit.
    let json = "{\"waypoints\": [{\"x\": 0.0, \"t\": 0.0}, {\"x\": 5.0, \"t\": 1.0}]}";
    assert!(serde_json::from_str::<PiecewiseTrajectory>(json).is_err());
    // Non-monotone time.
    let json = "{\"waypoints\": [{\"x\": 0.0, \"t\": 1.0}, {\"x\": 0.5, \"t\": 0.5}]}";
    assert!(serde_json::from_str::<PiecewiseTrajectory>(json).is_err());
    // Schedule with zero robots or non-positive base.
    let json = "{\"n\": 0, \"cone\": {\"beta\": 2.0}, \"base\": 1.0}";
    assert!(serde_json::from_str::<ProportionalSchedule>(json).is_err());
    let json = "{\"n\": 3, \"cone\": {\"beta\": 2.0}, \"base\": -1.0}";
    assert!(serde_json::from_str::<ProportionalSchedule>(json).is_err());
}
