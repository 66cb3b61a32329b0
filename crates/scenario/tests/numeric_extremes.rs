//! Numeric extremes of the scenario runner: documents at the edges
//! that validation admits (targets out to 1e300, speeds from 1e-300 to
//! `MAX_SPEED`, the longest start delay, huge report latencies and
//! onsets, near-zero speed factors, the largest fleet) each return
//! results or a typed error, never panic, and print the same bytes on
//! a second run. A cone whose expansion factor rounds to 1 is refused
//! before it runs.

use faultline_analysis::scenario::results_to_json;
use faultline_core::{Error, Result};
use faultline_scenario::Document;

/// The document's output, or its error, as one string.
fn output(json: &str) -> Result<String> {
    Document::from_json(json).and_then(|document| document.run()).and_then(|r| results_to_json(&r))
}

/// One case per row: a versioned document, and whether validation
/// admits it. Every admitted case must run to results.
const CASES: &[(&str, &str, bool)] = &[
    ("unit targets", r#""n": 3, "f": 1, "targets": [1.0, -1.0]"#, true),
    ("targets at 1e15", r#""n": 3, "f": 1, "targets": [1e15, -1e15]"#, true),
    ("a target at 1e300", r#""n": 3, "f": 1, "targets": [1e300]"#, true),
    (
        "a robot at MAX_SPEED",
        r#""n": 3, "f": 1, "targets": [2.0, -4.5], "robots": [{"speed": 1e6}, {}, {}]"#,
        true,
    ),
    (
        "a robot at speed 1e-300",
        r#""n": 3, "f": 1, "targets": [2.0, -4.5], "robots": [{"speed": 1e-300}, {}, {}]"#,
        true,
    ),
    (
        "a start delay of MAX_DELAY",
        r#""n": 3, "f": 1, "targets": [2.0, -4.5],
           "robots": [{"activation": {"DelayedStart": 1e6}}, {}, {}]"#,
        true,
    ),
    (
        "a report latency of 1e300",
        r#""n": 3, "f": 1, "targets": [2.0, -4.5],
           "fault_plan": [{"Delayed": {"latency": 1e300}}, "Reliable", "Reliable"]"#,
        true,
    ),
    (
        "a certain miss switched on at 1e300",
        r#""n": 3, "f": 1, "targets": [2.0, -4.5],
           "fault_plan": [{"Intermittent": {"miss_probability": 1.0}}, "Reliable", "Reliable"],
           "robots": [{"fault_onset": 1e300}, {}, {}]"#,
        true,
    ),
    (
        "a speed factor of 1e-300",
        r#""n": 3, "f": 1, "targets": [2.0, -4.5],
           "fault_plan": [{"SpeedDegraded": {"factor": 1e-300}}, "Reliable", "Reliable"]"#,
        true,
    ),
    ("the largest fleet", r#""n": 4096, "f": 2047, "targets": [2.0]"#, true),
    (
        "a cone that cannot expand",
        r#""n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e300, "targets": [5.0]"#,
        false,
    ),
];

#[test]
fn documents_at_the_edges_run_or_fail_typed_and_repeat_byte_for_byte() {
    for &(what, fields, admitted) in CASES {
        let json = format!(r#"{{"version": 1, {fields}}}"#);
        let first = output(&json);
        let second = output(&json);
        match (&first, &second) {
            (Ok(a), Ok(b)) => assert!(a == b, "{what}: two runs printed different bytes"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
            _ => panic!("{what}: one run failed and the other did not"),
        }
        match first {
            Ok(results) => {
                assert!(admitted, "{what}: ran, expected a refusal");
                assert!(!results.contains("NaN"), "{what}: NaN in {results}");
            }
            Err(e) => {
                assert!(!admitted, "{what}: {e}");
                assert!(matches!(e, Error::InvalidBeta { .. }), "{what}: {e:?}");
            }
        }
    }
}
