//! End-to-end replay tests: the checked-in golden trace must
//! re-execute bit-for-bit through the library, the `faultline replay`
//! subcommand, and the scenario runner's trace-document support.

use std::path::PathBuf;
use std::process::Command;

use faultline_suite::sim::RunTrace;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden_trace.json")
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_faultline"))
        .args(args)
        .output()
        .expect("failed to spawn the faultline binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn golden_trace_replays_bit_for_bit() {
    let json = std::fs::read_to_string(golden_path()).unwrap();
    let trace = RunTrace::from_json(&json).unwrap();
    trace.verify().expect("the golden trace must replay exactly");

    // The recorded run: target 3.0, robot 0's sensor fails, robot 1
    // reports on arrival at t = 3.
    let detection = trace.outcome.detection.as_ref().expect("recorded as detected");
    assert_eq!(detection.time, 3.0);
    assert_eq!(detection.robot.0, 1);

    // Re-serializing reproduces the checked-in document byte for byte,
    // so the golden file cannot drift silently.
    assert_eq!(serde_json::to_string_pretty(&trace).unwrap(), json.trim_end());
}

#[test]
fn cli_replay_reproduces_the_golden_trace() {
    let path = golden_path();
    let (ok, out, err) = run(&["replay", path.to_str().unwrap()]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(err.contains("bit-for-bit"), "stderr: {err}");
    assert!(out.contains("\"target\": 3.0"), "stdout: {out}");
    assert!(out.contains("\"detection_time\": 3.0"), "stdout: {out}");
}

#[test]
fn cli_scenario_accepts_trace_documents() {
    let path = golden_path();
    let (ok, out, err) = run(&["scenario", path.to_str().unwrap()]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("\"detected_by\": 1"), "stdout: {out}");
}

#[test]
fn cli_replay_rejects_a_tampered_trace() {
    let json = std::fs::read_to_string(golden_path()).unwrap();
    let mut trace = RunTrace::from_json(&json).unwrap();
    let detection = trace.outcome.detection.as_mut().unwrap();
    detection.time += 0.5;

    let dir = std::env::temp_dir().join("faultline-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tampered_trace.json");
    std::fs::write(&path, serde_json::to_string_pretty(&trace).unwrap()).unwrap();

    let (ok, _, err) = run(&["replay", path.to_str().unwrap()]);
    assert!(!ok, "a diverging trace must fail the replay");
    assert!(err.contains("diverged"), "stderr: {err}");
}

#[test]
fn cli_replay_rejects_garbage_gracefully() {
    let dir = std::env::temp_dir().join("faultline-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not_a_trace.json");
    std::fs::write(&path, "{ \"definitely\": \"not a trace\" }").unwrap();

    let (ok, _, err) = run(&["replay", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("trace parse failed"), "stderr: {err}");
}
