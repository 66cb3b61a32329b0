//! End-to-end tests of the `faultline` CLI binary: every subcommand is
//! spawned as a real process and its output checked.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

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
fn design_prints_schedule_details() {
    let (ok, out, _) = run(&["design", "3", "1"]);
    assert!(ok);
    assert!(out.contains("proportional schedule"));
    assert!(out.contains("beta = 1.666667"));
    assert!(out.contains("tau_j"));
    // The full output, plan labels included, is pinned byte for byte.
    for (n, f, golden) in [
        ("3", "1", include_str!("data/design_3_1.txt")),
        ("5", "2", include_str!("data/design_5_2.txt")),
    ] {
        let (ok, out, _) = run(&["design", n, f]);
        assert!(ok);
        assert_eq!(out, golden, "design {n} {f}");
    }
}

#[test]
fn design_two_group_regime() {
    let (ok, out, _) = run(&["design", "6", "2"]);
    assert!(ok);
    assert!(out.contains("two-group"));
}

#[test]
fn simulate_with_worst_case_adversary() {
    let (ok, out, _) = run(&["simulate", "3", "1", "-4.5"]);
    assert!(ok, "{out}");
    assert!(out.contains("worst-case adversary"));
    assert!(out.contains("detected by"));
    assert!(out.contains("guarantee 5.2331"));
}

#[test]
fn simulate_with_explicit_faults() {
    let (ok, out, _) = run(&["simulate", "3", "1", "2.0", "0"]);
    assert!(ok, "{out}");
    assert!(out.contains("detected by"));
}

#[test]
fn simulate_rejects_excess_faults() {
    let (ok, _, err) = run(&["simulate", "3", "1", "2.0", "0,1"]);
    assert!(!ok);
    assert!(err.contains("exceed the tolerance"));
}

#[test]
fn bounds_reports_both_directions() {
    let (ok, out, _) = run(&["bounds", "11", "5"]);
    assert!(ok);
    assert!(out.contains("upper bound"));
    assert!(out.contains("lower bound"));
    assert!(out.contains("3.7348"), "{out}");
    assert!(out.contains("12.0000"), "expansion factor 12: {out}");
}

#[test]
fn spectrum_marks_the_design_index() {
    let (ok, out, _) = run(&["spectrum", "5", "2", "10"]);
    assert!(ok);
    assert!(out.contains("<- f+1"));
}

#[test]
fn timeline_renders() {
    let (ok, out, _) = run(&["timeline", "3", "1", "20", "-3"]);
    assert!(ok);
    assert!(out.contains("position"));
    assert!(out.lines().count() > 10);
}

#[test]
fn scenario_file_roundtrip() {
    let dir = std::env::temp_dir().join("faultline-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    std::fs::write(&path, r#"{"n": 3, "f": 1, "targets": [2.0], "faulty": [1]}"#).unwrap();
    let (ok, out, _) = run(&["scenario", path.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("\"target\": 2.0"));
    assert!(out.contains("\"detected_by\""));
}

#[test]
fn scenario_rejects_unversioned_documents_with_dropped_fields() {
    let dir = std::env::temp_dir().join("faultline-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, body) in [
        (
            "robots",
            r#"{"n": 3, "f": 1, "targets": [2.0, 4.5],
                "robots": [{"speed": 0.5}, {"speed": 0.5}, {"speed": 0.5}]}"#,
        ),
        ("geometry", r#"{"n": 3, "f": 1, "geometry": "HalfLine", "targets": [2.0, 4.5]}"#),
        ("tragets", r#"{"n": 3, "f": 1, "targets": [2.0, 4.5], "tragets": [1.0]}"#),
    ] {
        let path = dir.join(format!("unversioned_{name}.json"));
        std::fs::write(&path, body).unwrap();
        for args in [vec!["scenario"], vec!["scenario", "run"]] {
            let args: Vec<&str> = args.into_iter().chain([path.to_str().unwrap()]).collect();
            let (ok, out, err) = run(&args);
            assert!(!ok, "{args:?} accepted `{name}`: {out}");
            assert!(err.contains(&format!("\"{name}\"")), "{args:?}: {err}");
        }
    }
}

#[test]
fn scenario_rejects_bad_file() {
    let (ok, _, err) = run(&["scenario", "/nonexistent/scenario.json"]);
    assert!(!ok);
    assert!(!err.is_empty());
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage:"));
}

#[test]
fn invalid_params_fail_gracefully() {
    let (ok, _, err) = run(&["design", "2", "5"]);
    assert!(!ok);
    assert!(err.contains("n must exceed f"));
}

#[test]
fn animate_refuses_a_grid_it_cannot_hold() {
    // 1e15 snapshots: refused before anything is allocated or written.
    let path = std::env::temp_dir().join("faultline-cli-test-animate-refused.csv");
    let _ = std::fs::remove_file(&path);
    let output = Command::new(env!("CARGO_BIN_EXE_faultline"))
        .args(["animate", "3", "1", "1e-9", "1e6", path.to_str().unwrap()])
        .output()
        .expect("failed to spawn the faultline binary");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("snapshots"));
    assert!(!path.exists());
}

#[test]
fn scenario_refuses_a_cone_that_cannot_expand() {
    // At beta = 1e300 the expansion factor rounds to 1: a typed error,
    // not a search that never ends.
    let dir = std::env::temp_dir().join("faultline-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let fixed = r#""n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e300, "targets": [5.0]"#;
    let legacy = dir.join("fixed_beta_1e300.json");
    std::fs::write(&legacy, format!("{{{fixed}}}")).unwrap();
    let versioned = dir.join("fixed_beta_1e300_v1.json");
    std::fs::write(&versioned, format!(r#"{{"version": 1, {fixed}}}"#)).unwrap();
    for (command, path) in [("run", &legacy), ("run", &versioned), ("validate", &versioned)] {
        let (ok, _, err) = run(&["scenario", command, path.to_str().unwrap()]);
        assert!(!ok, "scenario {command} {path:?} accepted beta = 1e300");
        assert!(err.contains("invalid cone parameter"), "{err}");
    }
}

#[test]
fn scenario_refuses_work_no_worker_could_finish() {
    // At beta = 1e10 the cone grows one waypoint vector past any
    // memory: refused with the query service's 400 message, exit 2,
    // before the fleet is built.
    let dir = std::env::temp_dir().join("faultline-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let fixed = r#""n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e10, "targets": [5.0]"#;
    let legacy = dir.join("fixed_beta_1e10.json");
    std::fs::write(&legacy, format!("{{{fixed}}}")).unwrap();
    let versioned = dir.join("fixed_beta_1e10_v1.json");
    std::fs::write(&versioned, format!(r#"{{"version": 1, {fixed}}}"#)).unwrap();
    for args in [
        vec!["scenario", "run", legacy.to_str().unwrap()],
        vec!["scenario", legacy.to_str().unwrap()],
        vec!["scenario", "run", versioned.to_str().unwrap()],
        vec!["scenario", "validate", versioned.to_str().unwrap()],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_faultline"))
            .args(&args)
            .output()
            .expect("failed to spawn the faultline binary");
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(
                "this request needs about 8.6e11 work units, over the 7.5e8 a worker computes \
                 within the 60s request timeout"
            ),
            "{args:?}: {err}"
        );
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn compare_and_spectrum_refuse_every_window_the_service_refuses() {
    for command in ["compare", "spectrum"] {
        for xmax in ["0.5", "-1e300", "1e300", "inf", "NaN"] {
            let output = Command::new(env!("CARGO_BIN_EXE_faultline"))
                .args([command, "3", "1", xmax])
                .output()
                .expect("failed to spawn the faultline binary");
            let label = format!("{command} 3 1 {xmax}");
            assert_eq!(output.status.code(), Some(2), "{label}");
            assert!(output.stdout.is_empty(), "{label} printed to stdout");
            assert!(String::from_utf8_lossy(&output.stderr).contains("xmax"), "{label}");
        }
    }
}

#[test]
fn serve_refuses_a_memo_lattice_over_the_largest_fleet_before_binding() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_faultline"))
        .args(["serve", "--addr=127.0.0.1:0", "--memo-max-n=4097"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn the faultline binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on the server") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill the server");
            panic!("serve --memo-max-n=4097 started serving");
        }
        thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));
    let mut stderr = String::new();
    child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("read stderr");
    assert!(stderr.contains("memo_max_n must be at most 4096"), "{stderr}");
    assert!(!stderr.contains("listening"), "{stderr}");
}
