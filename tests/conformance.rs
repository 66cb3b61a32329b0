//! Integration tests of the cross-layer conformance harness: the
//! engine's determinism contract, the injected-failure pipeline
//! (caught, shrunk, replayable), and the `faultline conformance` CLI.

use std::process::Command;

use faultline_suite::conformance::{self, ConformanceConfig, Counterexample, Tier};
use faultline_suite::core::parallel::THREADS_ENV;
use faultline_suite::core::ParallelConfig;

fn smoke(cases: usize) -> ConformanceConfig {
    ConformanceConfig { cases, budget: Tier::Smoke, ..ConformanceConfig::default() }
}

#[test]
fn smoke_tier_passes_every_oracle() {
    let report = conformance::run(&smoke(24)).expect("run succeeds");
    assert!(report.passed(), "failures: {:#?}", report.failures);
    // The matrix covers all three regimes and every oracle appears.
    let oracles: std::collections::BTreeSet<&str> =
        report.rows.iter().map(|r| r.oracle.as_str()).collect();
    assert_eq!(oracles.len(), conformance::all_oracles().len());
}

#[test]
fn report_bytes_are_deterministic_across_runs_and_thread_counts() {
    let base = conformance::run(&smoke(12)).unwrap().to_json().unwrap();
    let again = conformance::run(&smoke(12)).unwrap().to_json().unwrap();
    assert_eq!(base, again, "two identical runs must serialize identically");

    let single = ConformanceConfig { parallel: ParallelConfig { threads: Some(1) }, ..smoke(12) };
    let single_bytes = conformance::run(&single).unwrap().to_json().unwrap();
    assert_eq!(base, single_bytes, "one worker thread must not change the report");

    let four = ConformanceConfig { parallel: ParallelConfig { threads: Some(4) }, ..smoke(12) };
    let four_bytes = conformance::run(&four).unwrap().to_json().unwrap();
    assert_eq!(base, four_bytes, "four worker threads must not change the report");
}

#[test]
fn injected_mismatch_is_caught_shrunk_and_replayable() {
    for oracle in conformance::all_oracles() {
        let name = oracle.name;
        let config = ConformanceConfig { seed: 5, inject: Some(name.to_owned()), ..smoke(10) };
        let report = conformance::run(&config).expect("run itself succeeds");
        assert!(!report.passed(), "the injected skew must trip {name}");
        assert!(!report.failures.is_empty(), "{name} wrote no counterexample");
        for doc in &report.failures {
            assert_eq!(doc.oracle, name);
            assert!(doc.injected, "{name}: documents must record that the skew was injected");
            if name == "thm1-closed-form-measured" {
                // Shrunk: at most one target survives minimization
                // (the oracle does not depend on targets at all).
                assert!(doc.instance.targets.len() <= 1, "targets: {:?}", doc.instance.targets);
                assert!(doc.instance.schedule.is_none(), "the schedule is irrelevant and dropped");
            }
            // Replayable: bit-for-bit, including after a JSON round trip.
            doc.replay().unwrap_or_else(|e| panic!("{name}: counterexample replays: {e}"));
            let round_trip = Counterexample::from_json(&doc.to_json().unwrap()).unwrap();
            round_trip.replay().unwrap_or_else(|e| panic!("{name}: round trip replays: {e}"));
        }
        // Only the injected oracle fails; every other oracle still passes.
        for row in &report.rows {
            if row.oracle != name {
                assert_eq!(row.fail, 0, "{} must not fail when {name} is injected", row.oracle);
            }
        }
    }
}

#[test]
#[ignore = "deep tier: fine grids over many cases; run with --ignored"]
fn deep_tier_passes_every_oracle() {
    let config = ConformanceConfig { cases: 120, budget: Tier::Deep, ..Default::default() };
    let report = conformance::run(&config).expect("run succeeds");
    assert!(report.passed(), "failures: {:#?}", report.failures);
}

fn faultline(args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_faultline"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("failed to spawn the faultline binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn cli_run_is_byte_deterministic_and_thread_invariant() {
    let args = ["conformance", "run", "--seed=1", "--cases=9", "--budget=smoke", "--json"];
    let (ok, first, err) = faultline(&args, &[]);
    assert!(ok, "stderr: {err}");
    let (ok, second, _) = faultline(&args, &[]);
    assert!(ok);
    assert_eq!(first, second, "same seed must print identical bytes");
    let (ok, pinned, _) = faultline(&args, &[(THREADS_ENV, "1")]);
    assert!(ok);
    assert_eq!(first, pinned, "{THREADS_ENV}=1 must print identical bytes");
    assert!(first.contains("\"version\""));
}

#[test]
fn cli_renders_a_matrix_and_reports_the_verdict() {
    let (ok, out, err) =
        faultline(&["conformance", "run", "--seed=3", "--cases=6", "--budget=smoke"], &[]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("oracle"), "{out}");
    assert!(out.contains("all oracles passed"), "{out}");
}

#[test]
fn cli_injection_fails_writes_documents_and_replays() {
    let dir = std::env::temp_dir().join(format!("faultline-conformance-{}", std::process::id()));
    let out_flag = format!("--out={}", dir.display());
    let (ok, _, err) = faultline(
        &[
            "conformance",
            "run",
            "--seed=1",
            "--cases=6",
            "--budget=smoke",
            "--inject=adversary-dominance",
            &out_flag,
        ],
        &[],
    );
    assert!(!ok, "an injected mismatch must exit non-zero");
    assert!(err.contains("oracle violations"), "{err}");

    let mut replayed = 0usize;
    for entry in std::fs::read_dir(&dir).expect("counterexample directory exists") {
        let path = entry.unwrap().path();
        let (ok, out, err) = faultline(&["conformance", "replay", path.to_str().unwrap()], &[]);
        assert!(ok, "replay of {} failed: {err}", path.display());
        assert!(out.contains("reproduces bit-for-bit"), "{out}");
        replayed += 1;
    }
    assert!(replayed > 0, "the run must have persisted at least one document");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    let (ok, _, err) = faultline(&["conformance"], &[]);
    assert!(!ok);
    assert!(err.contains("missing conformance subcommand"));
    let (ok, _, err) = faultline(&["conformance", "run", "--budget=warp"], &[]);
    assert!(!ok);
    assert!(err.contains("unknown budget tier"));
    let (ok, _, err) = faultline(&["conformance", "run", "--inject=no-such"], &[]);
    assert!(!ok);
    assert!(err.contains("unknown injection oracle"));
}
