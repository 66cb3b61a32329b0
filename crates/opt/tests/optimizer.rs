//! End-to-end optimizer properties: the Theorem 1 / Theorem 2
//! bracket on Table-1 pairs, and bit-identical checkpoint resume.
//!
//! Debug-build tests run the `tiny` budget on small pairs and a
//! narrow window; the full Table-1 sweep at a real budget is the
//! `repro optimize` artifact, regenerated in release by CI.

use faultline_opt::{
    resume_state, run, run_with_checkpoint, Budget, Checkpoint, OptimizeConfig, PRESSURE_WEIGHT,
    THM1_SLACK,
};

fn tiny_config(n: usize, f: usize, seed: u64) -> OptimizeConfig {
    let mut config = OptimizeConfig::new(n, f);
    config.budget = Budget::Tiny;
    config.seed = seed;
    config.xmax = Some(8.0);
    config
}

#[test]
fn table1_pairs_stay_bracketed_between_the_theorems() {
    // Small Table-1 pairs covering all three cases: n = f + 1 (tight
    // 9 bound), f + 1 < n < 2f + 2 (the open gap), and n >= 2f + 2
    // (two-group, no alpha bound).
    for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 1), (5, 3)] {
        let report = run(&tiny_config(n, f, 7)).unwrap();
        assert!(
            report.best_found_cr <= report.thm1_cr + THM1_SLACK,
            "({n}, {f}): best {} above Thm 1 {}",
            report.best_found_cr,
            report.thm1_cr
        );
        if let Some(alpha) = report.thm2_alpha {
            assert!(
                report.best_found_cr >= alpha,
                "({n}, {f}): best {} below alpha {alpha}",
                report.best_found_cr
            );
            let cert = report.certificate.as_ref().expect("alpha implies a certificate");
            assert!(cert.lo <= alpha && alpha <= cert.hi);
        }
        assert!(report.crosscheck.is_consistent(), "({n}, {f}): rejected");
        // Improvement claims are never silent: the flag, the margin,
        // and the gap-closed guard must agree.
        assert_eq!(report.improved, !report.gap_closed && report.improvement > 1e-6, "({n}, {f})");
        // Theorem 1 is tight exactly for two-group and n = f + 1.
        assert_eq!(report.gap_closed, n >= 2 * f + 2 || n == f + 1, "({n}, {f})");
    }
}

#[test]
fn optimizer_only_improves_on_its_baseline() {
    let report = run(&tiny_config(3, 1, 11)).unwrap();
    // The search ranks by supremum + pressure tie-breaker, so the raw
    // supremum of the winner can trail the baseline by at most the
    // pressure weight.
    assert!(report.best_found_cr <= report.baseline_measured + PRESSURE_WEIGHT);
    assert!(report.improvement >= -PRESSURE_WEIGHT);
    assert!(report.best_schedule.is_some());
    assert!(report.evaluations > 0);
}

#[test]
fn checkpointed_and_plain_runs_agree() {
    let config = tiny_config(3, 2, 3);
    let dir = std::env::temp_dir().join("faultline-opt-checkpointed-run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");

    let plain = run(&config).unwrap();
    let checkpointed = run_with_checkpoint(&config, Some(&path)).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&plain).unwrap(),
        serde_json::to_string_pretty(&checkpointed).unwrap()
    );

    // The final snapshot resumes to the same report trivially (no
    // rounds left to replay).
    let mut final_state = Checkpoint::load(&path).unwrap().into_state();
    let resumed = resume_state(&mut final_state, None).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&plain).unwrap(),
        serde_json::to_string_pretty(&resumed).unwrap()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeds_change_the_search_but_not_the_bracket() {
    let a = run(&tiny_config(3, 1, 1)).unwrap();
    let b = run(&tiny_config(3, 1, 2)).unwrap();
    // Both seeds respect the bracket...
    for r in [&a, &b] {
        assert!(r.best_found_cr >= r.thm2_alpha.unwrap());
        assert!(r.best_found_cr <= r.thm1_cr + THM1_SLACK);
    }
    // ...and the same seed replays identically.
    let a2 = run(&tiny_config(3, 1, 1)).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&a2).unwrap()
    );
}
