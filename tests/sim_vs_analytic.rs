//! Integration test: the discrete-event simulator and the analytic
//! coverage evaluation are two fully independent implementations of the
//! same semantics; they must agree everywhere.
//!
//! The original ad-hoc assertions are now thin wrappers around the
//! named oracles in `faultline-conformance` (`sim-analytic-detection`
//! and `sim-analytic-supremum`), so the randomized conformance sweep
//! and this deterministic grid enforce the exact same relations.

use faultline_suite::conformance::oracles::oracle_by_name;
use faultline_suite::conformance::{Instance, Oracle, Verdict};
use faultline_suite::core::numeric::logspace;
use faultline_suite::core::Params;
use faultline_suite::sim::engine::SimConfig;
use faultline_suite::sim::{worst_case_outcome, Target};
use faultline_suite::strategies::{all_strategies, PaperStrategy};

fn oracle(name: &str) -> &'static Oracle {
    oracle_by_name(name).expect("named oracle exists")
}

/// A hand-built (non-generated) instance: the deterministic grids these
/// wrappers always checked, expressed in the oracle's input format.
fn instance(n: usize, f: usize, strategy: &str, xmax: f64, targets: Vec<f64>) -> Instance {
    Instance {
        index: 0,
        seed: 0,
        n,
        f,
        strategy: strategy.to_owned(),
        xmax,
        grid_points: 32,
        targets,
        mask: Vec::new(),
        schedule: None,
        lie_rate: None,
        detect_probability: None,
        speeds: None,
        activation_delays: None,
    }
}

#[test]
fn detection_times_agree_on_a_log_grid() {
    for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (5, 2), (5, 3), (7, 3)] {
        let targets: Vec<f64> =
            logspace(1.0, 60.0, 17).unwrap().into_iter().flat_map(|x| [x, -x]).collect();
        let inst = instance(n, f, "paper", 64.0, targets);
        let verdict = oracle("sim-analytic-detection").check(&inst, false);
        assert_eq!(verdict, Verdict::Pass, "(n={n}, f={f}): {verdict:?}");
    }
}

#[test]
fn both_measurement_paths_agree_for_every_strategy() {
    let (n, f) = (5usize, 3usize);
    for strategy in all_strategies() {
        let inst = instance(n, f, strategy.name(), 15.0, vec![1.5]);
        match oracle("sim-analytic-supremum").check(&inst, false) {
            Verdict::Pass => {}
            // Strategies that reject (5, 3) are skipped, exactly as the
            // original wrapper `continue`d past a `plans` error.
            Verdict::Skip(reason) => {
                assert!(
                    strategy.plans(Params::new(n, f).unwrap()).is_err(),
                    "{} skipped unexpectedly: {reason}",
                    strategy.name()
                );
            }
            Verdict::Fail(m) => panic!("{}: {m:?}", strategy.name()),
        }
    }
}

#[test]
fn simulator_trace_is_consistent_with_detection() {
    let params = Params::new(3, 1).unwrap();
    let strategy = PaperStrategy::new();
    let plans = faultline_suite::strategies::Strategy::plans(&strategy, params).unwrap();
    let horizon = faultline_suite::strategies::Strategy::horizon_hint(&strategy, params, 9.0);
    let trajectories: Vec<_> = plans.iter().map(|p| p.materialize(horizon).unwrap()).collect();
    let outcome = worst_case_outcome(
        &trajectories,
        Target::new(7.7).unwrap(),
        params.f(),
        SimConfig { record_trace: true, stop_at_detection: true },
    )
    .unwrap();
    let detection = outcome.detection.unwrap();
    let trace = outcome.trace.as_ref().unwrap();
    // The trace ends at the detection event; nothing later is recorded.
    let last = trace.last().unwrap();
    assert_eq!(last.time, detection.time);
    assert!(trace.windows(2).all(|w| w[0].time <= w[1].time), "trace is time-ordered");
    // The detection's robot matches the final reliable visit.
    let last_visit = outcome.visits.last().unwrap();
    assert!(last_visit.reliable);
    assert_eq!(last_visit.robot, detection.robot);
}
