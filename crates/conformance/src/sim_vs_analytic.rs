//! The discrete-event simulator and the analytic coverage evaluation
//! are two fully independent implementations of the same semantics;
//! they must agree everywhere. These deterministic grids drive the
//! named oracles (`sim-analytic-detection` and
//! `sim-analytic-supremum`), so the randomized conformance sweep and
//! the grids enforce the exact same relations.

use faultline_core::numeric::logspace;
use faultline_core::Params;
use faultline_strategies::all_strategies;

use crate::instance::Instance;
use crate::oracles::{oracle_by_name, Oracle, Verdict};

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
