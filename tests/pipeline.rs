//! End-to-end pipeline tests: strategy registry → plan generation →
//! materialization → simulation → measured competitive ratio.

use faultline_suite::analysis::measure_strategy_cr;
use faultline_suite::core::{ratio, Params, Regime};
use faultline_suite::prelude::*;
use faultline_suite::sim::engine::SimConfig;
use faultline_suite::sim::worst_case_outcome;

#[test]
fn every_registered_strategy_runs_end_to_end() {
    let params = Params::new(3, 1).unwrap();
    for strategy in all_strategies() {
        let Ok(plans) = strategy.plans(params) else {
            continue; // strategies may reject parameters they cannot serve
        };
        assert_eq!(plans.len(), params.n(), "{}", strategy.name());
        let measured = measure_strategy_cr(strategy.as_ref(), params, 12.0).unwrap();
        if let Some(claimed) = strategy.analytic_cr(params) {
            assert!(
                measured.empirical <= claimed + 1e-6,
                "{}: measured {} above claimed {claimed}",
                strategy.name(),
                measured.empirical
            );
        }
    }
}

#[test]
fn paper_algorithm_beats_every_baseline_where_it_matters() {
    // On (5, 3) the paper's algorithm must beat both doubling baselines.
    let params = Params::new(5, 3).unwrap();
    let paper = measure_strategy_cr(strategy_by_name("paper").unwrap().as_ref(), params, 25.0)
        .unwrap()
        .empirical;
    for name in ["herd-doubling", "staggered-doubling"] {
        let baseline = measure_strategy_cr(
            strategy_by_name(name).unwrap().as_ref(),
            params,
            // The doubling baselines need a window past several powers
            // of 4 for their worst case to show; 25 is enough to rank.
            25.0,
        )
        .unwrap()
        .empirical;
        assert!(paper < baseline, "paper ({paper}) should beat {name} ({baseline}) at {params}");
    }
}

#[test]
fn full_pipeline_for_every_proportional_pair_up_to_n9() {
    for f in 1..8usize {
        for n in (f + 1)..(2 * f + 2).min(10) {
            let params = Params::new(n, f).unwrap();
            if params.regime() != Regime::Proportional {
                continue;
            }
            let alg = Algorithm::design(params).unwrap();
            let horizon = alg.required_horizon(6.0).unwrap();
            let trajectories: Vec<_> =
                alg.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
            let outcome = worst_case_outcome(
                &trajectories,
                Target::new(-5.5).unwrap(),
                f,
                SimConfig::default(),
            )
            .unwrap();
            assert!(outcome.detected(), "{params}");
            assert!(
                outcome.ratio() <= ratio::cr_upper(params) + 1e-9,
                "{params}: ratio {} above Theorem 1 bound {}",
                outcome.ratio(),
                ratio::cr_upper(params)
            );
            // At least f + 1 robots visited the target by detection time.
            assert_eq!(outcome.distinct_visitors(), f + 1, "{params}");
        }
    }
}

#[test]
fn prelude_covers_the_common_workflow() {
    // The facade's prelude alone is enough for the headline use case.
    let params = Params::new(3, 1).unwrap();
    let algorithm = Algorithm::design(params).unwrap();
    let horizon = algorithm.required_horizon(5.0).unwrap();
    let fleet = Fleet::from_plans(&algorithm.plans(), horizon).unwrap();
    let t = fleet.visit_time(4.2, params.required_visits()).unwrap();
    assert!(t / 4.2 <= algorithm.analytic_cr() + 1e-9);
}
