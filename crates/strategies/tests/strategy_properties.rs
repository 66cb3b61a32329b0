//! Property-based tests over the whole strategy registry: structural
//! guarantees every strategy must uphold regardless of parameters.

use faultline_core::coverage::Fleet;
use faultline_core::Params;
use faultline_strategies::{all_strategies, strategy_by_name};
use proptest::prelude::*;

fn any_params() -> impl Strategy<Value = Params> {
    (1usize..12).prop_flat_map(|n| (0usize..n).prop_map(move |f| Params::new(n, f).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every strategy that accepts the parameters produces exactly one
    /// plan per robot, and every plan materializes to a unit-speed
    /// trajectory covering exactly the requested horizon.
    #[test]
    fn plans_are_structurally_sound(params in any_params(), horizon in 5.0f64..200.0) {
        for strategy in all_strategies() {
            let Ok(plans) = strategy.plans(params) else { continue };
            prop_assert_eq!(plans.len(), params.n(), "{}", strategy.name());
            for plan in &plans {
                let traj = plan.materialize(horizon).unwrap();
                prop_assert!((traj.horizon() - horizon).abs() < 1e-9, "{}", strategy.name());
                for leg in traj.waypoints().windows(2) {
                    let speed = (leg[1].x - leg[0].x).abs() / (leg[1].t - leg[0].t);
                    prop_assert!(
                        speed <= 1.0 + 1e-9,
                        "{}: superluminal segment",
                        strategy.name()
                    );
                }
            }
        }
    }

    /// A strategy's claimed analytic competitive ratio is never beaten
    /// from above by measurement: the measured ratio at any single
    /// target stays below the claim.
    #[test]
    fn claims_are_honest(params in any_params(), x in 1.0f64..20.0, neg in any::<bool>()) {
        let target = if neg { -x } else { x };
        for strategy in all_strategies() {
            let Some(claimed) = strategy.analytic_cr(params) else { continue };
            let Ok(plans) = strategy.plans(params) else { continue };
            let horizon = strategy.horizon_hint(params, 21.0);
            let fleet = Fleet::from_plans(&plans, horizon).unwrap();
            if let Some(t) = fleet.visit_time(target, params.required_visits()) {
                prop_assert!(
                    t / x <= claimed + 1e-6,
                    "{} at {params}: measured {} > claimed {claimed}",
                    strategy.name(),
                    t / x
                );
            }
        }
    }

    /// Registry lookups are total over the registry's own names.
    #[test]
    fn registry_roundtrip(_x in 0..1i32) {
        for strategy in all_strategies() {
            let found = strategy_by_name(strategy.name());
            prop_assert!(found.is_some(), "{} not found by its own name", strategy.name());
            prop_assert_eq!(found.unwrap().name(), strategy.name());
        }
    }

    /// The paper's strategy is never worse than any other *complete*
    /// strategy's claimed guarantee at the same parameters.
    #[test]
    fn paper_claim_is_the_best_guarantee(params in any_params()) {
        let paper = strategy_by_name("paper").unwrap();
        let paper_cr = paper.analytic_cr(params).unwrap();
        for strategy in all_strategies() {
            if let Some(other) = strategy.analytic_cr(params) {
                prop_assert!(
                    paper_cr <= other + 1e-9,
                    "{} claims {other} < paper's {paper_cr} at {params}",
                    strategy.name()
                );
            }
        }
    }
}
