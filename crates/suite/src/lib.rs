//! # faultline-suite
//!
//! Facade crate for the `faultline` workspace: re-exports the full
//! stack so downstream users (and the repository-level examples and
//! integration tests) can depend on a single crate.
//!
//! * [`core`] — algorithms, schedules, motion plans, bounds.
//! * [`sim`] — the discrete-event simulator.
//! * [`strategies`] — strategy library.
//! * [`analysis`] — table/figure regeneration.
//! * [`opt`] — the Theorem 1 / Theorem 2 gap optimizer.
//! * [`conformance`] — cross-layer differential oracle harness.
//! * [`explore`] — systematic fault/adversary-space exploration with
//!   dominance pruning and certified enclosures.
//!
//! ```
//! use faultline_suite::prelude::*;
//!
//! let params = Params::new(3, 1)?;
//! let algorithm = Algorithm::design(params)?;
//! assert!((algorithm.analytic_cr() - 5.233).abs() < 1e-3);
//! # Ok::<(), faultline_suite::core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use faultline_analysis as analysis;
/// Declarative scenario documents (moved to `faultline-analysis` so the
/// query service can dispatch scenarios as a library; re-exported here
/// for compatibility).
pub use faultline_analysis::scenario;
pub use faultline_conformance as conformance;
pub use faultline_core as core;
pub use faultline_explore as explore;
pub use faultline_opt as opt;
/// The versioned heterogeneous-scenario DSL (per-robot speeds,
/// activation schedules, fault onsets, line/half-line geometry).
pub use faultline_scenario as scenario_dsl;
pub use faultline_sim as sim;
pub use faultline_strategies as strategies;

/// The most commonly used items across the stack.
pub mod prelude {
    pub use faultline_analysis::{measure_strategy_cr, MeasuredCr};
    pub use faultline_core::{Algorithm, Cone, Fleet, Params, Plan, ProportionalSchedule, Regime};
    pub use faultline_sim::{
        worst_case_outcome, FaultPlan, SearchOutcome, SimConfig, Simulation, Target,
    };
    pub use faultline_strategies::{all_strategies, strategy_by_name, PaperStrategy, Strategy};

    pub use crate::scenario::{Scenario, ScenarioResult};
    pub use crate::scenario_dsl::ScenarioDoc;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let params = Params::new(5, 2).unwrap();
        let alg = Algorithm::design(params).unwrap();
        assert_eq!(alg.plans().len(), 5);
    }
}
