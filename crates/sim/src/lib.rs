//! # faultline-sim
//!
//! A discrete-event simulator for parallel search on a line with faulty
//! robots.
//!
//! The paper is pure theory; this crate is the executable substrate
//! that *runs* searches instead of evaluating closed forms, providing
//! an independent validation path for every analytic claim in
//! [`faultline_core`]:
//!
//! * [`engine::Simulation`] — event-driven execution of a fleet of
//!   trajectories against a target under a [`FaultPlan`], built by its
//!   one constructor; events are turning points, target visits and
//!   detection claims, and detection fires on the first working
//!   report (or, under a claim quorum, on enough matching claims).
//! * [`fault`] — the one fault assignment, [`FaultPlan`]: one
//!   [`FaultKind`] per robot, from the paper's permanent sensor fault
//!   to intermittent, delayed, speed-degraded, p-faulty and Byzantine
//!   robots; plus fixed and Bernoulli [`FaultModel`]s for Monte-Carlo
//!   sweeps.
//! * [`adversary`] — the paper's worst-case sensor-fault plan (earliest
//!   `f` visitors of the target) and empirical competitive-ratio
//!   measurement.
//! * [`montecarlo`] — one seeded random target/fault sweep
//!   ([`run_sweep`]) over a fleet of [`faultline_core::Plan`]s, with
//!   summary statistics ([`RatioStats`]).
//!
//! ## Example
//!
//! ```
//! use faultline_core::{Algorithm, Params};
//! use faultline_sim::adversary::worst_case_outcome;
//! use faultline_sim::engine::SimConfig;
//! use faultline_sim::target::Target;
//!
//! let params = Params::new(3, 1)?;
//! let algorithm = Algorithm::design(params)?;
//! let horizon = algorithm.required_horizon(10.0)?;
//! let trajectories = algorithm
//!     .plans()
//!     .iter()
//!     .map(|p| p.materialize(horizon))
//!     .collect::<Result<Vec<_>, _>>()?;
//!
//! let outcome = worst_case_outcome(
//!     &trajectories,
//!     Target::new(-4.0)?,
//!     params.f(),
//!     SimConfig::default(),
//! )?;
//! assert!(outcome.detected());
//! assert!(outcome.ratio() <= algorithm.analytic_cr() + 1e-9);
//! # Ok::<(), faultline_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` deliberately rejects NaN where `x <= limit` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod adversary;
pub mod crash;
pub mod engine;
pub mod event;
pub mod fault;
pub mod montecarlo;
pub mod outcome;
pub mod pfaulty;
pub mod robot;
pub mod sampler;
pub mod target;
pub mod trace;

pub use adversary::{empirical_competitive_ratio, worst_case_outcome, worst_case_plan};
pub use crash::{worst_case_crashes, CrashPlan};
pub use engine::{QuorumConfig, SimConfig, Simulation};
pub use event::{Event, EventKind};
pub use fault::{
    check_adversary_budget, BernoulliFaults, FaultKind, FaultModel, FaultPlan, FixedFaults,
};
pub use montecarlo::{run_sweep, sweep_outcomes, MonteCarloConfig, RatioStats};
pub use outcome::{Claim, Detection, SearchOutcome, Visit};
pub use pfaulty::{expected_outcome, monte_carlo_expected_ratio, PFaultyExpectation};
pub use robot::RobotId;
pub use sampler::{replay_check, sample_positions, snapshots_to_csv, Snapshot};
pub use target::Target;
pub use trace::RunTrace;
