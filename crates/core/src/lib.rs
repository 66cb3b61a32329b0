//! # faultline-core
//!
//! A faithful implementation of *Search on a Line with Faulty Robots*
//! (Czyzowicz, Kranakis, Krizanc, Narayanan, Opatrny — PODC 2016).
//!
//! `n` unit-speed robots start together at the origin of an infinite
//! line and search for a target at unknown distance `|x| >= 1`. Up to
//! `f` of the robots are *faulty*: they move exactly like reliable
//! robots but never detect the target, so a point is only confirmed
//! once `f + 1` distinct robots have visited it. The objective is the
//! competitive ratio: the worst case over target positions of
//! (detection time) / (target distance).
//!
//! ## What this crate provides
//!
//! * [`Params`] / [`Regime`] — validated `(n, f)` pairs and the paper's
//!   case split (`n >= 2f + 2` trivial, `f < n < 2f + 2` interesting).
//! * [`trajectory`] — piecewise-linear unit-speed trajectories with
//!   visit queries, and their one time shift
//!   ([`PiecewiseTrajectory::retimed`]).
//! * [`Plan`] — every robot's motion as one turning-point schedule (a
//!   launch time, a glide to the first turning point, then unit-speed
//!   legs), materialized to any horizon by one walker.
//! * [`Cone`] / [`Plan::zigzag`] — the cone `C_beta` of Definition 1
//!   and zig-zag movements with expansion factor `(beta+1)/(beta-1)`
//!   (Lemma 1).
//! * [`ProportionalSchedule`] — `S_beta(n)` of Definition 2/Lemma 2 and
//!   the per-robot construction of Definition 4.
//! * [`Algorithm`] — the complete algorithm `A(n, f)` (Theorem 1) plus
//!   the two-group strategy.
//! * [`ratio`] — every closed form of Section 3 (Theorem 1, Corollary 1,
//!   both Figure 5 curves).
//! * [`lower_bound`] — Section 4: the `alpha(n)` root, adversarial
//!   placements, Lemmas 6–7 as executable checks, Corollary 2.
//! * [`coverage`] — `T_(f+1)(x)`, `K(x)` and supremum scans (Lemmas
//!   3–5), plus the coverage "tower" of Figure 4.
//!
//! ## Quick start
//!
//! ```
//! use faultline_core::{Algorithm, coverage::Fleet, Params};
//!
//! // Five robots, at most two faulty: the proportional regime.
//! let params = Params::new(5, 2)?;
//! let algorithm = Algorithm::design(params)?;
//! assert!((algorithm.analytic_cr() - 4.434).abs() < 1e-3);
//!
//! // Materialize the fleet and measure the detection time of a target.
//! let horizon = algorithm.required_horizon(10.0)?;
//! let fleet = Fleet::from_plans(&algorithm.plans(), horizon)?;
//! let detection = fleet.visit_time(7.5, params.required_visits()).unwrap();
//! assert!(detection / 7.5 <= algorithm.analytic_cr() + 1e-9);
//! # Ok::<(), faultline_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` is used deliberately throughout: unlike `x <= limit`,
// it also rejects NaN, which must never pass validation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod algorithm;
pub(crate) mod bounded;
pub mod certificate;
pub mod closed_form;
pub(crate) mod cone;
pub mod coverage;
pub(crate) mod error;
pub mod exact;
pub(crate) mod free_schedule;
pub(crate) mod geometry;
pub(crate) mod interval;
pub mod json_float;
pub mod lower_bound;
pub mod numeric;
pub mod parallel;
pub(crate) mod params;
pub(crate) mod plan;
pub mod query;
pub mod ratio;
pub(crate) mod schedule;
pub(crate) mod spacetime;
pub mod trajectory;
pub(crate) mod turn_cost;
pub(crate) mod zigzag;

pub use algorithm::Algorithm;
pub use bounded::BoundedAlgorithm;
pub use certificate::Certificate;
pub use cone::Cone;
pub use coverage::Fleet;
pub use error::{Error, Result};
pub use free_schedule::{FreeRobot, FreeSchedule};
pub use geometry::Geometry;
pub use interval::Interval;
pub use parallel::{par_map, par_map_with, ParallelConfig};
pub use params::{Params, Regime};
pub use plan::Plan;
pub use query::CrQuery;
pub use schedule::ProportionalSchedule;
pub use spacetime::SpaceTime;
pub use trajectory::{PiecewiseTrajectory, TrajectoryBuilder};
pub use turn_cost::TurnCost;
