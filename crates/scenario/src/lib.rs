//! # faultline-scenario
//!
//! A declarative, versioned scenario DSL generalizing the legacy
//! [`faultline_analysis::Scenario`] form along three axes:
//!
//! * **Heterogeneous fleets** — per-robot `speed`, `activation`
//!   (immediate, delayed, or seeded-random start) and `fault_onset`
//!   schedules over the existing fault taxonomy.
//! * **Geometry** — the paper's full line or the one-sided half-line
//!   (`[1, xmax]` only), threading [`faultline_core::Geometry`]
//!   through target validation and downstream analysis.
//! * **Versioning** — an explicit `version` field (this build reads
//!   [`SCENARIO_VERSION`]); future-versioned documents fail with a
//!   typed diagnostic, never a panic, and every `f64` round-trips
//!   bit-exactly through [`faultline_core::json_float`].
//!
//! [`Document`] decides whether a JSON body is a versioned document, a
//! legacy scenario or a recorded trace, for the query service and the
//! CLI alike. Both scenario forms run through the one runner,
//! [`faultline_analysis::Scenario::run_with`]; a versioned document
//! only adds the per-robot physics its `robots` resolve to.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` deliberately rejects NaN where `x <= limit` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod document;
pub(crate) mod run;

pub use document::{Activation, Document, RobotSpec, ScenarioDoc, SCENARIO_VERSION};
