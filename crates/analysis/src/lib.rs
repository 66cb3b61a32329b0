//! # faultline-analysis
//!
//! The evaluation toolkit that regenerates every table and figure of
//! *Search on a Line with Faulty Robots* (PODC 2016):
//!
//! * [`table1`] — Table 1 (upper/lower bounds and expansion factors for
//!   the paper's `(n, f)` pairs) with an empirical cross-check column.
//! * [`fig5`] — both Figure 5 curves with the corollary envelopes and a
//!   measured overlay.
//! * [`figures`] — data generators for the illustrative Figures 1–4,
//!   6, 7 (CSV and SVG export).
//! * [`supremum`] — empirical competitive-ratio measurement through two
//!   independent paths (the exact critical-point engine and the event
//!   simulator), plus the typed [`SupremumQuery`] request form.
//! * [`scenario`] — declarative JSON scenario documents, runnable from
//!   the CLI, the query service or programmatically.
//! * [`ablation`] — the beta-sweep and fault-misestimation ablations.
//! * [`ascii`] / [`svg`] — terminal tables/charts and SVG space–time
//!   diagrams.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` deliberately rejects NaN where `x <= limit` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod ablation;
pub mod ascii;
pub mod average_case;
pub mod bounded;
pub mod convergence;
pub mod exact;
pub mod fig5;
pub mod figures;
pub mod group_search;
pub mod randomized;
pub mod scenario;
pub mod supremum;
pub mod svg;
pub mod table1;
pub mod timeline;
pub mod turncost;
pub mod verification;

pub use ascii::{line_chart, render_table, Series};
pub use exact::{
    exact_expected_supremum, exact_supremum, exact_supremum_enclosed, exact_supremum_geometry,
    EnclosedScan, ExactScan, FleetScan,
};
pub use figures::FigureData;
pub use scenario::{RobotPhysics, Scenario, ScenarioResult};
pub use supremum::{
    measure_free_schedule_cr, measure_free_schedule_expected_cr, measure_free_schedule_profile,
    measure_strategy_cr, measure_strategy_cr_sim, resolve_strategy, FreeScheduleProfile,
    LeaveOneOut, MeasuredCr, SupremumQuery, SupremumReport,
};
pub use table1::Table1Row;
