//! # faultline-bench
//!
//! The `repro` harness that regenerates every table and figure of the
//! paper (`src/bin/repro.rs`), and the perf baseline and load report
//! it records and gates against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod load;
pub mod output;

pub use baseline::{
    compare_baselines, run_baseline, BaselineComparison, BenchBaseline, HostInfo, PathComparison,
    WorkCount, WorkloadTiming, MIN_GATED_WALL_MS, REGRESSION_TOLERANCE,
};
pub use load::{compare_load, run_load, LoadReport};
pub use output::resolve_out_path;

/// Workspace version, re-exported for the harness banner.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
