//! # faultline-bench
//!
//! The `repro` harness that regenerates every table and figure of the
//! paper (`src/bin/repro.rs`), and the perf baseline and load report
//! it records and gates against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod baseline;
pub(crate) mod load;
pub(crate) mod output;

pub use baseline::{compare_baselines, run_baseline, BenchBaseline};

pub(crate) use baseline::BaselineComparison;
pub use load::{compare_load, run_load, LoadReport};
pub use output::resolve_out_path;

/// Workspace version, re-exported for the harness banner.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
