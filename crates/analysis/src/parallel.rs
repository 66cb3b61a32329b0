//! Parallel parameter sweeps built on the work-stealing engine.
//!
//! The implementation lives in [`faultline_core::parallel`] so crates
//! below the analysis layer can share it; this module re-exports it
//! under the historical path.

pub use faultline_core::parallel::{par_map, par_map_with, ParallelConfig};
