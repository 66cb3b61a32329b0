//! Parallel parameter sweeps built on the work-stealing engine.
//!
//! The implementation moved to [`faultline_core::parallel`] so the
//! simulator's fault-space explorer can share it; this module re-exports
//! it under the historical path.

pub use faultline_core::parallel::{par_map, par_map_with, ParallelConfig};
