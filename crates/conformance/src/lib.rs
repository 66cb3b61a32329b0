//! # faultline-conformance
//!
//! Cross-layer differential conformance harness for the faultline
//! workspace. The repo computes the paper's quantities along four
//! independent paths — the discrete-event simulator, the analytic
//! coverage machinery, the Theorem 1 / Lemma 2 closed forms, and the
//! optimizer objective — and this crate holds them to each other:
//!
//! - [`instance`] deterministically generates randomized cases
//!   (regimes, targets, fault masks, registry strategies, lowered or
//!   perturbed [`FreeSchedule`](faultline_core::FreeSchedule)s) from a
//!   `(seed, index)` pair;
//! - [`oracles`] is the declarative oracle set: cross-path agreement
//!   within stated tolerances, the paper's metamorphic relations, and
//!   replay self-consistency;
//! - [`engine`] fans the oracle grid over the work-stealing pool and
//!   aggregates a byte-deterministic pass/skip/fail matrix per
//!   oracle × regime;
//! - [`counterexample`] shrinks failures (instance minimization plus
//!   the PR-1 trace shrinker) into self-contained JSON documents that
//!   `faultline conformance replay <file>` reproduces bit-for-bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counterexample;
pub mod engine;
pub mod instance;
pub mod oracles;

pub use counterexample::{Counterexample, COUNTEREXAMPLE_VERSION};
pub use engine::{run, ConformanceConfig, ConformanceReport, MatrixRow, Tier, CONFORMANCE_VERSION};
pub use instance::{GenCaps, Instance};
pub use oracles::{
    all_oracles, oracle_by_name, Mismatch, Oracle, Verdict, ABS_SLACK, ENCLOSURE_WIDTH_RTOL,
    EXACT_RTOL, EXACT_TOL, FLOOR_RTOL, INJECTED_SKEW, REL_TOL,
};
