//! # faultline-conformance
//!
//! Cross-layer differential conformance harness for the faultline
//! workspace. The repo computes the paper's quantities along four
//! independent paths — the discrete-event simulator, the analytic
//! coverage machinery, the Theorem 1 / Lemma 2 closed forms, and the
//! optimizer objective — and this crate holds them to each other:
//!
//! - `instance` deterministically generates randomized cases
//!   (regimes, targets, fault masks, registry strategies, lowered or
//!   perturbed [`FreeSchedule`](faultline_core::FreeSchedule)s) from a
//!   `(seed, index)` pair;
//! - `oracles` is the declarative oracle set: cross-path agreement
//!   within stated tolerances, the paper's metamorphic relations, and
//!   replay self-consistency;
//! - `engine` fans the oracle grid over the work-stealing pool and
//!   aggregates a byte-deterministic pass/skip/fail matrix per
//!   oracle × regime;
//! - `counterexample` shrinks failures (instance minimization plus
//!   the PR-1 trace shrinker) into self-contained JSON documents that
//!   `faultline conformance replay <file>` reproduces bit-for-bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod counterexample;
pub(crate) mod engine;
pub(crate) mod instance;
pub(crate) mod oracles;

pub use counterexample::Counterexample;
pub use engine::{run, ConformanceConfig, Tier};
pub use oracles::{all_oracles, EXACT_RTOL};

#[cfg(test)]
mod sim_vs_analytic;

#[cfg(test)]
mod thm1_conformance;
