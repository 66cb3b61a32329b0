//! # faultline-explore
//!
//! Systematic exploration of the adversary's `(fault mask × target
//! window)` decision space for *Search on a Line with Faulty Robots*
//! (PODC 2016), replacing budgeted enumeration and seeded subsampling
//! with a canonical frontier whose coverage is always 100% and whose
//! cuts are certified:
//!
//! * **Canonical equivalence classes** — masks identical up to
//!   robot-index symmetry, and adversary choices inducing
//!   bit-identical reliable `WindowCover`s, collapse to one
//!   representative before exploration.
//! * **Dominance pruning** — subset dominance (fewer faults never
//!   hurt the searchers) plus a certified branch-and-bound over
//!   outward-rounded ratio enclosures cut states that provably cannot
//!   beat an already-explored branch; the reported worst value stays
//!   bit-identical to [`faultline_analysis::exact_supremum`].
//! * **Coverage accounting** — every run reports "explored N of M
//!   equivalence classes, pruned K by dominance, subsampled 0" as a
//!   versioned JSON/CSV [`ExploreReport`]; budget overflows are hard
//!   errors, never silent subsamples.
//! * **Determinism** — every phase runs on the caller's thread, in
//!   canonical order: reports are byte-identical across runs and
//!   `FAULTLINE_THREADS` settings.
//!
//! The engine shares its critical-point candidates and interval
//! arithmetic with `faultline_analysis::exact`, so the exhaustive
//! baseline (`ExploreConfig::exhaustive`), the pruned frontier, and
//! the independent scan all agree bit-for-bit, and the reported
//! `[enclosure_lo, enclosure_hi]` brackets the true supremum.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` deliberately rejects NaN where `x <= limit` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod engine;
pub mod report;

pub use engine::{explore_fleet, explore_pair, ExploreConfig, DEFAULT_BUDGET};
pub use report::{ExploreReport, WorstCase, REPORT_VERSION};
