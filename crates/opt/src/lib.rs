//! # faultline-opt
//!
//! A schedule-space optimizer that probes the gap between the paper's
//! upper bound (Theorem 1: the proportional algorithm `A(n, f)`) and
//! its lower bound (Theorem 2: the root `alpha(n)`) for the
//! interesting regime `f + 1 < n < 2f + 2`.
//!
//! The paper proves the two bounds do not meet; later work
//! (Kupavskii–Welzl; Czyzowicz et al., *Search on a Line by Byzantine
//! Robots*) narrowed the gap with non-proportional schedules. This
//! crate searches the space of [`faultline_core::FreeSchedule`]s —
//! arbitrary
//! interleaved turning-point sequences with geometric tails — using
//! the measured worst-case competitive ratio from the
//! `faultline_analysis::measure_free_schedule_cr` scan as the
//! objective.
//!
//! ## Pipeline
//!
//! 1. [`OptimizeConfig`] fixes `(n, f)`, a [`Budget`], and a seed.
//! 2. [`init_state`] lowers `A(n, f)` into the start set (start 0 is
//!    the exact lowering; the rest are seeded perturbations).
//! 3. [`advance_round`] runs one round of coordinate descent with
//!    golden-section line search plus an annealing sweep on every
//!    start, fanned out through [`faultline_core::par_map_with`] with
//!    per-`(seed, start, round)` RNG streams so results are
//!    deterministic regardless of thread count.
//! 4. [`Checkpoint`] files snapshot the full optimizer state after
//!    every round; resuming from a checkpoint replays the remaining
//!    rounds to bit-identical output.
//! 5. [`finish`] folds the best start into an `OptimizeReport` with
//!    the Theorem 1 closed form, the `alpha(n)` certificate, and the
//!    `CrossCheck` verdict (`certified lo <= best_found_cr`).
//!
//! ## Soundness guard
//!
//! A finite measurement window can under-estimate the true supremum: a
//! schedule may look better than the proven lower bound simply because
//! its bad targets lie beyond `xmax`. The objective therefore treats
//! any measurement below the certified `alpha(n)` enclosure
//! ([`faultline_core::certificate::certify_alpha`]) as overfitted and
//! rejects it ([`Objective::eval`] returns [`PENALTY`]), and the final
//! report cross-checks the winner against the same certificate — the
//! optimizer can never "prove" a sub-lower-bound schedule. Where
//! Theorem 1 is already tight (two-group pairs, and `n = f + 1` where
//! it equals the single-robot bound 9), the report sets
//! `OptimizeReport::gap_closed` and refuses to claim improvements:
//! the 9 bound is attained only asymptotically, so in-window "gains"
//! on those pairs are finite-window artifacts, never breakthroughs.
//!
//! ```
//! use faultline_opt::{run, Budget, OptimizeConfig};
//!
//! let mut config = OptimizeConfig::new(3, 1);
//! config.budget = Budget::Tiny;
//! config.xmax = Some(8.0);
//! let report = run(&config)?;
//! assert!(report.best_found_cr <= report.thm1_cr + 1e-9);
//! assert!(report.crosscheck.is_consistent());
//! # Ok::<(), faultline_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` rejects NaN where `x <= limit` would accept it.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod budget;
pub(crate) mod checkpoint;
pub(crate) mod driver;
pub(crate) mod gap;
pub(crate) mod objective;
pub(crate) mod search;

pub use budget::Budget;
pub use checkpoint::Checkpoint;
pub use driver::{
    advance_round, finish, init_state, resume_state, run, run_with_checkpoint, OptimizeConfig,
    IMPROVEMENT_MARGIN, THM1_SLACK,
};
pub use gap::{gap_csv, gap_study, GapRow};
pub use objective::{Objective, PENALTY, PRESSURE_WEIGHT};

#[cfg(test)]
mod leave_one_out;

#[cfg(test)]
mod lower_bound_guard;
