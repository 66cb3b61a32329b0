//! # faultline-strategies
//!
//! A library of search strategies for the faulty-robot line search
//! problem: the paper's algorithm, the classical baselines it is
//! compared against, and deliberately weak strategies used to
//! demonstrate the lower-bound machinery.
//!
//! All strategies implement the [`Strategy`] trait: given validated
//! [`Params`], they produce one [`Plan`] per robot, built from the
//! plan's turning-point families (cone zig-zags, rays, unit-speed
//! sweeps, launch delays). The `registry` lists every built-in
//! strategy by name.
//!
//! ```
//! use faultline_core::Params;
//! use faultline_strategies::{PaperStrategy, Strategy};
//!
//! let strategy = PaperStrategy::new();
//! let params = Params::new(3, 1)?;
//! let plans = strategy.plans(params)?;
//! assert_eq!(plans.len(), 3);
//! assert!((strategy.analytic_cr(params).unwrap() - 5.233).abs() < 1e-3);
//! # Ok::<(), faultline_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > limit)` deliberately rejects NaN where `x <= limit` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub(crate) mod delayed;
pub(crate) mod doubling;
pub(crate) mod naive;
pub(crate) mod proportional;
pub(crate) mod randomized;
pub(crate) mod registry;
pub(crate) mod two_group;

use faultline_core::{Params, Plan, Result};
pub use proportional::{FixedBetaStrategy, PaperStrategy};
pub use randomized::RandomizedSweepStrategy;
pub use registry::{all_strategies, strategy_by_name};

/// A complete parallel-search strategy: assigns a motion plan to each
/// of the `n` robots for a given `(n, f)`.
pub trait Strategy: std::fmt::Debug {
    /// Stable, unique machine name (used by the registry and the CLI).
    fn name(&self) -> &'static str;

    /// Human-readable description.
    fn description(&self) -> String;

    /// One plan per robot, in robot order.
    ///
    /// # Errors
    ///
    /// Returns an error when the strategy cannot handle the parameters
    /// (for example the two-group strategy with `n < 2f + 2`).
    fn plans(&self, params: Params) -> Result<Vec<Plan>>;

    /// The strategy's provable competitive ratio for these parameters,
    /// when known. `None` means unknown or unbounded.
    fn analytic_cr(&self, params: Params) -> Option<f64>;

    /// A materialization horizon sufficient to confirm every target
    /// with `1 <= |x| <= xmax` (or to demonstrate that the strategy
    /// fails to). The default is generous: `max(analytic CR, 16)` times
    /// `xmax`, doubled.
    fn horizon_hint(&self, params: Params, xmax: f64) -> f64 {
        let cr = self.analytic_cr(params).unwrap_or(16.0).max(16.0);
        2.0 * cr * xmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_trait_is_object_safe() {
        let strategies: Vec<Box<dyn Strategy>> =
            vec![Box::new(PaperStrategy::new()), Box::new(doubling::HerdDoublingStrategy::new())];
        assert_eq!(strategies.len(), 2);
    }

    #[test]
    fn default_horizon_hint_is_generous() {
        let params = Params::new(3, 1).unwrap();
        let strategy = PaperStrategy::new();
        let hint = strategy.horizon_hint(params, 10.0);
        assert!(hint >= 2.0 * 16.0 * 10.0);
    }
}
