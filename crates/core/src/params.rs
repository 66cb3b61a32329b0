//! Validated problem parameters `(n, f)` and the regime classification
//! used throughout the paper.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// The algorithmic regime a parameter pair `(n, f)` falls into.
///
/// The paper splits the problem in two: with `n >= 2f + 2` robots the
/// trivial two-group strategy achieves competitive ratio 1; with
/// `f < n < 2f + 2` the proportional schedule algorithm `A(n, f)` is
/// used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Regime {
    /// `n >= 2f + 2`: send two groups of at least `f + 1` robots in
    /// opposite directions; competitive ratio 1 (optimal).
    TwoGroup,
    /// `f < n < 2f + 2`: run the proportional schedule algorithm
    /// `A(n, f)` of Section 3.
    Proportional,
}

impl std::fmt::Display for Regime {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regime::TwoGroup => write!(fmt, "two-group (n >= 2f + 2)"),
            Regime::Proportional => write!(fmt, "proportional schedule (f < n < 2f + 2)"),
        }
    }
}

/// A validated `(n, f)` pair: `n` robots of which at most `f` are faulty.
///
/// Construction enforces `n >= 1` and `n > f`; with `n <= f` every robot
/// could be faulty and no algorithm can guarantee detection, so such
/// pairs are rejected ([C-VALIDATE]).
///
/// ```
/// use faultline_core::{Params, Regime};
/// let p = Params::new(5, 2)?;
/// assert_eq!(p.regime(), Regime::Proportional);
/// assert_eq!(Params::new(6, 2)?.regime(), Regime::TwoGroup);
/// assert!(Params::new(2, 2).is_err());
/// # Ok::<(), faultline_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Params {
    n: usize,
    f: usize,
}

// Deserialization re-validates `n >= 1` and `n > f`.
impl<'de> Deserialize<'de> for Params {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            n: usize,
            f: usize,
        }
        let raw = Raw::deserialize(deserializer)?;
        Params::new(raw.n, raw.f).map_err(serde::de::Error::custom)
    }
}

impl Params {
    /// The largest fleet [`Params::fleet`] accepts, so no request or
    /// document can exhaust memory building its robots; above every
    /// fleet a test, golden or artifact builds (at most A(201, 100)).
    pub const MAX_ROBOTS: usize = 4096;

    /// Creates a validated parameter pair.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when `n == 0` or `n <= f`.
    pub fn new(n: usize, f: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid_params(n, f, "at least one robot is required"));
        }
        if n <= f {
            return Err(Error::invalid_params(
                n,
                f,
                "n must exceed f: with n <= f all robots could be faulty and \
                 the target can never be confirmed",
            ));
        }
        Ok(Params { n, f })
    }

    /// As [`Params::new`], for an analysis that builds the fleet.
    ///
    /// # Errors
    ///
    /// Also returns [`Error::InvalidParameters`] when `n > MAX_ROBOTS`.
    pub fn fleet(n: usize, f: usize) -> Result<Self> {
        if n > Self::MAX_ROBOTS {
            let reason = format!("at most {} robots are supported", Self::MAX_ROBOTS);
            return Err(Error::invalid_params(n, f, reason));
        }
        Params::new(n, f)
    }

    /// Total number of robots.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of faulty robots tolerated.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of distinct robot visits required to certify detection
    /// (`f + 1`).
    #[must_use]
    pub fn required_visits(&self) -> usize {
        self.f + 1
    }

    /// The algorithmic regime this pair falls into.
    #[must_use]
    pub fn regime(&self) -> Regime {
        if self.n >= 2 * self.f + 2 {
            Regime::TwoGroup
        } else {
            Regime::Proportional
        }
    }

    /// Exponent `(2f + 2) / n` appearing in Theorem 1 and Lemma 4.
    #[must_use]
    pub(crate) fn exponent(&self) -> f64 {
        (2 * self.f + 2) as f64 / self.n as f64
    }
}

impl std::fmt::Display for Params {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "(n = {}, f = {})", self.n, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_robots() {
        assert!(Params::new(0, 0).is_err());
    }

    #[test]
    fn fleets_over_the_ceiling_are_refused_and_closed_forms_are_not() {
        assert!(Params::fleet(Params::MAX_ROBOTS, Params::MAX_ROBOTS / 2).is_ok());
        for n in [Params::MAX_ROBOTS + 1, 1 << 50, usize::MAX] {
            let error = Params::fleet(n, 1).expect_err("over the ceiling");
            assert!(error.to_string().contains("at most 4096 robots"), "{error}");
            assert!(Params::new(n, 1).is_ok(), "a closed form takes any n");
        }
        assert!(Params::fleet(3, 3).is_err(), "and the pair is still checked");
    }

    #[test]
    fn rejects_all_faulty() {
        assert!(Params::new(3, 3).is_err());
        assert!(Params::new(3, 7).is_err());
    }

    #[test]
    fn regime_boundaries() {
        // n = 2f + 2 is the first two-group size.
        assert_eq!(Params::new(4, 1).unwrap().regime(), Regime::TwoGroup);
        assert_eq!(Params::new(3, 1).unwrap().regime(), Regime::Proportional);
        // Single robot, no faults: the classic cow-path setting.
        assert_eq!(Params::new(1, 0).unwrap().regime(), Regime::Proportional);
        assert_eq!(Params::new(2, 0).unwrap().regime(), Regime::TwoGroup);
    }

    #[test]
    fn n_equals_f_plus_one_is_proportional() {
        for f in 1..20 {
            let p = Params::new(f + 1, f).unwrap();
            assert_eq!(p.regime(), Regime::Proportional, "f = {f}");
        }
    }

    #[test]
    fn n_equals_two_f_plus_one_is_proportional() {
        for f in 1..20 {
            let p = Params::new(2 * f + 1, f).unwrap();
            assert_eq!(p.regime(), Regime::Proportional, "f = {f}");
        }
    }

    #[test]
    fn accessors() {
        let p = Params::new(5, 2).unwrap();
        assert_eq!(p.n(), 5);
        assert_eq!(p.f(), 2);
        assert_eq!(p.required_visits(), 3);
        assert_eq!(p.exponent(), 6.0 / 5.0);
    }

    #[test]
    fn display_contains_both_values() {
        let text = Params::new(11, 5).unwrap().to_string();
        assert!(text.contains("11") && text.contains('5'));
    }
}
