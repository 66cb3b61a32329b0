//! Error types for the `faultline-core` crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type returned by fallible operations in `faultline-core`.
///
/// Every public constructor and solver validates its inputs
/// ([C-VALIDATE]) and reports failures through this type rather than
/// panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The `(n, f)` robot/fault configuration is not solvable or not
    /// well-formed (for example `n <= f`, which makes `f + 1` distinct
    /// visits impossible).
    InvalidParameters {
        /// Total number of robots requested.
        n: usize,
        /// Number of tolerated faulty robots requested.
        f: usize,
        /// Human-readable explanation of the rejection.
        reason: String,
    },
    /// A cone parameter `beta` outside the open interval `(1, ∞)`, or
    /// so large that its expansion factor rounds to 1, was supplied; the
    /// cone `C_beta` is only defined for `beta > 1`.
    InvalidBeta {
        /// The rejected value.
        beta: f64,
    },
    /// A numerical routine (root finder, minimizer) failed to converge
    /// or was given an invalid bracket.
    Numerical {
        /// Description of the failing computation.
        what: String,
    },
    /// A trajectory violated a structural invariant (non-monotone time,
    /// speed above 1, empty waypoint list, ...).
    InvalidTrajectory {
        /// Description of the violated invariant.
        reason: String,
    },
    /// A query was made outside the domain on which the object is
    /// defined (for example a target closer than the minimum distance).
    Domain {
        /// Description of the domain violation.
        what: String,
    },
    /// A quantity that must be a finite number was NaN or infinite
    /// (a coordinate, a time, a probability, a degradation factor).
    /// Kept separate from [`Error::Domain`] so callers can distinguish
    /// "out of range" from "not a number at all" — the latter usually
    /// indicates corrupted input (e.g. a hand-edited trace file).
    NonFinite {
        /// Name of the offending quantity.
        what: String,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameters { n, f, reason } => {
                write!(fmt, "invalid parameters (n = {n}, f = {f}): {reason}")
            }
            Error::InvalidBeta { beta } => {
                write!(
                    fmt,
                    "invalid cone parameter beta = {beta:?}; beta > 1 is required, with an \
                     expansion factor (beta + 1)/(beta - 1) above 1"
                )
            }
            Error::Numerical { what } => write!(fmt, "numerical failure: {what}"),
            Error::InvalidTrajectory { reason } => write!(fmt, "invalid trajectory: {reason}"),
            Error::Domain { what } => write!(fmt, "domain error: {what}"),
            Error::NonFinite { what, value } => {
                write!(fmt, "non-finite value: {what} = {value}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Builds an [`Error::InvalidParameters`] with the given reason.
    pub fn invalid_params(n: usize, f: usize, reason: impl Into<String>) -> Self {
        Error::InvalidParameters { n, f, reason: reason.into() }
    }

    /// Builds an [`Error::Numerical`] with the given description.
    pub fn numerical(what: impl Into<String>) -> Self {
        Error::Numerical { what: what.into() }
    }

    /// Builds an [`Error::InvalidTrajectory`] with the given reason.
    pub(crate) fn trajectory(reason: impl Into<String>) -> Self {
        Error::InvalidTrajectory { reason: reason.into() }
    }

    /// Builds an [`Error::Domain`] with the given description.
    pub fn domain(what: impl Into<String>) -> Self {
        Error::Domain { what: what.into() }
    }

    /// Builds an [`Error::NonFinite`] for the named quantity.
    pub(crate) fn non_finite(what: impl Into<String>, value: f64) -> Self {
        Error::NonFinite { what: what.into(), value }
    }

    /// Checks that `value` is finite, reporting [`Error::NonFinite`]
    /// for the named quantity otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] when `value` is NaN or infinite.
    pub fn ensure_finite(what: &str, value: f64) -> Result<f64> {
        if value.is_finite() {
            Ok(value)
        } else {
            Err(Error::non_finite(what, value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = Error::invalid_params(3, 5, "n must exceed f");
        let text = err.to_string();
        assert!(text.contains("n = 3"));
        assert!(text.contains("f = 5"));
        assert!(text.contains("n must exceed f"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn beta_error_mentions_value() {
        let err = Error::InvalidBeta { beta: 0.5 };
        assert!(err.to_string().contains("0.5"));
    }

    #[test]
    fn helpers_build_expected_variants() {
        assert!(matches!(Error::numerical("x"), Error::Numerical { .. }));
        assert!(matches!(Error::trajectory("x"), Error::InvalidTrajectory { .. }));
        assert!(matches!(Error::domain("x"), Error::Domain { .. }));
        assert!(matches!(Error::non_finite("x", f64::NAN), Error::NonFinite { .. }));
    }

    #[test]
    fn ensure_finite_passes_numbers_and_rejects_nan() {
        assert_eq!(Error::ensure_finite("t", 2.5).unwrap(), 2.5);
        assert!(Error::ensure_finite("t", f64::NAN).is_err());
        assert!(Error::ensure_finite("t", f64::INFINITY).is_err());
        let err = Error::ensure_finite("latency", f64::INFINITY).unwrap_err();
        assert!(err.to_string().contains("latency"));
    }
}
