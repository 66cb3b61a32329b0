//! Target placement.

use faultline_core::{Error, Result};
use serde::{Deserialize, Serialize};

/// A target placed on the line at distance at least 1 from the origin
/// (the paper's standing assumption, Definition 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Target {
    position: f64,
}

impl Target {
    /// Places the target at `position`, `|position| >= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `|position| < 1` or non-finite.
    pub fn new(position: f64) -> Result<Self> {
        if !position.is_finite() || position.abs() < 1.0 {
            return Err(Error::domain(format!(
                "target must be at finite distance >= 1 from the origin, got {position}"
            )));
        }
        Ok(Target { position })
    }

    /// The target's position on the line.
    #[must_use]
    pub(crate) fn position(&self) -> f64 {
        self.position
    }

    /// The target's distance from the origin.
    #[must_use]
    pub fn distance(&self) -> f64 {
        self.position.abs()
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "target@{}", self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_both_sides() {
        assert_eq!(Target::new(2.5).unwrap().position(), 2.5);
        assert_eq!(Target::new(-7.0).unwrap().distance(), 7.0);
        assert_eq!(Target::new(1.0).unwrap().distance(), 1.0);
    }

    #[test]
    fn rejects_too_close_or_invalid() {
        assert!(Target::new(0.0).is_err());
        assert!(Target::new(0.5).is_err());
        assert!(Target::new(-0.99).is_err());
        assert!(Target::new(f64::NAN).is_err());
        assert!(Target::new(f64::INFINITY).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Target::new(-2.0).unwrap().to_string(), "target@-2");
    }
}
