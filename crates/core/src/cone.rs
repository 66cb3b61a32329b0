//! The cone `C_beta` (Definition 1, Figure 2) and its turning-point
//! geometry (Lemma 1).
//!
//! For a fixed `beta > 1`, the cone `C_beta` is the region of the
//! space–time half-plane delimited by the lines `t = beta * x` for
//! `x >= 0` and `t = -beta * x` for `x < 0`. A robot zig-zagging inside
//! the cone at unit speed reverses direction exactly on the boundary;
//! Lemma 1 shows its turning points form a geometric sequence with
//! *expansion factor* `kappa = (beta + 1) / (beta - 1)` and alternating
//! sign.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::spacetime::SpaceTime;

/// The cone `C_beta` for some `beta > 1`.
///
/// ```
/// use faultline_core::Cone;
/// let cone = Cone::new(3.0)?; // doubling: kappa = 2
/// assert_eq!(cone.expansion_factor(), 2.0);
/// let next = cone.next_turning_point(cone.boundary_point(1.0));
/// assert_eq!((next.x, next.t), (-2.0, 6.0));
/// # Ok::<(), faultline_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Cone {
    beta: f64,
}

// Deserialization re-validates `beta > 1`.
impl<'de> Deserialize<'de> for Cone {
    fn deserialize<D>(deserializer: D) -> std::result::Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            beta: f64,
        }
        let raw = Raw::deserialize(deserializer)?;
        Cone::new(raw.beta).map_err(serde::de::Error::custom)
    }
}

impl Cone {
    /// Creates the cone `C_beta`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBeta`] unless `beta` is finite and
    /// strictly greater than 1.
    pub fn new(beta: f64) -> Result<Self> {
        if !beta.is_finite() || beta <= 1.0 {
            return Err(Error::InvalidBeta { beta });
        }
        Ok(Cone { beta })
    }

    /// The slope parameter `beta`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The expansion factor `kappa = (beta + 1) / (beta - 1)` of zig-zag
    /// strategies confined to this cone (Lemma 1).
    #[must_use]
    pub fn expansion_factor(&self) -> f64 {
        (self.beta + 1.0) / (self.beta - 1.0)
    }

    /// Inverse of [`Cone::expansion_factor`]: recovers the cone from a
    /// desired expansion factor `kappa > 1` (`beta = (kappa + 1)/(kappa - 1)`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBeta`] when `kappa <= 1` or non-finite.
    pub fn from_expansion_factor(kappa: f64) -> Result<Self> {
        if !kappa.is_finite() || kappa <= 1.0 {
            return Err(Error::InvalidBeta { beta: f64::NAN });
        }
        Cone::new((kappa + 1.0) / (kappa - 1.0))
    }

    /// The boundary time `beta * |x|` at which a turning point at
    /// position `x` occurs.
    #[must_use]
    pub fn boundary_time(&self, x: f64) -> f64 {
        self.beta * x.abs()
    }

    /// The boundary point `(x, beta * |x|)` above position `x`.
    #[must_use]
    pub fn boundary_point(&self, x: f64) -> SpaceTime {
        SpaceTime::new(x, self.boundary_time(x))
    }

    /// Whether the space–time point lies inside (or on) the cone.
    #[must_use]
    pub fn contains(&self, p: SpaceTime) -> bool {
        p.t >= self.boundary_time(p.x)
    }

    /// Whether the point lies on the cone boundary up to relative
    /// tolerance `tol`.
    #[must_use]
    pub fn on_boundary(&self, p: SpaceTime, tol: f64) -> bool {
        crate::numeric::approx_eq(p.t, self.boundary_time(p.x), tol)
    }

    /// The turning point following `p` for a robot zig-zagging in the
    /// cone: position `-kappa * p.x` reached at the corresponding
    /// boundary time.
    ///
    /// `p` is assumed to be a boundary point with `p.x != 0`; the
    /// geometry (travel at unit speed towards the opposite boundary)
    /// then yields the next reflection (Lemma 1).
    #[must_use]
    pub fn next_turning_point(&self, p: SpaceTime) -> SpaceTime {
        let x = -self.expansion_factor() * p.x;
        self.boundary_point(x)
    }

    /// The turning point preceding `p`: position `-p.x / kappa`.
    ///
    /// Extending a zig-zag movement "backwards in the time interval
    /// `(0, t_0)` by any number of steps" is exactly the construction of
    /// Definition 4.
    #[must_use]
    pub fn previous_turning_point(&self, p: SpaceTime) -> SpaceTime {
        let x = -p.x / self.expansion_factor();
        self.boundary_point(x)
    }
}

impl std::fmt::Display for Cone {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "C_beta(beta = {}, kappa = {})", self.beta, self.expansion_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    #[test]
    fn rejects_invalid_beta() {
        assert!(Cone::new(1.0).is_err());
        assert!(Cone::new(0.5).is_err());
        assert!(Cone::new(f64::NAN).is_err());
        assert!(Cone::new(f64::INFINITY).is_err());
    }

    #[test]
    fn doubling_cone_has_kappa_two() {
        let cone = Cone::new(3.0).unwrap();
        assert_eq!(cone.expansion_factor(), 2.0);
    }

    #[test]
    fn expansion_factor_roundtrip() {
        for kappa in [1.5, 2.0, 4.0, 12.0, 42.0] {
            let cone = Cone::from_expansion_factor(kappa).unwrap();
            assert!(approx_eq(cone.expansion_factor(), kappa, 1e-12));
        }
        assert!(Cone::from_expansion_factor(1.0).is_err());
        assert!(Cone::from_expansion_factor(0.9).is_err());
    }

    #[test]
    fn containment() {
        let cone = Cone::new(2.0).unwrap();
        assert!(cone.contains(SpaceTime::new(1.0, 2.0)));
        assert!(cone.contains(SpaceTime::new(1.0, 5.0)));
        assert!(cone.contains(SpaceTime::new(-1.0, 2.0)));
        assert!(!cone.contains(SpaceTime::new(1.0, 1.9)));
        assert!(cone.contains(SpaceTime::origin()));
    }

    #[test]
    fn next_turning_point_alternates_sides() {
        let cone = Cone::new(5.0 / 3.0).unwrap(); // A(3,1): kappa = 4
        assert!(approx_eq(cone.expansion_factor(), 4.0, 1e-12));
        let p0 = cone.boundary_point(1.0);
        let p1 = cone.next_turning_point(p0);
        let p2 = cone.next_turning_point(p1);
        assert!(approx_eq(p1.x, -4.0, 1e-12));
        assert!(approx_eq(p2.x, 16.0, 1e-12));
        // Unit-speed check between consecutive reflections.
        assert!(approx_eq(p0.speed_to(&p1).unwrap(), 1.0, 1e-12));
        assert!(approx_eq(p1.speed_to(&p2).unwrap(), 1.0, 1e-12));
    }

    #[test]
    fn previous_inverts_next() {
        let cone = Cone::new(2.4).unwrap();
        let p = cone.boundary_point(-3.0);
        let q = cone.previous_turning_point(cone.next_turning_point(p));
        assert!(approx_eq(q.x, p.x, 1e-12));
        assert!(approx_eq(q.t, p.t, 1e-12));
    }

    #[test]
    fn lemma1_power_formula() {
        // x_i = x0 * kappa^i * (-1)^i
        let cone = Cone::new(3.0).unwrap();
        let mut p = cone.boundary_point(1.0);
        for i in 0..15 {
            let expect = (2.0_f64).powi(i) * if i % 2 == 0 { 1.0 } else { -1.0 };
            assert!(approx_eq(p.x, expect, 1e-9), "i = {i}: {} vs {expect}", p.x);
            p = cone.next_turning_point(p);
        }
    }

    #[test]
    fn boundary_point_is_on_boundary() {
        let cone = Cone::new(1.7).unwrap();
        assert!(cone.on_boundary(cone.boundary_point(-2.5), 1e-12));
        assert!(!cone.on_boundary(SpaceTime::new(-2.5, 100.0), 1e-12));
    }
}
