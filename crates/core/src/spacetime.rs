//! Space–time points and segments: the 2D representation `(x, t)` of
//! robot motion used throughout the paper (Section 2, Figure 1).

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// A point `(x, t)` in the space–time half-plane: position `x` on the
/// line at time `t >= 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpaceTime {
    /// Position on the infinite line.
    pub x: f64,
    /// Time at which the position is occupied.
    pub t: f64,
}

impl SpaceTime {
    /// Creates a space–time point.
    #[must_use]
    pub fn new(x: f64, t: f64) -> Self {
        SpaceTime { x, t }
    }

    /// The shared starting configuration: the origin at time zero.
    #[must_use]
    pub(crate) fn origin() -> Self {
        SpaceTime { x: 0.0, t: 0.0 }
    }

    /// Returns `true` if both coordinates are finite.
    #[must_use]
    pub(crate) fn is_finite(&self) -> bool {
        self.x.is_finite() && self.t.is_finite()
    }
}

impl std::fmt::Display for SpaceTime {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "(x = {}, t = {})", self.x, self.t)
    }
}

/// An oriented space–time segment travelled at constant velocity.
///
/// Robots move at maximum speed 1, so valid motion segments satisfy
/// `|b.x - a.x| <= (b.t - a.t)`; a slope of exactly ±1 is a full-speed
/// sweep, smaller slopes are slow or waiting moves (used by the initial
/// legs of Definition 4, which travel at speed `1/beta`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Segment {
    /// Start point.
    pub(crate) a: SpaceTime,
    /// End point; must be strictly later than `a`.
    pub(crate) b: SpaceTime,
}

impl Segment {
    /// Creates a segment for a robot whose maximum speed is `max_speed`
    /// instead of the paper's unit bound — the heterogeneous-speed
    /// scenario generalization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTrajectory`] if `b.t <= a.t`, the speed
    /// exceeds `max_speed` (with the same relative tolerance), or
    /// `max_speed` is not finite and positive.
    pub(crate) fn with_speed_limit(a: SpaceTime, b: SpaceTime, max_speed: f64) -> Result<Self> {
        if !(max_speed > 0.0) || !max_speed.is_finite() {
            return Err(Error::trajectory(format!(
                "speed limit must be finite and positive, got {max_speed}"
            )));
        }
        if !a.is_finite() || !b.is_finite() {
            return Err(Error::trajectory("segment endpoints must be finite"));
        }
        if b.t <= a.t {
            return Err(Error::trajectory(format!(
                "segment must advance in time: a.t = {}, b.t = {}",
                a.t, b.t
            )));
        }
        let speed = (b.x - a.x).abs() / (b.t - a.t);
        if speed > max_speed * (1.0 + crate::trajectory::SPEED_TOLERANCE) {
            return Err(Error::trajectory(format!(
                "segment speed {speed} exceeds the maximum speed {max_speed}"
            )));
        }
        Ok(Segment { a, b })
    }

    /// Duration `Δt` of the segment.
    #[must_use]
    pub(crate) fn duration(&self) -> f64 {
        self.b.t - self.a.t
    }

    /// Signed displacement `Δx` of the segment.
    #[must_use]
    pub(crate) fn displacement(&self) -> f64 {
        self.b.x - self.a.x
    }

    /// Constant speed along the segment.
    #[must_use]
    pub(crate) fn speed(&self) -> f64 {
        self.displacement().abs() / self.duration()
    }

    /// Position at time `t`, or `None` if `t` lies outside `[a.t, b.t]`.
    #[must_use]
    pub(crate) fn position_at(&self, t: f64) -> Option<f64> {
        if t < self.a.t || t > self.b.t {
            return None;
        }
        let lambda = (t - self.a.t) / self.duration();
        Some(self.a.x + lambda * self.displacement())
    }

    /// Earliest time within the segment at which position `x` is
    /// occupied, or `None` when the segment does not cross `x`.
    #[must_use]
    pub(crate) fn visit_time(&self, x: f64) -> Option<f64> {
        let (xa, xb) = (self.a.x, self.b.x);
        if (x - xa) * (x - xb) > 0.0 {
            return None; // strictly outside the swept interval
        }
        if xa == xb {
            // Stationary (or zero-displacement) segment sitting on x.
            return (x == xa).then_some(self.a.t);
        }
        let lambda = (x - xa) / (xb - xa);
        Some(self.a.t + lambda * self.duration())
    }
}

#[cfg(test)]
impl SpaceTime {
    /// Average speed needed to travel from `self` to `other`
    /// (`|Δx| / Δt`). Returns `None` when `other` is not strictly later.
    #[must_use]
    pub(crate) fn speed_to(&self, other: &SpaceTime) -> Option<f64> {
        (other.t > self.t).then(|| (other.x - self.x).abs() / (other.t - self.t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, at: f64, bx: f64, bt: f64) -> Segment {
        Segment::with_speed_limit(SpaceTime::new(ax, at), SpaceTime::new(bx, bt), 1.0).unwrap()
    }

    #[test]
    fn origin_is_zero() {
        let o = SpaceTime::origin();
        assert_eq!((o.x, o.t), (0.0, 0.0));
    }

    #[test]
    fn speed_to_requires_later_time() {
        let a = SpaceTime::new(0.0, 0.0);
        let b = SpaceTime::new(2.0, 4.0);
        assert_eq!(a.speed_to(&b), Some(0.5));
        assert_eq!(b.speed_to(&a), None);
    }

    #[test]
    fn rejects_superluminal_segment() {
        let a = SpaceTime::new(0.0, 0.0);
        let b = SpaceTime::new(2.0, 1.0);
        assert!(Segment::with_speed_limit(a, b, 1.0).is_err());
    }

    #[test]
    fn rejects_time_reversal_and_zero_duration() {
        let a = SpaceTime::new(0.0, 1.0);
        assert!(Segment::with_speed_limit(a, SpaceTime::new(0.0, 1.0), 1.0).is_err());
        assert!(Segment::with_speed_limit(a, SpaceTime::new(0.0, 0.5), 1.0).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        let a = SpaceTime::new(f64::NAN, 0.0);
        assert!(Segment::with_speed_limit(a, SpaceTime::new(0.0, 1.0), 1.0).is_err());
    }

    #[test]
    fn position_interpolates_linearly() {
        let s = seg(0.0, 0.0, -4.0, 4.0);
        assert_eq!(s.position_at(2.0), Some(-2.0));
        assert_eq!(s.position_at(0.0), Some(0.0));
        assert_eq!(s.position_at(4.0), Some(-4.0));
        assert_eq!(s.position_at(4.1), None);
    }

    #[test]
    fn visit_time_finds_crossing() {
        let s = seg(1.0, 3.0, -1.0, 5.0);
        assert_eq!(s.visit_time(0.0), Some(4.0));
        assert_eq!(s.visit_time(1.0), Some(3.0));
        assert_eq!(s.visit_time(-1.0), Some(5.0));
        assert_eq!(s.visit_time(1.5), None);
    }

    #[test]
    fn stationary_segment_visits_only_its_position() {
        let s = seg(2.0, 0.0, 2.0, 5.0);
        assert_eq!(s.visit_time(2.0), Some(0.0));
        assert_eq!(s.visit_time(2.1), None);
        assert_eq!(s.speed(), 0.0);
    }

    #[test]
    fn slow_segments_are_allowed() {
        // Initial legs of Definition 4 move at speed 1/beta < 1.
        let s = seg(0.0, 0.0, 1.0, 3.0);
        assert!((s.speed() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn speed_limit_admits_fast_robots_and_still_validates() {
        let a = SpaceTime::new(0.0, 0.0);
        let b = SpaceTime::new(2.0, 1.0);
        // Speed 2 is superluminal for the paper but fine for a
        // heterogeneous-speed scenario robot with max_speed 2.
        assert!(Segment::with_speed_limit(a, b, 1.0).is_err());
        let s = Segment::with_speed_limit(a, b, 2.0).unwrap();
        assert_eq!(s.speed(), 2.0);
        assert!(Segment::with_speed_limit(a, SpaceTime::new(2.5, 1.0), 2.0).is_err());
        // The limit itself is validated.
        assert!(Segment::with_speed_limit(a, b, 0.0).is_err());
        assert!(Segment::with_speed_limit(a, b, f64::NAN).is_err());
        // Time monotonicity still holds under any limit.
        assert!(Segment::with_speed_limit(b, a, 5.0).is_err());
    }
}
