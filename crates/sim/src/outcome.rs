//! Results of a simulated search run.

use serde::{Deserialize, Serialize};

use crate::event::Event;
use crate::robot::RobotId;
use crate::target::Target;

/// A single robot visit to the target's position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Visit {
    /// The visiting robot.
    pub robot: RobotId,
    /// The visit time.
    pub time: f64,
    /// Whether the visiting robot was reliable (and hence detected the
    /// target).
    pub reliable: bool,
}

/// Successful detection of the target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The first reliable robot to stand on the target.
    pub robot: RobotId,
    /// Search time: the arrival of that robot at the target.
    pub time: f64,
}

/// A timestamped detection claim, honest or Byzantine.
///
/// Under the claim-quorum layer every detection report becomes a claim:
/// honest robots claim the true target position when their sensor
/// fires, Byzantine robots claim arbitrary positions. The engine logs
/// at most one claim per `(robot, position)` pair — repeat assertions
/// add no voting weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// The claiming robot.
    pub robot: RobotId,
    /// When the claim was asserted.
    pub(crate) time: f64,
    /// The claimed target position.
    pub position: f64,
    /// Whether the claimed position is the true target — bookkeeping
    /// for oracles and reports; the voting layer never reads it.
    pub truthful: bool,
}

/// The complete outcome of a simulated search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The simulated target.
    pub(crate) target: Target,
    /// Detection, or `None` when no reliable robot reached the target
    /// before the horizon.
    pub detection: Option<Detection>,
    /// All visits to the target position up to (and including) the
    /// detection, in time order, first visit per robot only.
    pub visits: Vec<Visit>,
    /// The simulation horizon used.
    pub horizon: f64,
    /// Event trace, present when tracing was enabled.
    pub trace: Option<Vec<Event>>,
    /// Claim log: every first claim per `(robot, position)` pair, in
    /// time order. Populated only when the run involves Byzantine
    /// robots or a claim quorum; empty otherwise, and defaulted on
    /// deserialization so pre-quorum trace documents still load.
    #[serde(default)]
    pub claims: Vec<Claim>,
    /// The position confirmed by the claim quorum, when one was
    /// configured and reached. Always the detection position; recorded
    /// separately so oracles can assert no *false* position was ever
    /// confirmed.
    #[serde(default)]
    pub confirmed_position: Option<f64>,
}

impl SearchOutcome {
    /// The achieved ratio `search time / target distance`, infinite
    /// when the target was never detected.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        match &self.detection {
            Some(d) => d.time / self.target.distance(),
            None => f64::INFINITY,
        }
    }

    /// Number of distinct robots that visited the target before (or at)
    /// detection.
    #[must_use]
    pub fn distinct_visitors(&self) -> usize {
        self.visits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_detected_outcome() {
        let outcome = SearchOutcome {
            target: Target::new(-4.0).unwrap(),
            detection: Some(Detection { robot: RobotId(1), time: 10.0 }),
            visits: vec![
                Visit { robot: RobotId(0), time: 8.0, reliable: false },
                Visit { robot: RobotId(1), time: 10.0, reliable: true },
            ],
            horizon: 100.0,
            trace: None,
            claims: vec![],
            confirmed_position: None,
        };
        assert_eq!(outcome.ratio(), 2.5);
        assert!(outcome.detection.is_some());
        assert_eq!(outcome.distinct_visitors(), 2);
    }

    #[test]
    fn undetected_outcome_has_infinite_ratio() {
        let outcome = SearchOutcome {
            target: Target::new(5.0).unwrap(),
            detection: None,
            visits: vec![],
            horizon: 10.0,
            trace: None,
            claims: vec![],
            confirmed_position: None,
        };
        assert!(outcome.ratio().is_infinite());
        assert!(outcome.detection.is_none());
    }
}
