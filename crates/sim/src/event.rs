//! Discrete events of the simulated search, and the order in which a
//! run fires them.

use serde::{Deserialize, Serialize};

use crate::robot::RobotId;

/// A discrete event in the simulated search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation time at which the event fires.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of events produced while simulating a search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A robot reversed its direction of motion at the given position.
    Turned {
        /// The turning robot.
        robot: RobotId,
        /// Position of the turning point.
        x: f64,
    },
    /// A robot stood on the target's position.
    TargetVisited {
        /// The visiting robot.
        robot: RobotId,
    },
    /// A robot's sensor report for a target visit arrived (for healthy
    /// robots this coincides with the visit; delayed sensors report
    /// later). The first such event is the detection.
    Registered {
        /// The reporting robot.
        robot: RobotId,
    },
    /// A **reliable** robot stood on the target: the search succeeds.
    Detected {
        /// The detecting robot.
        robot: RobotId,
    },
    /// A Byzantine robot asserted a (possibly false) detection claim at
    /// position `x`. Claims feed the quorum layer
    /// ([`crate::engine::QuorumConfig`]); a lone claim never terminates
    /// the search.
    ClaimAsserted {
        /// The claiming robot.
        robot: RobotId,
        /// The claimed target position.
        x: f64,
    },
    /// The simulation horizon was reached without detection.
    HorizonReached,
}

/// Puts a run's events in firing order: by time, and among events at
/// the same time in the order they were scheduled (the sort is
/// stable), so a visit fires before the report scheduled right after
/// it.
pub(crate) fn in_firing_order(events: &mut [Event]) {
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64) -> Event {
        Event { time, kind: EventKind::HorizonReached }
    }

    #[test]
    fn pops_in_time_order() {
        let mut events = vec![ev(3.0), ev(1.0), ev(2.0), ev(-0.0), ev(0.0)];
        in_firing_order(&mut events);
        let times: Vec<f64> = events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![-0.0, 0.0, 1.0, 2.0, 3.0]);
        assert!(times[0].is_sign_negative(), "total order: -0.0 fires before 0.0");
    }

    #[test]
    fn ties_are_fifo() {
        let (a, b) = (RobotId(0), RobotId(1));
        let mut events = vec![
            Event { time: 1.0, kind: EventKind::Turned { robot: b, x: 0.0 } },
            Event { time: 2.0, kind: EventKind::TargetVisited { robot: a } },
            Event { time: 2.0, kind: EventKind::Registered { robot: a } },
            Event { time: 1.0, kind: EventKind::Turned { robot: a, x: 0.0 } },
            Event { time: 2.0, kind: EventKind::TargetVisited { robot: b } },
        ];
        in_firing_order(&mut events);
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Turned { robot: b, x: 0.0 },
                EventKind::Turned { robot: a, x: 0.0 },
                EventKind::TargetVisited { robot: a },
                EventKind::Registered { robot: a },
                EventKind::TargetVisited { robot: b },
            ]
        );
    }
}
