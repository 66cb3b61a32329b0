//! The discrete-event simulation engine.
//!
//! The engine takes materialized trajectories, a target, and a fault
//! assignment; it derives the discrete events of the run (target
//! visits, sensor reports and false claims, plus turning points when a
//! trace is recorded), processes them in time order, and reports the
//! search outcome. Detection follows the paper's rule: the search
//! succeeds the moment the first working sensor reports the target.
//!
//! Faults are injected at construction: each robot's trajectory is
//! compiled into an *effective visit schedule* — the times it
//! physically stands on the target, and for each such visit whether
//! (and when) its sensor report arrives. The paper's permanent sensor
//! fault drops every report; the extended taxonomy
//! ([`crate::fault::FaultKind`]) can drop individual visits
//! (intermittent), postpone reports (delayed), dilate the whole
//! schedule (speed-degraded), report each visit only with probability
//! `p` (p-faulty), or assert *false* detections (Byzantine). The event
//! loop itself is fault-agnostic.
//!
//! ## The claim-quorum layer
//!
//! With Byzantine robots in the fleet a single report can no longer be
//! trusted: detections become timestamped *claims* and the search
//! terminates only when [`QuorumConfig::votes`] distinct robots have
//! claimed the same position. Honest reports claim the true target;
//! Byzantine robots inject claims at seeded positions. In the canonical
//! `n >= 2f + 1` regime with quorum `f + 1`, at least one honest robot
//! backs every confirmed position, so a lone liar can neither end the
//! run early nor confirm a false location.

use std::collections::{BTreeMap, BTreeSet};

use faultline_core::{Error, PiecewiseTrajectory, Result};
use serde::{Deserialize, Serialize};

use crate::event::{in_firing_order, Event, EventKind};
use crate::fault::{FaultKind, FaultPlan};
use crate::outcome::{Claim, Detection, SearchOutcome, Visit};
use crate::robot::RobotId;
use crate::target::Target;

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Record the full event trace in the outcome.
    pub record_trace: bool,
    /// Stop processing at the first detection (default). When `false`,
    /// the run continues to the horizon and collects every robot's
    /// first visit — useful for measuring `T_k` for several `k` at once.
    pub stop_at_detection: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { record_trace: false, stop_at_detection: true }
    }
}

/// Claim-quorum configuration: the search confirms a position (and the
/// run counts as a detection) only once `votes` distinct robots have
/// claimed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuorumConfig {
    /// Number of distinct claimants required to confirm a position.
    pub votes: usize,
}

impl QuorumConfig {
    /// A quorum requiring `votes` distinct claimants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `votes` is zero — a zero-vote
    /// quorum would confirm every position unconditionally.
    pub fn new(votes: usize) -> Result<Self> {
        let q = QuorumConfig { votes };
        q.validate()?;
        Ok(q)
    }

    /// The canonical Byzantine quorum: with `f` liars among
    /// `n >= 2f + 1` robots, `f + 1` matching claims guarantee at least
    /// one honest backer, and the `f + 1` honest robots that genuinely
    /// visit the target always suffice to confirm it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when `n < 2f + 1`.
    pub fn byzantine(n: usize, f: usize) -> Result<Self> {
        if n < 2 * f + 1 {
            return Err(Error::invalid_params(
                n,
                f,
                format!("the Byzantine quorum regime needs n >= 2f + 1, got n = {n}, f = {f}"),
            ));
        }
        QuorumConfig::new(f + 1)
    }

    /// Validates the configuration (deserialized values included).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `votes` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.votes == 0 {
            return Err(Error::domain("a claim quorum needs at least one vote"));
        }
        Ok(())
    }
}

/// Seed salt separating Byzantine lie coins from sensor-miss coins: a
/// robot that is re-planned from `Intermittent` to `Byzantine` under
/// the same seed must not reuse the same coin stream.
const BYZANTINE_STREAM: u64 = 0x42D9_C339_7F6A_1B2D;

/// Deterministic coin in `[0, 1)` for intermittent-sensor decisions,
/// keyed by `(seed, robot, visit index)` so identical runs replay
/// bit-for-bit without threading an RNG through the engine.
/// (splitmix64 finalizer over the xor-combined key.)
fn fault_coin(seed: u64, robot: usize, visit: usize) -> f64 {
    let mut z = seed
        ^ (robot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (visit as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// A fully configured simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation {
    /// Every event the run can fire, in firing order: by time, and in
    /// scheduling order among events at the same time.
    events: Vec<Event>,
    /// Per robot, whether its sensor reports its first visit to the
    /// target within the horizon (`None` when it never visits).
    first_reports: Vec<Option<bool>>,
    target: Target,
    config: SimConfig,
    horizon: f64,
    quorum: Option<QuorumConfig>,
    /// Whether the outcome carries a claim log: true when a quorum is
    /// configured or the plan contains Byzantine robots; false keeps
    /// legacy runs bit-for-bit identical to earlier trace versions.
    log_claims: bool,
}

impl Simulation {
    /// Builds a simulation from materialized trajectories, a target, a
    /// fault plan (one [`FaultKind`] per robot), per-robot fault
    /// *onsets*, a coin seed, the engine configuration and an optional
    /// claim quorum.
    ///
    /// * `onsets`: robot `i`'s sensor behaves as [`FaultKind::Reliable`]
    ///   strictly before `onsets[i]` and switches to its planned kind
    ///   from that time on (Byzantine robots start lying only at
    ///   onset). `None` entries, or an empty slice, mean the fault is
    ///   present from the start. Onsets modulate *sensor* behaviour
    ///   only; a [`FaultKind::SpeedDegraded`] robot's time dilation is a
    ///   property of its motion and always applies from the start
    ///   (scenario-level validation rejects that combination as
    ///   meaningless).
    /// * `seed` drives the per-visit coins of intermittent and p-faulty
    ///   sensors and the lie coins of Byzantine robots (and nothing
    ///   else); two simulations built from identical inputs produce
    ///   bit-for-bit identical outcomes.
    /// * `quorum`: the search confirms a position only when that many
    ///   distinct robots have claimed it. `None` is the paper's
    ///   first-report rule.
    ///
    /// Turning points change no outcome, so they are scheduled only
    /// when `config` records a trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when the fleet is empty, or
    /// the plan or a non-empty onset slice does not cover the fleet;
    /// [`Error::NonFinite`] when the fleet horizon is not a number; and
    /// [`Error::Domain`] for a zero-vote quorum, a non-finite or
    /// negative onset time, or a horizon that is not strictly positive
    /// (a zero-length search cannot visit anything).
    pub fn new(
        trajectories: &[PiecewiseTrajectory],
        target: Target,
        plan: &FaultPlan,
        onsets: &[Option<f64>],
        seed: u64,
        config: SimConfig,
        quorum: Option<QuorumConfig>,
    ) -> Result<Self> {
        if let Some(q) = quorum {
            q.validate()?;
        }
        if !onsets.is_empty() && onsets.len() != trajectories.len() {
            return Err(Error::invalid_params(
                trajectories.len(),
                0,
                format!(
                    "fault onsets cover {} robots but the fleet has {}",
                    onsets.len(),
                    trajectories.len()
                ),
            ));
        }
        for onset in onsets.iter().flatten() {
            if !onset.is_finite() || *onset < 0.0 {
                return Err(Error::domain(format!(
                    "fault onset times must be finite and non-negative, got {onset}"
                )));
            }
        }
        if trajectories.is_empty() {
            return Err(Error::invalid_params(0, 0, "simulation needs at least one robot"));
        }
        if plan.len() != trajectories.len() {
            return Err(Error::invalid_params(
                trajectories.len(),
                plan.fault_count(),
                format!(
                    "fault plan covers {} robots but the fleet has {}",
                    plan.len(),
                    trajectories.len()
                ),
            ));
        }
        // A speed-degraded robot traverses the same path at `factor`
        // times unit speed, so all its times dilate by `1 / factor` —
        // including its own horizon.
        let time_scale = |kind: FaultKind| match kind {
            FaultKind::SpeedDegraded { factor } => 1.0 / factor,
            _ => 1.0,
        };
        let horizon = trajectories
            .iter()
            .enumerate()
            .map(|(i, t)| t.horizon() * time_scale(plan.kind(RobotId(i))))
            .fold(f64::INFINITY, f64::min);
        let horizon = Error::ensure_finite("fleet horizon", horizon)?;
        if !(horizon > 0.0) {
            return Err(Error::domain(format!(
                "fleet horizon must be strictly positive, got {horizon}"
            )));
        }
        let x = target.position();
        let log_claims = quorum.is_some() || plan.byzantine_count() > 0;
        let mut events = Vec::new();
        let mut first_reports = Vec::with_capacity(trajectories.len());
        for (i, traj) in trajectories.iter().enumerate() {
            let robot = RobotId(i);
            let kind = plan.kind(robot);
            let scale = time_scale(kind);
            // Strictly before its onset the robot's sensor is healthy;
            // with no onset the fault is always engaged.
            let onset = onsets.get(i).copied().flatten().unwrap_or(f64::NEG_INFINITY);
            if config.record_trace {
                for p in traj.turning_points() {
                    let t = p.t * scale;
                    if t <= horizon {
                        events.push(Event { time: t, kind: EventKind::Turned { robot, x: p.x } });
                    }
                }
            }
            let visits = traj.visits(x);
            events.reserve(2 * visits.len());
            let mut first_report = None;
            for (k, t) in visits.into_iter().enumerate() {
                let t = t * scale;
                if t > horizon {
                    break; // visits come in time order
                }
                let report = if t < onset {
                    // Pre-onset visits report like a healthy sensor,
                    // whatever the planned fault kind.
                    Some(t)
                } else {
                    match kind {
                        FaultKind::Sensor | FaultKind::Byzantine { .. } => None,
                        FaultKind::Intermittent { miss_probability } => {
                            (fault_coin(seed, i, k) >= miss_probability).then_some(t)
                        }
                        FaultKind::PFaulty { detect_probability } => {
                            (fault_coin(seed, i, k) < detect_probability).then_some(t)
                        }
                        FaultKind::Delayed { latency } => {
                            let arrival = t + latency;
                            (arrival <= horizon).then_some(arrival)
                        }
                        FaultKind::Reliable | FaultKind::SpeedDegraded { .. } => Some(t),
                    }
                };
                first_report.get_or_insert(report.is_some());
                // A report is scheduled right after its visit, so at
                // equal times the visit is recorded first and the
                // report then fires detection, matching the paper's
                // "detect the instant a working robot stands on the
                // target".
                events.push(Event { time: t, kind: EventKind::TargetVisited { robot } });
                if let Some(report) = report {
                    events.push(Event { time: report, kind: EventKind::Registered { robot } });
                }
            }
            first_reports.push(first_report);
            // A Byzantine robot moves honestly but lies: at each of its
            // waypoints (turning points plus the trajectory's
            // endpoints, so even a straight path offers lie
            // opportunities) an independent seeded coin, on its own
            // stream, decides whether it asserts the point's position
            // as a false detection.
            if let FaultKind::Byzantine { lie_rate } = kind {
                for (k, p) in traj.waypoints().iter().enumerate() {
                    if p.t <= horizon
                        && p.t >= onset
                        && fault_coin(seed ^ BYZANTINE_STREAM, i, k) < lie_rate
                    {
                        let kind = EventKind::ClaimAsserted { robot, x: p.x };
                        events.push(Event { time: p.t, kind });
                    }
                }
            }
        }
        events.push(Event { time: horizon, kind: EventKind::HorizonReached });
        in_firing_order(&mut events);
        Ok(Simulation { events, first_reports, target, config, horizon, quorum, log_claims })
    }

    /// The common horizon (earliest trajectory end).
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Runs the simulation to detection (or to the horizon) and returns
    /// the outcome.
    #[must_use]
    pub fn run(self) -> SearchOutcome {
        let Simulation { events, mut first_reports, target, config, horizon, quorum, log_claims } =
            self;
        let target_position = target.position();
        let mut trace: Vec<Event> =
            if config.record_trace { Vec::with_capacity(events.len() + 1) } else { Vec::new() };
        let mut visits: Vec<Visit> = Vec::new();
        let mut detection: Option<Detection> = None;
        let mut claims: Vec<Claim> = Vec::new();
        // Distinct claimants per claimed position (keyed by the f64's
        // bits: claims vote for a position only on exact agreement).
        let mut ballots: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        let mut confirmed: Option<f64> = None;

        // Registers a claim, tallies it, and reports whether it
        // completes the quorum at its position.
        let cast_claim = |robot: RobotId,
                          time: f64,
                          position: f64,
                          claims: &mut Vec<Claim>,
                          ballots: &mut BTreeMap<u64, BTreeSet<usize>>|
         -> bool {
            let backers = ballots.entry(position.to_bits()).or_default();
            if !backers.insert(robot.0) {
                return false; // repeat claims add no voting weight
            }
            claims.push(Claim { robot, time, position, truthful: position == target_position });
            quorum.is_some_and(|q| backers.len() >= q.votes)
        };

        for event in events {
            if config.record_trace {
                trace.push(event);
            }
            match event.kind {
                EventKind::TargetVisited { robot } => {
                    // Only the first visit per robot counts; its flag
                    // records whether the sensor reported that visit.
                    if let Some(reliable) = first_reports[robot.0].take() {
                        visits.push(Visit { robot, time: event.time, reliable });
                    }
                }
                EventKind::Registered { robot } => {
                    // An honest report claims the true target position.
                    let completes_quorum = log_claims
                        && cast_claim(
                            robot,
                            event.time,
                            target_position,
                            &mut claims,
                            &mut ballots,
                        );
                    let detects = match quorum {
                        // Quorum engaged: a report only counts through
                        // its claim.
                        Some(_) => completes_quorum,
                        // Legacy rule: the first report is the detection.
                        None => true,
                    };
                    if detects && detection.is_none() {
                        detection = Some(Detection { robot, time: event.time });
                        if quorum.is_some() {
                            confirmed = Some(target_position);
                        }
                        if config.record_trace {
                            trace.push(Event {
                                time: event.time,
                                kind: EventKind::Detected { robot },
                            });
                        }
                        if config.stop_at_detection {
                            break;
                        }
                    }
                }
                EventKind::ClaimAsserted { robot, x } => {
                    let completes_quorum =
                        cast_claim(robot, event.time, x, &mut claims, &mut ballots);
                    if completes_quorum && detection.is_none() {
                        detection = Some(Detection { robot, time: event.time });
                        confirmed = Some(x);
                        if config.record_trace {
                            trace.push(Event {
                                time: event.time,
                                kind: EventKind::Detected { robot },
                            });
                        }
                        if config.stop_at_detection {
                            break;
                        }
                    }
                }
                // Turning points only show in the trace, and detections
                // are emitted, never scheduled.
                EventKind::Turned { .. } | EventKind::Detected { .. } => {}
                EventKind::HorizonReached => break,
            }
        }

        SearchOutcome {
            target,
            detection,
            visits,
            horizon,
            trace: config.record_trace.then_some(trace),
            claims,
            confirmed_position: confirmed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::TrajectoryBuilder;

    fn straight(to: f64) -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap()
    }

    fn sim(
        trajectories: Vec<PiecewiseTrajectory>,
        target: f64,
        faulty: &[usize],
        config: SimConfig,
    ) -> SearchOutcome {
        let plan = FaultPlan::sensor_faults(trajectories.len(), faulty).unwrap();
        Simulation::new(&trajectories, Target::new(target).unwrap(), &plan, &[], 0, config, None)
            .unwrap()
            .run()
    }

    #[test]
    fn reliable_robot_detects_on_arrival() {
        let outcome = sim(vec![straight(5.0)], 3.0, &[], SimConfig::default());
        let d = outcome.detection.unwrap();
        assert_eq!(d.time, 3.0);
        assert_eq!(d.robot, RobotId(0));
        assert_eq!(outcome.ratio(), 1.0);
    }

    #[test]
    fn faulty_robot_does_not_detect() {
        let outcome = sim(vec![straight(5.0)], 3.0, &[0], SimConfig::default());
        assert!(!outcome.detected());
        assert!(outcome.ratio().is_infinite());
        // The faulty robot's visit is still recorded.
        assert_eq!(outcome.visits.len(), 1);
        assert!(!outcome.visits[0].reliable);
    }

    #[test]
    fn detection_waits_for_first_reliable_visitor() {
        // Robot 0 (faulty) arrives at t = 3; robot 1 (reliable) dawdles
        // and arrives at t = 7. Both trajectories extend past t = 7 so
        // the common (minimum) horizon covers the late visit.
        let slow = TrajectoryBuilder::from_origin().sweep_to(-2.0).sweep_to(4.0).finish().unwrap();
        let outcome = sim(vec![straight(9.0), slow], 3.0, &[0], SimConfig::default());
        let d = outcome.detection.unwrap();
        assert_eq!(d.robot, RobotId(1));
        assert_eq!(d.time, 7.0);
        assert_eq!(outcome.distinct_visitors(), 2);
    }

    #[test]
    fn stop_at_detection_truncates_visits() {
        let outcome = sim(vec![straight(5.0), straight(5.0)], 2.0, &[], SimConfig::default());
        // Both robots arrive simultaneously but the run stops at the
        // first reliable visit.
        assert_eq!(outcome.distinct_visitors(), 1);
    }

    #[test]
    fn run_to_horizon_collects_all_visits() {
        let cfg = SimConfig { record_trace: false, stop_at_detection: false };
        let outcome = sim(vec![straight(5.0), straight(5.0)], 2.0, &[], cfg);
        assert_eq!(outcome.distinct_visitors(), 2);
    }

    #[test]
    fn trace_records_turning_and_detection_events() {
        let zigzag =
            TrajectoryBuilder::from_origin().sweep_to(2.0).sweep_to(-4.0).finish().unwrap();
        let cfg = SimConfig { record_trace: true, stop_at_detection: true };
        let outcome = sim(vec![zigzag], -1.0, &[], cfg);
        let trace = outcome.trace.as_ref().unwrap();
        assert!(trace.iter().any(|e| matches!(e.kind, EventKind::Turned { .. })));
        assert!(trace.iter().any(|e| matches!(e.kind, EventKind::Detected { .. })));
        // Events fire in time order.
        assert!(trace.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn revisits_do_not_duplicate() {
        // The robot crosses +1 three times.
        let weave = TrajectoryBuilder::from_origin()
            .sweep_to(2.0)
            .sweep_to(0.5)
            .sweep_to(3.0)
            .finish()
            .unwrap();
        let cfg = SimConfig { record_trace: false, stop_at_detection: false };
        let outcome = sim(vec![weave], 1.0, &[0], cfg);
        assert_eq!(outcome.distinct_visitors(), 1);
        assert_eq!(outcome.visits[0].time, 1.0);
    }

    #[test]
    fn validates_inputs() {
        let plan = FaultPlan::all_reliable(2);
        let build = |trajectories: Vec<PiecewiseTrajectory>| {
            Simulation::new(
                &trajectories,
                Target::new(2.0).unwrap(),
                &plan,
                &[],
                0,
                SimConfig::default(),
                None,
            )
        };
        assert!(build(vec![]).is_err(), "empty fleet");
        assert!(build(vec![straight(5.0)]).is_err(), "plan covers two robots, fleet has one");
    }

    #[test]
    fn horizon_is_minimum_across_fleet() {
        let s = Simulation::new(
            &[straight(5.0), straight(-2.0)],
            Target::new(1.5).unwrap(),
            &FaultPlan::all_reliable(2),
            &[],
            0,
            SimConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(s.horizon(), 2.0);
    }

    fn faulted(
        trajectories: Vec<PiecewiseTrajectory>,
        target: f64,
        kinds: Vec<FaultKind>,
        seed: u64,
    ) -> SearchOutcome {
        onset_run(trajectories, target, kinds, &[], seed)
    }

    #[test]
    fn sensor_plan_matches_mask_semantics() {
        // A mask's Sensor kinds draw no coins, so the seed changes
        // nothing.
        let masked = sim(vec![straight(9.0), straight(9.0)], 3.0, &[0], SimConfig::default());
        let planned = faulted(
            vec![straight(9.0), straight(9.0)],
            3.0,
            vec![FaultKind::Sensor, FaultKind::Reliable],
            42,
        );
        assert_eq!(masked, planned);
    }

    #[test]
    fn intermittent_with_certain_miss_never_detects() {
        let outcome = faulted(
            vec![straight(9.0)],
            3.0,
            vec![FaultKind::Intermittent { miss_probability: 1.0 }],
            7,
        );
        assert!(!outcome.detected());
        assert!(!outcome.visits[0].reliable);
    }

    #[test]
    fn intermittent_with_zero_miss_behaves_reliably() {
        let outcome = faulted(
            vec![straight(9.0)],
            3.0,
            vec![FaultKind::Intermittent { miss_probability: 0.0 }],
            7,
        );
        assert_eq!(outcome.detection.unwrap().time, 3.0);
    }

    #[test]
    fn intermittent_can_catch_a_later_visit() {
        // The robot crosses +1 at t = 1, 3.5 and 5. Find a seed whose
        // coin misses the first visit but registers a later one: the
        // detection then happens at a *revisit*, which the binary
        // sensor model can never produce.
        let weave = TrajectoryBuilder::from_origin()
            .sweep_to(2.0)
            .sweep_to(0.5)
            .sweep_to(3.0)
            .finish()
            .unwrap();
        let kinds = vec![FaultKind::Intermittent { miss_probability: 0.5 }];
        let later = (0..1000u64)
            .map(|seed| faulted(vec![weave.clone()], 1.0, kinds.clone(), seed))
            .find(|o| o.detection.is_some_and(|d| d.time > 1.0))
            .expect("some seed should miss the first visit and catch a revisit");
        assert!(!later.visits[0].reliable, "first visit went unregistered");
        assert!(later.detected());
    }

    #[test]
    fn intermittent_is_deterministic_in_the_seed() {
        let kinds = vec![FaultKind::Intermittent { miss_probability: 0.5 }; 3];
        let run = |seed| {
            faulted(vec![straight(9.0), straight(9.0), straight(9.0)], 3.0, kinds.clone(), seed)
        };
        assert_eq!(run(5), run(5));
        // ... and some seed differs from seed 5, so the coin is real.
        assert!((0..100).any(|s| run(s) != run(5)));
    }

    #[test]
    fn delayed_report_postpones_detection() {
        let outcome =
            faulted(vec![straight(9.0)], 3.0, vec![FaultKind::Delayed { latency: 1.5 }], 0);
        let d = outcome.detection.unwrap();
        assert_eq!(d.time, 4.5);
        // The physical visit is still recorded at arrival time.
        assert_eq!(outcome.visits[0].time, 3.0);
        assert!(outcome.visits[0].reliable);
    }

    #[test]
    fn delayed_report_past_horizon_is_lost() {
        let outcome =
            faulted(vec![straight(5.0)], 3.0, vec![FaultKind::Delayed { latency: 10.0 }], 0);
        assert!(!outcome.detected());
        assert!(!outcome.visits[0].reliable, "the report never arrived");
    }

    #[test]
    fn speed_degraded_dilates_detection_time() {
        // At half speed the robot reaches x = 3 at t = 6; its own
        // horizon dilates to 18, so the visit stays in range.
        let outcome =
            faulted(vec![straight(9.0)], 3.0, vec![FaultKind::SpeedDegraded { factor: 0.5 }], 0);
        assert_eq!(outcome.detection.unwrap().time, 6.0);
        assert_eq!(outcome.horizon, 18.0);
    }

    #[test]
    fn full_speed_degradation_factor_is_identity() {
        let a =
            faulted(vec![straight(9.0)], 3.0, vec![FaultKind::SpeedDegraded { factor: 1.0 }], 0);
        let b = faulted(vec![straight(9.0)], 3.0, vec![FaultKind::Reliable], 0);
        assert_eq!(a, b);
    }

    #[test]
    fn pfaulty_endpoints_collapse_bitwise() {
        // p = 1 is Reliable and p = 0 is Sensor, bit for bit — the
        // degenerate-equivalence contract the conformance oracle pins.
        for seed in [0, 7, 42] {
            let trajs = || vec![straight(9.0), straight(-9.0)];
            let certain = faulted(
                trajs(),
                3.0,
                vec![FaultKind::PFaulty { detect_probability: 1.0 }; 2],
                seed,
            );
            let reliable = faulted(trajs(), 3.0, vec![FaultKind::Reliable; 2], seed);
            assert_eq!(certain, reliable);

            let never = faulted(
                trajs(),
                3.0,
                vec![FaultKind::PFaulty { detect_probability: 0.0 }; 2],
                seed,
            );
            let sensor = faulted(trajs(), 3.0, vec![FaultKind::Sensor; 2], seed);
            assert_eq!(never, sensor);
        }
    }

    #[test]
    fn intermittent_endpoints_collapse_bitwise() {
        for seed in [0, 7, 42] {
            let trajs = || vec![straight(9.0), straight(-9.0)];
            let never = faulted(
                trajs(),
                3.0,
                vec![FaultKind::Intermittent { miss_probability: 1.0 }; 2],
                seed,
            );
            let sensor = faulted(trajs(), 3.0, vec![FaultKind::Sensor; 2], seed);
            assert_eq!(never, sensor);

            let always = faulted(
                trajs(),
                3.0,
                vec![FaultKind::Intermittent { miss_probability: 0.0 }; 2],
                seed,
            );
            let reliable = faulted(trajs(), 3.0, vec![FaultKind::Reliable; 2], seed);
            assert_eq!(always, reliable);
        }
    }

    #[test]
    fn pfaulty_is_deterministic_in_the_seed() {
        let kinds = vec![FaultKind::PFaulty { detect_probability: 0.5 }; 3];
        let run = |seed| {
            faulted(vec![straight(9.0), straight(9.0), straight(9.0)], 3.0, kinds.clone(), seed)
        };
        assert_eq!(run(5), run(5));
        assert!((0..100).any(|s| run(s) != run(5)));
    }

    #[test]
    fn byzantine_robot_never_detects_honestly() {
        // Without a quorum, Byzantine lies are logged but inert: a lone
        // liar cannot end the run.
        let outcome =
            faulted(vec![straight(9.0)], 3.0, vec![FaultKind::Byzantine { lie_rate: 1.0 }], 3);
        assert!(!outcome.detected());
        assert!(!outcome.visits[0].reliable);
        assert!(!outcome.claims.is_empty(), "lies are logged as claims");
        assert!(outcome.claims.iter().all(|c| !c.truthful || c.position == 3.0));
        assert!(outcome.confirmed_position.is_none());
    }

    fn quorum_run(
        trajectories: Vec<PiecewiseTrajectory>,
        target: f64,
        kinds: Vec<FaultKind>,
        seed: u64,
        votes: usize,
    ) -> SearchOutcome {
        let plan = FaultPlan::new(kinds).unwrap();
        Simulation::new(
            &trajectories,
            Target::new(target).unwrap(),
            &plan,
            &[],
            seed,
            SimConfig::default(),
            Some(QuorumConfig::new(votes).unwrap()),
        )
        .unwrap()
        .run()
    }

    #[test]
    fn quorum_waits_for_enough_honest_claims() {
        // Three reliable robots reach x = 3 at t = 3, 5 and 7; a
        // 2-vote quorum confirms at the second claim.
        let slow = TrajectoryBuilder::from_origin().sweep_to(-1.0).sweep_to(9.0).finish().unwrap();
        let slower =
            TrajectoryBuilder::from_origin().sweep_to(-2.0).sweep_to(9.0).finish().unwrap();
        let outcome =
            quorum_run(vec![straight(9.0), slow, slower], 3.0, vec![FaultKind::Reliable; 3], 0, 2);
        let d = outcome.detection.unwrap();
        assert_eq!(d.time, 5.0);
        assert_eq!(d.robot, RobotId(1));
        assert_eq!(outcome.confirmed_position, Some(3.0));
        assert_eq!(outcome.claims.len(), 2);
        assert!(outcome.claims.iter().all(|c| c.truthful));
    }

    #[test]
    fn lone_liar_cannot_reach_a_two_vote_quorum() {
        // The Byzantine robot lies at every turning point but the
        // 2-vote quorum never confirms any of its positions; the honest
        // robots confirm the true target.
        let liar = TrajectoryBuilder::from_origin().sweep_to(-4.0).sweep_to(9.0).finish().unwrap();
        let outcome = quorum_run(
            vec![straight(9.0), straight(9.0), liar],
            3.0,
            vec![FaultKind::Reliable, FaultKind::Reliable, FaultKind::Byzantine { lie_rate: 1.0 }],
            1,
            2,
        );
        let d = outcome.detection.unwrap();
        assert_eq!(d.time, 3.0, "both honest robots claim x = 3 at t = 3");
        assert_eq!(outcome.confirmed_position, Some(3.0));
        // The liar's claims are on the log, marked untruthful.
        assert!(outcome.claims.iter().any(|c| !c.truthful));
    }

    #[test]
    fn unreachable_quorum_exhausts_the_run() {
        // A 2-vote quorum with a single robot can never confirm.
        let outcome = quorum_run(vec![straight(9.0)], 3.0, vec![FaultKind::Reliable], 0, 2);
        assert!(!outcome.detected());
        assert_eq!(outcome.claims.len(), 1);
        assert!(outcome.confirmed_position.is_none());
    }

    #[test]
    fn repeat_claims_add_no_voting_weight() {
        // One robot revisits the target three times; its repeated
        // reports must not satisfy a 2-vote quorum on their own.
        let weave = TrajectoryBuilder::from_origin()
            .sweep_to(2.0)
            .sweep_to(0.5)
            .sweep_to(3.0)
            .finish()
            .unwrap();
        let cfg = SimConfig { record_trace: false, stop_at_detection: false };
        let plan = FaultPlan::new(vec![FaultKind::Reliable]).unwrap();
        let outcome = Simulation::new(
            &[weave],
            Target::new(1.0).unwrap(),
            &plan,
            &[],
            0,
            cfg,
            Some(QuorumConfig::new(2).unwrap()),
        )
        .unwrap()
        .run();
        assert!(!outcome.detected());
        assert_eq!(outcome.claims.len(), 1, "repeat claims are deduplicated");
    }

    #[test]
    fn byzantine_lies_are_deterministic_in_the_seed() {
        let kinds = vec![FaultKind::Byzantine { lie_rate: 0.5 }];
        let zigzag = || {
            TrajectoryBuilder::from_origin()
                .sweep_to(2.0)
                .sweep_to(-4.0)
                .sweep_to(8.0)
                .finish()
                .unwrap()
        };
        let run = |seed| faulted(vec![zigzag()], 3.0, kinds.clone(), seed);
        assert_eq!(run(5), run(5));
        assert!((0..100).any(|s| run(s).claims != run(5).claims));
    }

    #[test]
    fn quorum_config_validates() {
        assert!(QuorumConfig::new(0).is_err());
        assert_eq!(QuorumConfig::new(2).unwrap().votes, 2);
        assert_eq!(QuorumConfig::byzantine(5, 2).unwrap().votes, 3);
        assert!(QuorumConfig::byzantine(4, 2).is_err(), "n = 4 < 2f + 1 = 5");
    }

    #[test]
    fn legacy_runs_carry_no_claims() {
        let outcome = sim(vec![straight(9.0)], 3.0, &[], SimConfig::default());
        assert!(outcome.claims.is_empty());
        assert!(outcome.confirmed_position.is_none());
    }

    #[test]
    fn plan_length_mismatch_rejected() {
        let plan = FaultPlan::all_reliable(2);
        let err = Simulation::new(
            &[straight(5.0)],
            Target::new(2.0).unwrap(),
            &plan,
            &[],
            0,
            SimConfig::default(),
            None,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("fault plan covers 2 robots but the fleet has 1"),
            "{err}"
        );
    }

    fn onset_run(
        trajectories: Vec<PiecewiseTrajectory>,
        target: f64,
        kinds: Vec<FaultKind>,
        onsets: &[Option<f64>],
        seed: u64,
    ) -> SearchOutcome {
        let plan = FaultPlan::new(kinds).unwrap();
        Simulation::new(
            &trajectories,
            Target::new(target).unwrap(),
            &plan,
            onsets,
            seed,
            SimConfig::default(),
            None,
        )
        .unwrap()
        .run()
    }

    #[test]
    fn sensor_fault_with_late_onset_reports_early_visits() {
        // The robot stands on x = 3 at t = 3; its sensor dies at t = 5,
        // so the early visit still reports.
        let healthy_until_5 =
            onset_run(vec![straight(9.0)], 3.0, vec![FaultKind::Sensor], &[Some(5.0)], 0);
        assert_eq!(healthy_until_5.detection.unwrap().time, 3.0);
        // With the onset before the visit the fault is fully engaged.
        let dead_from_2 =
            onset_run(vec![straight(9.0)], 3.0, vec![FaultKind::Sensor], &[Some(2.0)], 0);
        assert!(!dead_from_2.detected());
        // A visit exactly at the onset is already faulty (onset is
        // inclusive).
        let dead_from_3 =
            onset_run(vec![straight(9.0)], 3.0, vec![FaultKind::Sensor], &[Some(3.0)], 0);
        assert!(!dead_from_3.detected());
    }

    #[test]
    fn byzantine_onset_suppresses_early_lies() {
        let zigzag = || {
            TrajectoryBuilder::from_origin()
                .sweep_to(2.0)
                .sweep_to(-4.0)
                .sweep_to(8.0)
                .finish()
                .unwrap()
        };
        // The robot first stands on x = 3 at t = 15 (third leg); with
        // the Byzantine onset at t = 16 that visit still reports
        // honestly, and no lie fires before the onset.
        let kinds = vec![FaultKind::Byzantine { lie_rate: 1.0 }];
        let always = onset_run(vec![zigzag()], 3.0, kinds.clone(), &[None], 1);
        let late = onset_run(vec![zigzag()], 3.0, kinds, &[Some(16.0)], 1);
        assert!(always.claims.iter().any(|c| !c.truthful && c.time < 16.0));
        assert!(
            late.claims.iter().filter(|c| !c.truthful).all(|c| c.time >= 16.0),
            "no false claim before the onset: {:?}",
            late.claims
        );
        assert_eq!(late.detection.unwrap().time, 15.0);
        assert!(!always.detected());
    }

    #[test]
    fn empty_onsets_reproduce_with_quorum_bitwise() {
        // No onsets, all-`None` onsets and onsets at t = 0 are the same
        // always-on plan, bit for bit.
        for seed in [0u64, 7, 42] {
            let kinds = vec![FaultKind::Intermittent { miss_probability: 0.5 }; 2];
            let run = |onsets: &[Option<f64>]| {
                onset_run(vec![straight(9.0), straight(-9.0)], 3.0, kinds.clone(), onsets, seed)
            };
            let base = run(&[]);
            assert_eq!(base, run(&[None, None]));
            assert_eq!(base, run(&[Some(0.0), Some(0.0)]));
        }
    }

    #[test]
    fn onsets_are_validated() {
        let plan = FaultPlan::new(vec![FaultKind::Sensor]).unwrap();
        let build = |onsets: &[Option<f64>]| {
            Simulation::new(
                &[straight(5.0)],
                Target::new(2.0).unwrap(),
                &plan,
                onsets,
                0,
                SimConfig::default(),
                None,
            )
        };
        assert!(build(&[Some(1.0), Some(2.0)]).is_err(), "length mismatch");
        assert!(build(&[Some(f64::NAN)]).is_err());
        assert!(build(&[Some(-1.0)]).is_err());
        assert!(build(&[Some(0.0)]).is_ok(), "onset at t = 0 is the always-faulty edge");
    }

    #[test]
    fn non_positive_horizon_is_a_typed_error() {
        use faultline_core::SpaceTime;
        // A trajectory living entirely at negative times is valid for
        // the core trajectory type but useless for search: the engine
        // reports a Domain error instead of simulating an empty run.
        let past =
            PiecewiseTrajectory::new(vec![SpaceTime::new(0.0, -2.0), SpaceTime::new(0.5, -1.0)])
                .unwrap();
        let err = Simulation::new(
            &[past],
            Target::new(2.0).unwrap(),
            &FaultPlan::all_reliable(1),
            &[],
            0,
            SimConfig::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Domain { .. }), "got {err:?}");
    }
}
