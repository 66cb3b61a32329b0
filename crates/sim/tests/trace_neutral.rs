//! Recording a trace changes nothing but the trace: over random fleets,
//! targets, fault kinds, onsets and quorums, a run without a trace
//! equals the traced run with its trace removed, field for field and
//! bit for bit. Integer sweep points and targets make robots meet the
//! target at equal times, so ties between events are exercised too.

use faultline_core::{PiecewiseTrajectory, TrajectoryBuilder};
use faultline_sim::engine::{QuorumConfig, SimConfig, Simulation};
use faultline_sim::fault::{FaultKind, FaultPlan};
use faultline_sim::target::Target;
use faultline_sim::EventKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A zig-zag from the origin: up to six sweeps of integer amplitude,
/// alternating sides from a random first side.
fn trajectory(rng: &mut StdRng) -> PiecewiseTrajectory {
    let mut builder = TrajectoryBuilder::from_origin();
    let mut side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
    for _ in 0..rng.random_range(1usize..7) {
        builder.sweep_to(side * rng.random_range(1usize..12) as f64);
        side = -side;
    }
    builder.finish().expect("every sweep moves")
}

/// One of the seven fault kinds, at random.
fn fault_kind(rng: &mut StdRng) -> FaultKind {
    let p = rng.random_range(0.0..1.0);
    match rng.random_range(0usize..7) {
        0 => FaultKind::Reliable,
        1 => FaultKind::Sensor,
        2 => FaultKind::Intermittent { miss_probability: p },
        3 => FaultKind::Delayed { latency: rng.random_range(0usize..4) as f64 },
        4 => FaultKind::SpeedDegraded { factor: 0.25 + 0.75 * p },
        5 => FaultKind::Byzantine { lie_rate: p },
        _ => FaultKind::PFaulty { detect_probability: p },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tracing_changes_nothing_but_the_trace(
        n in 1usize..6,
        fleet_seed in any::<u64>(),
        with_onsets in any::<bool>(),
        target in 4usize..44,
        left in any::<bool>(),
        votes in 0usize..4,
        seed in any::<u64>(),
        stop_at_detection in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(fleet_seed);
        let fleet: Vec<PiecewiseTrajectory> = (0..n).map(|_| trajectory(&mut rng)).collect();
        let plan = FaultPlan::new((0..n).map(|_| fault_kind(&mut rng)).collect()).unwrap();
        let onsets: Vec<Option<f64>> = if with_onsets {
            (0..n)
                .map(|_| rng.random_bool(0.5).then(|| rng.random_range(0usize..24) as f64 / 2.0))
                .collect()
        } else {
            Vec::new()
        };
        let x = target as f64 / 4.0;
        let target = Target::new(if left { -x } else { x }).unwrap();
        let quorum = (votes > 0).then(|| QuorumConfig::new(votes).unwrap());
        let run = |record_trace| {
            let config = SimConfig { record_trace, stop_at_detection };
            Simulation::new(&fleet, target, &plan, &onsets, seed, config, quorum).unwrap().run()
        };
        let plain = run(false);
        let mut traced = run(true);
        let trace = traced.trace.take().expect("a traced run records its trace");
        prop_assert!(plain.trace.is_none());
        prop_assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "bit for bit");
        prop_assert_eq!(&plain, &traced);

        // The trace fires in time order, and a report that arrives
        // with its visit (every kind but a delayed sensor's) never
        // fires before that visit.
        prop_assert!(trace.windows(2).all(|w| w[0].time.total_cmp(&w[1].time).is_le()));
        for (i, event) in trace.iter().enumerate() {
            if let EventKind::Registered { robot } = event.kind {
                if matches!(plan.kind(robot), FaultKind::Delayed { latency } if latency > 0.0) {
                    continue;
                }
                let later_visit = trace[i + 1..].iter().any(|e| {
                    e.time == event.time && e.kind == EventKind::TargetVisited { robot }
                });
                prop_assert!(!later_visit, "robot {} reported before visiting: {trace:?}", robot.0);
            }
        }
    }
}
