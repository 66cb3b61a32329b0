//! Integration test: the discrete-event simulator and the analytic
//! coverage evaluation are two fully independent implementations of the
//! same semantics; they must agree everywhere. The deterministic grids
//! over both paths run as the `sim-analytic-*` oracles' unit tests in
//! `faultline-conformance`.

use faultline_suite::core::Params;
use faultline_suite::sim::engine::SimConfig;
use faultline_suite::sim::{worst_case_outcome, Target};
use faultline_suite::strategies::PaperStrategy;

#[test]
fn simulator_trace_is_consistent_with_detection() {
    let params = Params::new(3, 1).unwrap();
    let strategy = PaperStrategy::new();
    let plans = faultline_suite::strategies::Strategy::plans(&strategy, params).unwrap();
    let horizon = faultline_suite::strategies::Strategy::horizon_hint(&strategy, params, 9.0);
    let trajectories: Vec<_> = plans.iter().map(|p| p.materialize(horizon).unwrap()).collect();
    let outcome = worst_case_outcome(
        &trajectories,
        Target::new(7.7).unwrap(),
        params.f(),
        SimConfig { record_trace: true, stop_at_detection: true },
    )
    .unwrap();
    let detection = outcome.detection.unwrap();
    let trace = outcome.trace.as_ref().unwrap();
    // The trace ends at the detection event; nothing later is recorded.
    let last = trace.last().unwrap();
    assert_eq!(last.time, detection.time);
    assert!(trace.windows(2).all(|w| w[0].time <= w[1].time), "trace is time-ordered");
    // The detection's robot matches the final reliable visit.
    let last_visit = outcome.visits.last().unwrap();
    assert!(last_visit.reliable);
    assert_eq!(last_visit.robot, detection.robot);
}
