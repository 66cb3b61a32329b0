//! Expected-cost analysis of probabilistically faulty fleets.
//!
//! When every robot is [`FaultKind::PFaulty`] with the same per-visit
//! detection probability `p`, the run's cost is a random variable over
//! the seeded coins. This module computes its expectation two ways:
//!
//! * [`expected_outcome`] — an exact closed form. Merge all robots'
//!   visits to the target in time order `t_1 <= ... <= t_m`; the coins
//!   are independent across `(robot, visit)` pairs, so detection
//!   happens at the `j`-th merged visit with probability
//!   `p (1 - p)^(j-1)`, and with probability `(1 - p)^m` the run
//!   exhausts the horizon. The expected (horizon-truncated) search time
//!   is the corresponding geometric sum.
//! * [`monte_carlo_expected_ratio`] — a Monte-Carlo estimate over the
//!   engine's deterministic per-`(seed, robot, visit)` coins, one
//!   derived seed per sample. This exercises the *actual* simulator and
//!   cross-checks the closed form.
//!
//! Both truncate undetected runs at the horizon, so the expectation is
//! always finite and, by a shared-coins coupling, exactly monotone
//! non-increasing in `p`: raising `p` only turns misses into
//! detections, which can never delay the (truncated) detection time.

use faultline_core::{par_map, Error, PiecewiseTrajectory, Result};

use crate::engine::{SimConfig, Simulation};
use crate::fault::{FaultKind, FaultPlan};
use crate::target::Target;

/// The exact expectation of an all-p-faulty run against one target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PFaultyExpectation {
    /// Probability that some visit detects before the horizon:
    /// `1 - (1 - p)^m` over the `m` in-horizon visits.
    pub detection_probability: f64,
    /// Expected horizon-truncated search time
    /// `E[min(T_detect, horizon)]`.
    pub expected_time: f64,
    /// Expected normalized cost `expected_time / |x|` — the expected
    /// competitive ratio with undetected runs truncated at the horizon.
    pub expected_ratio: f64,
    /// Number of in-horizon visits the fleet pays the target.
    pub visits: usize,
}

/// Computes the exact expected outcome of the fleet searching for
/// `target` when every robot's sensor fires independently with
/// probability `detect_probability` per visit.
///
/// # Errors
///
/// Returns [`Error::Domain`] for an out-of-range probability or a
/// non-positive fleet horizon, [`Error::NonFinite`] for non-finite
/// inputs, and [`Error::InvalidParameters`] for an empty fleet.
pub fn expected_outcome(
    trajectories: &[PiecewiseTrajectory],
    target: Target,
    detect_probability: f64,
) -> Result<PFaultyExpectation> {
    FaultKind::PFaulty { detect_probability }.validate()?;
    if trajectories.is_empty() {
        return Err(Error::invalid_params(0, 0, "expected-cost analysis needs at least one robot"));
    }
    let horizon =
        trajectories.iter().map(PiecewiseTrajectory::horizon).fold(f64::INFINITY, f64::min);
    let horizon = Error::ensure_finite("fleet horizon", horizon)?;
    if !(horizon > 0.0) {
        return Err(Error::domain(format!(
            "fleet horizon must be strictly positive, got {horizon}"
        )));
    }
    let x = target.position();
    let mut times: Vec<f64> =
        trajectories.iter().flat_map(|t| t.visits(x)).filter(|&t| t <= horizon).collect();
    times.sort_by(f64::total_cmp);

    let p = detect_probability;
    let mut surviving = 1.0; // probability no earlier visit detected
    let mut expected_time = 0.0;
    for &t in &times {
        expected_time += t * p * surviving;
        surviving *= 1.0 - p;
    }
    expected_time += horizon * surviving;

    Ok(PFaultyExpectation {
        detection_probability: 1.0 - surviving,
        expected_time,
        expected_ratio: expected_time / target.distance(),
        visits: times.len(),
    })
}

/// Derives a per-sample seed from the sweep seed (splitmix64).
fn sample_seed(seed: u64, sample: u64) -> u64 {
    let mut z = seed.wrapping_add(sample.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Estimates the expected horizon-truncated ratio by running the
/// simulator `samples` times with derived seeds (all robots
/// [`FaultKind::PFaulty`] with the given probability).
///
/// Deterministic in `seed`, independent of thread count: samples run in
/// parallel but are averaged in index order.
///
/// # Errors
///
/// Returns [`Error::Domain`] when `samples` is zero or the probability
/// is out of range, and propagates simulation construction failures.
pub fn monte_carlo_expected_ratio(
    trajectories: &[PiecewiseTrajectory],
    target: Target,
    detect_probability: f64,
    samples: usize,
    seed: u64,
) -> Result<f64> {
    FaultKind::PFaulty { detect_probability }.validate()?;
    if samples == 0 {
        return Err(Error::domain("Monte-Carlo estimation needs at least one sample"));
    }
    let plan = FaultPlan::new(vec![FaultKind::PFaulty { detect_probability }; trajectories.len()])?;
    let indices: Vec<u64> = (0..samples as u64).collect();
    let ratios: Vec<Result<f64>> = par_map(&indices, |&s| {
        let sim = Simulation::new(
            trajectories,
            target,
            &plan,
            &[],
            sample_seed(seed, s),
            SimConfig::default(),
            None,
        )?;
        let horizon = sim.horizon();
        let outcome = sim.run();
        let time = outcome.detection.map_or(horizon, |d| d.time);
        Ok(time / target.distance())
    });
    let mut sum = 0.0;
    for r in ratios {
        sum += r?;
    }
    Ok(sum / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::TrajectoryBuilder;

    fn straight(to: f64) -> PiecewiseTrajectory {
        TrajectoryBuilder::from_origin().sweep_to(to).finish().unwrap()
    }

    #[test]
    fn single_robot_closed_form_by_hand() {
        // One robot sweeping to 9 visits x = 3 once at t = 3; the
        // horizon is 9. E = 3p + 9(1 - p).
        let e = expected_outcome(&[straight(9.0)], Target::new(3.0).unwrap(), 0.5).unwrap();
        assert_eq!(e.visits, 1);
        assert!((e.expected_time - (3.0 * 0.5 + 9.0 * 0.5)).abs() < 1e-12);
        assert!((e.expected_ratio - 2.0).abs() < 1e-12);
        assert!((e.detection_probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn endpoints_match_the_deterministic_regimes() {
        let trajs = [straight(9.0), straight(9.0)];
        let target = Target::new(3.0).unwrap();
        // p = 1: detection at the first visit, surely.
        let certain = expected_outcome(&trajs, target, 1.0).unwrap();
        assert_eq!(certain.expected_time, 3.0);
        assert_eq!(certain.detection_probability, 1.0);
        // p = 0: never detected, cost truncates at the horizon.
        let never = expected_outcome(&trajs, target, 0.0).unwrap();
        assert_eq!(never.expected_time, 9.0);
        assert_eq!(never.detection_probability, 0.0);
    }

    #[test]
    fn expectation_is_monotone_in_p() {
        // Two robots with revisits: a non-trivial merged visit list.
        let weave = TrajectoryBuilder::from_origin()
            .sweep_to(2.0)
            .sweep_to(0.5)
            .sweep_to(9.0)
            .finish()
            .unwrap();
        let trajs = [weave, straight(9.0)];
        let target = Target::new(1.0).unwrap();
        let ladder: Vec<f64> = (0..=10)
            .map(|i| expected_outcome(&trajs, target, f64::from(i) / 10.0).unwrap().expected_ratio)
            .collect();
        for pair in ladder.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12, "expected ratio increased: {pair:?}");
        }
    }

    #[test]
    fn monte_carlo_converges_to_the_closed_form() {
        let trajs = [straight(9.0), straight(9.0), straight(-9.0)];
        let target = Target::new(3.0).unwrap();
        let exact = expected_outcome(&trajs, target, 0.4).unwrap().expected_ratio;
        let mc = monte_carlo_expected_ratio(&trajs, target, 0.4, 4000, 11).unwrap();
        assert!((mc - exact).abs() <= 0.05 * exact, "Monte-Carlo {mc} vs closed form {exact}");
    }

    #[test]
    fn monte_carlo_is_monotone_under_shared_coins() {
        // The estimator reuses the same per-(seed, robot, visit) coins
        // for every p, so monotonicity holds exactly, not just in the
        // limit.
        let trajs = [straight(9.0), straight(9.0)];
        let target = Target::new(3.0).unwrap();
        let at = |p| monte_carlo_expected_ratio(&trajs, target, p, 200, 5).unwrap();
        let ladder: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0].iter().map(|&p| at(p)).collect();
        for pair in ladder.windows(2) {
            assert!(pair[1] <= pair[0], "shared-coin monotonicity broke: {pair:?}");
        }
    }

    #[test]
    fn monte_carlo_is_deterministic_in_the_seed() {
        let trajs = [straight(9.0)];
        let target = Target::new(3.0).unwrap();
        let a = monte_carlo_expected_ratio(&trajs, target, 0.5, 64, 9).unwrap();
        let b = monte_carlo_expected_ratio(&trajs, target, 0.5, 64, 9).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let target = Target::new(3.0).unwrap();
        assert!(expected_outcome(&[], target, 0.5).is_err());
        assert!(expected_outcome(&[straight(9.0)], target, 1.5).is_err());
        assert!(expected_outcome(&[straight(9.0)], target, f64::NAN).is_err());
        assert!(monte_carlo_expected_ratio(&[straight(9.0)], target, 0.5, 0, 1).is_err());
        assert!(monte_carlo_expected_ratio(&[straight(9.0)], target, -0.5, 10, 1).is_err());
    }
}
