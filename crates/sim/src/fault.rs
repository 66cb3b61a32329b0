//! Fault assignment: which robots are faulty in a given run, and how.
//!
//! A [`FaultPlan`] gives every robot one [`FaultKind`]. The paper's
//! fault is [`FaultKind::Sensor`]: the robot moves normally and never
//! detects the target ([`FaultPlan::sensor_faults`] builds such a plan
//! from faulty indices). The rest of the taxonomy covers intermittent
//! sensors that miss each visit with some probability, delayed
//! detection reports, speed-degraded robots, p-faulty sensors that
//! detect each visit with probability `p`, and Byzantine robots that
//! assert false detections. The first four are *weaker* than a
//! permanent sensor fault, so the paper's worst-case analysis still
//! applies to them; Byzantine liars need the claim quorum of
//! [`crate::engine::QuorumConfig`].
//!
//! The paper's adversary chooses sensor faults in the worst possible
//! way ([`crate::adversary::worst_case_plan`]); a [`FaultModel`] draws
//! fixed or random (Bernoulli) ones for Monte-Carlo experiments.

use faultline_core::{Error, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::robot::RobotId;

/// Validates an adversary's fault budget against the fleet size: the
/// paper's adversary may corrupt at most `n - 1` robots, otherwise no
/// reliable robot exists and no target is ever confirmed.
///
/// Shared by the sensor-fault adversary ([`crate::adversary`]) and the
/// crash adversary ([`crate::crash`]) so both reject budgets the same
/// way.
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] when `f >= n`.
pub(crate) fn check_adversary_budget(n: usize, f: usize) -> Result<()> {
    if f >= n {
        return Err(Error::invalid_params(n, f, "the adversary may corrupt at most n - 1 robots"));
    }
    Ok(())
}

/// How a single robot misbehaves.
///
/// Every kind other than [`FaultKind::Reliable`] moves exactly like a
/// healthy robot unless stated otherwise; the taxonomy only perturbs
/// *when* (or whether) the robot reports the target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A healthy robot: detects the target on its first visit.
    Reliable,
    /// The paper's fault model: moves normally, never detects.
    Sensor,
    /// The sensor misses each visit independently with probability
    /// `miss_probability`; misses are decided by a deterministic
    /// per-(seed, robot, visit) coin so runs are replayable.
    Intermittent {
        /// Probability in `[0, 1]` of missing any single visit.
        miss_probability: f64,
    },
    /// The sensor works but the report arrives `latency` time units
    /// after the physical visit; reports past the horizon are lost.
    Delayed {
        /// Reporting latency, `>= 0` and finite.
        latency: f64,
    },
    /// The robot traverses the same path at `factor` times unit speed,
    /// so every waypoint (and visit) happens at `t / factor`.
    SpeedDegraded {
        /// Speed factor in `(0, 1]`.
        factor: f64,
    },
    /// A Byzantine robot: it moves exactly like a healthy robot but its
    /// sensor channel is adversarial. True visits are never honestly
    /// reported, and the robot asserts *false* detection claims at its
    /// turning points, each independently with probability `lie_rate`
    /// (decided by a deterministic per-(seed, robot, turn) coin, on a
    /// separate stream from the intermittent-sensor coins, so runs stay
    /// replayable). Lone lies are harmless under the claim-quorum
    /// layer — see [`crate::engine::QuorumConfig`].
    Byzantine {
        /// Probability in `[0, 1]` of asserting a false claim at each
        /// turning point.
        lie_rate: f64,
    },
    /// A probabilistically faulty sensor: each physical visit detects
    /// the target independently with probability `detect_probability`,
    /// via the same deterministic per-(seed, robot, visit) coins as
    /// [`FaultKind::Intermittent`]. `detect_probability = 1` collapses
    /// bitwise to [`FaultKind::Reliable`] and `0` to
    /// [`FaultKind::Sensor`].
    PFaulty {
        /// Per-visit detection probability in `[0, 1]`.
        detect_probability: f64,
    },
}

impl FaultKind {
    /// Validates the kind's numeric parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite parameters and
    /// [`Error::Domain`] for out-of-range ones.
    pub fn validate(&self) -> Result<()> {
        match *self {
            FaultKind::Reliable | FaultKind::Sensor => Ok(()),
            FaultKind::Intermittent { miss_probability } => {
                Error::ensure_finite("miss probability", miss_probability)?;
                if !(0.0..=1.0).contains(&miss_probability) {
                    return Err(Error::domain(format!(
                        "miss probability must be in [0, 1], got {miss_probability:?}"
                    )));
                }
                Ok(())
            }
            FaultKind::Delayed { latency } => {
                Error::ensure_finite("detection latency", latency)?;
                if latency < 0.0 {
                    return Err(Error::domain(format!(
                        "detection latency must be >= 0, got {latency:?}"
                    )));
                }
                Ok(())
            }
            FaultKind::SpeedDegraded { factor } => {
                Error::ensure_finite("speed factor", factor)?;
                if !(factor > 0.0) || factor > 1.0 {
                    return Err(Error::domain(format!(
                        "speed factor must be in (0, 1], got {factor:?}"
                    )));
                }
                Ok(())
            }
            FaultKind::Byzantine { lie_rate } => {
                Error::ensure_finite("lie rate", lie_rate)?;
                if !(0.0..=1.0).contains(&lie_rate) {
                    return Err(Error::domain(format!(
                        "lie rate must be in [0, 1], got {lie_rate:?}"
                    )));
                }
                Ok(())
            }
            FaultKind::PFaulty { detect_probability } => {
                Error::ensure_finite("detection probability", detect_probability)?;
                if !(0.0..=1.0).contains(&detect_probability) {
                    return Err(Error::domain(format!(
                        "detection probability must be in [0, 1], got {detect_probability:?}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Whether the kind deviates from a healthy robot at all.
    #[must_use]
    pub(crate) fn is_faulty(&self) -> bool {
        !matches!(self, FaultKind::Reliable)
    }

    /// Short name for reports and traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Reliable => "reliable",
            FaultKind::Sensor => "sensor",
            FaultKind::Intermittent { .. } => "intermittent",
            FaultKind::Delayed { .. } => "delayed",
            FaultKind::SpeedDegraded { .. } => "speed-degraded",
            FaultKind::Byzantine { .. } => "byzantine",
            FaultKind::PFaulty { .. } => "p-faulty",
        }
    }
}

/// A per-robot assignment of [`FaultKind`]s, validated at construction
/// so the simulation engine never sees out-of-range parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// Builds a plan from one kind per robot.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FaultKind::validate`] failure.
    pub fn new(kinds: Vec<FaultKind>) -> Result<Self> {
        for kind in &kinds {
            kind.validate()?;
        }
        Ok(FaultPlan { kinds })
    }

    /// The paper's fault assignment: exactly the robots at `indices`
    /// carry a permanent [`FaultKind::Sensor`] fault, every other robot
    /// of the `n` is healthy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when an index is out of
    /// range or listed twice.
    pub fn sensor_faults(n: usize, indices: &[usize]) -> Result<Self> {
        let mut kinds = vec![FaultKind::Reliable; n];
        for &i in indices {
            if i >= n {
                return Err(Error::invalid_params(
                    n,
                    indices.len(),
                    format!("fault index {i} out of range for {n} robots"),
                ));
            }
            if kinds[i].is_faulty() {
                return Err(Error::invalid_params(
                    n,
                    indices.len(),
                    format!("fault index {i} listed twice"),
                ));
            }
            kinds[i] = FaultKind::Sensor;
        }
        Ok(FaultPlan { kinds })
    }

    /// Number of robots covered by the plan.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The kind assigned to robot `id` (out-of-range ids are healthy).
    #[must_use]
    pub(crate) fn kind(&self, id: RobotId) -> FaultKind {
        self.kinds.get(id.0).copied().unwrap_or(FaultKind::Reliable)
    }

    /// Number of robots with any fault.
    #[must_use]
    pub(crate) fn fault_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_faulty()).count()
    }

    /// Number of Byzantine robots in the plan — the `f` of the
    /// `n >= 2f + 1` quorum regime.
    #[must_use]
    pub(crate) fn byzantine_count(&self) -> usize {
        self.kinds.iter().filter(|k| matches!(k, FaultKind::Byzantine { .. })).count()
    }

    /// Checks that the plan stays within a fault budget of `f`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when more than `f` robots
    /// carry a fault.
    pub fn check_budget(&self, f: usize) -> Result<()> {
        let count = self.fault_count();
        if count > f {
            return Err(Error::invalid_params(
                self.len(),
                f,
                format!("{count} faults exceed the budget f = {f}"),
            ));
        }
        Ok(())
    }
}

/// A source of fault assignments, one per simulated run.
///
/// Implementors may be deterministic (fixed sets) or random; the
/// worst-case adversary is not a `FaultModel` because it needs to see
/// the trajectories and target first — see
/// [`crate::adversary::worst_case_plan`].
pub trait FaultModel: std::fmt::Debug {
    /// Produces a sensor-fault plan for `n` robots.
    fn assign(&mut self, n: usize) -> FaultPlan;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Marks each robot faulty independently with probability `p`,
/// truncated to at most `max_faults` faults (earliest indices win) so
/// the assignment stays within the algorithm's tolerance.
#[derive(Debug)]
pub struct BernoulliFaults<R: Rng> {
    p: f64,
    max_faults: usize,
    rng: R,
}

impl<R: Rng + std::fmt::Debug> BernoulliFaults<R> {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] unless `0 <= p <= 1`.
    pub fn new(p: f64, max_faults: usize, rng: R) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(Error::domain(format!("fault probability must be in [0, 1], got {p:?}")));
        }
        Ok(BernoulliFaults { p, max_faults, rng })
    }
}

impl<R: Rng + std::fmt::Debug> FaultModel for BernoulliFaults<R> {
    fn assign(&mut self, n: usize) -> FaultPlan {
        let mut kinds = vec![FaultKind::Reliable; n];
        let mut budget = self.max_faults;
        for kind in &mut kinds {
            if budget == 0 {
                break;
            }
            if self.rng.random_bool(self.p) {
                *kind = FaultKind::Sensor;
                budget -= 1;
            }
        }
        FaultPlan { kinds }
    }

    fn name(&self) -> &'static str {
        "bernoulli"
    }
}

/// Always assigns the same fixed set of faulty robots.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct FixedFaults {
    indices: Vec<usize>,
}

#[cfg(test)]
impl FixedFaults {
    /// Creates the model from faulty robot indices.
    #[must_use]
    pub(crate) fn new(indices: Vec<usize>) -> Self {
        FixedFaults { indices }
    }
}

#[cfg(test)]
impl FaultModel for FixedFaults {
    fn assign(&mut self, n: usize) -> FaultPlan {
        FaultPlan::sensor_faults(n, &self.indices).unwrap_or_else(|_| FaultPlan::all_reliable(n))
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
impl FaultPlan {
    /// All robots healthy.
    #[must_use]
    pub(crate) fn all_reliable(n: usize) -> Self {
        FaultPlan { kinds: vec![FaultKind::Reliable; n] }
    }

    /// Indices of the robots with any fault.
    #[must_use]
    pub(crate) fn faulty_indices(&self) -> Vec<usize> {
        self.kinds.iter().enumerate().filter_map(|(i, k)| k.is_faulty().then_some(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mask_construction_and_queries() {
        let m = FaultPlan::sensor_faults(4, &[1, 3]).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.fault_count(), 2);
        assert_eq!(m.kind(RobotId(1)), FaultKind::Sensor);
        assert_eq!(m.kind(RobotId(3)), FaultKind::Sensor);
        assert_eq!(m.kind(RobotId(0)), FaultKind::Reliable);
        assert_eq!(m.faulty_indices(), vec![1, 3]);
        // Out-of-range ids are treated as absent, hence reliable.
        assert_eq!(m.kind(RobotId(99)), FaultKind::Reliable);
    }

    #[test]
    fn mask_rejects_bad_indices() {
        let out_of_range = FaultPlan::sensor_faults(3, &[3]).unwrap_err().to_string();
        assert!(out_of_range.contains("fault index 3 out of range for 3 robots"), "{out_of_range}");
        let twice = FaultPlan::sensor_faults(3, &[1, 1]).unwrap_err().to_string();
        assert!(twice.contains("fault index 1 listed twice"), "{twice}");
    }

    #[test]
    fn all_reliable_has_no_faults() {
        let m = FaultPlan::sensor_faults(5, &[]).unwrap();
        assert_eq!(m, FaultPlan::all_reliable(5));
        assert_eq!(m.fault_count(), 0);
        assert!(m.faulty_indices().is_empty());
    }

    #[test]
    fn fixed_model_is_deterministic() {
        let mut model = FixedFaults::new(vec![0, 2]);
        let a = model.assign(4);
        let b = model.assign(4);
        assert_eq!(a, b);
        assert_eq!(model.name(), "fixed");
    }

    #[test]
    fn fixed_model_falls_back_when_out_of_range() {
        let mut model = FixedFaults::new(vec![9]);
        assert_eq!(model.assign(3).fault_count(), 0);
    }

    #[test]
    fn bernoulli_respects_budget() {
        let rng = StdRng::seed_from_u64(7);
        let mut model = BernoulliFaults::new(1.0, 2, rng).unwrap();
        let m = model.assign(10);
        assert_eq!(m.fault_count(), 2);
        assert_eq!(model.name(), "bernoulli");
    }

    #[test]
    fn bernoulli_zero_probability_never_faults() {
        let rng = StdRng::seed_from_u64(7);
        let mut model = BernoulliFaults::new(0.0, 5, rng).unwrap();
        assert_eq!(model.assign(20).fault_count(), 0);
    }

    #[test]
    fn bernoulli_validates_probability() {
        let rng = StdRng::seed_from_u64(7);
        assert!(BernoulliFaults::new(1.5, 2, rng).is_err());
    }

    #[test]
    fn bernoulli_is_reproducible_under_same_seed() {
        let a = BernoulliFaults::new(0.5, 10, StdRng::seed_from_u64(42)).unwrap().assign(16);
        let b = BernoulliFaults::new(0.5, 10, StdRng::seed_from_u64(42)).unwrap().assign(16);
        assert_eq!(a, b);
    }

    #[test]
    fn mask_budget_check() {
        let m = FaultPlan::sensor_faults(5, &[0, 4]).unwrap();
        assert!(m.check_budget(2).is_ok());
        assert!(m.check_budget(1).is_err());
    }

    #[test]
    fn adversary_budget_rejects_f_at_least_n() {
        assert!(check_adversary_budget(5, 4).is_ok());
        assert!(check_adversary_budget(5, 5).is_err());
        assert!(check_adversary_budget(0, 0).is_err());
    }

    #[test]
    fn fault_kind_validation() {
        assert!(FaultKind::Reliable.validate().is_ok());
        assert!(FaultKind::Sensor.validate().is_ok());
        assert!(FaultKind::Intermittent { miss_probability: 0.5 }.validate().is_ok());
        assert!(FaultKind::Intermittent { miss_probability: 1.5 }.validate().is_err());
        assert!(FaultKind::Intermittent { miss_probability: f64::NAN }.validate().is_err());
        assert!(FaultKind::Delayed { latency: 0.0 }.validate().is_ok());
        assert!(FaultKind::Delayed { latency: -1.0 }.validate().is_err());
        assert!(FaultKind::Delayed { latency: f64::INFINITY }.validate().is_err());
        assert!(FaultKind::SpeedDegraded { factor: 1.0 }.validate().is_ok());
        assert!(FaultKind::SpeedDegraded { factor: 0.0 }.validate().is_err());
        assert!(FaultKind::SpeedDegraded { factor: 2.0 }.validate().is_err());
        assert!(FaultKind::Byzantine { lie_rate: 0.0 }.validate().is_ok());
        assert!(FaultKind::Byzantine { lie_rate: 1.0 }.validate().is_ok());
        assert!(FaultKind::Byzantine { lie_rate: -0.1 }.validate().is_err());
        assert!(FaultKind::Byzantine { lie_rate: 1.1 }.validate().is_err());
        assert!(FaultKind::Byzantine { lie_rate: f64::NAN }.validate().is_err());
        assert!(FaultKind::PFaulty { detect_probability: 0.0 }.validate().is_ok());
        assert!(FaultKind::PFaulty { detect_probability: 1.0 }.validate().is_ok());
        assert!(FaultKind::PFaulty { detect_probability: 1.5 }.validate().is_err());
        assert!(FaultKind::PFaulty { detect_probability: f64::INFINITY }.validate().is_err());
    }

    #[test]
    fn byzantine_count_tallies_only_byzantine_kinds() {
        let plan = FaultPlan::new(vec![
            FaultKind::Byzantine { lie_rate: 0.5 },
            FaultKind::Sensor,
            FaultKind::PFaulty { detect_probability: 0.5 },
            FaultKind::Byzantine { lie_rate: 0.0 },
            FaultKind::Reliable,
        ])
        .unwrap();
        assert_eq!(plan.byzantine_count(), 2);
        assert_eq!(plan.fault_count(), 4);
    }

    #[test]
    fn plan_construction_rejects_invalid_kinds() {
        assert!(FaultPlan::new(vec![FaultKind::Reliable, FaultKind::Sensor]).is_ok());
        assert!(FaultPlan::new(vec![FaultKind::SpeedDegraded { factor: -0.5 }]).is_err());
    }

    #[test]
    fn plan_from_mask_round_trips_fault_sets() {
        // A mask of faulty indices is the plan that spells out one
        // Sensor kind per listed robot, and reads back the same indices.
        let plan = FaultPlan::sensor_faults(4, &[2, 1]).unwrap();
        let spelled = FaultPlan::new(vec![
            FaultKind::Reliable,
            FaultKind::Sensor,
            FaultKind::Sensor,
            FaultKind::Reliable,
        ])
        .unwrap();
        assert_eq!(plan, spelled);
        assert_eq!(plan.faulty_indices(), vec![1, 2]);
        assert!(plan.check_budget(2).is_ok());
        assert!(plan.check_budget(1).is_err());
    }

    #[test]
    fn all_reliable_plan_is_fault_free() {
        let plan = FaultPlan::all_reliable(6);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.fault_count(), 0);
    }
}
