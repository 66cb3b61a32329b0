//! Extension: search with a **known upper bound** on the target
//! distance (after Bose, De Carufel and Durocher, *Revisiting the
//! problem of searching on a line*, cited by the paper as \[10\]).
//!
//! When the robots know `|x| <= D`, zig-zag excursions past `D` are
//! wasted. The bounded variant clamps every turning point of the
//! proportional schedule to `±D`: once a robot reaches the boundary it
//! oscillates over the full interval `[-D, D]`, revisiting every point.
//! The bounded competitive ratio `sup_{1 <= |x| <= D} T_(f+1)(x)/|x|`
//! is never worse than the unbounded one, approaches it as `D` grows,
//! and improves sharply for small `D` — quantified by
//! `faultline-analysis`'s bounded-distance experiment.

use crate::algorithm::Algorithm;
use crate::cone::Cone;
use crate::error::{Error, Result};
use crate::params::Params;
use crate::plan::{Plan, Turns};

impl Plan {
    /// [`Plan::zigzag`] with its excursions clamped to `[-bound, bound]`:
    /// inside the bound it reproduces the cone zig-zag exactly; the
    /// first turning point that would exceed the bound is moved onto
    /// it, after which the robot shuttles between `-bound` and `+bound`
    /// at unit speed forever.
    ///
    /// # Errors
    ///
    /// As [`Plan::zigzag`], plus [`Error::Domain`] when the bound is not
    /// finite, below 1 (targets live at distance at least 1), or smaller
    /// than the seed excursion.
    pub fn clamped_zigzag(cone: Cone, seed: f64, bound: f64) -> Result<Self> {
        let plan = Plan::zigzag(cone, seed)?;
        if !bound.is_finite() || bound < 1.0 {
            return Err(Error::domain(format!("distance bound must be >= 1, got {bound}")));
        }
        if seed.abs() > bound {
            return Err(Error::domain(format!(
                "seed excursion {seed} already exceeds the bound {bound}"
            )));
        }
        Ok(Plan { turns: Turns::Cone { cone, seed, bound }, ..plan })
    }
}

/// The bounded-distance variant of the paper's algorithm: every robot
/// of `A(n, f)` (or of the two-group strategy, which needs no change)
/// has its plan clamped to `[-bound, bound]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedAlgorithm {
    algorithm: Algorithm,
    bound: f64,
}

impl BoundedAlgorithm {
    /// Designs the bounded variant for `params` with known distance
    /// bound `D = bound`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for `bound < 1` and propagates design
    /// failures.
    pub fn design(params: Params, bound: f64) -> Result<Self> {
        if !bound.is_finite() || bound < 1.0 {
            return Err(Error::domain(format!("distance bound must be >= 1, got {bound}")));
        }
        Ok(BoundedAlgorithm { algorithm: Algorithm::design(params)?, bound })
    }

    /// The distance bound `D`.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The underlying unbounded algorithm.
    #[must_use]
    pub fn unbounded(&self) -> &Algorithm {
        &self.algorithm
    }

    /// Per-robot plans with clamped excursions
    /// ([`Plan::clamped_zigzag`]).
    ///
    /// # Errors
    ///
    /// Propagates clamping failures (cannot happen for bounds `>= 1`
    /// since all seeds have magnitude `< 1`... except robot `a_0`, whose
    /// seed sits exactly at 1, which any valid bound accommodates).
    pub fn plans(&self) -> Result<Vec<Plan>> {
        match self.algorithm.schedule() {
            None => Ok(self.algorithm.plans()), // two-group: already minimal
            Some(schedule) => (0..schedule.n())
                .map(|i| {
                    let seed = schedule.seed_for_robot(i).x;
                    Plan::clamped_zigzag(schedule.cone(), seed, self.bound)
                })
                .collect(),
        }
    }

    /// A horizon sufficient to confirm every target `1 <= |x| <= bound`:
    /// after at most the unbounded horizon, every robot has swept the
    /// whole interval `f + 1` times over.
    #[must_use]
    pub fn required_horizon(&self) -> f64 {
        let base = self
            .algorithm
            .required_horizon(self.bound.max(1.0 + 1e-9) * 1.001)
            .unwrap_or(16.0 * self.bound);
        // Add full shuttle periods so clamped robots re-cover the
        // interval even if clamping bit early.
        base + 2.0 * (self.algorithm.params().f() as f64 + 2.0) * 2.0 * self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Fleet;
    use crate::ratio;

    fn clamped(beta: f64, seed: f64, bound: f64) -> Plan {
        Plan::clamped_zigzag(Cone::new(beta).unwrap(), seed, bound).unwrap()
    }

    #[test]
    fn validates_bound() {
        let cone = Cone::new(3.0).unwrap();
        assert!(Plan::clamped_zigzag(cone, 1.0, 0.5).is_err());
        assert!(Plan::clamped_zigzag(cone, 1.0, f64::NAN).is_err());
        assert!(Plan::clamped_zigzag(cone, 5.0, 2.0).is_err(), "seed beyond the bound");
        assert!(Plan::clamped_zigzag(cone, 0.0, 2.0).is_err(), "zero seed");
    }

    #[test]
    fn matches_unclamped_before_the_bound_bites() {
        let plan = clamped(3.0, 1.0, 100.0);
        let free = Plan::zigzag(Cone::new(3.0).unwrap(), 1.0).unwrap();
        // Doubling reaches ±excursions 1, -2, 4, -8, 16 < 100 by t = 50:
        // identical trajectories, bit for bit.
        assert_eq!(plan.materialize(50.0).unwrap(), free.materialize(50.0).unwrap());
    }

    #[test]
    fn clamps_and_shuttles() {
        // Doubling clamped to ±3: turning points 1, -2, then 4 clamps
        // to 3, then shuttles -3, 3, -3...
        let plan = clamped(3.0, 1.0, 3.0);
        let traj = plan.materialize(60.0).unwrap();
        let turns: Vec<f64> = traj.turning_points().iter().map(|p| p.x).collect();
        assert_eq!(&turns[..3], &[1.0, -2.0, 3.0]);
        for &x in &turns[2..] {
            assert!((x.abs() - 3.0).abs() < 1e-12, "shuttle turning point {x}");
        }
        // All positions stay within the bound.
        for step in 0..600 {
            let t = 0.1 * step as f64;
            if let Some(x) = traj.position_at(t) {
                assert!(x.abs() <= 3.0 + 1e-12);
            }
        }
        // Speed stays legal.
        for seg in traj.segments() {
            assert!(seg.speed() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn bounded_fleet_confirms_every_target_within_bound() {
        let params = Params::new(3, 1).unwrap();
        let bounded = BoundedAlgorithm::design(params, 5.0).unwrap();
        let horizon = bounded.required_horizon();
        let fleet = Fleet::from_plans(&bounded.plans().unwrap(), horizon).unwrap();
        for x in [1.0, -1.0, 2.5, -4.9, 5.0, -5.0] {
            assert!(
                fleet.visit_time(x, 2).is_some(),
                "target {x} unconfirmed within horizon {horizon}"
            );
        }
    }

    #[test]
    fn bounded_never_worse_than_unbounded() {
        let params = Params::new(3, 1).unwrap();
        let cr_free = ratio::cr_upper(params);
        for bound in [2.0, 5.0, 20.0] {
            let bounded = BoundedAlgorithm::design(params, bound).unwrap();
            let horizon = bounded.required_horizon();
            let fleet = Fleet::from_plans(&bounded.plans().unwrap(), horizon).unwrap();
            // Scan K over [1, bound] including turning-point limits.
            let targets =
                crate::coverage::adversarial_targets(&[1.0, bound], bound, 60, 1e-9).unwrap();
            let inside: Vec<f64> = targets.into_iter().filter(|x| x.abs() <= bound).collect();
            let scan = fleet.supremum(&inside, 2).unwrap();
            assert!(
                scan.ratio <= cr_free + 1e-6,
                "bound {bound}: bounded CR {} above unbounded {cr_free}",
                scan.ratio
            );
        }
    }

    #[test]
    fn tiny_bound_gives_strict_improvement() {
        // With D barely above 1, clamped robots return sooner and the
        // supremum strictly improves (the geometry near x = 1 still
        // costs, so the gain is measurable but not dramatic).
        let params = Params::new(3, 1).unwrap();
        let bounded = BoundedAlgorithm::design(params, 1.5).unwrap();
        let horizon = bounded.required_horizon();
        let fleet = Fleet::from_plans(&bounded.plans().unwrap(), horizon).unwrap();
        let targets: Vec<f64> =
            crate::numeric::linspace(1.0, 1.5, 41).into_iter().flat_map(|x| [x, -x]).collect();
        let scan = fleet.supremum(&targets, 2).unwrap();
        let cr_free = ratio::cr_upper(params);
        assert!(
            scan.ratio < cr_free - 0.1,
            "expected a strict improvement: bounded {} vs free {cr_free}",
            scan.ratio
        );
        // Targets right at the bound improve dramatically: the clamped
        // fleet confirms ±D much faster than the free schedule's ratio.
        let at_bound = fleet.ratio_at(1.5, 2).unwrap().unwrap();
        assert!(at_bound < cr_free - 0.5, "K(D) = {at_bound}");
    }

    #[test]
    fn two_group_regime_is_unchanged() {
        let params = Params::new(6, 2).unwrap();
        let bounded = BoundedAlgorithm::design(params, 4.0).unwrap();
        assert_eq!(bounded.plans().unwrap(), bounded.unbounded().plans());
    }

    #[test]
    fn bounded_design_validates() {
        let params = Params::new(3, 1).unwrap();
        assert!(BoundedAlgorithm::design(params, 0.9).is_err());
        assert!(BoundedAlgorithm::design(params, f64::INFINITY).is_err());
    }
}
