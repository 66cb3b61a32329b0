//! Zig-zag motion plans defined by a cone and a seed turning point
//! (Definition 1), including the slow initial leg from the origin used
//! by the proportional schedule algorithm (Definition 4).

use crate::cone::Cone;
use crate::error::{Error, Result};
use crate::plan::{Plan, Turns};

impl Plan {
    /// Definition 1's zig-zag in `cone`: the robot leaves the origin,
    /// travels at constant speed `1 / beta` straight to its *seed*
    /// turning point `(seed, beta * |seed|)` on the cone boundary, then
    /// zig-zags at unit speed inside the cone forever, reversing on the
    /// boundary.
    ///
    /// The initial leg realizes Definition 4 ("robot `a_i` moves from 0
    /// so that it reaches `tau_i'` at time `beta * tau_i'`"); its speed
    /// `|x0| / (beta |x0|) = 1/beta < 1` respects the speed limit.
    ///
    /// ```
    /// use faultline_core::{Cone, Plan};
    /// let plan = Plan::zigzag(Cone::new(3.0)?, 1.0)?;
    /// let traj = plan.materialize(50.0)?;
    /// // Seed reached at t = beta * x0 = 3, then -2 at t = 6, +4 at t = 12...
    /// assert_eq!(traj.first_visit(1.0), Some(3.0));
    /// assert_eq!(traj.first_visit(-2.0), Some(6.0));
    /// assert_eq!(traj.first_visit(4.0), Some(12.0));
    /// # Ok::<(), faultline_core::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `seed` is zero or non-finite: a
    /// zig-zag movement needs a proper first turning point.
    pub fn zigzag(cone: Cone, seed: f64) -> Result<Self> {
        if seed == 0.0 || !seed.is_finite() {
            return Err(Error::domain(format!(
                "zig-zag seed position must be finite and non-zero, got {seed}"
            )));
        }
        Ok(Plan { launch: 0.0, turns: Turns::Cone { cone, seed, bound: f64::INFINITY } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;
    use crate::spacetime::SpaceTime;

    fn doubling_plan() -> Plan {
        Plan::zigzag(Cone::new(3.0).unwrap(), 1.0).unwrap()
    }

    #[test]
    fn rejects_zero_seed() {
        assert!(Plan::zigzag(Cone::new(2.0).unwrap(), 0.0).is_err());
        assert!(Plan::zigzag(Cone::new(2.0).unwrap(), f64::NAN).is_err());
    }

    #[test]
    fn initial_leg_speed_is_one_over_beta() {
        let plan = doubling_plan();
        let traj = plan.materialize(100.0).unwrap();
        let segs: Vec<_> = traj.segments().collect();
        assert!(approx_eq(segs[0].speed(), 1.0 / 3.0, 1e-12));
        for seg in &segs[1..] {
            assert!(approx_eq(seg.speed(), 1.0, 1e-9), "zig-zag legs run at unit speed");
        }
    }

    #[test]
    fn turning_points_follow_lemma1() {
        let plan = doubling_plan();
        let traj = plan.materialize(200.0).unwrap();
        let xs: Vec<f64> = traj.turning_points().iter().map(|p| p.x).collect();
        // x_i = (-2)^i: 1, -2, 4, -8, ...
        for (i, &x) in xs.iter().enumerate() {
            let expect = (-2.0_f64).powi(i as i32);
            assert!(approx_eq(x, expect, 1e-9), "turn {i}: {x} vs {expect}");
        }
        assert!(xs.len() >= 4);
    }

    #[test]
    fn turning_times_on_cone_boundary() {
        let cone = Cone::new(5.0 / 3.0).unwrap();
        let traj = Plan::zigzag(cone, 2.0).unwrap().materialize(500.0).unwrap();
        for p in traj.turning_points() {
            assert!(cone.on_boundary(p, 1e-9), "turning point {p} off the boundary");
        }
    }

    #[test]
    fn horizon_inside_initial_leg() {
        let plan = doubling_plan();
        let traj = plan.materialize(1.5).unwrap();
        assert_eq!(traj.horizon(), 1.5);
        assert_eq!(traj.position_at(1.5), Some(0.5));
        assert_eq!(traj.waypoints().len(), 2);
    }

    #[test]
    fn horizon_exactly_at_turning_point() {
        let plan = doubling_plan();
        // Seed at t = 3, next turning point (-2) at t = 6.
        let traj = plan.materialize(6.0).unwrap();
        assert_eq!(traj.horizon(), 6.0);
        assert!(approx_eq(traj.position_at(6.0).unwrap(), -2.0, 1e-12));
    }

    #[test]
    fn negative_seed_mirrors() {
        let plan = Plan::zigzag(Cone::new(3.0).unwrap(), -1.0).unwrap();
        let traj = plan.materialize(50.0).unwrap();
        assert_eq!(traj.first_visit(-1.0), Some(3.0));
        // Turning at -1 at t = 3, the robot sweeps right to +2 at t = 6.
        assert!(approx_eq(traj.first_visit(2.0).unwrap(), 6.0, 1e-12));
    }

    #[test]
    fn materialized_trajectory_stays_in_cone() {
        let cone = Cone::new(2.2).unwrap();
        let traj = Plan::zigzag(cone, 0.7).unwrap().materialize(300.0).unwrap();
        // Sample densely: every occupied point must lie inside the cone.
        for k in 0..3000 {
            let t = 0.1 * k as f64;
            if let Some(x) = traj.position_at(t) {
                assert!(
                    cone.contains(SpaceTime::new(x, t + 1e-9)),
                    "point (x = {x}, t = {t}) escapes the cone"
                );
            }
        }
    }
}
