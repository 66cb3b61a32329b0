//! Motion plans: the one shape every robot of the paper follows.
//!
//! A robot leaves the origin at its launch time, glides straight to a
//! first turning point, then runs unit-speed legs between alternating
//! turning points forever. That covers Definition 1's cone zig-zag
//! with Definition 4's slow first leg, its bounded-distance clamp, the
//! Section 1.1 doubling sweep and a free robot's explicit turns; a ray
//! of the two-group strategy never reaches its first turn. A [`Plan`]
//! holds one such turning-point schedule, and one walker materializes
//! every plan (and every [`FreeRobot`]) into a finite
//! [`PiecewiseTrajectory`] up to any horizon.

use crate::cone::Cone;
use crate::error::{Error, Result};
use crate::free_schedule::FreeRobot;
use crate::spacetime::SpaceTime;
use crate::trajectory::PiecewiseTrajectory;

/// One robot's motion plan, materializable to any horizon.
///
/// The families' constructors: [`Plan::ray`], [`Plan::zigzag`],
/// `Plan::clamped_zigzag`, [`Plan::sweep`] and `Plan::free`, each
/// optionally [`Plan::launched_at`] a later time.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub(crate) launch: f64,
    pub(crate) turns: Turns,
}

/// Where a plan's first turning point lies and how each next one
/// follows from it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Turns {
    /// No turn: unit speed towards `side · ∞` forever.
    Ray { side: f64 },
    /// The zig-zag in `cone` seeded at `(seed, β|seed|)`: `x ← −κx` at
    /// `t = β|x|`, except that a turn beyond `±bound` moves onto it and
    /// is reached at unit speed (`bound` is infinite when unclamped).
    Cone { cone: Cone, seed: f64, bound: f64 },
    /// The unit-speed sweep from the origin: first turn at `first`,
    /// then `x ← −κx` at `t ← t + |Δx|`.
    Sweep { first: f64, kappa: f64 },
    /// A free robot's explicit turns and geometric tail.
    Free(FreeRobot),
}

impl Plan {
    /// A ray: unit speed from the origin, rightwards when `right`,
    /// forever — one member of the two-group strategy for `n >= 2f + 2`.
    #[must_use]
    pub fn ray(right: bool) -> Self {
        let side = if right { 1.0 } else { -1.0 };
        Plan { launch: 0.0, turns: Turns::Ray { side } }
    }

    /// The geometric sweep at **unit speed** from the origin: to
    /// `first`, then `-kappa * first`, then `kappa^2 * first`, and so
    /// on. `Plan::sweep(1.0, 2.0)` is the classic doubling strategy
    /// with competitive ratio 9; unlike [`Plan::zigzag`] there is no
    /// slow first leg, exactly as in the original cow-path formulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `first` is zero or non-finite, or
    /// `kappa <= 1`.
    pub fn sweep(first: f64, kappa: f64) -> Result<Self> {
        if first == 0.0 || !first.is_finite() {
            return Err(Error::domain(format!(
                "first leg must be finite and non-zero, got {first:?}"
            )));
        }
        if !(kappa > 1.0) || !kappa.is_finite() {
            return Err(Error::domain(format!("expansion factor must exceed 1, got {kappa:?}")));
        }
        Ok(Plan { launch: 0.0, turns: Turns::Sweep { first, kappa } })
    }

    /// The plan of one free-schedule robot.
    #[must_use]
    pub(crate) fn free(robot: FreeRobot) -> Self {
        Plan { launch: 0.0, turns: Turns::Free(robot) }
    }

    /// This plan launched at time `launch`: the robot holds at the
    /// origin until then and runs the plan shifted in time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for a negative or non-finite launch.
    pub fn launched_at(self, launch: f64) -> Result<Self> {
        if !(launch >= 0.0) || !launch.is_finite() {
            return Err(Error::domain(format!(
                "start delay must be finite and non-negative, got {launch:?}"
            )));
        }
        Ok(Plan { launch, ..self })
    }

    /// Materializes the plan as a finite trajectory on `[0, horizon]`.
    ///
    /// # Errors
    ///
    /// Returns an error when `horizon` is not finite and positive, or
    /// the walk breaks the unit speed limit.
    pub fn materialize(&self, horizon: f64) -> Result<PiecewiseTrajectory> {
        check_horizon(horizon)?;
        if horizon <= self.launch {
            // Not yet launched: parked at the origin.
            return PiecewiseTrajectory::new(vec![
                SpaceTime::origin(),
                SpaceTime::new(0.0, horizon),
            ]);
        }
        let capacity = match &self.turns {
            Turns::Free(robot) => robot.turns.len() + 2,
            _ => 2,
        };
        let walked = trace(capacity, self.start(), horizon - self.launch, |p, k| self.next(p, k))?;
        walked.retimed(1.0, self.launch)
    }

    /// The first turning point and the glide's pace `(a, b)`: the glide
    /// stands at `sign · a · h / b` at time `h`. A ray's first turn lies
    /// at infinity.
    fn start(&self) -> (SpaceTime, (f64, f64)) {
        match &self.turns {
            Turns::Ray { side } => {
                (SpaceTime::new(side * f64::INFINITY, f64::INFINITY), (1.0, 1.0))
            }
            Turns::Cone { cone, seed, .. } => (cone.boundary_point(*seed), (1.0, cone.beta())),
            Turns::Sweep { first, .. } => (SpaceTime::new(*first, first.abs()), (1.0, 1.0)),
            Turns::Free(robot) => robot.start(),
        }
    }

    /// The `k`-th turning point, which follows `p`.
    fn next(&self, p: SpaceTime, k: usize) -> SpaceTime {
        match &self.turns {
            Turns::Ray { .. } => unreachable!("a ray's first turn lies at infinity"),
            Turns::Cone { cone, bound, .. } => {
                let next = cone.next_turning_point(p);
                if next.x.abs() > *bound {
                    let x = next.x.signum() * bound;
                    return SpaceTime::new(x, p.t + (x - p.x).abs());
                }
                next
            }
            Turns::Sweep { kappa, .. } => {
                let x = p.x * -kappa;
                SpaceTime::new(x, p.t + (x - p.x).abs())
            }
            Turns::Free(robot) => robot.next_turn(p, k),
        }
    }
}

/// The walker behind every materialization: from `start` (the first
/// turning point and the glide pace of [`Plan`]'s `start`), hands every
/// turning point reached strictly before the finite, positive
/// `horizon` to `turn`, in order, stepping with `next(p, k)` to the
/// `k`-th, and returns the cut point where the robot stands at
/// `horizon`. Inlined, with [`trace`] and the free robot's steps: out
/// of line, `FreeRobot::materialize` and `cut_at` (the optimizer's
/// inner loop) ran 10–17% slower on a 2-core x86-64 host.
#[inline]
pub(crate) fn walk(
    (first, (a, b)): (SpaceTime, (f64, f64)),
    horizon: f64,
    next: impl Fn(SpaceTime, usize) -> SpaceTime,
    mut turn: impl FnMut(SpaceTime),
) -> SpaceTime {
    if horizon <= first.t {
        // Cut within the glide to the first turn.
        return SpaceTime::new(first.x.signum() * a * horizon / b, horizon);
    }
    let mut current = first;
    let mut k = 1usize;
    loop {
        turn(current);
        let next = next(current, k);
        if next.t >= horizon {
            // Cut the unit-speed leg from `current` towards `next`;
            // every turn before it came strictly before `horizon`.
            let direction = (next.x - current.x).signum();
            return SpaceTime::new(current.x + direction * (horizon - current.t), horizon);
        }
        current = next;
        k += 1;
    }
}

/// [`walk`] into a trajectory: the origin, every turn, then the cut,
/// in a buffer with room for `capacity` waypoints.
#[inline]
pub(crate) fn trace(
    capacity: usize,
    start: (SpaceTime, (f64, f64)),
    horizon: f64,
    next: impl Fn(SpaceTime, usize) -> SpaceTime,
) -> Result<PiecewiseTrajectory> {
    let mut waypoints = Vec::with_capacity(capacity);
    waypoints.push(SpaceTime::origin());
    let cut = walk(start, horizon, next, |turn| waypoints.push(turn));
    waypoints.push(cut);
    PiecewiseTrajectory::new(waypoints)
}

/// Validates a materialization horizon.
pub(crate) fn check_horizon(horizon: f64) -> Result<()> {
    if !(horizon > 0.0) || !horizon.is_finite() {
        return Err(Error::domain(format!(
            "materialization horizon must be finite and positive, got {horizon:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ray_reaches_horizon() {
        let t = Plan::ray(false).materialize(10.0).unwrap();
        assert_eq!(t.position_at(10.0), Some(-10.0));
        assert_eq!(t.first_visit(-3.0), Some(3.0));
        assert_eq!(t.first_visit(3.0), None);
    }

    #[test]
    fn ray_rejects_bad_horizon() {
        let cone = Cone::new(3.0).unwrap();
        let plans = [
            Plan::ray(true),
            Plan::zigzag(cone, 1.0).unwrap(),
            Plan::clamped_zigzag(cone, 1.0, 2.0).unwrap(),
            Plan::sweep(1.0, 2.0).unwrap().launched_at(1.0).unwrap(),
        ];
        for plan in plans {
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                assert!(plan.materialize(bad).is_err(), "{plan:?} at {bad}");
            }
        }
    }
}
