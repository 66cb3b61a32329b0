//! Empirical competitive-ratio measurement: exact critical-point
//! supremum scans of `K(x)` through [`crate::exact`], and an
//! independent discrete-event simulator path over the adversarial
//! target grid of [`materialize_with_targets`].

use crate::exact::{exact_expected_supremum, exact_supremum, FleetScan};
use faultline_core::coverage::{adversarial_targets, Fleet};
use faultline_core::{
    json_float, Error, FreeRobot, FreeSchedule, Geometry, Params, PiecewiseTrajectory, Result,
};
use faultline_strategies::{strategy_by_name, FixedBetaStrategy, Strategy};
use serde::{Deserialize, Serialize};

/// The outcome of an empirical competitive-ratio measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCr {
    /// The strategy's claimed analytic ratio, when it has one.
    pub analytic: Option<f64>,
    /// The measured supremum of `K(x)`.
    pub empirical: f64,
    /// The target achieving the supremum.
    pub argmax: f64,
    /// Number of scanned targets not confirmed within the horizon
    /// (non-zero means the strategy's coverage is incomplete and
    /// `empirical` is infinite).
    pub uncovered: usize,
}

// Manual serde impls: `empirical` is `f64::INFINITY` whenever coverage
// is incomplete, which a derived impl would write as lossy JSON `null`.
impl Serialize for MeasuredCr {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::Error as _;
        serializer.serialize_value(serde::Value::Object(vec![
            ("analytic".to_owned(), serde::to_value(&self.analytic).map_err(S::Error::custom)?),
            ("empirical".to_owned(), json_float::encode_f64(self.empirical)),
            ("argmax".to_owned(), json_float::encode_f64(self.argmax)),
            ("uncovered".to_owned(), serde::Value::UInt(self.uncovered as u64)),
        ]))
    }
}

impl<'de> Deserialize<'de> for MeasuredCr {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut fields = json_float::object_fields(deserializer.take_value()?, "MeasuredCr")
            .map_err(D::Error::custom)?;
        let mut take = |name: &str| {
            json_float::take_field(&mut fields, name, "MeasuredCr").map_err(D::Error::custom)
        };
        let analytic = serde::from_value(take("analytic")?).map_err(D::Error::custom)?;
        let empirical_raw = take("empirical")?;
        let argmax_raw = take("argmax")?;
        let uncovered = serde::from_value(take("uncovered")?).map_err(D::Error::custom)?;
        Ok(MeasuredCr {
            analytic,
            empirical: json_float::decode_f64(&empirical_raw, "empirical")
                .map_err(D::Error::custom)?,
            argmax: json_float::decode_f64(&argmax_raw, "argmax").map_err(D::Error::custom)?,
            uncovered,
        })
    }
}

/// Relative offset used to probe the right-hand limits at turning
/// points, where the supremum of `K` lives (Lemma 3).
pub const TURNING_POINT_EPS: f64 = 1e-9;

/// Resolves a strategy specification — a registry name, or
/// `"fixed-beta"` together with a cone parameter — into a strategy
/// object. Shared by the scenario runner, the CLI and the query
/// service so every entry point accepts the same spellings.
///
/// # Errors
///
/// Rejects unknown names, a missing `beta` for `"fixed-beta"`, and a
/// `beta` supplied for any other strategy.
pub fn resolve_strategy(name: &str, beta: Option<f64>) -> Result<Box<dyn Strategy>> {
    if name == "fixed-beta" {
        let beta =
            beta.ok_or_else(|| Error::domain("strategy \"fixed-beta\" requires a \"beta\" field"))?;
        return Ok(Box::new(FixedBetaStrategy::new(beta)?));
    }
    if beta.is_some() {
        return Err(Error::domain("\"beta\" is only meaningful with strategy \"fixed-beta\""));
    }
    strategy_by_name(name).ok_or_else(|| Error::domain(format!("unknown strategy \"{name}\"")))
}

/// A typed supremum-scan request: which strategy to measure, for which
/// `(n, f)`, over which window. This is the parameter set of
/// [`measure_strategy_cr`] in serializable form, consumed by both the
/// CLI and `POST /v1/supremum`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupremumQuery {
    /// Number of robots.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
    /// Strategy name from the registry (default `"paper"`).
    #[serde(default = "default_strategy_name")]
    pub strategy: String,
    /// Cone parameter, only for `strategy = "fixed-beta"`.
    #[serde(default)]
    pub beta: Option<f64>,
    /// Scan targets up to `±xmax` (default 25).
    #[serde(default = "default_xmax")]
    pub xmax: f64,
}

fn default_strategy_name() -> String {
    "paper".to_owned()
}

fn default_xmax() -> f64 {
    25.0
}

/// The result of a [`SupremumQuery`]: the fully resolved query echoed
/// back next to its measurement, so a cached report is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupremumReport {
    /// The query that produced this report.
    pub query: SupremumQuery,
    /// The measured supremum scan.
    pub measured: MeasuredCr,
}

impl SupremumQuery {
    /// Validates the query without running it.
    ///
    /// # Errors
    ///
    /// Rejects invalid `(n, f)`, a fleet over [`Params::MAX_ROBOTS`],
    /// unknown strategies, a missing or superfluous `beta`, and an
    /// `xmax` that is non-finite, below 1, or beyond the service bound
    /// of 1e9.
    pub fn validate(&self) -> Result<()> {
        Params::fleet(self.n, self.f)?;
        resolve_strategy(&self.strategy, self.beta)?;
        check_xmax(self.xmax)
    }

    /// Runs the scan through [`measure_strategy_cr`].
    ///
    /// # Errors
    ///
    /// Propagates validation and measurement failures.
    pub fn run(&self) -> Result<SupremumReport> {
        self.validate()?;
        let params = Params::new(self.n, self.f)?;
        let strategy = resolve_strategy(&self.strategy, self.beta)?;
        let measured = measure_strategy_cr(strategy.as_ref(), params, self.xmax)?;
        Ok(SupremumReport { query: self.clone(), measured })
    }
}

/// Checks a scan window `[1, xmax]`: `xmax` must be finite, at least 1
/// and at most the service bound of 1e9.
///
/// # Errors
///
/// Returns a domain error naming the rule `xmax` breaks.
pub fn check_xmax(xmax: f64) -> Result<()> {
    if !(xmax >= 1.0) || !xmax.is_finite() {
        return Err(Error::domain(format!("xmax must be finite and >= 1, got {xmax:?}")));
    }
    if xmax > 1e9 {
        return Err(Error::domain(format!("xmax {xmax:?} beyond the service bound 1e9")));
    }
    Ok(())
}

/// Builds the adversarial target grid for a materialized fleet: all
/// turning points of all robots within `[1, xmax]`, their right-hand
/// limits, a log grid, and the mirror images.
///
/// # Errors
///
/// Propagates grid construction failures.
pub fn fleet_targets(fleet: &Fleet, xmax: f64, grid_points: usize) -> Result<Vec<f64>> {
    let mut turning: Vec<f64> =
        fleet.trajectories().iter().flat_map(|t| t.turning_points()).map(|p| p.x).collect();
    // Robots sharing a turning position (herds, mirrored pairs) would
    // otherwise inject duplicate probes and a tie-dependent argmax.
    turning.sort_by(f64::total_cmp);
    turning.dedup();
    adversarial_targets(&turning, xmax, grid_points, TURNING_POINT_EPS)
}

/// Materializes a strategy's fleet together with the adversarial
/// target grid, guaranteeing the horizon covers every grid target.
///
/// This is the simulator path's target set and, through
/// [`Fleet::supremum`], the pointwise reference that the exact engine
/// is checked against: the exact supremum dominates every evaluation
/// of this scan.
///
/// The grid contains right-hand limits `m * (1 + eps)` for turning
/// points `m` up to `xmax`, so the horizon is requested for the
/// *actual* extreme target of the materialized grid (padded by another
/// `2 * eps`), not just for `xmax` itself; if that exceeds the probe
/// horizon the fleet is re-materialized. This closes the boundary gap
/// where the target at the largest turning point's right-hand limit
/// could fall outside the horizon a strategy sizes for `xmax` alone.
///
/// # Errors
///
/// Propagates plan generation, materialization and grid construction
/// failures.
pub fn materialize_with_targets(
    strategy: &dyn Strategy,
    params: Params,
    xmax: f64,
    grid_points: usize,
) -> Result<(Fleet, Vec<f64>)> {
    let plans = strategy.plans(params)?;
    let probe = strategy.horizon_hint(params, xmax * (1.0 + 2.0 * TURNING_POINT_EPS));
    let fleet = Fleet::from_plans(&plans, probe)?;
    let targets = fleet_targets(&fleet, xmax, grid_points)?;
    let reach = targets.iter().fold(xmax, |acc, &t| acc.max(t.abs()));
    let needed = strategy.horizon_hint(params, reach * (1.0 + 2.0 * TURNING_POINT_EPS));
    let fleet = if needed > fleet.horizon() { Fleet::from_plans(&plans, needed)? } else { fleet };
    debug_assert!(fleet.horizon() >= needed, "the fleet's horizon must cover the grid's reach");
    Ok((fleet, targets))
}

/// Measures the competitive ratio of a strategy for `params` as the
/// *exact* supremum of `K(x) = T_(f+1)(x)/|x|` over
/// `[-xmax, -1] ∪ [1, xmax]` plus the right-hand limits at `±xmax` —
/// a max over the critical points of [`crate::exact`], no grid.
///
/// # Errors
///
/// Propagates plan generation, materialization and scan failures.
pub fn measure_strategy_cr(
    strategy: &dyn Strategy,
    params: Params,
    xmax: f64,
) -> Result<MeasuredCr> {
    // The window must be open past 1 so the right-hand limit at the
    // near edge is still probed when a caller passes xmax = 1 exactly.
    let window = if xmax > 1.0 { xmax } else { 1.0 + TURNING_POINT_EPS };
    let plans = strategy.plans(params)?;
    let probe = strategy.horizon_hint(params, window * (1.0 + 2.0 * TURNING_POINT_EPS));
    let fleet = Fleet::from_plans(&plans, probe)?;
    let scan = exact_supremum(&fleet, params.required_visits(), window)?;
    Ok(MeasuredCr {
        analytic: strategy.analytic_cr(params),
        empirical: scan.ratio,
        argmax: scan.argmax,
        uncovered: scan.uncovered,
    })
}

/// Measures the competitive ratio of a [`FreeSchedule`] — the inner
/// worst-case objective of the `faultline-opt` schedule optimizer —
/// as the exact supremum of `K(x) = T_(f+1)(x)/|x|` over
/// `[-xmax, -1] ∪ [1, xmax]` plus the right-hand limits at `±xmax`.
///
/// The fleet horizon starts from the schedule's own hint and doubles
/// until every inter-critical-point interval is confirmed (free
/// schedules can defer coverage arbitrarily late); after eight
/// doublings the scan is returned as-is, with `uncovered > 0` and an
/// infinite ratio — callers distinguish the bailout by the surfaced
/// `uncovered` count.
///
/// # Errors
///
/// Rejects `f + 1 > n` (the target can never be confirmed by `f + 1`
/// distinct robots) and `xmax <= 1`, and propagates materialization
/// and scan failures.
pub fn measure_free_schedule_cr(
    schedule: &FreeSchedule,
    f: usize,
    xmax: f64,
) -> Result<MeasuredCr> {
    Ok(measure_free_schedule_profile(schedule, f, xmax)?.measured)
}

/// A [`measure_free_schedule_cr`] measurement augmented with the
/// *peak pressure*: the mass of inter-critical-point intervals whose
/// supremum sits essentially at the global supremum (a power-32
/// generalized mean of `interval supremum / supremum` — see
/// [`crate::exact::ExactScan::pressure`]). The paper's proportional
/// schedules equalize every peak, which makes the hard supremum a
/// plateau under any single-robot move; the optimizer uses the
/// pressure as a smooth tie-breaker so it can first drain non-binding
/// peaks and only then push the supremum itself down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeScheduleProfile {
    /// The hard supremum scan.
    pub measured: MeasuredCr,
    /// Power-mean mass of near-supremum peaks, in `(0, 1]`; `1.0`
    /// when the measurement is incomplete or non-finite.
    pub pressure: f64,
}

/// Rejects `f + 1 > n` and a window bound `xmax <= 1` or non-finite.
fn check_profile_args(schedule: &FreeSchedule, f: usize, xmax: f64) -> Result<()> {
    if f + 1 > schedule.n() {
        return Err(Error::invalid_params(
            schedule.n(),
            f,
            "a free schedule needs n >= f + 1 robots to confirm any target",
        ));
    }
    if !(xmax > 1.0) || !xmax.is_finite() {
        return Err(Error::domain(format!("xmax must be finite and > 1, got {xmax:?}")));
    }
    Ok(())
}

/// The horizon of the first attempt of the `measure_free_schedule_*`
/// family for a schedule of `robots`: [`FreeSchedule::horizon_hint`] of
/// the window padded past the right-hand limits at `xmax`, and at least
/// `4 xmax`.
fn first_horizon<'a>(robots: impl IntoIterator<Item = &'a FreeRobot>, xmax: f64) -> f64 {
    let window = padded_window(xmax);
    robots.into_iter().fold(4.0 * window, |worst, r| worst.max(r.reach(window))).max(4.0 * xmax)
}

/// `xmax` padded past the right-hand limits at the window edge: the
/// window [`first_horizon`] asks each robot to reach.
fn padded_window(xmax: f64) -> f64 {
    xmax * (1.0 + 2.0 * TURNING_POINT_EPS)
}

/// Measures a free schedule's competitive ratio together with its
/// peak pressure (see [`FreeScheduleProfile`]) through the exact
/// critical-point engine.
///
/// # Errors
///
/// Same contract as [`measure_free_schedule_cr`].
pub fn measure_free_schedule_profile(
    schedule: &FreeSchedule,
    f: usize,
    xmax: f64,
) -> Result<FreeScheduleProfile> {
    check_profile_args(schedule, f, xmax)?;
    let mut horizon = first_horizon(schedule.robots(), xmax);
    let mut attempt = 0usize;
    loop {
        let fleet = schedule.fleet(horizon)?;
        let scan = exact_supremum(&fleet, f + 1, xmax)?;
        if scan.uncovered == 0 || attempt >= 8 {
            let measured = MeasuredCr {
                analytic: None,
                empirical: scan.ratio,
                argmax: scan.argmax,
                uncovered: scan.uncovered,
            };
            return Ok(FreeScheduleProfile { measured, pressure: scan.pressure });
        }
        horizon *= 2.0;
        attempt += 1;
    }
}

/// A free schedule with one robot left out, measured once, so that
/// candidates for that robot score in a fraction of a full
/// [`measure_free_schedule_profile`].
///
/// Each other robot is materialized up to its own
/// [`FreeRobot::reach`], and the lot is scanned into a [`FleetScan`].
/// By its reach a robot has passed both window edges, so it has made
/// every first visit of `[1, xmax]` and `[-xmax, -1]` it will ever
/// make, and it stops on its way back through the origin, outside
/// both windows. Materialized up to a longer horizon, it only adds
/// turns past the window and the point where it then stands, which at
/// most splits an interval with the same first visits on both sides.
/// A candidate is therefore scanned at the swapped schedule's first
/// horizon, with the other robots' positions at that horizon as split
/// points, and the profile is bit for bit the one
/// [`measure_free_schedule_profile`] reports for the swapped schedule,
/// whatever horizon the candidate gives it.
///
/// A robot that has not settled by its reach cannot be held: its tail
/// is so flat that the reach stops at its turn cap short of the
/// window, or its reach is so long that the stop rounds into a window.
#[derive(Debug, Clone)]
pub struct LeaveOneOut {
    xmax: f64,
    /// The first horizon of the schedule without the left-out robot.
    horizon: f64,
    /// The other robots, each held up to its own reach.
    others: Vec<FreeRobot>,
    /// Their split points at `horizon`.
    splits: [Vec<f64>; 2],
    scan: FleetScan,
}

impl LeaveOneOut {
    /// Leaves robot `robot` of `schedule` out, for measurements at
    /// fault budget `f` over the window `xmax`.
    ///
    /// # Errors
    ///
    /// As [`measure_free_schedule_profile`], and rejects a schedule of
    /// one robot, a robot index out of range, and another robot that
    /// has not settled by its reach.
    pub fn new(schedule: &FreeSchedule, robot: usize, f: usize, xmax: f64) -> Result<Self> {
        check_profile_args(schedule, f, xmax)?;
        if robot >= schedule.n() || schedule.n() < 2 {
            return Err(Error::domain(format!(
                "cannot leave robot {robot} out of a schedule of {} robots",
                schedule.n()
            )));
        }
        let others = schedule.robots().iter().enumerate().filter(|&(i, _)| i != robot);
        let others: Vec<FreeRobot> = others.map(|(_, r)| r.clone()).collect();
        let horizon = first_horizon(&others, xmax);
        let trajectories = others
            .iter()
            .map(|r| {
                let trajectory = r.materialize(r.reach(padded_window(xmax)))?;
                if !settles(&trajectory, xmax) {
                    return Err(Error::domain(
                        "a robot that has not cleared the window by its reach cannot be held",
                    ));
                }
                Ok(trajectory)
            })
            .collect::<Result<Vec<_>>>()?;
        let splits = split_points(&others, horizon, xmax)?;
        let scan = FleetScan::new(&trajectories, f + 1, xmax, Geometry::Line)?;
        Ok(LeaveOneOut { xmax, horizon, others, splits, scan })
    }

    /// The profile of the schedule with `candidate` in the left-out
    /// robot's place, bit for bit the one
    /// [`measure_free_schedule_profile`] reports for it, or `None`
    /// when the candidate leaves the window uncovered at the swapped
    /// schedule's first horizon or fails to materialize or scan.
    /// Callers then measure the swapped schedule in full.
    #[must_use]
    pub fn profile(&self, candidate: &FreeRobot) -> Option<FreeScheduleProfile> {
        // `f64::max` picks one operand exactly, so this is the swapped
        // schedule's first horizon.
        let horizon = self.horizon.max(first_horizon([candidate], self.xmax));
        let moved;
        let splits = if horizon.to_bits() == self.horizon.to_bits() {
            &self.splits
        } else {
            moved = split_points(&self.others, horizon, self.xmax).ok()?;
            &moved
        };
        let trajectory = candidate.materialize(horizon).ok()?;
        let scan = self.scan.scan_with(&trajectory, [&splits[0], &splits[1]]).ok()?;
        (scan.uncovered == 0).then_some(FreeScheduleProfile {
            measured: MeasuredCr {
                analytic: None,
                empirical: scan.ratio,
                argmax: scan.argmax,
                uncovered: 0,
            },
            pressure: scan.pressure,
        })
    }
}

/// Whether `trajectory`, a robot materialized up to its reach, has
/// settled: it passes both edges of the window `xmax` before its last
/// waypoint, and that last waypoint lies in `[-1, 1]`, outside both
/// windows.
fn settles(trajectory: &PiecewiseTrajectory, xmax: f64) -> bool {
    let (stop, path) = trajectory.waypoints().split_last().expect("a trajectory has waypoints");
    stop.x.abs() <= 1.0 && path.iter().any(|w| w.x > xmax) && path.iter().any(|w| w.x < -xmax)
}

/// Where `robots` stand at `horizon`, strictly inside the window
/// `xmax`, as [`FleetScan::scan_with`] split points: the positive
/// window's, then the mirrored negative window's, each ascending.
fn split_points(robots: &[FreeRobot], horizon: f64, xmax: f64) -> Result<[Vec<f64>; 2]> {
    let mut splits = [Vec::new(), Vec::new()];
    for r in robots {
        let x = r.cut_at(horizon)?.x;
        if x.abs() > 1.0 && x.abs() < xmax {
            splits[usize::from(x < 0.0)].push(x.abs());
        }
    }
    for side in &mut splits {
        side.sort_unstable_by(f64::total_cmp);
    }
    Ok(splits)
}

/// Measures the *expected* competitive ratio of a [`FreeSchedule`]
/// when every robot is p-faulty with the given per-visit detection
/// probability: the exact supremum over `[-xmax, -1] ∪ [1, xmax]` of
/// the closed-form expectation ([`faultline_sim::expected_outcome`]),
/// with undetected mass truncated at the measurement horizon.
///
/// A position is *uncovered* when no robot ever stands on it within
/// the horizon (its detection probability is exactly zero no matter
/// how large `p` is); the horizon doubles up to eight times until
/// every inter-critical-point interval is visited at least once,
/// mirroring [`measure_free_schedule_profile`].
///
/// # Errors
///
/// Rejects `xmax <= 1` and out-of-range probabilities, and propagates
/// materialization failures.
pub fn measure_free_schedule_expected_cr(
    schedule: &FreeSchedule,
    detect_probability: f64,
    xmax: f64,
) -> Result<MeasuredCr> {
    if !(xmax > 1.0) || !xmax.is_finite() {
        return Err(Error::domain(format!("xmax must be finite and > 1, got {xmax:?}")));
    }
    let mut horizon = first_horizon(schedule.robots(), xmax);
    let mut attempt = 0usize;
    loop {
        let fleet = schedule.fleet(horizon)?;
        let scan = exact_expected_supremum(&fleet, detect_probability, xmax)?;
        if scan.uncovered == 0 || attempt >= 8 {
            return Ok(MeasuredCr {
                analytic: None,
                empirical: scan.ratio,
                argmax: scan.argmax,
                uncovered: scan.uncovered,
            });
        }
        horizon *= 2.0;
        attempt += 1;
    }
}

/// Measures the competitive ratio of a strategy through the
/// discrete-event simulator with the worst-case fault adversary — an
/// execution path entirely independent of [`measure_strategy_cr`].
///
/// # Errors
///
/// Propagates plan generation and simulation failures.
pub fn measure_strategy_cr_sim(
    strategy: &dyn Strategy,
    params: Params,
    xmax: f64,
    grid_points: usize,
) -> Result<MeasuredCr> {
    let plans = strategy.plans(params)?;
    let (fleet, targets) = materialize_with_targets(strategy, params, xmax, grid_points)?;
    let horizon = fleet.horizon();
    let result = faultline_sim::empirical_competitive_ratio(&plans, params.f(), &targets, horizon)?;
    Ok(MeasuredCr {
        analytic: strategy.analytic_cr(params),
        empirical: result.ratio,
        argmax: result.argmax,
        uncovered: result.undetected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_strategies::{HerdDoublingStrategy, PaperStrategy, PessimalSplitStrategy};

    #[test]
    fn paper_strategy_measures_at_its_analytic_cr() {
        for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)] {
            let params = Params::new(n, f).unwrap();
            let m = measure_strategy_cr(&PaperStrategy::new(), params, 40.0).unwrap();
            let analytic = m.analytic.unwrap();
            assert_eq!(m.uncovered, 0, "(n = {n}, f = {f})");
            // The supremum is attained exactly at turning-point
            // right-hand limits, which the exact engine evaluates
            // directly: agreement is at float precision, far below
            // the historical grid tolerance of 1e-3.
            assert!(
                (m.empirical - analytic).abs() <= 1e-6 * analytic,
                "(n = {n}, f = {f}): empirical {} vs analytic {analytic}",
                m.empirical
            );
        }
    }

    #[test]
    fn sim_path_agrees_with_coverage_path() {
        // The simulator scans the same discrete target grid as the
        // pointwise reference, so the comparison runs reference-vs-sim;
        // the exact path can only exceed both, never fall below.
        let params = Params::new(3, 1).unwrap();
        let (fleet, targets) =
            materialize_with_targets(&PaperStrategy::new(), params, 20.0, 60).unwrap();
        let a = fleet.supremum(&targets, params.required_visits()).unwrap();
        let b = measure_strategy_cr_sim(&PaperStrategy::new(), params, 20.0, 60).unwrap();
        assert!((a.ratio - b.empirical).abs() < 1e-9);
        assert_eq!(a.uncovered, b.uncovered);
        let exact = measure_strategy_cr(&PaperStrategy::new(), params, 20.0).unwrap();
        assert!(exact.empirical >= a.ratio - 1e-12);
    }

    #[test]
    fn herd_doubling_measures_below_nine() {
        let params = Params::new(3, 2).unwrap();
        let m = measure_strategy_cr(&HerdDoublingStrategy::new(), params, 600.0).unwrap();
        assert_eq!(m.uncovered, 0);
        assert!(m.empirical <= 9.0 + 1e-9);
        assert!(m.empirical > 8.5, "worst case approaches 9, got {}", m.empirical);
    }

    #[test]
    fn boundary_target_at_largest_turning_point_stays_covered() {
        // Pin xmax exactly at a turning position of the materialized
        // schedule, so the adversarial grid contains the right-hand
        // limit `xmax * (1 + eps)` — the target historically most at
        // risk of falling outside a horizon sized for `xmax` alone.
        let params = Params::new(3, 2).unwrap();
        let strategy = PaperStrategy::new();
        let plans = strategy.plans(params).unwrap();
        let probe = strategy.horizon_hint(params, 64.0);
        let fleet = Fleet::from_plans(&plans, probe).unwrap();
        let xmax = fleet
            .trajectories()
            .iter()
            .flat_map(faultline_core::PiecewiseTrajectory::turning_points)
            .map(|p| p.x.abs())
            .filter(|&m| m > 1.0 && m <= 50.0)
            .fold(0.0f64, f64::max);
        assert!(xmax > 1.0, "schedule must turn beyond 1 within the probe window");
        let m = measure_strategy_cr(&strategy, params, xmax).unwrap();
        assert_eq!(
            m.uncovered, 0,
            "right-hand-limit target at the largest turning point ({xmax}) \
             fell outside the materialized horizon"
        );
        assert!(m.empirical.is_finite());
        let s = measure_strategy_cr_sim(&strategy, params, xmax, 16).unwrap();
        assert_eq!(s.uncovered, 0);
    }

    #[test]
    fn infinite_measurement_roundtrips_losslessly() {
        let params = Params::new(3, 1).unwrap();
        let m = measure_strategy_cr(&PessimalSplitStrategy::new(), params, 10.0).unwrap();
        assert!(m.empirical.is_infinite());
        let json = serde_json::to_string_pretty(&m).unwrap();
        assert!(json.contains("\"inf\""), "non-finite ratio must use the sentinel: {json}");
        let back: MeasuredCr = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn supremum_query_runs_and_roundtrips() {
        let query: SupremumQuery =
            serde_json::from_str(r#"{"n": 3, "f": 1, "xmax": 20.0}"#).unwrap();
        assert_eq!(query.strategy, "paper");
        let report = query.run().unwrap();
        assert_eq!(report.measured.uncovered, 0);
        assert!((report.measured.empirical - 5.2331).abs() < 1e-2);
        let json = serde_json::to_string(&report).unwrap();
        let back: SupremumReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn supremum_query_validates_inputs() {
        let base = SupremumQuery { n: 3, f: 1, strategy: "paper".into(), beta: None, xmax: 25.0 };
        assert!(base.validate().is_ok());
        assert!(SupremumQuery { n: 1, f: 3, ..base.clone() }.validate().is_err());
        assert!(SupremumQuery { strategy: "nope".into(), ..base.clone() }.validate().is_err());
        assert!(SupremumQuery { beta: Some(2.0), ..base.clone() }.validate().is_err());
        assert!(SupremumQuery { strategy: "fixed-beta".into(), ..base.clone() }
            .validate()
            .is_err());
        assert!(SupremumQuery { xmax: 0.5, ..base.clone() }.validate().is_err());
        assert!(SupremumQuery { xmax: f64::NAN, ..base }.validate().is_err());
    }

    #[test]
    fn resolve_strategy_matches_scenario_rules() {
        assert!(resolve_strategy("paper", None).is_ok());
        assert!(resolve_strategy("fixed-beta", Some(2.5)).is_ok());
        assert!(resolve_strategy("fixed-beta", None).is_err());
        assert!(resolve_strategy("paper", Some(2.5)).is_err());
        assert!(resolve_strategy("no-such", None).is_err());
    }

    #[test]
    fn pessimal_split_is_caught_uncovered() {
        let params = Params::new(3, 1).unwrap();
        let m = measure_strategy_cr(&PessimalSplitStrategy::new(), params, 10.0).unwrap();
        assert!(m.empirical.is_infinite());
        assert!(m.uncovered > 0);
    }

    #[test]
    fn lowered_proportional_free_schedule_measures_at_theorem1() {
        use faultline_core::{ratio, ProportionalSchedule};
        for (n, f) in [(3usize, 1usize), (5, 3), (4, 2)] {
            let params = Params::new(n, f).unwrap();
            let beta = ratio::optimal_beta(params).unwrap();
            let schedule = ProportionalSchedule::new(n, beta).unwrap();
            let free = FreeSchedule::from_proportional(&schedule, 10).unwrap();
            let analytic = ratio::cr_upper(params);
            let m = measure_free_schedule_cr(&free, f, 25.0).unwrap();
            assert_eq!(m.uncovered, 0, "(n = {n}, f = {f})");
            assert!(
                m.empirical <= analytic + 1e-9,
                "(n = {n}, f = {f}): free-schedule measurement {} above Theorem 1 {analytic}",
                m.empirical
            );
            // Exact evaluation lands on the equalized peaks, so the
            // historical 1e-2 grid slack tightens to float precision.
            assert!(
                m.empirical >= analytic - 1e-6 * analytic,
                "(n = {n}, f = {f}): {}",
                m.empirical
            );
        }
    }

    #[test]
    fn free_schedule_measurement_validates_inputs() {
        use faultline_core::FreeRobot;
        let one_robot =
            FreeSchedule::new(vec![FreeRobot::new(1.0, vec![1.0, 2.0], 1.0).unwrap()]).unwrap();
        assert!(measure_free_schedule_cr(&one_robot, 1, 10.0).is_err(), "f + 1 > n");
        assert!(measure_free_schedule_cr(&one_robot, 0, 1.0).is_err(), "xmax <= 1");
        assert!(measure_free_schedule_cr(&one_robot, 0, f64::NAN).is_err());
        // A single doubling robot with f = 0 is the classic cow path:
        // measured CR <= 9 within any window.
        let m = measure_free_schedule_cr(&one_robot, 0, 30.0).unwrap();
        assert_eq!(m.uncovered, 0);
        assert!(m.empirical <= 9.0 + 1e-9, "doubling measures {}", m.empirical);
    }

    #[test]
    fn deferred_coverage_doubles_the_horizon_until_confirmed() {
        use faultline_core::FreeRobot;
        // The second robot dawdles: it reaches its first turn only at
        // t = 5000, far beyond the initial horizon hint for xmax = 10,
        // so confirmation (f + 1 = 2 distinct visits) of every target
        // needs the measurement loop to deepen the fleet. The measured
        // ratio is finite but dominated by the dawdler.
        let schedule = FreeSchedule::new(vec![
            FreeRobot::new(1.0, vec![1.0, 2.0], 1.0).unwrap(),
            FreeRobot::new(-1.0, vec![1.0, 2.0], 5000.0).unwrap(),
        ])
        .unwrap();
        let m = measure_free_schedule_cr(&schedule, 1, 10.0).unwrap();
        assert_eq!(m.uncovered, 0, "horizon doubling must eventually confirm the window");
        assert!(m.empirical.is_finite());
        assert!(m.empirical > 500.0, "the dawdler dominates: {}", m.empirical);
    }

    #[test]
    fn lowered_proportional_seed_measures_above_alpha() {
        use faultline_core::lower_bound;
        use faultline_core::{ratio, ProportionalSchedule};
        // The measurement of the lowered A(3, 1) stays consistent with
        // the Theorem 2 lower bound.
        let params = Params::new(3, 1).unwrap();
        let beta = ratio::optimal_beta(params).unwrap();
        let schedule = ProportionalSchedule::new(3, beta).unwrap();
        let free = FreeSchedule::from_proportional(&schedule, 8).unwrap();
        let alpha = lower_bound::alpha(3).unwrap();
        let m = measure_free_schedule_cr(&free, 1, 25.0).unwrap();
        assert_eq!(m.uncovered, 0);
        assert!(m.empirical >= alpha, "measured {} below alpha(3) = {alpha}", m.empirical);
    }

    #[test]
    fn bailed_out_measurement_surfaces_uncovered_through_json() {
        use faultline_core::FreeRobot;
        // A turn ratio this close to 1 expands the zigzag so slowly
        // that the robot cannot clear the window within the horizon
        // hint's turn cap or eight doublings, so the measurement
        // bails out: the infinite ratio alone would be
        // indistinguishable from a genuine divergence, and callers
        // rely on the surfaced `uncovered` count instead.
        let schedule =
            FreeSchedule::new(vec![FreeRobot::new(1.0, vec![1.0, 1.0 + 1e-7], 1.0).unwrap()])
                .unwrap();
        let m = measure_free_schedule_cr(&schedule, 0, 2.0).unwrap();
        assert!(m.empirical.is_infinite());
        assert!(m.uncovered > 0, "bailout must report the uncovered intervals");
        let json = serde_json::to_string(&m).unwrap();
        assert!(
            json.contains(&format!("\"uncovered\": {}", m.uncovered))
                || json.contains(&format!("\"uncovered\":{}", m.uncovered)),
            "uncovered must survive the JSON boundary: {json}"
        );
        let back: MeasuredCr = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back, "the bailout measurement must roundtrip losslessly");
    }

    #[test]
    fn proportional_seed_reports_full_pressure() {
        use faultline_core::{ratio, ProportionalSchedule};
        // The proportional seed equalizes every ladder peak at the
        // Theorem 1 ratio, so the power-32 mean over critical-point
        // intervals must sit essentially at 1 — dilution comes only
        // from the handful of truncation cuts and the window edge.
        let params = Params::new(3, 1).unwrap();
        let beta = ratio::optimal_beta(params).unwrap();
        let schedule = ProportionalSchedule::new(3, beta).unwrap();
        let free = FreeSchedule::from_proportional(&schedule, 10).unwrap();
        let profile = measure_free_schedule_profile(&free, 1, 25.0).unwrap();
        assert_eq!(profile.measured.uncovered, 0);
        assert!(
            profile.pressure > 0.5 && profile.pressure <= 1.0 + 1e-12,
            "equalized-peak plateau must keep the pressure near 1, got {}",
            profile.pressure
        );
    }

    #[test]
    fn two_group_through_paper_strategy_measures_one() {
        let params = Params::new(6, 2).unwrap();
        let m = measure_strategy_cr(&PaperStrategy::new(), params, 30.0).unwrap();
        assert!((m.empirical - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_cr_validates_inputs_and_is_monotone_in_p() {
        use faultline_core::FreeRobot;
        let schedule =
            FreeSchedule::new(vec![FreeRobot::new(1.0, vec![1.0, 2.0], 1.0).unwrap()]).unwrap();
        assert!(measure_free_schedule_expected_cr(&schedule, 0.5, 1.0).is_err(), "xmax <= 1");
        assert!(measure_free_schedule_expected_cr(&schedule, f64::NAN, 10.0).is_err());
        assert!(measure_free_schedule_expected_cr(&schedule, 1.5, 10.0).is_err());
        let mut prev = f64::INFINITY;
        for p in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let m = measure_free_schedule_expected_cr(&schedule, p, 20.0).unwrap();
            assert_eq!(m.uncovered, 0, "p = {p} leaves uncovered targets");
            assert!(m.analytic.is_none());
            assert!(
                m.empirical <= prev + 1e-12,
                "expected CR must be monotone non-increasing in p: E({p}) = {} > {prev}",
                m.empirical
            );
            prev = m.empirical;
        }
    }

    #[test]
    fn expected_cr_at_certain_detection_matches_the_reliable_measurement() {
        use faultline_core::FreeRobot;
        // With p = 1 every visit detects, so the expectation collapses
        // to the first-visit time — exactly the f = 0 worst case.
        let schedule = FreeSchedule::new(vec![
            FreeRobot::new(1.0, vec![1.0, 2.0], 1.0).unwrap(),
            FreeRobot::new(-1.0, vec![1.0, 2.0], 1.0).unwrap(),
        ])
        .unwrap();
        let expected = measure_free_schedule_expected_cr(&schedule, 1.0, 15.0).unwrap();
        let reliable = measure_free_schedule_cr(&schedule, 0, 15.0).unwrap();
        assert_eq!(expected.uncovered, 0);
        assert!(
            (expected.empirical - reliable.empirical).abs() <= 1e-9,
            "p = 1 expectation {} vs reliable measurement {}",
            expected.empirical,
            reliable.empirical
        );
    }
}
