//! The declarative oracle set: named cross-path agreement checks,
//! metamorphic relations, and self-consistency properties.
//!
//! Every oracle is a pure function of an [`Instance`] (plus the
//! test-only injection flag), so the engine can fan instances out over
//! the work-stealing pool and still produce byte-identical reports for
//! any thread count. An oracle answers [`Verdict::Skip`] when the
//! instance is outside its domain (e.g. the closed form does not exist
//! in the two-group regime), never an error.
//!
//! | oracle | relation | tolerance |
//! |---|---|---|
//! | `sim-analytic-detection` | simulator detection time = coverage `T_(f+1)(x)` | [`REL_TOL`] |
//! | `sim-analytic-supremum` | pointwise reference scan and simulator agree per strategy | [`REL_TOL`] |
//! | `exact-supremum-dominates-grid` | exact critical-point supremum >= the pointwise reference scan | [`REL_TOL`] |
//! | `closed-form-visit` | Lemma 2 closed form = coverage `T_(f+1)(x)` | [`REL_TOL`] |
//! | `thm1-closed-form-measured` | exact measured CR attains Theorem 1 | [`EXACT_RTOL`] below, [`ABS_SLACK`] above |
//! | `cr-monotone-in-f` | `CR(n, f) <= CR(n, f + 1)` | [`EXACT_TOL`] |
//! | `scale-invariance` | `K(E * x) = K(x)` for the proportional ladder | [`REL_TOL`] |
//! | `two-group-unit-cr` | `n >= 2f + 2` has CR exactly 1 | [`REL_TOL`] |
//! | `single-robot-nine` | `n = f + 1` collapses to doubling's CR 9 | [`EXACT_RTOL`] |
//! | `measured-above-certified-floor` | measured CR >= certified lower bound | [`FLOOR_RTOL`] |
//! | `objective-eval-consistency` | optimizer score sits in `(measured, measured + PRESSURE_WEIGHT]` or is `PENALTY` | exact |
//! | `adversary-dominance` | any in-budget mask detects by `T_(f+1)(x)` | [`REL_TOL`] |
//! | `replay-determinism` | recorded runs replay bit-for-bit, twice | exact |
//! | `intermittent-degenerate-equivalence` | `Intermittent{1.0}` ≡ `Sensor`, `Intermittent{0.0}` ≡ `Reliable`, bitwise | exact |
//! | `pfaulty-endpoint-collapse` | `PFaulty{1.0}` ≡ `Reliable`, `PFaulty{0.0}` ≡ `Sensor`, bitwise | exact |
//! | `byzantine-quorum-no-false-confirm` | no coalition of `f` liars confirms a false position; quorum detection = honest `T_votes(x)` | [`REL_TOL`] |
//! | `expected-cr-monotone-in-p` | expected detection time is non-increasing in `p`; `E(1) = T_1(x)` | [`REL_TOL`] |
//! | `enclosure-contains-exact` | `exact_supremum_enclosed` brackets the exact supremum tightly | [`ENCLOSURE_WIDTH_RTOL`] |
//! | `unit-speed-scenario-equivalence` | a unit-speed, immediately-active, full-line scenario document reproduces a direct simulation of the paper's fleet bitwise | exact |
//! | `mask-enumeration-equals-exact` | the worst fault set's first-visit supremum is the `(f+1)`-th visit's supremum, for the paper fleet and the free schedule | exact |

use std::collections::{BTreeMap, BTreeSet};

use faultline_analysis::scenario::results_to_json;
use faultline_analysis::supremum::{materialize_with_targets, TURNING_POINT_EPS};
use faultline_analysis::{
    exact_supremum, exact_supremum_enclosed, measure_strategy_cr, measure_strategy_cr_sim,
    Scenario, ScenarioResult,
};
use faultline_core::closed_form::ClosedForm;
use faultline_core::coverage::{Fleet, SupremumScan};
use faultline_core::trajectory::PiecewiseTrajectory;
use faultline_core::{certificate, ratio, Algorithm, Geometry, Params, Result};
use faultline_opt::{Objective, PENALTY, PRESSURE_WEIGHT};
use faultline_scenario::{Activation, RobotSpec, ScenarioDoc, SCENARIO_VERSION};
use faultline_sim::engine::SimConfig;
use faultline_sim::{
    expected_outcome, worst_case_outcome, FaultKind, FaultPlan, QuorumConfig, RunTrace,
    SearchOutcome, Simulation, Target,
};
use faultline_strategies::{strategy_by_name, PaperStrategy, Strategy};

use crate::instance::Instance;

/// Relative tolerance for cross-path agreement: two independent
/// evaluations of the same exact quantity may differ only by
/// accumulated rounding.
pub const REL_TOL: f64 = 1e-9;

/// Tolerance for the exact critical-point engine against analytic
/// values: the supremum is a max over exact one-sided-limit
/// evaluations, so agreement is at accumulated-rounding precision
/// with a generous margin.
pub const EXACT_RTOL: f64 = 1e-6;

/// Absolute slack allowed *above* an analytic value by a measurement
/// (probe offsets can overshoot the supremum by rounding, never by
/// more than this).
pub const ABS_SLACK: f64 = 1e-6;

/// Tolerance for relations that hold exactly in real arithmetic
/// between closed-form evaluations.
pub const EXACT_TOL: f64 = 1e-12;

/// Relative slack when comparing a finite-window measurement against a
/// certified (outward-rounded) lower-bound enclosure.
pub const FLOOR_RTOL: f64 = 1e-6;

/// Size of the test-only injected perturbation: large enough to trip
/// every oracle tolerance above, small enough that the perturbed run
/// still executes normally.
pub const INJECTED_SKEW: f64 = 0.01;

/// Maximum relative width of a certified supremum enclosure: the
/// outward rounding accumulates only a handful of ulps per operation,
/// so `hi - lo` beyond this fraction of the supremum means the
/// interval arithmetic degraded.
pub const ENCLOSURE_WIDTH_RTOL: f64 = 1e-9;

/// A failed check: the two sides of the violated relation, a human
/// explanation, and (for sim-involving oracles) a replayable trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// The reference side of the relation.
    pub expected: f64,
    /// The side that violated it.
    pub observed: f64,
    /// Which sub-check failed, with the concrete inputs.
    pub detail: String,
    /// A replayable simulator trace backing the failure, when the
    /// oracle runs the discrete-event engine.
    pub trace: Option<RunTrace>,
}

/// The outcome of one oracle on one instance.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The relation holds within tolerance.
    Pass,
    /// The instance is outside the oracle's domain (with the reason).
    Skip(String),
    /// The relation is violated.
    Fail(Box<Mismatch>),
}

impl Verdict {
    /// Whether this verdict is a failure.
    #[must_use]
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

/// A named conformance oracle.
pub struct Oracle {
    /// Stable name (report rows, counterexample documents, CLI).
    pub name: &'static str,
    /// One-line statement of the relation.
    pub description: &'static str,
    /// The dominant tolerance the oracle asserts with.
    pub tolerance: f64,
    check: fn(&Instance, bool) -> Result<Verdict>,
}

impl Oracle {
    /// Runs the oracle. Internal errors (a path that refuses an input
    /// another path accepted) are themselves conformance failures, so
    /// they surface as [`Verdict::Fail`], never as `Err`.
    #[must_use]
    pub fn check(&self, instance: &Instance, inject: bool) -> Verdict {
        match (self.check)(instance, inject) {
            Ok(verdict) => verdict,
            Err(e) => fail(f64::NAN, f64::NAN, format!("oracle errored: {e}"), None),
        }
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("name", &self.name)
            .field("tolerance", &self.tolerance)
            .finish()
    }
}

/// The full oracle set, in report order.
#[must_use]
pub fn all_oracles() -> &'static [Oracle] {
    &ORACLES
}

/// Looks up an oracle by its stable name.
#[must_use]
pub fn oracle_by_name(name: &str) -> Option<&'static Oracle> {
    ORACLES.iter().find(|o| o.name == name)
}

static ORACLES: [Oracle; 20] = [
    Oracle {
        name: "sim-analytic-detection",
        description: "worst-case simulator detection time equals coverage T_(f+1)(x)",
        tolerance: REL_TOL,
        check: sim_analytic_detection,
    },
    Oracle {
        name: "sim-analytic-supremum",
        description: "coverage and simulator measurement paths agree for the instance strategy",
        tolerance: REL_TOL,
        check: sim_analytic_supremum,
    },
    Oracle {
        name: "exact-supremum-dominates-grid",
        description: "the exact critical-point supremum dominates every adversarial-grid scan",
        tolerance: REL_TOL,
        check: exact_supremum_dominates_grid,
    },
    Oracle {
        name: "closed-form-visit",
        description: "Lemma 2 closed-form visit times equal coverage queries",
        tolerance: REL_TOL,
        check: closed_form_visit,
    },
    Oracle {
        name: "thm1-closed-form-measured",
        description: "exact measured CR of A(n, f) attains Theorem 1",
        tolerance: EXACT_RTOL,
        check: thm1_closed_form_measured,
    },
    Oracle {
        name: "cr-monotone-in-f",
        description: "Theorem 1 CR is non-decreasing in f at fixed n",
        tolerance: EXACT_TOL,
        check: cr_monotone_in_f,
    },
    Oracle {
        name: "scale-invariance",
        description: "K(x) is invariant under the ladder period E = r^n",
        tolerance: REL_TOL,
        check: scale_invariance,
    },
    Oracle {
        name: "two-group-unit-cr",
        description: "n >= 2f + 2 yields competitive ratio exactly 1",
        tolerance: REL_TOL,
        check: two_group_unit_cr,
    },
    Oracle {
        name: "single-robot-nine",
        description: "n = f + 1 collapses to the single-robot doubling bound 9",
        tolerance: EXACT_RTOL,
        check: single_robot_nine,
    },
    Oracle {
        name: "measured-above-certified-floor",
        description: "measured CR never dips below the certified lower-bound enclosure",
        tolerance: FLOOR_RTOL,
        check: measured_above_certified_floor,
    },
    Oracle {
        name: "objective-eval-consistency",
        description:
            "optimizer score is measured + pressure tie-break, or PENALTY when unscoreable",
        tolerance: 0.0,
        check: objective_eval_consistency,
    },
    Oracle {
        name: "adversary-dominance",
        description: "every in-budget fault mask detects no later than T_(f+1)(x)",
        tolerance: REL_TOL,
        check: adversary_dominance,
    },
    Oracle {
        name: "replay-determinism",
        description: "recorded simulator runs replay bit-for-bit and re-record identically",
        tolerance: 0.0,
        check: replay_determinism,
    },
    Oracle {
        name: "intermittent-degenerate-equivalence",
        description: "Intermittent{1.0} collapses to Sensor and Intermittent{0.0} to Reliable, bitwise",
        tolerance: 0.0,
        check: intermittent_degenerate_equivalence,
    },
    Oracle {
        name: "pfaulty-endpoint-collapse",
        description: "PFaulty{1.0} collapses to Reliable and PFaulty{0.0} to Sensor, bitwise",
        tolerance: 0.0,
        check: pfaulty_endpoint_collapse,
    },
    Oracle {
        name: "byzantine-quorum-no-false-confirm",
        description:
            "no coalition of liars confirms a false position; quorum detection is the honest sub-fleet's T_votes",
        tolerance: REL_TOL,
        check: byzantine_quorum_no_false_confirm,
    },
    Oracle {
        name: "expected-cr-monotone-in-p",
        description:
            "expected detection time is non-increasing in p and collapses to T_1 at p = 1",
        tolerance: REL_TOL,
        check: expected_cr_monotone_in_p,
    },
    Oracle {
        name: "enclosure-contains-exact",
        description:
            "the certified supremum enclosure brackets the exact scan value and stays tight",
        tolerance: ENCLOSURE_WIDTH_RTOL,
        check: enclosure_contains_exact,
    },
    Oracle {
        name: "unit-speed-scenario-equivalence",
        description:
            "a unit-speed, immediately-active, full-line scenario document reproduces a direct simulation of the paper's fleet bitwise",
        tolerance: 0.0,
        check: unit_speed_scenario_equivalence,
    },
    Oracle {
        name: "mask-enumeration-equals-exact",
        description:
            "the maximum over every set of f faulty robots of the reliable robots' first-visit supremum equals the (f+1)-th visit's exact supremum bitwise",
        tolerance: 0.0,
        check: mask_enumeration_equals_exact,
    },
];

fn fail(expected: f64, observed: f64, detail: String, trace: Option<RunTrace>) -> Verdict {
    Verdict::Fail(Box::new(Mismatch { expected, observed, detail, trace }))
}

/// Relative gap with a unit floor so near-zero references do not blow
/// up the comparison.
fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Test-only perturbation pushing `observed` *up* past an upper bound.
fn skew_up(inject: bool, observed: f64) -> f64 {
    if inject {
        observed * (1.0 + INJECTED_SKEW) + INJECTED_SKEW
    } else {
        observed
    }
}

/// Test-only perturbation pushing `observed` *down* past a lower bound.
fn skew_down(inject: bool, observed: f64) -> f64 {
    if inject {
        observed * (1.0 - INJECTED_SKEW) - INJECTED_SKEW
    } else {
        observed
    }
}

/// Designs `A(n, f)` and materializes its fleet far enough to confirm
/// targets up to `max_mag`.
fn fleet_for(params: Params, max_mag: f64) -> Result<(Vec<PiecewiseTrajectory>, Fleet)> {
    let alg = Algorithm::design(params)?;
    let horizon = alg.required_horizon(max_mag * 1.5 + 2.0)?;
    let trajectories: Vec<PiecewiseTrajectory> =
        alg.plans().iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>>>()?;
    let fleet = Fleet::new(trajectories.clone())?;
    Ok((trajectories, fleet))
}

/// Caps the pointwise reference scan so debug-mode smoke tiers stay
/// fast; the bound is a scan resolution, not a correctness parameter.
const SUPREMUM_GRID_CAP: usize = 48;

/// Floor applied to Theorem 1 comparisons so the window always
/// contains several full turning-point periods.
const MEASURE_XMAX_FLOOR: f64 = 24.0;

/// The pointwise reference scan of a strategy: `K(x)` at every target
/// of [`materialize_with_targets`], whose target set the simulator
/// path also scans. Only the two oracles that check a measurement path
/// against it call it.
fn reference_scan(
    strategy: &dyn Strategy,
    params: Params,
    xmax: f64,
    grid_points: usize,
) -> Result<SupremumScan> {
    let (fleet, targets) = materialize_with_targets(strategy, params, xmax, grid_points)?;
    fleet.supremum(&targets, params.required_visits())
}

fn sim_analytic_detection(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let (trajectories, fleet) = fleet_for(params, inst.max_target())?;
    for &x in &inst.targets {
        let outcome =
            worst_case_outcome(&trajectories, Target::new(x)?, params.f(), SimConfig::default())?;
        let Some(detection) = outcome.detection else {
            return Ok(fail(
                0.0,
                f64::INFINITY,
                format!("target {x}: worst-case simulation never detected"),
                None,
            ));
        };
        let Some(analytic) = fleet.visit_time(x, params.required_visits()) else {
            return Ok(fail(
                0.0,
                f64::INFINITY,
                format!("target {x}: coverage failed to confirm within the horizon"),
                None,
            ));
        };
        let observed = skew_up(inject, detection.time);
        if rel_gap(observed, analytic) > REL_TOL {
            return Ok(fail(
                analytic,
                observed,
                format!("target {x}: sim detection diverges from analytic T_(f+1)"),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn sim_analytic_supremum(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let Some(strategy) = strategy_by_name(&inst.strategy) else {
        return Ok(Verdict::Skip(format!("unknown strategy `{}`", inst.strategy)));
    };
    if let Err(e) = strategy.plans(params) {
        return Ok(Verdict::Skip(format!("{} rejects {params}: {e}", inst.strategy)));
    }
    let grid = inst.grid_points.min(SUPREMUM_GRID_CAP);
    // The simulator scans the same discrete target set as the
    // reference, so the two paths are compared reference-vs-sim; the
    // exact engine can only exceed the reference and is checked
    // separately by `exact-supremum-dominates-grid`.
    let a = reference_scan(strategy.as_ref(), params, inst.xmax, grid)?;
    let b = measure_strategy_cr_sim(strategy.as_ref(), params, inst.xmax, grid)?;
    if a.uncovered != b.uncovered {
        return Ok(fail(
            a.uncovered as f64,
            b.uncovered as f64,
            format!("{}: uncovered-target counts disagree", inst.strategy),
            None,
        ));
    }
    if a.ratio.is_finite() {
        let observed = skew_up(inject, b.empirical);
        if rel_gap(observed, a.ratio) > REL_TOL {
            return Ok(fail(
                a.ratio,
                observed,
                format!("{}: coverage vs simulator supremum", inst.strategy),
                None,
            ));
        }
    } else if b.empirical.is_finite() {
        return Ok(fail(
            f64::INFINITY,
            b.empirical,
            format!("{}: coverage is unbounded but the simulator measured finite", inst.strategy),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn exact_supremum_dominates_grid(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let Some(strategy) = strategy_by_name(&inst.strategy) else {
        return Ok(Verdict::Skip(format!("unknown strategy `{}`", inst.strategy)));
    };
    if let Err(e) = strategy.plans(params) {
        return Ok(Verdict::Skip(format!("{} rejects {params}: {e}", inst.strategy)));
    }
    let grid_points = inst.grid_points.min(SUPREMUM_GRID_CAP);
    let exact = measure_strategy_cr(strategy.as_ref(), params, inst.xmax)?;
    let grid = reference_scan(strategy.as_ref(), params, inst.xmax, grid_points)?;
    if !grid.ratio.is_finite() {
        // A grid-uncovered point lies in some window interval the
        // exact engine enumerates, so exact coverage can never claim
        // a finite supremum where the grid found a hole.
        if exact.empirical.is_finite() {
            return Ok(fail(
                f64::INFINITY,
                exact.empirical,
                format!(
                    "{}: grid scan found {} uncovered targets but the exact supremum is finite",
                    inst.strategy, grid.uncovered
                ),
                None,
            ));
        }
        return Ok(Verdict::Pass);
    }
    if !exact.empirical.is_finite() {
        // The exact engine found an uncovered interval between grid
        // probes; an infinite supremum trivially dominates.
        return Ok(Verdict::Pass);
    }
    // Slack: grid probes sit at `m * (1 + TURNING_POINT_EPS)`,
    // marginally past the one-sided limits the exact engine evaluates.
    let observed = skew_down(inject, exact.empirical);
    if observed < grid.ratio * (1.0 - REL_TOL) {
        return Ok(fail(
            grid.ratio,
            observed,
            format!(
                "{}: exact supremum fell below the {grid_points}-point grid scan",
                inst.strategy
            ),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn closed_form_visit(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let alg = Algorithm::design(params)?;
    let Some(schedule) = alg.schedule() else {
        return Ok(Verdict::Skip("no proportional schedule in the two-group regime".to_owned()));
    };
    let closed_form = ClosedForm::new(schedule);
    let (_, fleet) = fleet_for(params, inst.max_target())?;
    for &x in &inst.targets {
        let closed = closed_form.visit_time(x, params.f())?;
        let Some(coverage) = fleet.visit_time(x, params.required_visits()) else {
            return Ok(fail(
                closed,
                f64::INFINITY,
                format!("target {x}: coverage failed to confirm within the horizon"),
                None,
            ));
        };
        let observed = skew_up(inject, coverage);
        if rel_gap(observed, closed) > REL_TOL {
            return Ok(fail(
                closed,
                observed,
                format!("target {x}: closed-form vs coverage T_(f+1)"),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn thm1_closed_form_measured(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let thm1 = ratio::cr_upper(params);
    let measured =
        measure_strategy_cr(&PaperStrategy::new(), params, inst.xmax.max(MEASURE_XMAX_FLOOR))?;
    if measured.uncovered != 0 {
        return Ok(fail(
            0.0,
            measured.uncovered as f64,
            "A(n, f) left scan targets uncovered".to_owned(),
            None,
        ));
    }
    let observed = skew_up(inject, measured.empirical);
    if observed > thm1 + ABS_SLACK {
        return Ok(fail(thm1, observed, "measured CR exceeds Theorem 1".to_owned(), None));
    }
    if observed < thm1 * (1.0 - EXACT_RTOL) {
        return Ok(fail(
            thm1,
            observed,
            "measured CR fell below Theorem 1 by more than the exact tolerance".to_owned(),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn cr_monotone_in_f(inst: &Instance, inject: bool) -> Result<Verdict> {
    if inst.f + 1 >= inst.n {
        return Ok(Verdict::Skip("f + 1 faults are not tolerable with n robots".to_owned()));
    }
    let here = ratio::cr_upper(inst.params()?);
    let worse = ratio::cr_upper(Params::new(inst.n, inst.f + 1)?);
    let observed = if inject { skew_up(true, worse) } else { here };
    if observed > worse + EXACT_TOL {
        return Ok(fail(
            worse,
            observed,
            format!("CR({}, {}) exceeds CR({}, {})", inst.n, inst.f, inst.n, inst.f + 1),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn scale_invariance(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let alg = Algorithm::design(params)?;
    let Some(schedule) = alg.schedule() else {
        return Ok(Verdict::Skip("no proportional ladder in the two-group regime".to_owned()));
    };
    let closed_form = ClosedForm::new(schedule);
    // One full ladder period: each robot's same-side turning points
    // expand by kappa^2 = r^n, and the whole fleet is self-similar
    // under that scaling (kappa alone shifts robots by half a cycle
    // and swaps sides, which is not an invariance of K).
    let period = schedule.expansion_factor().powi(2);
    for &x in &inst.targets {
        let here = closed_form.ratio_at(x, params.f())?;
        let scaled = closed_form.ratio_at(x * period, params.f())?;
        let observed = skew_up(inject, scaled);
        if rel_gap(observed, here) > REL_TOL {
            return Ok(fail(
                here,
                observed,
                format!("K({x}) vs K({}) across one ladder period E = {period}", x * period),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn two_group_unit_cr(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    if params.regime() != faultline_core::Regime::TwoGroup {
        return Ok(Verdict::Skip("n < 2f + 2 is the proportional regime".to_owned()));
    }
    let thm1 = skew_up(inject, ratio::cr_upper(params));
    if thm1 != 1.0 {
        return Ok(fail(1.0, thm1, "two-group Theorem 1 value is not exactly 1".to_owned(), None));
    }
    let measured = measure_strategy_cr(&PaperStrategy::new(), params, inst.xmax.min(16.0))?;
    let observed = skew_up(inject, measured.empirical);
    if measured.uncovered != 0 || (observed - 1.0).abs() > REL_TOL {
        return Ok(fail(
            1.0,
            observed,
            format!("two-group measured CR ({} uncovered)", measured.uncovered),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn single_robot_nine(inst: &Instance, inject: bool) -> Result<Verdict> {
    if inst.n != inst.f + 1 {
        return Ok(Verdict::Skip("only n = f + 1 reduces to a single reliable robot".to_owned()));
    }
    let params = inst.params()?;
    let thm1 = skew_up(inject, ratio::cr_upper(params));
    if thm1 != 9.0 {
        return Ok(fail(
            9.0,
            thm1,
            "n = f + 1 Theorem 1 value is not the doubling bound 9".to_owned(),
            None,
        ));
    }
    let measured =
        measure_strategy_cr(&PaperStrategy::new(), params, inst.xmax.max(MEASURE_XMAX_FLOOR))?;
    let observed = skew_up(inject, measured.empirical);
    let band = 9.0 * (1.0 - EXACT_RTOL)..=9.0 + ABS_SLACK;
    if measured.uncovered != 0 || !band.contains(&observed) {
        return Ok(fail(
            9.0,
            observed,
            format!("measured doubling CR ({} uncovered)", measured.uncovered),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn measured_above_certified_floor(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let cert = certificate::certify_lower_bound(params)?;
    let measured =
        measure_strategy_cr(&PaperStrategy::new(), params, inst.xmax.max(MEASURE_XMAX_FLOOR))?;
    if measured.uncovered != 0 {
        return Ok(fail(
            0.0,
            measured.uncovered as f64,
            "A(n, f) left scan targets uncovered".to_owned(),
            None,
        ));
    }
    let observed = skew_down(inject, measured.empirical);
    if observed < cert.lo * (1.0 - FLOOR_RTOL) {
        return Ok(fail(
            cert.lo,
            observed,
            "measured CR fell below the certified lower bound".to_owned(),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

fn objective_eval_consistency(inst: &Instance, inject: bool) -> Result<Verdict> {
    let Some(schedule) = &inst.schedule else {
        return Ok(Verdict::Skip("instance carries no free schedule".to_owned()));
    };
    let params = inst.params()?;
    let objective = Objective::new(params, inst.xmax)?;
    let score = skew_up(inject, objective.eval(schedule));
    // Re-derive scoreability exactly as `eval` does, from `profile`.
    let scoreable = objective.profile(schedule).ok().and_then(|p| {
        let m = p.measured;
        (m.uncovered == 0 && m.empirical.is_finite() && m.empirical >= objective.floor())
            .then_some(m.empirical)
    });
    match scoreable {
        Some(measured) => {
            if score <= measured || score > measured + PRESSURE_WEIGHT + EXACT_TOL {
                return Ok(fail(
                    measured,
                    score,
                    "score is not measured CR plus a pressure tie-break in (0, PRESSURE_WEIGHT]"
                        .to_owned(),
                    None,
                ));
            }
        }
        None => {
            if score.to_bits() != PENALTY.to_bits() {
                return Ok(fail(
                    PENALTY,
                    score,
                    "unscoreable schedule must score exactly PENALTY".to_owned(),
                    None,
                ));
            }
        }
    }
    Ok(Verdict::Pass)
}

fn adversary_dominance(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let (trajectories, fleet) = fleet_for(params, inst.max_target())?;
    let plan = FaultPlan::sensor_faults(params.n(), &inst.mask)?;
    for &x in &inst.targets {
        let Some(bound) = fleet.visit_time(x, params.required_visits()) else {
            return Ok(fail(
                0.0,
                f64::INFINITY,
                format!("target {x}: coverage failed to confirm within the horizon"),
                None,
            ));
        };
        let trace = RunTrace::record(
            format!("conformance adversary-dominance, case {}", inst.index),
            trajectories.clone(),
            Target::new(x)?,
            &plan,
            inst.seed,
            SimConfig::default(),
            Some(bound),
            None,
        )?;
        let Some(detection) = &trace.outcome.detection else {
            return Ok(fail(
                bound,
                f64::INFINITY,
                format!("target {x}, mask {:?}: never detected", inst.mask),
                Some(trace),
            ));
        };
        let observed = skew_up(inject, detection.time);
        if observed > bound * (1.0 + REL_TOL) {
            return Ok(fail(
                bound,
                observed,
                format!("target {x}, mask {:?}: detection after T_(f+1)", inst.mask),
                Some(trace),
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn replay_determinism(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let (trajectories, _) = fleet_for(params, inst.max_target())?;
    let plan = FaultPlan::sensor_faults(params.n(), &inst.mask)?;
    let Some(&x) = inst.targets.first() else {
        return Ok(Verdict::Skip("instance has no targets".to_owned()));
    };
    let target = Target::new(x)?;
    let reason = format!("conformance replay-determinism, case {}", inst.index);
    let first = RunTrace::record(
        reason.clone(),
        trajectories.clone(),
        target,
        &plan,
        inst.seed,
        SimConfig::default(),
        None,
        None,
    )?;
    if let Err(e) = first.verify() {
        let detail = format!("trace failed bit-for-bit verification: {e}");
        return Ok(fail(f64::NAN, f64::NAN, detail, Some(first)));
    }
    let second = RunTrace::record(
        reason,
        trajectories,
        target,
        &plan,
        inst.seed,
        SimConfig::default(),
        None,
        None,
    )?;
    let recorded = first.outcome.detection.as_ref().map_or(f64::INFINITY, |d| d.time);
    let rerecorded = second.outcome.detection.as_ref().map_or(f64::INFINITY, |d| d.time);
    let observed = skew_up(inject, rerecorded);
    if second != first || observed.to_bits() != recorded.to_bits() {
        return Ok(fail(
            recorded,
            observed,
            "re-recording the identical run diverged".to_owned(),
            Some(first),
        ));
    }
    Ok(Verdict::Pass)
}

/// Runs the instance's fleet against one target with an explicit
/// per-robot fault plan on the instance's coin seed.
fn plan_outcome(
    trajectories: &[PiecewiseTrajectory],
    x: f64,
    kinds: Vec<FaultKind>,
    seed: u64,
) -> Result<SearchOutcome> {
    let plan = FaultPlan::new(kinds)?;
    let sim = Simulation::new(
        trajectories,
        Target::new(x)?,
        &plan,
        &[],
        seed,
        SimConfig::default(),
        None,
    )?;
    Ok(sim.run())
}

/// The scalar signature a degenerate-equivalence check compares after
/// asserting full structural equality: detection time, or the horizon
/// when undetected.
fn outcome_signature(outcome: &SearchOutcome) -> f64 {
    outcome.detection.as_ref().map_or(outcome.horizon, |d| d.time)
}

/// Shared body of the two degenerate-equivalence oracles: the masked
/// robots run under `masked` in one world and `reference` in the
/// other; the two outcomes must be bitwise identical.
fn degenerate_equivalence(
    inst: &Instance,
    inject: bool,
    masked: FaultKind,
    reference: FaultKind,
    label: &str,
) -> Result<Verdict> {
    let params = inst.params()?;
    let (trajectories, _) = fleet_for(params, inst.max_target())?;
    let cast = |kind: FaultKind| -> Vec<FaultKind> {
        (0..params.n())
            .map(|i| if inst.mask.contains(&i) { kind } else { FaultKind::Reliable })
            .collect()
    };
    for &x in &inst.targets {
        let probabilistic = plan_outcome(&trajectories, x, cast(masked), inst.seed)?;
        let degenerate = plan_outcome(&trajectories, x, cast(reference), inst.seed)?;
        let expected = outcome_signature(&degenerate);
        let observed = skew_up(inject, outcome_signature(&probabilistic));
        if (!inject && probabilistic != degenerate) || observed.to_bits() != expected.to_bits() {
            return Ok(fail(
                expected,
                observed,
                format!("target {x}, mask {:?}: {label} runs diverged", inst.mask),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn intermittent_degenerate_equivalence(inst: &Instance, inject: bool) -> Result<Verdict> {
    if let v @ Verdict::Fail(_) = degenerate_equivalence(
        inst,
        inject,
        FaultKind::Intermittent { miss_probability: 1.0 },
        FaultKind::Sensor,
        "Intermittent{1.0} vs Sensor",
    )? {
        return Ok(v);
    }
    degenerate_equivalence(
        inst,
        false,
        FaultKind::Intermittent { miss_probability: 0.0 },
        FaultKind::Reliable,
        "Intermittent{0.0} vs Reliable",
    )
}

fn pfaulty_endpoint_collapse(inst: &Instance, inject: bool) -> Result<Verdict> {
    if let v @ Verdict::Fail(_) = degenerate_equivalence(
        inst,
        inject,
        FaultKind::PFaulty { detect_probability: 1.0 },
        FaultKind::Reliable,
        "PFaulty{1.0} vs Reliable",
    )? {
        return Ok(v);
    }
    degenerate_equivalence(
        inst,
        false,
        FaultKind::PFaulty { detect_probability: 0.0 },
        FaultKind::Sensor,
        "PFaulty{0.0} vs Sensor",
    )
}

/// The instance's regime spelled as a v1 scenario document.
fn scenario_doc_for(inst: &Instance, robots: Option<Vec<RobotSpec>>) -> ScenarioDoc {
    ScenarioDoc {
        version: SCENARIO_VERSION,
        geometry: Geometry::Line,
        robots,
        scenario: Scenario {
            n: inst.n,
            f: inst.f,
            strategy: "paper".to_owned(),
            beta: None,
            targets: inst.targets.clone(),
            faulty: (!inst.mask.is_empty()).then(|| inst.mask.clone()),
            fault_plan: None,
            quorum: None,
            seed: None,
        },
    }
}

/// The scalar signature of a scenario result set: total detection
/// time, with undetected targets contributing `-1`. Never exactly
/// zero (detection times exceed 1 because targets do), so any
/// injected skew perturbs it.
fn results_signature(results: &[ScenarioResult]) -> f64 {
    results.iter().map(|r| r.detection_time.unwrap_or(-1.0)).sum()
}

fn unit_speed_scenario_equivalence(inst: &Instance, inject: bool) -> Result<Verdict> {
    // The reference is a direct simulation, outside the scenario
    // runner: the paper's plans materialized at the runner's plan
    // horizon, then the instance's mask or, without one, the
    // worst-case adversary per target. A document whose fleet is
    // exactly the paper's must reproduce it byte-for-byte.
    let params = inst.params()?;
    let paper = PaperStrategy::new();
    let xmax = inst.targets.iter().map(|x| x.abs()).fold(1.0f64, f64::max);
    let horizon = paper.horizon_hint(params, xmax * 1.01 + 1.0);
    let trajectories: Vec<PiecewiseTrajectory> =
        paper.plans(params)?.iter().map(|p| p.materialize(horizon)).collect::<Result<_>>()?;
    let mask = FaultPlan::sensor_faults(inst.n, &inst.mask)?;
    let reference = inst
        .targets
        .iter()
        .map(|&x| {
            let target = Target::new(x)?;
            let config = SimConfig::default();
            let outcome = if inst.mask.is_empty() {
                worst_case_outcome(&trajectories, target, inst.f, config)?
            } else {
                Simulation::new(&trajectories, target, &mask, &[], 0, config, None)?.run()
            };
            Ok(ScenarioResult::from_outcome(x, &outcome))
        })
        .collect::<Result<Vec<_>>>()?;
    let expected = results_signature(&reference);
    let observed_results = scenario_doc_for(inst, None).run()?;
    let observed = skew_up(inject, results_signature(&observed_results));
    if (!inject && results_to_json(&observed_results)? != results_to_json(&reference)?)
        || observed.to_bits() != expected.to_bits()
    {
        return Ok(fail(
            expected,
            observed,
            "scenario document diverged from the direct simulation".to_owned(),
            None,
        ));
    }
    // When the generator drew heterogeneous add-ons, the runner must
    // at least be deterministic under re-run: spell them as robot specs
    // and demand bitwise-identical result documents.
    if inst.speeds.is_some() || inst.activation_delays.is_some() {
        let robots: Vec<RobotSpec> = (0..inst.n)
            .map(|i| RobotSpec {
                speed: inst.speeds.as_ref().map_or(1.0, |s| s[i]),
                activation: inst
                    .activation_delays
                    .as_ref()
                    .map_or(Activation::Immediate, |d| Activation::DelayedStart(d[i])),
                fault_onset: None,
            })
            .collect();
        let het = scenario_doc_for(inst, Some(robots));
        let first = results_to_json(&het.run()?)?;
        let second = results_to_json(&het.run()?)?;
        if first != second {
            return Ok(fail(
                0.0,
                1.0,
                "heterogeneous scenario re-run was not byte-deterministic".to_owned(),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn byzantine_quorum_no_false_confirm(inst: &Instance, inject: bool) -> Result<Verdict> {
    let Some(lie_rate) = inst.lie_rate else {
        return Ok(Verdict::Skip("instance draws no Byzantine lie rate".to_owned()));
    };
    let params = inst.params()?;
    let (trajectories, _) = fleet_for(params, inst.max_target())?;
    let kinds: Vec<FaultKind> = (0..params.n())
        .map(|i| {
            if inst.mask.contains(&i) {
                FaultKind::Byzantine { lie_rate }
            } else {
                FaultKind::Reliable
            }
        })
        .collect();
    let plan = FaultPlan::new(kinds)?;
    // One more vote than there are liars: the smallest quorum the
    // adversary can never assemble alone.
    let quorum = QuorumConfig::new(inst.mask.len() + 1)?;
    let honest: Vec<PiecewiseTrajectory> = (0..params.n())
        .filter(|i| !inst.mask.contains(i))
        .map(|i| trajectories[i].clone())
        .collect();
    let honest_fleet = Fleet::new(honest)?;
    for &x in &inst.targets {
        let bound = honest_fleet.visit_time(x, quorum.votes);
        let trace = RunTrace::record(
            format!("conformance byzantine-quorum-no-false-confirm, case {}", inst.index),
            trajectories.clone(),
            Target::new(x)?,
            &plan,
            inst.seed,
            SimConfig::default(),
            bound,
            Some(quorum),
        )?;
        // Tally distinct claimants per asserted position: no position
        // other than the true target may ever reach the quorum.
        let mut ballots: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        for claim in &trace.outcome.claims {
            ballots.entry(claim.position.to_bits()).or_default().insert(claim.robot.0);
        }
        for (position_bits, backers) in &ballots {
            let position = f64::from_bits(*position_bits);
            if position != x && backers.len() >= quorum.votes {
                return Ok(fail(
                    x,
                    position,
                    format!(
                        "target {x}, liars {:?}: false position {position} gathered {} votes",
                        inst.mask,
                        backers.len()
                    ),
                    Some(trace),
                ));
            }
        }
        if let Some(confirmed) = trace.outcome.confirmed_position {
            if confirmed != x {
                return Ok(fail(
                    x,
                    confirmed,
                    format!("target {x}, liars {:?}: quorum confirmed a false position", inst.mask),
                    Some(trace),
                ));
            }
        }
        match (bound, &trace.outcome.detection) {
            (Some(bound), Some(detection)) => {
                let observed = skew_up(inject, detection.time);
                if rel_gap(observed, bound) > REL_TOL {
                    return Ok(fail(
                        bound,
                        observed,
                        format!(
                            "target {x}, liars {:?}: quorum detection diverges from honest T_{}",
                            inst.mask, quorum.votes
                        ),
                        Some(trace),
                    ));
                }
            }
            (Some(bound), None) => {
                return Ok(fail(
                    bound,
                    f64::INFINITY,
                    format!(
                        "target {x}, liars {:?}: honest coverage reaches the quorum but the run never detected",
                        inst.mask
                    ),
                    Some(trace),
                ));
            }
            (None, Some(detection)) => {
                return Ok(fail(
                    f64::INFINITY,
                    detection.time,
                    format!(
                        "target {x}, liars {:?}: detection without honest quorum coverage",
                        inst.mask
                    ),
                    Some(trace),
                ));
            }
            (None, None) => {}
        }
    }
    Ok(Verdict::Pass)
}

fn expected_cr_monotone_in_p(inst: &Instance, inject: bool) -> Result<Verdict> {
    let Some(p) = inst.detect_probability else {
        return Ok(Verdict::Skip("instance draws no detection probability".to_owned()));
    };
    let params = inst.params()?;
    let (trajectories, fleet) = fleet_for(params, inst.max_target())?;
    let ladder = [0.0, 0.5 * p, p, 0.5 * (1.0 + p), 1.0];
    for &x in &inst.targets {
        let mut prev = f64::INFINITY;
        let mut at_one = f64::NAN;
        for &q in &ladder {
            let e = expected_outcome(&trajectories, Target::new(x)?, q)?;
            if e.visits == 0 {
                return Ok(fail(
                    1.0,
                    0.0,
                    format!("target {x}: no visits within the fleet horizon"),
                    None,
                ));
            }
            if e.expected_time > prev * (1.0 + EXACT_TOL) {
                return Ok(fail(
                    prev,
                    e.expected_time,
                    format!("target {x}: expected detection time increased at p = {q}"),
                    None,
                ));
            }
            prev = e.expected_time;
            at_one = e.expected_time;
        }
        // At p = 1 every visit detects, so the expectation collapses
        // to the fleet's first visit — an exact cross-path identity.
        let Some(t1) = fleet.visit_time(x, 1) else {
            return Ok(fail(
                0.0,
                f64::INFINITY,
                format!("target {x}: coverage failed to find a first visit"),
                None,
            ));
        };
        let observed = skew_up(inject, at_one);
        if rel_gap(observed, t1) > REL_TOL {
            return Ok(fail(
                t1,
                observed,
                format!("target {x}: E at p = 1 diverges from the first-visit time T_1"),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

fn enclosure_contains_exact(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let xmax = inst.xmax.max(MEASURE_XMAX_FLOOR);
    let (_, fleet) = fleet_for(params, xmax)?;
    let k = params.required_visits();
    let scan = exact_supremum(&fleet, k, xmax)?;
    if !scan.ratio.is_finite() {
        return Ok(Verdict::Skip(format!(
            "window [1, {xmax}] is not fully covered ({} uncovered intervals)",
            scan.uncovered
        )));
    }
    let enclosed = exact_supremum_enclosed(&fleet, k, xmax)?;
    if enclosed.scan != scan {
        return Ok(fail(
            scan.ratio,
            enclosed.scan.ratio,
            "enclosed scan diverges from the plain exact scan".to_owned(),
            None,
        ));
    }
    let (lo, hi) = (enclosed.enclosure.lo(), enclosed.enclosure.hi());
    let observed = skew_up(inject, scan.ratio);
    if !(lo <= observed && observed <= hi) {
        return Ok(fail(
            scan.ratio,
            observed,
            format!("exact supremum escapes its certified enclosure [{lo}, {hi}]"),
            None,
        ));
    }
    let width = hi - lo;
    if width > ENCLOSURE_WIDTH_RTOL * scan.ratio {
        return Ok(fail(
            ENCLOSURE_WIDTH_RTOL * scan.ratio,
            width,
            format!("enclosure [{lo}, {hi}] is wider than the outward-rounding budget"),
            None,
        ));
    }
    Ok(Verdict::Pass)
}

/// The most robots whose fault sets [`mask_enumeration_equals_exact`]
/// enumerates: the most [`Instance::generate`] draws, so a hand-edited
/// counterexample cannot ask for more sub-fleets than a generated case.
const MASK_ENUMERATION_MAX_N: usize = 8;

/// The adversary's best response, found the long way: the worst fault
/// set leaves only reliable robots, which detect on their first visit,
/// so the maximum over every set of `f` faulty robots of the reliable
/// sub-fleet's `T_1` supremum must be the full fleet's `T_(f+1)`
/// supremum, bit for bit. Checked on the paper fleet and, when the
/// instance carries one, on its free schedule.
fn mask_enumeration_equals_exact(inst: &Instance, inject: bool) -> Result<Verdict> {
    let params = inst.params()?;
    let f = params.f();
    let robots = inst.schedule.as_ref().map_or(0, |s| s.robots().len()).max(params.n());
    if robots > MASK_ENUMERATION_MAX_N {
        return Ok(Verdict::Skip(format!(
            "{robots} robots; fault sets are enumerated up to {MASK_ENUMERATION_MAX_N}"
        )));
    }
    let (_, paper) = fleet_for(params, inst.xmax)?;
    let mut fleets = vec![("paper fleet", paper)];
    if let Some(schedule) = &inst.schedule {
        let horizon = schedule.horizon_hint(inst.xmax * (1.0 + 2.0 * TURNING_POINT_EPS));
        fleets.push(("free schedule", schedule.fleet(horizon.max(4.0 * inst.xmax))?));
    }
    for (which, fleet) in fleets {
        let trajectories = fleet.trajectories();
        let n = trajectories.len();
        let expected = exact_supremum(&fleet, f + 1, inst.xmax)?.ratio;
        let mut worst = f64::NEG_INFINITY;
        for faulty in (0u32..1 << n).filter(|mask| mask.count_ones() as usize == f) {
            let reliable: Vec<PiecewiseTrajectory> =
                (0..n).filter(|&i| faulty >> i & 1 == 0).map(|i| trajectories[i].clone()).collect();
            worst = worst.max(exact_supremum(&Fleet::new(reliable)?, 1, inst.xmax)?.ratio);
        }
        let observed = skew_up(inject, worst);
        if observed.to_bits() != expected.to_bits() {
            return Ok(fail(
                expected,
                observed,
                format!(
                    "{which}: the worst of the C({n}, {f}) reliable sub-fleets' first-visit \
                     suprema differs from the exact T_{} supremum over [1, {:?}]",
                    f + 1,
                    inst.xmax
                ),
                None,
            ));
        }
    }
    Ok(Verdict::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::GenCaps;

    const CAPS: GenCaps = GenCaps { grid_lo: 16, grid_hi: 24, targets: 2, explicit_turns: 4 };

    #[test]
    fn names_are_unique_and_documented() {
        let mut names: Vec<&str> = all_oracles().iter().map(|o| o.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_oracles().len());
        for oracle in all_oracles() {
            assert!(!oracle.description.is_empty(), "{}", oracle.name);
            assert!(oracle_by_name(oracle.name).is_some());
        }
        assert!(oracle_by_name("no-such-oracle").is_none());
    }

    #[test]
    fn every_oracle_passes_or_skips_a_small_seeded_sweep() {
        for index in 0..6u64 {
            let instance = Instance::generate(3, index, &CAPS);
            for oracle in all_oracles() {
                let verdict = oracle.check(&instance, false);
                assert!(!verdict.is_fail(), "{} failed on case {index}: {verdict:?}", oracle.name);
            }
        }
    }

    #[test]
    fn mask_enumeration_skips_fleets_it_would_not_enumerate() {
        let mut instance = Instance::generate(3, 2, &CAPS);
        assert!(instance.n <= MASK_ENUMERATION_MAX_N, "a generated case is enumerated");
        (instance.n, instance.f) = (MASK_ENUMERATION_MAX_N + 1, 2);
        instance.schedule = None;
        let verdict = mask_enumeration_equals_exact(&instance, false).unwrap();
        assert!(matches!(verdict, Verdict::Skip(_)), "{verdict:?}");
    }

    #[test]
    fn injection_trips_every_oracle_somewhere() {
        // Each oracle must fail under injection for at least one of a
        // handful of generated instances (those it does not skip).
        for oracle in all_oracles() {
            let mut tripped = false;
            let mut applicable = false;
            for index in 0..9u64 {
                let instance = Instance::generate(5, index, &CAPS);
                match oracle.check(&instance, true) {
                    Verdict::Fail(_) => {
                        tripped = true;
                        applicable = true;
                        break;
                    }
                    Verdict::Pass => applicable = true,
                    Verdict::Skip(_) => {}
                }
            }
            assert!(applicable, "{} skipped every probe instance", oracle.name);
            assert!(tripped, "{} never failed under injection", oracle.name);
        }
    }
}
