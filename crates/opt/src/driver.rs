//! The optimizer driver: configuration, round-granular state,
//! deterministic parallel advancement, and the final gap report.
//!
//! Determinism contract: the entire run is a pure function of the
//! [`OptimizeConfig`]. Every start's round gets its own RNG stream
//! keyed by `(seed, start, round)` through a SplitMix64 finalizer,
//! starts fan out through the order-preserving
//! [`faultline_core::par_map_with`], and every local-search move is
//! greedy — so thread count, checkpoint interruptions, and resume
//! points cannot change the result.

use faultline_analysis::{measure_strategy_cr, resolve_strategy};
use faultline_core::certificate::certify_alpha;
use faultline_core::lower_bound::{alpha, lower_bound};
use faultline_core::{
    json_float, par_map_with, Algorithm, Certificate, Error, FreeSchedule, ParallelConfig, Params,
    Regime, Result,
};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::budget::Budget;
use crate::objective::{Objective, PENALTY};
use crate::search::{anneal_sweep, coordinate_descent_sweep, perturb_robot};

/// Tolerance for the Theorem 1 acceptance check: the optimizer starts
/// from `A(n, f)`, so its best can exceed the closed form only by
/// measurement slack.
pub const THM1_SLACK: f64 = 1e-9;

/// Margin below the measured baseline a schedule must clear before the
/// report claims a strict improvement — never claimed silently.
pub const IMPROVEMENT_MARGIN: f64 = 1e-6;

/// A complete optimizer request: the `(n, f)` pair, the effort tier,
/// the RNG seed, and an optional window override.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeConfig {
    /// Number of robots.
    pub n: usize,
    /// Number of tolerated faults.
    pub f: usize,
    /// Effort tier (defaults to `small`).
    #[serde(default)]
    pub budget: Budget,
    /// RNG seed for perturbed starts and annealing (defaults to 0).
    #[serde(default)]
    pub seed: u64,
    /// Measurement window override; defaults to
    /// `Objective::default_xmax`.
    #[serde(default)]
    pub xmax: Option<f64>,
    /// When set, optimize the *expected* competitive ratio with every
    /// robot p-faulty at this per-visit detection probability instead
    /// of the worst-case ratio. Defaults to the worst-case objective.
    #[serde(default)]
    pub(crate) detect_probability: Option<f64>,
}

impl OptimizeConfig {
    /// A config with all-default knobs for `(n, f)`.
    #[must_use]
    pub fn new(n: usize, f: usize) -> Self {
        OptimizeConfig {
            n,
            f,
            budget: Budget::default(),
            seed: 0,
            xmax: None,
            detect_probability: None,
        }
    }

    /// Validates and returns the `(n, f)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] for unsolvable pairs and
    /// fleets over [`Params::MAX_ROBOTS`].
    pub fn params(&self) -> Result<Params> {
        Params::fleet(self.n, self.f)
    }

    /// The resolved measurement window.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation.
    pub fn resolved_xmax(&self) -> Result<f64> {
        match self.xmax {
            Some(x) => Ok(x),
            None => Ok(Objective::default_xmax(self.params()?)),
        }
    }

    /// Builds the measurement objective this config describes.
    ///
    /// # Errors
    ///
    /// Propagates parameter and window validation.
    pub fn objective(&self) -> Result<Objective> {
        match self.detect_probability {
            Some(p) => Objective::with_detect_probability(self.params()?, self.resolved_xmax()?, p),
            None => Objective::new(self.params()?, self.resolved_xmax()?),
        }
    }
}

/// One optimization start: its current schedule, its measured ratio,
/// and how many objective evaluations it has consumed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StartState {
    /// The incumbent schedule.
    pub(crate) schedule: FreeSchedule,
    /// The incumbent's objective *score*: its measured supremum plus
    /// the small peak-pressure tie-breaker (see
    /// [`crate::objective::PRESSURE_WEIGHT`]), or [`crate::PENALTY`]
    /// while a perturbed start has not yet found a measurable
    /// schedule.
    pub(crate) cr: f64,
    /// Objective evaluations consumed so far.
    pub(crate) evaluations: u64,
}

// `cr` goes through `json_float` so a checkpoint written by a future
// build with non-finite incumbents still round-trips losslessly.
impl Serialize for StartState {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let schedule = serde::to_value(&self.schedule).map_err(serde::ser::Error::custom)?;
        let evaluations = serde::to_value(&self.evaluations).map_err(serde::ser::Error::custom)?;
        serializer.serialize_value(Value::Object(vec![
            ("schedule".to_owned(), schedule),
            ("cr".to_owned(), json_float::encode_f64(self.cr)),
            ("evaluations".to_owned(), evaluations),
        ]))
    }
}

impl<'de> Deserialize<'de> for StartState {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let mut fields = json_float::object_fields(deserializer.take_value()?, "StartState")
            .map_err(serde::de::Error::custom)?;
        let schedule = json_float::take_field(&mut fields, "schedule", "StartState")
            .and_then(|v| serde::from_value(v).map_err(|e| e.to_string()))
            .map_err(serde::de::Error::custom)?;
        let cr = json_float::take_field(&mut fields, "cr", "StartState")
            .and_then(|v| json_float::decode_f64(&v, "cr"))
            .map_err(serde::de::Error::custom)?;
        let evaluations = json_float::take_field(&mut fields, "evaluations", "StartState")
            .and_then(|v| serde::from_value(v).map_err(|e| e.to_string()))
            .map_err(serde::de::Error::custom)?;
        Ok(StartState { schedule, cr, evaluations })
    }
}

/// The full round-granular optimizer state; exactly what a
/// [`crate::Checkpoint`] snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerState {
    /// The config this state was initialized from.
    pub config: OptimizeConfig,
    /// Rounds completed so far (0 = freshly initialized).
    pub round: usize,
    /// The raw measured supremum of the exact `A(n, f)` lowering
    /// (no pressure term), kept for improvement reporting.
    pub(crate) baseline_cr: f64,
    /// All starts, in deterministic order.
    pub(crate) starts: Vec<StartState>,
}

/// SplitMix64-style finalizer combining the run seed with a start and
/// round index into an independent RNG stream seed.
fn stream_seed(seed: u64, start: u64, round: u64) -> u64 {
    let mut z = seed
        ^ start.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ round.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initializes the start set for a proportional-regime config: start 0
/// is the exact `A(n, f)` lowering, the rest are seeded perturbations
/// of it (re-drawn until valid, deterministically).
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] for two-group pairs
/// (`n >= 2f + 2`): there is nothing to optimize, the two-group
/// strategy already achieves ratio 1 and has no free-schedule form
/// (rays never turn). Use [`run`], which reports such pairs directly.
pub fn init_state(config: &OptimizeConfig) -> Result<OptimizerState> {
    let params = config.params()?;
    if params.regime() == Regime::TwoGroup {
        return Err(Error::invalid_params(
            config.n,
            config.f,
            "two-group pairs (n >= 2f + 2) have optimal ratio 1 and no free-schedule form",
        ));
    }
    let objective = config.objective()?;
    let knobs = config.budget.knobs();
    let algorithm = Algorithm::design(params)?;
    let schedule = algorithm
        .schedule()
        .ok_or_else(|| Error::domain("proportional regime without a schedule"))?;
    let seed_schedule = FreeSchedule::from_proportional(schedule, knobs.explicit_turns)?;
    let seed_score = objective.eval(&seed_schedule);
    if seed_score >= PENALTY {
        return Err(Error::numerical(format!(
            "the A({}, {}) lowering itself failed to measure; widen xmax or the grid",
            config.n, config.f
        )));
    }
    let baseline_cr = objective.measure(&seed_schedule)?.empirical;

    let mut starts = Vec::with_capacity(knobs.starts);
    starts.push(StartState { schedule: seed_schedule.clone(), cr: seed_score, evaluations: 1 });
    for s in 1..knobs.starts {
        let mut rng = StdRng::seed_from_u64(stream_seed(config.seed, s as u64, 0));
        let mut evaluations = 0u64;
        // Deterministic retry: perturb until the candidate validates
        // and measures (bounded so a hostile config cannot spin).
        let mut found = None;
        for _ in 0..32 {
            let robots = seed_schedule
                .robots()
                .iter()
                .map(|r| perturb_robot(r, knobs.sigma0, &mut rng))
                .collect::<Option<Vec<_>>>();
            let Some(robots) = robots else { continue };
            let Ok(candidate) = FreeSchedule::new(robots) else { continue };
            evaluations += 1;
            let cr = objective.eval(&candidate);
            if cr < PENALTY {
                found = Some(StartState { schedule: candidate, cr, evaluations });
                break;
            }
        }
        // Fall back to the exact lowering when every perturbation
        // failed — the start set must keep its configured size so
        // checkpoint geometry is stable.
        starts.push(found.unwrap_or_else(|| StartState {
            schedule: seed_schedule.clone(),
            cr: seed_score,
            evaluations,
        }));
    }
    Ok(OptimizerState { config: config.clone(), round: 0, baseline_cr, starts })
}

/// Advances the state by one round: every start runs one coordinate-
/// descent sweep followed by one annealing sweep (step size decaying
/// with the round), fanned out over the starts with deterministic
/// per-`(seed, start, round)` RNG streams.
///
/// # Errors
///
/// Propagates objective construction failures.
pub fn advance_round(state: &mut OptimizerState) -> Result<()> {
    let objective = state.config.objective()?;
    let knobs = state.config.budget.knobs();
    let round = state.round + 1;
    let seed = state.config.seed;
    let sigma = knobs.sigma0 * 0.7f64.powi(round as i32 - 1);
    let indexed: Vec<(usize, StartState)> = state.starts.drain(..).enumerate().collect();
    let advanced = par_map_with(&indexed, &ParallelConfig::default(), |(idx, start)| {
        let mut schedule = start.schedule.clone();
        let mut cr = start.cr;
        let mut evaluations = start.evaluations;
        evaluations += coordinate_descent_sweep(&objective, &mut schedule, &mut cr);
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, *idx as u64, round as u64));
        evaluations +=
            anneal_sweep(&objective, &mut schedule, &mut cr, knobs.anneal_steps, sigma, &mut rng);
        StartState { schedule, cr, evaluations }
    });
    state.starts = advanced;
    state.round = round;
    Ok(())
}

/// Verdict of the final lower-bound cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossCheck {
    /// `best_found_cr` respects the certified lower bound (or no
    /// bound applies to this pair).
    Consistent,
    /// `best_found_cr` measured *below* the certified lower bound —
    /// the measurement window is too narrow to trust, and the result
    /// must not be cited as a schedule beating Theorem 2.
    Rejected,
}

impl CrossCheck {
    /// Whether the verdict is [`CrossCheck::Consistent`].
    #[must_use]
    pub fn is_consistent(self) -> bool {
        self == CrossCheck::Consistent
    }
}

/// Cross-checks a measured ratio against a certified lower bound:
/// measurements below the certificate's lower end are rejected as
/// window overfitting (Theorem 2 proves no schedule achieves them).
#[must_use]
pub(crate) fn cross_check(certificate: Option<&Certificate>, measured: f64) -> CrossCheck {
    match certificate {
        Some(cert) if measured < cert.lo => CrossCheck::Rejected,
        _ => CrossCheck::Consistent,
    }
}

/// The final gap report for one `(n, f)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeReport {
    /// Number of robots.
    pub n: usize,
    /// Number of tolerated faults.
    pub f: usize,
    /// The paper's case split for this pair.
    pub regime: Regime,
    /// Effort tier the run used.
    pub budget: Budget,
    /// RNG seed the run used.
    pub seed: u64,
    /// Rounds completed.
    pub rounds: usize,
    /// Starts in the run.
    pub starts: usize,
    /// Total objective evaluations across all starts.
    pub evaluations: u64,
    /// Resolved measurement window `[1, xmax]`.
    pub xmax: f64,
    /// Theorem 1 closed form (the two-group ratio 1 for `n >= 2f+2`).
    pub thm1_cr: f64,
    /// Theorem 2's `alpha(n)` where it applies (`n < 2f + 2`).
    pub thm2_alpha: Option<f64>,
    /// The regime-tight lower bound of Section 4 (9 when `n = f + 1`).
    pub lower_bound: f64,
    /// Measured ratio of the exact `A(n, f)` start before optimizing.
    pub baseline_measured: f64,
    /// Best measured ratio over all starts and rounds.
    pub best_found_cr: f64,
    /// `baseline_measured - best_found_cr` (same window).
    pub improvement: f64,
    /// Whether the pair's bounds already meet: two-group pairs
    /// (Theorem 1 ratio 1 is optimal) and `n = f + 1` pairs (Theorem 1
    /// equals the tight single-robot bound 9). For such pairs a real
    /// improvement is provably impossible, so any positive
    /// `improvement` is a finite-window artifact — 9 in particular is
    /// attained only asymptotically, so in-window suprema sit below it
    /// for *every* schedule, the exact `A(n, f)` seed included.
    pub gap_closed: bool,
    /// Whether the improvement clears [`IMPROVEMENT_MARGIN`] *and* the
    /// pair's gap is open — never claimed silently, and never claimed
    /// at all where Theorem 1 is already tight.
    pub improved: bool,
    /// Interval certificate for `alpha(n)` where it applies.
    pub certificate: Option<Certificate>,
    /// The lower-bound cross-check verdict.
    pub crosscheck: CrossCheck,
    /// The best schedule found (absent for two-group pairs).
    pub best_schedule: Option<FreeSchedule>,
}

/// Folds a finished state into its `OptimizeReport`.
///
/// # Errors
///
/// Propagates closed-form and certificate computation failures.
pub fn finish(state: &OptimizerState) -> Result<OptimizeReport> {
    let config = &state.config;
    let params = config.params()?;
    let algorithm = Algorithm::design(params)?;
    let best = state
        .starts
        .iter()
        .min_by(|a, b| a.cr.total_cmp(&b.cr))
        .ok_or_else(|| Error::domain("optimizer state has no starts"))?;
    // Report the raw supremum of the winner, not its tie-broken score.
    let objective = config.objective()?;
    let best_found_cr = objective.measure(&best.schedule)?.empirical;
    let evaluations = state.starts.iter().map(|s| s.evaluations).sum();
    let thm2_alpha = if params.n() < 2 * params.f() + 2 { Some(alpha(params.n())?) } else { None };
    let certificate = if thm2_alpha.is_some() { Some(certify_alpha(params.n())?) } else { None };
    let improvement = state.baseline_cr - best_found_cr;
    // n = f + 1: Theorem 1 already meets the tight single-robot bound
    // 9, so in-window gains can never be real improvements.
    let gap_closed = params.n() == params.f() + 1;
    Ok(OptimizeReport {
        n: config.n,
        f: config.f,
        regime: params.regime(),
        budget: config.budget,
        seed: config.seed,
        rounds: state.round,
        starts: state.starts.len(),
        evaluations,
        xmax: config.resolved_xmax()?,
        thm1_cr: algorithm.analytic_cr(),
        thm2_alpha,
        lower_bound: lower_bound(params)?,
        baseline_measured: state.baseline_cr,
        best_found_cr,
        improvement,
        gap_closed,
        improved: !gap_closed && improvement > IMPROVEMENT_MARGIN,
        crosscheck: cross_check(certificate.as_ref(), best_found_cr),
        certificate,
        best_schedule: Some(best.schedule.clone()),
    })
}

/// Reports a two-group pair without optimizing: the paper's strategy
/// already achieves the optimal ratio 1, and rays (which never turn)
/// have no [`FreeSchedule`] form.
fn report_two_group(config: &OptimizeConfig) -> Result<OptimizeReport> {
    let params = config.params()?;
    let algorithm = Algorithm::design(params)?;
    let xmax = config.resolved_xmax()?;
    let strategy = resolve_strategy("paper", None)?;
    let measured = measure_strategy_cr(strategy.as_ref(), params, xmax)?;
    Ok(OptimizeReport {
        n: config.n,
        f: config.f,
        regime: params.regime(),
        budget: config.budget,
        seed: config.seed,
        rounds: 0,
        starts: 0,
        evaluations: 1,
        xmax,
        thm1_cr: algorithm.analytic_cr(),
        thm2_alpha: None,
        lower_bound: lower_bound(params)?,
        baseline_measured: measured.empirical,
        best_found_cr: measured.empirical,
        improvement: 0.0,
        gap_closed: true,
        improved: false,
        certificate: None,
        crosscheck: CrossCheck::Consistent,
        best_schedule: None,
    })
}

/// Runs a full optimization (or the two-group short-circuit) to its
/// report. Equivalent to [`run_with_checkpoint`] with no checkpoint.
///
/// # Errors
///
/// Propagates configuration, measurement, and closed-form failures.
pub fn run(config: &OptimizeConfig) -> Result<OptimizeReport> {
    run_with_checkpoint(config, None)
}

/// Runs a full optimization, snapshotting the state to `checkpoint`
/// after initialization and after every round. A killed run resumed
/// from any of those snapshots ([`crate::Checkpoint::load`], then
/// [`resume_state`]) finishes with bit-identical output.
///
/// # Errors
///
/// Propagates configuration, measurement, closed-form, and checkpoint
/// I/O failures.
pub fn run_with_checkpoint(
    config: &OptimizeConfig,
    checkpoint: Option<&std::path::Path>,
) -> Result<OptimizeReport> {
    let params = config.params()?;
    if params.regime() == Regime::TwoGroup {
        return report_two_group(config);
    }
    let mut state = init_state(config)?;
    if let Some(path) = checkpoint {
        crate::Checkpoint::snapshot(&state).save(path)?;
    }
    resume_state(&mut state, checkpoint)
}

/// Advances an existing state through its remaining rounds (writing
/// snapshots when `checkpoint` is given) and folds the report.
///
/// # Errors
///
/// Propagates advancement, closed-form, and checkpoint I/O failures.
pub fn resume_state(
    state: &mut OptimizerState,
    checkpoint: Option<&std::path::Path>,
) -> Result<OptimizeReport> {
    let rounds = state.config.budget.knobs().rounds;
    while state.round < rounds {
        advance_round(state)?;
        if let Some(path) = checkpoint {
            crate::Checkpoint::snapshot(state).save(path)?;
        }
    }
    finish(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(n: usize, f: usize) -> OptimizeConfig {
        let mut config = OptimizeConfig::new(n, f);
        config.budget = Budget::Tiny;
        config.xmax = Some(8.0);
        config
    }

    #[test]
    fn config_defaults_fill_in_from_json() {
        let config: OptimizeConfig = serde_json::from_str(r#"{"n": 3, "f": 1}"#).unwrap();
        assert_eq!(config.budget, Budget::Small);
        assert_eq!(config.seed, 0);
        assert_eq!(config.xmax, None);
        assert!(config.resolved_xmax().unwrap() >= 25.0);
        assert_eq!(config.detect_probability, None);
        assert_eq!(config.objective().unwrap().detect_probability, None);
    }

    #[test]
    fn detect_probability_switches_the_objective_to_expected_cr() {
        let config: OptimizeConfig =
            serde_json::from_str(r#"{"n": 3, "f": 1, "detect_probability": 0.5}"#).unwrap();
        assert_eq!(config.detect_probability, Some(0.5));
        let objective = config.objective().unwrap();
        assert_eq!(objective.detect_probability, Some(0.5));
        assert_eq!(objective.floor(), 0.0);

        let bad: OptimizeConfig =
            serde_json::from_str(r#"{"n": 3, "f": 1, "detect_probability": 1.5}"#).unwrap();
        assert!(bad.objective().is_err(), "out-of-range probability must fail at construction");
    }

    #[test]
    fn expected_cr_run_terminates_with_a_finite_best() {
        let mut config = tiny_config(3, 1);
        config.detect_probability = Some(0.5);
        let state = init_state(&config).unwrap();
        assert!(state.baseline_cr.is_finite() && state.baseline_cr < PENALTY);
        // The expectation truncates undetected mass at the horizon, so
        // it is still a ratio >= 1 on a covered window.
        assert!(state.baseline_cr >= 1.0);
    }

    #[test]
    fn init_seeds_start_zero_with_the_exact_lowering() {
        let state = init_state(&tiny_config(3, 1)).unwrap();
        assert_eq!(state.round, 0);
        assert_eq!(state.starts.len(), Budget::Tiny.knobs().starts);
        // Start 0's score is the baseline supremum plus the bounded
        // pressure tie-breaker.
        assert!(state.starts[0].cr > state.baseline_cr);
        assert!(state.starts[0].cr <= state.baseline_cr + crate::objective::PRESSURE_WEIGHT);
        assert!(state.baseline_cr.is_finite() && state.baseline_cr < PENALTY);
    }

    #[test]
    fn two_group_pairs_short_circuit_to_a_trivial_report() {
        assert!(init_state(&tiny_config(4, 1)).is_err());
        let report = run(&tiny_config(4, 1)).unwrap();
        assert_eq!(report.regime, Regime::TwoGroup);
        assert_eq!(report.thm1_cr, 1.0);
        assert!(report.best_schedule.is_none());
        assert!(report.crosscheck.is_consistent());
        assert!(report.best_found_cr >= report.lower_bound - 1e-9);
    }

    #[test]
    fn rounds_only_improve_and_the_report_brackets_the_gap() {
        let config = tiny_config(3, 1);
        let mut state = init_state(&config).unwrap();
        let before: Vec<f64> = state.starts.iter().map(|s| s.cr).collect();
        advance_round(&mut state).unwrap();
        for (b, s) in before.iter().zip(&state.starts) {
            assert!(s.cr <= *b, "round worsened a start: {b} -> {}", s.cr);
        }
        let report = resume_state(&mut state, None).unwrap();
        assert_eq!(report.rounds, Budget::Tiny.knobs().rounds);
        let alpha3 = report.thm2_alpha.unwrap();
        assert!(report.best_found_cr >= alpha3, "{} < alpha {alpha3}", report.best_found_cr);
        assert!(report.best_found_cr <= report.thm1_cr + THM1_SLACK);
        assert!(report.crosscheck.is_consistent());
        assert!(report.best_schedule.is_some());
    }

    #[test]
    fn cross_check_rejects_sub_lower_bound_measurements() {
        let cert = certify_alpha(3).unwrap();
        assert_eq!(cross_check(Some(&cert), cert.lo - 0.1), CrossCheck::Rejected);
        assert_eq!(cross_check(Some(&cert), cert.hi + 0.1), CrossCheck::Consistent);
        assert_eq!(cross_check(None, 0.5), CrossCheck::Consistent);
    }

    #[test]
    fn stream_seeds_are_pairwise_distinct_for_small_indices() {
        let mut seen = std::collections::HashSet::new();
        for start in 0..8u64 {
            for round in 0..8u64 {
                assert!(seen.insert(stream_seed(17, start, round)));
            }
        }
    }
}
