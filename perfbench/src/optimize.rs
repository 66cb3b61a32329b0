//! The optimize_gap workload: `faultline_opt::gap_study` at the medium
//! budget over all twelve Table-1 pairs, in process. A measured run
//! repeats the study and reports the wall time to the full gap report;
//! every report must pass the `faultline optimize --check` invariants
//! and the gap CSV must repeat byte for byte.
//!
//! The traced ledger drives the same study through `init_state`,
//! `advance_round` and `finish`, which reproduce `run` bit for bit,
//! checks it against the untraced study and a one-thread study, and
//! samples the critical-point engine on each pair's schedules.

use std::hint::black_box;
use std::time::Instant;

use faultline_analysis::exact::exact_supremum;
use faultline_analysis::supremum::TURNING_POINT_EPS;
use faultline_analysis::table1::TABLE1_PAIRS;
use faultline_core::coverage::Fleet;
use faultline_core::exact::{first_visit_cover, mirrored};
use faultline_core::parallel::THREADS_ENV;
use faultline_core::{Algorithm, FreeSchedule, ParallelConfig, Regime};
use faultline_opt::{
    advance_round, finish, gap_csv, gap_study, init_state, Budget, GapRow, Objective,
    OptimizeConfig, THM1_SLACK,
};

use crate::report::Outcome;
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use crate::Args;

/// The study's effort tier.
const BUDGET: Budget = Budget::Medium;
/// The tier of the other workloads' traced ledgers: the same code
/// paths in a fraction of the time.
const OTHER_BUDGET: Budget = Budget::Tiny;
/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Studies per measured run at least: the gap CSV is compared across
/// them, and the median of three drops one outlier.
const MIN_STUDIES: usize = 3;
/// Timed repetitions of each engine sample; each figure is their
/// median.
const SAMPLE_REPS: usize = 5;
/// The engine figures, in the order `sample_schedule` returns them.
const ENGINE_METRICS: [(&str, &str); 7] = [
    ("opt.eval_us", "us"),
    ("core.fleet_us", "us"),
    ("core.exact.cover_us", "us"),
    ("core.exact.mirror_us", "us"),
    ("analysis.exact.scan_us", "us"),
    ("analysis.exact.critical_points", "count"),
    ("alloc.per_eval", "count"),
];

fn err(error: faultline_core::Error) -> String {
    error.to_string()
}

fn config(n: usize, f: usize, budget: Budget, seed: u64) -> OptimizeConfig {
    let mut config = OptimizeConfig::new(n, f);
    config.budget = budget;
    config.seed = seed;
    config
}

/// The `A(n, f)` lowering the optimizer starts from; `None` for
/// two-group pairs.
fn seed_schedule(config: &OptimizeConfig) -> Result<Option<FreeSchedule>, String> {
    let algorithm = Algorithm::design(config.params().map_err(err)?).map_err(err)?;
    algorithm
        .schedule()
        .map(|schedule| {
            FreeSchedule::from_proportional(schedule, config.budget.knobs().explicit_turns)
                .map_err(err)
        })
        .transpose()
}

/// Set-up: every pair's objective (its certified floor and adversary
/// probes) and seed lowering, then a warm-up study at the tiny budget.
/// The first study in a process runs measurably slower than the next.
fn set_up(seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    for &(n, f) in TABLE1_PAIRS {
        let config = config(n, f, BUDGET, seed);
        black_box(config.objective().map_err(err)?);
        black_box(seed_schedule(&config)?);
    }
    black_box(gap_study(OTHER_BUDGET, seed).map_err(err)?);
    Ok(start.elapsed().as_secs_f64())
}

/// The `faultline optimize --check` invariants, one check per report:
/// certified lower bound <= best found <= Theorem 1 + slack.
fn check_reports(outcome: &mut Outcome, rows: &[GapRow]) {
    for GapRow { report } in rows {
        outcome.check(
            report.crosscheck.is_consistent()
                && report.best_found_cr <= report.thm1_cr + THM1_SLACK,
            || {
                format!(
                    "({}, {}): best_found_cr {} fails the --check invariants (Thm 1 {})",
                    report.n, report.f, report.best_found_cr, report.thm1_cr
                )
            },
        );
    }
}

fn evaluations(rows: &[GapRow]) -> u64 {
    rows.iter().map(|row| row.report.evaluations).sum()
}

/// A measured run: studies until `args.seconds` have passed (at least
/// `MIN_STUDIES`), every report checked, the gap CSVs compared.
///
/// # Errors
///
/// Propagates optimizer failures.
pub fn measure(args: &Args) -> Result<Outcome, String> {
    let setups = (0..SETUP_REPS).map(|_| set_up(args.seed)).collect::<Result<Vec<_>, _>>()?;
    let mut outcome = Outcome::default();
    let mut solves = Vec::new();
    let mut csvs = Vec::new();
    let mut evaluated = 0;
    let start = Instant::now();
    while solves.len() < MIN_STUDIES || start.elapsed().as_secs_f64() < args.seconds {
        let study = Instant::now();
        let rows = gap_study(BUDGET, args.seed).map_err(err)?;
        solves.push(study.elapsed().as_secs_f64());
        check_reports(&mut outcome, &rows);
        csvs.push(gap_csv(&rows));
        evaluated = evaluations(&rows);
    }
    let wall_s = start.elapsed().as_secs_f64();
    for csv in &csvs[1..] {
        outcome.check(*csv == csvs[0], || "gap_csv differs between studies of one seed".to_owned());
    }
    let solve_ms: Vec<f64> = solves.iter().map(|s| s * 1e3).collect();
    let tail = Tail::of(&stats::sorted(&solve_ms), 0.99);
    outcome.note(format!("{} gap studies of {evaluated} objective evaluations each", solves.len()));
    outcome.metric_noted(
        "throughput_rps",
        solves.len() as f64 / wall_s,
        "1/s",
        "gap studies per second".to_owned(),
    );
    outcome.metric("latency_p50_ms", stats::median(&solve_ms), "ms");
    outcome.metric_noted("latency_p99_ms", tail.value, "ms", tail.describe());
    outcome.metric("solve_s", stats::median(&solves), "s");
    outcome.metric_noted(
        "setup_s",
        stats::median(&setups),
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    outcome.metric("peak_rss_mb", stats::peak_rss_mb()?, "MB");
    Ok(outcome)
}

/// Runs the study pair by pair through the optimizer's round-granular
/// API: one span per phase under one span per pair.
fn drive(
    tracer: &mut Tracer,
    pairs: &[(usize, usize)],
    budget: Budget,
    seed: u64,
) -> Result<Vec<GapRow>, String> {
    let mut rows = Vec::with_capacity(pairs.len());
    for (id, &(n, f)) in pairs.iter().enumerate() {
        let id = id as u64;
        let config = config(n, f, budget, seed);
        let pair = tracer.open(id, None, "opt.pair");
        let report = if config.params().map_err(err)?.regime() == Regime::TwoGroup {
            // Nothing to search: `run` reports two-group pairs directly.
            tracer.span(id, Some(pair), "opt.two_group", || faultline_opt::run(&config))
        } else {
            let mut state =
                tracer.span(id, Some(pair), "opt.init", || init_state(&config)).map_err(err)?;
            while state.round < budget.knobs().rounds {
                tracer
                    .span(id, Some(pair), "opt.round", || advance_round(&mut state))
                    .map_err(err)?;
            }
            tracer.span(id, Some(pair), "opt.finish", || finish(&state))
        }
        .map_err(err)?;
        tracer.close(pair);
        rows.push(GapRow { report });
    }
    Ok(rows)
}

/// Runs `f` with `FAULTLINE_THREADS` set to `threads`, then restores
/// it. The optimizer reads the variable at each fan-out, and std
/// serializes environment access.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let previous = std::env::var_os(THREADS_ENV);
    std::env::set_var(THREADS_ENV, threads.to_string());
    let out = f();
    match previous {
        Some(value) => std::env::set_var(THREADS_ENV, value),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

/// The optimize_gap section of the traced ledger. `home` is whether
/// optimize_gap is the run's own workload; other workloads run it at
/// the tiny budget.
///
/// # Errors
///
/// Propagates optimizer and engine failures.
pub fn trace(args: &Args, home: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let budget = if home { BUDGET } else { OTHER_BUDGET };
    // The one-thread study goes first and warms the process, so the
    // untraced and traced studies after it compare fairly.
    let serial = with_threads(1, || gap_study(budget, args.seed)).map_err(err)?;
    let start = Instant::now();
    let untraced = gap_study(budget, args.seed).map_err(err)?;
    let untraced_s = start.elapsed().as_secs_f64();
    let first = tracer.next_index();
    let start = Instant::now();
    let traced = drive(tracer, TABLE1_PAIRS, budget, args.seed)?;
    let traced_s = start.elapsed().as_secs_f64();
    let phases = first..tracer.next_index();

    let mut outcome = Outcome::default();
    check_reports(&mut outcome, &untraced);
    let csv = gap_csv(&untraced);
    outcome.check(gap_csv(&traced) == csv, || {
        "the traced drive's gap_csv differs from gap_study's".to_owned()
    });
    let threads = ParallelConfig::default().resolved_threads();
    outcome.check(gap_csv(&serial) == csv, || {
        format!("gap_csv at 1 thread differs from gap_csv at {threads} threads")
    });

    for (metric, phase) in
        [("opt.init_s", "opt.init"), ("opt.round_s", "opt.round"), ("opt.finish_s", "opt.finish")]
    {
        let seconds = tracer.micros(phases.clone(), phase).iter().sum::<f64>() / 1e6;
        outcome.metric(metric, seconds, "s");
    }
    outcome.metric("opt.evaluations", evaluations(&traced) as f64, "count");
    let engine = sample_engine(tracer, &traced, budget, args.seed)?;
    for ((metric, unit), value) in ENGINE_METRICS.into_iter().zip(engine) {
        outcome.metric(metric, value, unit);
    }
    outcome.metric_noted(
        "trace.overhead_s",
        traced_s - untraced_s,
        "s",
        format!("traced {traced_s:.3} s, untraced {untraced_s:.3} s, budget {budget}"),
    );
    Ok(outcome)
}

/// The engine figures per evaluation, each averaged over a pair's seed
/// and best schedules, then over the searched pairs weighted by the
/// evaluations the study spent on each.
fn sample_engine(
    tracer: &mut Tracer,
    rows: &[GapRow],
    budget: Budget,
    seed: u64,
) -> Result<[f64; 7], String> {
    let mut total = [0.0; 7];
    let mut weight = 0.0;
    for (id, GapRow { report }) in rows.iter().enumerate() {
        // Two-group pairs never search, so have no schedule to sample.
        let Some(best) = &report.best_schedule else { continue };
        let config = config(report.n, report.f, budget, seed);
        let objective = config.objective().map_err(err)?;
        let lowering = seed_schedule(&config)?.ok_or("a searched pair has no seed schedule")?;
        let pair_weight = report.evaluations as f64;
        for schedule in [&lowering, best] {
            let sample = sample_schedule(tracer, id as u64, &objective, schedule, report.f + 1)?;
            for (sum, value) in total.iter_mut().zip(sample) {
                *sum += pair_weight * value / 2.0;
            }
        }
        weight += pair_weight;
    }
    Ok(total.map(|sum| if weight > 0.0 { sum / weight } else { 0.0 }))
}

/// One schedule's engine figures in `ENGINE_METRICS` order: medians
/// over `SAMPLE_REPS` of `Objective::eval`, `Fleet::from_plans`, both
/// sides' `first_visit_cover`, `mirrored`, and the scan's self time
/// (`exact_supremum` minus the covers and mirror it performs), then the
/// scan's critical points and one evaluation's allocations.
fn sample_schedule(
    tracer: &mut Tracer,
    id: u64,
    objective: &Objective,
    schedule: &FreeSchedule,
    k: usize,
) -> Result<[f64; 7], String> {
    let xmax = objective.xmax();
    let plans = schedule.plans();
    // The first horizon `measure_free_schedule_profile` materializes.
    let horizon = schedule.horizon_hint(xmax * (1.0 + 2.0 * TURNING_POINT_EPS)).max(4.0 * xmax);
    let mut reps: [Vec<f64>; 6] = Default::default();
    let mut critical_points = 0;
    for _ in 0..SAMPLE_REPS {
        black_box(tracer.span(id, None, "opt.eval", || objective.eval(schedule)));
        let eval = tracer.last();
        let fleet = tracer
            .span(id, None, "core.fleet", || Fleet::from_plans(&plans, horizon))
            .map_err(err)?;
        let fleet_us = tracer.last().micros();
        let positive = tracer
            .span(id, None, "core.exact.cover", || {
                first_visit_cover(fleet.trajectories(), 1.0, xmax)
            })
            .map_err(err)?;
        black_box(positive);
        let positive_us = tracer.last().micros();
        let mirror = tracer
            .span(id, None, "core.exact.mirror", || mirrored(fleet.trajectories()))
            .map_err(err)?;
        let mirror_us = tracer.last().micros();
        let negative = tracer
            .span(id, None, "core.exact.cover", || first_visit_cover(&mirror, 1.0, xmax))
            .map_err(err)?;
        black_box(negative);
        let negative_us = tracer.last().micros();
        let scan = tracer
            .span(id, None, "analysis.exact.supremum", || exact_supremum(&fleet, k, xmax))
            .map_err(err)?;
        let scan_self_us = tracer.last().micros() - positive_us - mirror_us - negative_us;
        critical_points = scan.critical_points;
        let values = [
            eval.micros(),
            fleet_us,
            positive_us + negative_us,
            mirror_us,
            scan_self_us,
            eval.allocs as f64,
        ];
        for (rep, value) in reps.iter_mut().zip(values) {
            rep.push(value);
        }
    }
    let [eval, fleet, cover, mirror, scan, allocs] = reps.map(|rep| stats::median(&rep));
    Ok([eval, fleet, cover, mirror, scan, critical_points as f64, allocs])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_drives_to_the_same_evaluations_and_reports_as_run() {
        let pairs = [(3, 1), (4, 1)];
        let first = drive(&mut Tracer::start(), &pairs, Budget::Tiny, 5).expect("drive");
        let second = drive(&mut Tracer::start(), &pairs, Budget::Tiny, 5).expect("drive");
        assert_eq!(evaluations(&first), evaluations(&second));
        assert_eq!(gap_csv(&first), gap_csv(&second));
        let run = faultline_opt::run(&config(3, 1, Budget::Tiny, 5)).expect("run");
        assert_eq!(first[0].report, run, "the round-granular drive reproduces run");
    }

    #[test]
    fn engine_samples_are_positive_and_count_allocations() {
        let mut tracer = Tracer::start();
        let rows = drive(&mut tracer, &[(3, 1)], Budget::Tiny, 5).expect("drive");
        let engine = sample_engine(&mut tracer, &rows, Budget::Tiny, 5).expect("samples");
        assert!(engine.iter().all(|v| *v >= 0.0), "{engine:?}");
        assert!(engine[0] > 0.0 && engine[5] > 0.0 && engine[6] > 0.0, "{engine:?}");
    }
}
