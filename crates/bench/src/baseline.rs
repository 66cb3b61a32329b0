//! The perf-baseline emitter: counts the deterministic work of
//! canonical inputs and writes a machine-readable JSON document
//! (`BENCH_<date>.json`) so every future change can diff against the
//! recorded trajectory.
//!
//! Five *work counts* are deterministic, so they are the same on any
//! host and at any thread count:
//!
//! - the critical points the exact supremum engine enumerates for the
//!   optimizer's inner loop, for the strategy supremum path, and for
//!   Table 1's measured column;
//! - the objective evaluations of a tiny-budget optimizer run;
//! - the simulator events of a 10,000-sample Monte-Carlo sweep.
//!
//! [`compare_baselines`] gates the counts on every run. Nothing here is
//! timed: timings are perfbench's (`perfbench/`), which runs the parent
//! and the change in alternating pairs on one host.

use std::time::{SystemTime, UNIX_EPOCH};

use faultline_analysis::exact::exact_supremum;
use faultline_analysis::supremum::TURNING_POINT_EPS;
use faultline_analysis::table1::{self, TABLE1_PAIRS};
use faultline_core::coverage::Fleet;
use faultline_core::Params;
use faultline_sim::{sweep_outcomes, BernoulliFaults, MonteCarloConfig, SimConfig};
use faultline_strategies::{PaperStrategy, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A deterministic count of the work one canonical input costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkCount {
    /// Stable count identifier.
    pub name: String,
    /// The count.
    pub value: u64,
    /// Human-readable description of what was counted.
    pub detail: String,
}

/// The complete perf baseline written to `BENCH_<date>.json`. Files
/// recorded before the timings left still load: the deserializer
/// ignores their `quick`, `host`, `workloads` and `paths` keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Workspace version the baseline was recorded with.
    pub(crate) version: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Deterministic work counts. Defaults to empty so baselines
    /// recorded before the counts still deserialize.
    #[serde(default)]
    pub counts: Vec<WorkCount>,
}

/// Result of diffing a freshly measured baseline against a recorded
/// one: one human-readable line per entry, plus the subset that
/// regressed.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// One line per compared (or skipped) entry.
    pub lines: Vec<String>,
    /// Entries that regressed.
    pub regressions: Vec<String>,
}

impl BaselineComparison {
    /// Whether the gate passes (no regression).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares a fresh baseline against a recorded one.
///
/// Work counts are deterministic: any count above its recorded value
/// fails, on any host. Counts the recorded baseline lacks are skipped.
#[must_use]
pub fn compare_baselines(current: &BenchBaseline, recorded: &BenchBaseline) -> BaselineComparison {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for c in &current.counts {
        let Some(r) = recorded.counts.iter().find(|r| r.name == c.name) else {
            lines.push(format!("{}: not in the recorded baseline, skipped", c.name));
            continue;
        };
        let line = format!("{}: {} vs recorded {}", c.name, c.value, r.value);
        if c.value > r.value {
            regressions.push(line.clone());
        }
        lines.push(line);
    }
    BaselineComparison { lines, regressions }
}

/// UTC date of `now`, without a calendar dependency (civil-from-days,
/// Howard Hinnant's algorithm).
#[must_use]
pub(crate) fn utc_date() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

/// Critical points the exact engine enumerates to profile the
/// proportional seed of `A(5, 3)` over the optimizer's default window,
/// at the first horizon the profile materializes.
fn optimizer_inner_loop_critical_points() -> Result<WorkCount, Box<dyn std::error::Error>> {
    use faultline_core::{ratio, FreeSchedule, ProportionalSchedule};

    let params = Params::new(5, 3)?;
    let beta = ratio::optimal_beta(params)?;
    let schedule = FreeSchedule::from_proportional(&ProportionalSchedule::new(5, beta)?, 12)?;
    let xmax = 25.0;
    let horizon = schedule.horizon_hint(xmax * (1.0 + 2.0 * TURNING_POINT_EPS)).max(4.0 * xmax);
    let scan = exact_supremum(&schedule.fleet(horizon)?, params.required_visits(), xmax)?;
    Ok(WorkCount {
        name: "optimizer_inner_loop_critical_points".to_owned(),
        value: scan.critical_points as u64,
        detail: format!("exact-scan critical points of the A(5, 3) seed profile (xmax {xmax})"),
    })
}

/// Critical points the exact engine enumerates to measure the paper
/// strategy at `params` over `[1, xmax]`, on the fleet
/// [`faultline_analysis::measure_strategy_cr`] scans.
fn paper_scan_critical_points(
    params: Params,
    xmax: f64,
) -> Result<u64, Box<dyn std::error::Error>> {
    let strategy = PaperStrategy::new();
    let horizon = strategy.horizon_hint(params, xmax * (1.0 + 2.0 * TURNING_POINT_EPS));
    let fleet = Fleet::from_plans(&strategy.plans(params)?, horizon)?;
    Ok(exact_supremum(&fleet, params.required_visits(), xmax)?.critical_points as u64)
}

/// Critical points the exact engine enumerates to measure the paper
/// strategy on the small Table-1 pairs, summed over the pairs.
fn strategy_supremum_critical_points() -> Result<WorkCount, Box<dyn std::error::Error>> {
    let pairs: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 3)];
    let xmax = 16.0;
    let mut value = 0;
    for &(n, f) in pairs {
        value += paper_scan_critical_points(Params::new(n, f)?, xmax)?;
    }
    Ok(WorkCount {
        name: "strategy_supremum_critical_points".to_owned(),
        value,
        detail: format!(
            "exact-scan critical points of the paper strategy over {} pairs (xmax {xmax})",
            pairs.len()
        ),
    })
}

/// Critical points of Table 1's measured column: every pair scanned at
/// the table's own window, summed over the pairs.
fn table1_critical_points() -> Result<WorkCount, Box<dyn std::error::Error>> {
    let mut value = 0;
    for &(n, f) in TABLE1_PAIRS {
        let params = Params::new(n, f)?;
        value += paper_scan_critical_points(params, table1::measure_window(params)?)?;
    }
    Ok(WorkCount {
        name: "table1_critical_points".to_owned(),
        value,
        detail: format!(
            "exact-scan critical points of Table 1's measured column over {} pairs",
            TABLE1_PAIRS.len()
        ),
    })
}

/// Objective evaluations of a tiny-budget optimizer run at `(5, 3)`.
fn optimizer_evaluations() -> Result<WorkCount, Box<dyn std::error::Error>> {
    let mut config = faultline_opt::OptimizeConfig::new(5, 3);
    config.budget = faultline_opt::Budget::Tiny;
    let report = faultline_opt::run(&config)?;
    Ok(WorkCount {
        name: "optimizer_tiny_evaluations".to_owned(),
        value: report.evaluations,
        detail: "objective evaluations of a tiny-budget optimizer run at (5, 3), seed 0".to_owned(),
    })
}

/// Simulator events of a 10,000-sample random-fault Monte-Carlo sweep
/// of `A(5, 2)`, each run traced, summed over the samples.
fn montecarlo_sweep_events() -> Result<WorkCount, Box<dyn std::error::Error>> {
    let samples = 10_000;
    let params = Params::new(5, 2)?;
    let strategy = PaperStrategy::new();
    let plans = strategy.plans(params)?;
    let horizon = strategy.horizon_hint(params, 101.0);
    let mut faults = BernoulliFaults::new(0.3, params.f(), StdRng::seed_from_u64(5))?;
    let config = MonteCarloConfig::new(samples, 100.0)?;
    let traced = SimConfig { record_trace: true, ..SimConfig::default() };
    let events = sweep_outcomes(&plans, &mut faults, config, horizon, 7, traced, |outcome| {
        outcome.trace.map_or(0, |trace| trace.len() as u64)
    })?;
    Ok(WorkCount {
        name: "montecarlo_sweep_events".to_owned(),
        value: events.iter().sum(),
        detail: format!("traced simulator events of a {samples}-sample sweep of A(5, 2)"),
    })
}

/// Runs every work count and assembles the baseline.
///
/// # Errors
///
/// Propagates failures from the underlying experiments.
pub fn run_baseline() -> Result<BenchBaseline, Box<dyn std::error::Error>> {
    let counts = vec![
        optimizer_inner_loop_critical_points()?,
        strategy_supremum_critical_points()?,
        optimizer_evaluations()?,
        table1_critical_points()?,
        montecarlo_sweep_events()?,
    ];
    Ok(BenchBaseline { version: crate::VERSION.to_owned(), date: utc_date(), counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_date_is_well_formed() {
        let d = utc_date();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
        let year: i32 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let baseline = BenchBaseline {
            version: "0.1.0".to_owned(),
            date: "2026-08-06".to_owned(),
            counts: vec![WorkCount {
                name: "optimizer_tiny_evaluations".to_owned(),
                value: 2875,
                detail: "test".to_owned(),
            }],
        };
        let json = serde_json::to_string_pretty(&baseline).unwrap();
        let back: BenchBaseline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, baseline);
    }

    #[test]
    fn baselines_recorded_before_the_exact_engine_still_deserialize() {
        // Committed baselines from before the counts must keep loading
        // (no counts), their retired timing keys ignored.
        let json = r#"{
            "version": "0.1.0", "date": "2026-08-06", "quick": false,
            "host": {"logical_cores": 1, "default_threads": 1,
                     "os": "linux", "arch": "x86_64"},
            "workloads": [], "engine": []
        }"#;
        let back: BenchBaseline = serde_json::from_str(json).unwrap();
        assert!(back.counts.is_empty());
    }

    #[test]
    fn committed_baselines_still_deserialize() {
        // The perf gate compares against the newest committed file, and
        // the older ones stay readable: their timing sections (the
        // October ones' explore `paths` among them) are ignored, and
        // the August ones have no counts.
        for json in [
            include_str!("../../../BENCH_2026-08-06.json"),
            include_str!("../../../BENCH_2026-08-08.json"),
        ] {
            let back: BenchBaseline = serde_json::from_str(json).unwrap();
            assert!(back.counts.is_empty());
        }
        let october: BenchBaseline =
            serde_json::from_str(include_str!("../../../BENCH_2026-10-17.json")).unwrap();
        assert_eq!(october.counts.len(), 3, "{:?}", october.counts);
        for json in [
            include_str!("../../../BENCH_2026-10-19.json"),
            include_str!("../../../BENCH_2026-10-19_serial.json"),
        ] {
            let newest: BenchBaseline = serde_json::from_str(json).unwrap();
            let names: Vec<&str> = newest.counts.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "optimizer_inner_loop_critical_points",
                    "strategy_supremum_critical_points",
                    "optimizer_tiny_evaluations",
                    "table1_critical_points",
                    "montecarlo_sweep_events",
                ]
            );
        }
    }

    #[test]
    fn comparison_gates_every_count() {
        let recorded: BenchBaseline =
            serde_json::from_str(include_str!("../../../BENCH_2026-10-19_serial.json")).unwrap();
        assert!(compare_baselines(&recorded, &recorded).passed());

        // Any of the five counts one above its recorded value fails;
        // one below passes.
        for i in 0..recorded.counts.len() {
            let mut grown = recorded.clone();
            grown.counts[i].value += 1;
            let comparison = compare_baselines(&grown, &recorded);
            assert_eq!(comparison.regressions.len(), 1, "{:?}", comparison.lines);
            assert!(comparison.regressions[0].starts_with(&recorded.counts[i].name));
            let mut shrunk = recorded.clone();
            shrunk.counts[i].value -= 1;
            assert!(compare_baselines(&shrunk, &recorded).passed());
        }

        // An entry the recorded baseline lacks is skipped, not gated.
        let mut unrecorded = recorded.clone();
        unrecorded.counts.clear();
        let mut grown = recorded.clone();
        grown.counts[0].value += 1;
        let skipped = compare_baselines(&grown, &unrecorded);
        assert!(skipped.passed(), "{:?}", skipped.regressions);
        assert_eq!(
            skipped.lines.iter().filter(|l| l.contains("not in the recorded baseline")).count(),
            recorded.counts.len()
        );
    }
}
