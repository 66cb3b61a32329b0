//! The perf-baseline emitter: times the canonical workloads, counts
//! the deterministic work of canonical inputs, and writes a
//! machine-readable JSON document (`BENCH_<date>.json`) so every
//! future change can diff against the recorded trajectory.
//!
//! Two canonical workloads are timed:
//!
//! 1. **Table-1 supremum scan** — the empirical `sup K(x)` measurement
//!    over the paper's `(n, f)` grid.
//! 2. **Monte-Carlo sweep** — a 10k-sample random-fault sweep of
//!    `A(5, 2)` (1k in `--quick` mode).
//!
//! One *path comparison* times the dominance-pruned adversary-space
//! explorer against its exhaustive differential baseline; its
//! `speedup` ratio is host-comparable.
//!
//! Three *work counts* are deterministic, so they are the same on any
//! host and under `--quick`: the critical points the exact supremum
//! engine enumerates for the optimizer's inner loop and for the
//! strategy supremum path, and the objective evaluations of a
//! tiny-budget optimizer run. [`compare_baselines`] gates the counts
//! and the speedup on every run, and the wall-clock timings on the
//! recording host.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use faultline_analysis::exact::exact_supremum;
use faultline_analysis::supremum::TURNING_POINT_EPS;
use faultline_analysis::{measure_strategy_cr, table1};
use faultline_core::coverage::Fleet;
use faultline_core::{ParallelConfig, Params};
use faultline_sim::{run_sweep, BernoulliFaults, MonteCarloConfig, RatioStats};
use faultline_strategies::{PaperStrategy, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hardware and configuration context a timing is only meaningful
/// against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Logical cores reported by the OS.
    pub logical_cores: usize,
    /// Default worker-thread count the engine resolves on this host
    /// (after the `FAULTLINE_THREADS` override, if set).
    pub default_threads: usize,
    /// Operating system family.
    pub os: String,
    /// CPU architecture.
    pub arch: String,
}

/// Wall-clock timing of one canonical workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTiming {
    /// Stable workload identifier (diff key across baselines).
    pub name: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Human-readable description of what was run.
    pub detail: String,
}

/// A faster path timed against its retained baseline on the same
/// workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathComparison {
    /// Stable comparison identifier.
    pub name: String,
    /// Wall-clock milliseconds for the baseline path.
    pub grid_ms: f64,
    /// Wall-clock milliseconds for the faster path.
    pub exact_ms: f64,
    /// `grid_ms / exact_ms` — above 1 means the faster path wins.
    pub speedup: f64,
    /// Human-readable description of what was measured.
    pub detail: String,
}

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

/// The complete perf baseline written to `BENCH_<date>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Workspace version the baseline was recorded with.
    pub version: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Whether the reduced `--quick` workloads were used.
    pub quick: bool,
    /// Host context.
    pub host: HostInfo,
    /// Canonical workload timings.
    pub workloads: Vec<WorkloadTiming>,
    /// Path comparisons. Defaults to empty so baselines recorded
    /// before the exact engine still deserialize.
    #[serde(default)]
    pub paths: Vec<PathComparison>,
    /// Deterministic work counts. Defaults to empty so baselines
    /// recorded before the counts still deserialize.
    #[serde(default)]
    pub counts: Vec<WorkCount>,
}

/// Maximum tolerated relative wall-clock growth (and relative speedup
/// loss) against a recorded baseline before the perf gate fails.
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// Wall-clock floor below which a recorded timing is too small to
/// gate: a 25% swing on a sub-5ms workload is scheduler noise, not a
/// regression. Such entries are still printed, as informational.
pub const MIN_GATED_WALL_MS: f64 = 5.0;

/// Result of diffing a freshly measured baseline against a recorded
/// one: one human-readable line per entry, plus the subset that
/// regressed beyond [`REGRESSION_TOLERANCE`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// One line per compared (or skipped) entry.
    pub lines: Vec<String>,
    /// Entries that regressed beyond the tolerance.
    pub regressions: Vec<String>,
}

impl BaselineComparison {
    /// Whether the gate passes (no regression beyond tolerance).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares a fresh baseline against a recorded one.
///
/// Wall-clock workload timings are compared only when both runs used
/// the same `--quick` setting (the reduced workloads are not the same
/// experiments) *and* the same host fingerprint (absolute times on
/// different hardware are not comparable), and only gated when the
/// recorded timing is at least [`MIN_GATED_WALL_MS`]. Path-comparison
/// *speedups* are wall-clock ratios and therefore host-comparable:
/// the faster path must not lose more than [`REGRESSION_TOLERANCE`]
/// of its recorded advantage on any host. Work counts are
/// deterministic, so they are gated on every run: any count above its
/// recorded value fails.
#[must_use]
pub fn compare_baselines(current: &BenchBaseline, recorded: &BenchBaseline) -> BaselineComparison {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    if current.quick == recorded.quick && current.host == recorded.host {
        for w in &current.workloads {
            let Some(r) = recorded.workloads.iter().find(|r| r.name == w.name) else {
                lines.push(format!("{}: not in the recorded baseline, skipped", w.name));
                continue;
            };
            let growth = w.wall_ms / r.wall_ms - 1.0;
            let mut line = format!(
                "{}: {:.1} ms vs recorded {:.1} ms ({:+.1}%)",
                w.name,
                w.wall_ms,
                r.wall_ms,
                growth * 100.0
            );
            if r.wall_ms < MIN_GATED_WALL_MS {
                line.push_str(" [below gating floor, informational]");
            } else if growth > REGRESSION_TOLERANCE {
                regressions.push(line.clone());
            }
            lines.push(line);
        }
    } else if current.quick != recorded.quick {
        lines.push(format!(
            "wall-clock comparison skipped: current quick = {}, recorded quick = {}",
            current.quick, recorded.quick
        ));
    } else {
        lines.push(
            "wall-clock comparison skipped: host fingerprint differs from the recorded baseline"
                .to_owned(),
        );
    }
    for p in &current.paths {
        let Some(r) = recorded.paths.iter().find(|r| r.name == p.name) else {
            lines.push(format!("{}: not in the recorded baseline, skipped", p.name));
            continue;
        };
        let line = format!("{}: {:.1}x speedup vs recorded {:.1}x", p.name, p.speedup, r.speedup);
        if p.speedup < r.speedup * (1.0 - REGRESSION_TOLERANCE) {
            regressions.push(line.clone());
        }
        lines.push(line);
    }
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
pub fn utc_date() -> String {
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

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Best-of-five wall clock for the gated timings: the minimum is the
/// least noisy estimator of a workload's true cost on a loaded host,
/// which keeps the [`REGRESSION_TOLERANCE`] gate meaningful.
fn min_time_ms(mut f: impl FnMut()) -> f64 {
    (0..5).map(|_| time_ms(&mut f)).fold(f64::INFINITY, f64::min)
}

fn table1_scan(quick: bool) -> Result<WorkloadTiming, Box<dyn std::error::Error>> {
    let (wall_ms, detail) = if quick {
        let pairs: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 3)];
        let mut err = None;
        let wall = min_time_ms(|| {
            for &(n, f) in pairs {
                let result = Params::new(n, f)
                    .and_then(|p| measure_strategy_cr(&PaperStrategy::new(), p, 16.0));
                if let Err(e) = result {
                    err = Some(e);
                    return;
                }
            }
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        (wall, format!("supremum scan of {} small Table-1 rows (xmax 16)", pairs.len()))
    } else {
        let mut result = Ok(Vec::new());
        let wall = min_time_ms(|| result = table1::regenerate(true));
        result?;
        (wall, "full Table-1 regeneration with empirical supremum scans".to_owned())
    };
    Ok(WorkloadTiming { name: "table1_supremum_scan".to_owned(), wall_ms, detail })
}

fn montecarlo_sweep(quick: bool) -> Result<WorkloadTiming, Box<dyn std::error::Error>> {
    let samples = if quick { 1_000 } else { 10_000 };
    let params = Params::new(5, 2)?;
    let strategy = PaperStrategy::new();
    let plans = strategy.plans(params)?;
    let horizon = strategy.horizon_hint(params, 101.0);
    let mut faults = BernoulliFaults::new(0.3, params.f(), StdRng::seed_from_u64(5))?;
    let config = MonteCarloConfig::new(samples, 100.0)?;
    let mut result = Ok(Vec::new());
    let wall_ms = min_time_ms(|| {
        result = run_sweep(&plans, &mut faults, config, horizon, 7);
    });
    let ratios = result?;
    RatioStats::from_ratios(&ratios)?;
    Ok(WorkloadTiming {
        name: "montecarlo_sweep".to_owned(),
        wall_ms,
        detail: format!("{samples}-sample random-fault Monte-Carlo sweep of A(5, 2)"),
    })
}

/// Times two paths *interleaved* over seven rounds and returns each
/// path's minimum: transient host-load bursts only ever add time, so
/// the per-path minimum over rounds spread across the same wall-clock
/// window is the most burst-resistant estimator of the true cost
/// ratio.
fn interleaved_min_rounds(mut fast: impl FnMut(), mut baseline: impl FnMut()) -> (f64, f64) {
    let mut fast_ms = f64::INFINITY;
    let mut baseline_ms = f64::INFINITY;
    for _ in 0..7 {
        fast_ms = fast_ms.min(time_ms(&mut fast));
        baseline_ms = baseline_ms.min(time_ms(&mut baseline));
    }
    (fast_ms, baseline_ms)
}

fn explore_pruning_paths(quick: bool) -> Result<PathComparison, Box<dyn std::error::Error>> {
    use faultline_explore::{explore_pair, ExploreConfig};

    // The dominance-pruned adversary-space frontier vs its exhaustive
    // differential baseline on the largest Table-1 pairs with n <= 5;
    // `grid_ms` records the exhaustive (unpruned) path, under the field
    // name the retired exact-vs-grid comparisons gave the baseline.
    let pairs: &[(usize, usize)] =
        if quick { &[(4, 3), (5, 3)] } else { &[(4, 3), (5, 3), (5, 4)] };
    let xmax = 25.0;
    let reps = if quick { 3 } else { 10 };
    let pruned_config = ExploreConfig::default();
    let exhaustive_config = ExploreConfig { exhaustive: true, ..ExploreConfig::default() };
    let mut pruned_err = None;
    let mut exhaustive_err = None;
    let (pruned_ms, exhaustive_ms) = interleaved_min_rounds(
        || {
            for _ in 0..reps {
                for &(n, f) in pairs {
                    if let Err(e) = explore_pair(n, f, xmax, &pruned_config) {
                        pruned_err = Some(e);
                        return;
                    }
                }
            }
        },
        || {
            for _ in 0..reps {
                for &(n, f) in pairs {
                    if let Err(e) = explore_pair(n, f, xmax, &exhaustive_config) {
                        exhaustive_err = Some(e);
                        return;
                    }
                }
            }
        },
    );
    if let Some(e) = pruned_err.or(exhaustive_err) {
        return Err(e.into());
    }
    Ok(PathComparison {
        name: "explore_pruning".to_owned(),
        grid_ms: exhaustive_ms,
        exact_ms: pruned_ms,
        speedup: exhaustive_ms / pruned_ms,
        detail: format!(
            "{reps}x dominance-pruned vs exhaustive exploration over {} pairs (xmax {xmax})",
            pairs.len()
        ),
    })
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
/// strategy on the small Table-1 pairs, summed over the pairs.
fn strategy_supremum_critical_points() -> Result<WorkCount, Box<dyn std::error::Error>> {
    let pairs: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 3)];
    let xmax = 16.0;
    let strategy = PaperStrategy::new();
    let mut value = 0;
    for &(n, f) in pairs {
        let params = Params::new(n, f)?;
        let horizon = strategy.horizon_hint(params, xmax * (1.0 + 2.0 * TURNING_POINT_EPS));
        let fleet = Fleet::from_plans(&strategy.plans(params)?, horizon)?;
        value += exact_supremum(&fleet, params.required_visits(), xmax)?.critical_points as u64;
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

/// Runs every workload and comparison and assembles the baseline.
///
/// # Errors
///
/// Propagates failures from the underlying experiments.
pub fn run_baseline(quick: bool) -> Result<BenchBaseline, Box<dyn std::error::Error>> {
    let host = HostInfo {
        logical_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        default_threads: ParallelConfig::default().resolved_threads(),
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
    };
    let workloads = vec![table1_scan(quick)?, montecarlo_sweep(quick)?];
    let paths = vec![explore_pruning_paths(quick)?];
    let counts = vec![
        optimizer_inner_loop_critical_points()?,
        strategy_supremum_critical_points()?,
        optimizer_evaluations()?,
    ];
    Ok(BenchBaseline {
        version: crate::VERSION.to_owned(),
        date: utc_date(),
        quick,
        host,
        workloads,
        paths,
        counts,
    })
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
            quick: true,
            host: HostInfo {
                logical_cores: 4,
                default_threads: 4,
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
            },
            workloads: vec![WorkloadTiming {
                name: "table1_supremum_scan".to_owned(),
                wall_ms: 12.5,
                detail: "test".to_owned(),
            }],
            paths: vec![PathComparison {
                name: "explore_pruning".to_owned(),
                grid_ms: 50.0,
                exact_ms: 5.0,
                speedup: 10.0,
                detail: "test".to_owned(),
            }],
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
        // `paths` was added with the exact supremum engine; committed
        // baselines from before then must keep loading (empty paths).
        let json = r#"{
            "version": "0.1.0", "date": "2026-08-06", "quick": false,
            "host": {"logical_cores": 1, "default_threads": 1,
                     "os": "linux", "arch": "x86_64"},
            "workloads": [], "engine": []
        }"#;
        let back: BenchBaseline = serde_json::from_str(json).unwrap();
        assert!(back.paths.is_empty());
        assert!(back.counts.is_empty());
    }

    #[test]
    fn committed_baselines_still_deserialize() {
        // The perf gate compares against the newest committed file, and
        // the older ones stay readable: their `engine` section is
        // ignored, and they have no counts.
        for json in [
            include_str!("../../../BENCH_2026-08-06.json"),
            include_str!("../../../BENCH_2026-08-08.json"),
        ] {
            let back: BenchBaseline = serde_json::from_str(json).unwrap();
            assert!(!back.workloads.is_empty());
            assert!(back.counts.is_empty());
        }
        let newest: BenchBaseline =
            serde_json::from_str(include_str!("../../../BENCH_2026-10-17.json")).unwrap();
        assert_eq!(newest.counts.len(), 3, "{:?}", newest.counts);
    }

    #[test]
    fn comparison_gates_on_wall_clock_and_speedup_regressions() {
        let timing = |wall_ms: f64| WorkloadTiming {
            name: "table1_supremum_scan".to_owned(),
            wall_ms,
            detail: "test".to_owned(),
        };
        let path = |speedup: f64| PathComparison {
            name: "explore_pruning".to_owned(),
            grid_ms: speedup,
            exact_ms: 1.0,
            speedup,
            detail: "test".to_owned(),
        };
        let count = |value: u64| WorkCount {
            name: "optimizer_tiny_evaluations".to_owned(),
            value,
            detail: "test".to_owned(),
        };
        let base = |wall_ms: f64, speedup: f64, quick: bool| BenchBaseline {
            version: "0.1.0".to_owned(),
            date: "2026-08-08".to_owned(),
            quick,
            host: HostInfo {
                logical_cores: 1,
                default_threads: 1,
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
            },
            workloads: vec![timing(wall_ms)],
            paths: vec![path(speedup)],
            counts: vec![count(100)],
        };
        let recorded = base(100.0, 10.0, false);

        // Within tolerance on both axes: the gate passes.
        assert!(compare_baselines(&base(120.0, 9.0, false), &recorded).passed());
        // A recorded timing under the gating floor never fails the
        // gate, no matter how large the relative swing.
        let tiny = base(1.0, 10.0, false);
        let mut tiny_recorded = recorded.clone();
        tiny_recorded.workloads[0].wall_ms = 0.1;
        let floored = compare_baselines(&tiny, &tiny_recorded);
        assert!(floored.passed(), "{:?}", floored.regressions);
        assert!(floored.lines.iter().any(|l| l.contains("informational")));
        // Wall clock beyond +25%: regression.
        let slow = compare_baselines(&base(130.0, 10.0, false), &recorded);
        assert!(!slow.passed(), "{:?}", slow.regressions);
        // Exact-path speedup collapsed by more than 25%: regression,
        // even though the wall clock held.
        let lost = compare_baselines(&base(100.0, 7.0, false), &recorded);
        assert!(!lost.passed(), "{:?}", lost.regressions);
        // Mismatched --quick: wall clocks are skipped, but the
        // host-comparable speedup ratio is still gated.
        let mixed = compare_baselines(&base(1000.0, 10.0, true), &recorded);
        assert!(mixed.passed(), "{:?}", mixed.regressions);
        assert!(mixed.lines.iter().any(|l| l.contains("skipped")));
        let mixed_lost = compare_baselines(&base(1000.0, 6.0, true), &recorded);
        assert!(!mixed_lost.passed());
        // Different hardware: absolute times are not comparable, so
        // wall clocks are skipped — the speedup ratio still gates.
        let mut other_host = base(1000.0, 10.0, false);
        other_host.host.logical_cores = 64;
        let cross = compare_baselines(&other_host, &recorded);
        assert!(cross.passed(), "{:?}", cross.regressions);
        assert!(cross.lines.iter().any(|l| l.contains("host fingerprint")));
        let mut cross_lost = base(1000.0, 6.0, false);
        cross_lost.host.logical_cores = 64;
        assert!(!compare_baselines(&cross_lost, &recorded).passed());

        // Work counts: an equal count passes, one more fails, and a
        // count the recorded baseline lacks is skipped.
        let with_count = |value: u64| {
            let mut current = recorded.clone();
            current.counts = vec![count(value)];
            current
        };
        assert!(compare_baselines(&with_count(100), &recorded).passed());
        assert!(compare_baselines(&with_count(99), &recorded).passed());
        let grown = compare_baselines(&with_count(101), &recorded);
        assert!(!grown.passed(), "{:?}", grown.lines);
        let mut unrecorded = recorded.clone();
        unrecorded.counts.clear();
        let skipped = compare_baselines(&with_count(101), &unrecorded);
        assert!(skipped.passed(), "{:?}", skipped.regressions);
        assert!(skipped.lines.iter().any(|l| l.contains("not in the recorded baseline")));
        // Counts are deterministic, so they gate across host and
        // --quick mismatches alike.
        let mut elsewhere = with_count(101);
        elsewhere.quick = true;
        assert!(!compare_baselines(&elsewhere, &recorded).passed());
        elsewhere.quick = false;
        elsewhere.host.logical_cores = 64;
        assert!(!compare_baselines(&elsewhere, &recorded).passed());
        elsewhere.counts = vec![count(100)];
        assert!(compare_baselines(&elsewhere, &recorded).passed());
    }
}
