//! The load-baseline emitter: runs the deterministic seeded workload
//! from `faultline_serve::loadgen` and writes a machine-readable JSON
//! document (`LOAD_<date>.json`) next to the `BENCH_<date>.json` perf
//! baselines, so the serving trajectory (p50/p99 latency, QPS) is
//! diffable across changes the same way compute timings are.
//!
//! Gating mirrors [`crate::baseline::compare_baselines`]: absolute
//! latencies and throughput are only meaningful on the same hardware
//! running the same workload shape, so the gate fires only when the
//! recorded report carries the same host fingerprint, `quick` flag,
//! and workload shape (requests/concurrency/seed). Anything else is
//! reported as informational, never a failure. The digest is
//! host-portable: whenever the `quick` flag and the workload shape
//! match, it must equal the recorded one.

use serde::{Deserialize, Serialize};

use faultline_serve::loadgen::{self, LoadOptions, LoadSummary};

use crate::baseline::{utc_date, HostInfo, REGRESSION_TOLERANCE};
use crate::BaselineComparison;

/// The complete load report written to `LOAD_<date>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Workspace version the report was recorded with.
    pub version: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Whether the reduced `--quick` workload was used.
    pub quick: bool,
    /// Host context (same fingerprint rule as the perf baselines).
    pub host: HostInfo,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Total requests fired.
    pub requests: u64,
    /// Workload seed.
    pub seed: u64,
    /// Transport-level failures (should be zero).
    pub errors: u64,
    /// Wall-clock of the firing phase in milliseconds.
    pub wall_ms: f64,
    /// Completed requests per second.
    pub qps: f64,
    /// Median response latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response latency in milliseconds.
    pub p99_ms: f64,
    /// Response count by HTTP status (stringified status codes).
    pub statuses: std::collections::BTreeMap<String, u64>,
    /// Order-stable digest over every `(status, body)` pair; a function
    /// of the seed and the server's semantics, not of timing.
    pub digest: String,
}

/// Runs the seeded load workload and assembles the report.
///
/// # Errors
///
/// Propagates loadgen failures (spawn errors, degenerate options).
pub fn run_load(options: &LoadOptions, quick: bool) -> Result<LoadReport, String> {
    let summary = loadgen::run(options)?;
    Ok(report_from(options, &summary, quick))
}

fn report_from(options: &LoadOptions, summary: &LoadSummary, quick: bool) -> LoadReport {
    LoadReport {
        version: crate::VERSION.to_owned(),
        date: utc_date(),
        quick,
        host: HostInfo {
            logical_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            default_threads: faultline_core::ParallelConfig::default().resolved_threads(),
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
        },
        concurrency: options.concurrency,
        requests: options.requests,
        seed: options.seed,
        errors: summary.errors,
        wall_ms: summary.wall_ms,
        qps: summary.qps,
        p50_ms: summary.p50_ms,
        p99_ms: summary.p99_ms,
        statuses: summary.statuses.iter().map(|(&s, &c)| (s.to_string(), c)).collect(),
        digest: summary.digest.clone(),
    }
}

/// Whether two reports measured the same workload shape.
fn same_shape(a: &LoadReport, b: &LoadReport) -> bool {
    a.requests == b.requests && a.concurrency == b.concurrency && a.seed == b.seed
}

/// Compares a fresh load report against a recorded one.
///
/// The digest must equal the recorded one whenever the `quick` flag
/// and workload shape match, on any host: it is a function of the
/// workload and the server's semantics, not of timing. p99 latency
/// (must not grow beyond [`REGRESSION_TOLERANCE`]) and QPS
/// (must not lose more than [`REGRESSION_TOLERANCE`]) are gated only
/// when the recorded report has the same host fingerprint, `quick`
/// flag, and workload shape — the same rule `repro bench --baseline=`
/// applies to wall-clock timings. Transport errors always gate: a
/// clean workload that starts failing is a regression on any host.
#[must_use]
pub fn compare_load(current: &LoadReport, recorded: &LoadReport) -> BaselineComparison {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();

    if current.errors > 0 {
        regressions.push(format!(
            "{} transport errors (recorded run had {})",
            current.errors, recorded.errors
        ));
    }
    lines.push(format!("errors: {} vs recorded {}", current.errors, recorded.errors));

    if current.quick == recorded.quick && same_shape(current, recorded) {
        let digest_line = format!("digest: {} vs recorded {}", current.digest, recorded.digest);
        if current.digest != recorded.digest {
            regressions.push(digest_line.clone());
        }
        lines.push(digest_line);
    }

    if current.quick != recorded.quick {
        lines.push(format!(
            "latency/QPS comparison skipped: current quick = {}, recorded quick = {}",
            current.quick, recorded.quick
        ));
    } else if current.host != recorded.host {
        lines.push(
            "latency/QPS comparison skipped: host fingerprint differs from the recorded report"
                .to_owned(),
        );
    } else if !same_shape(current, recorded) {
        lines.push(format!(
            "latency/QPS comparison skipped: workload shape differs \
             (requests {} vs {}, concurrency {} vs {}, seed {} vs {})",
            current.requests,
            recorded.requests,
            current.concurrency,
            recorded.concurrency,
            current.seed,
            recorded.seed,
        ));
    } else {
        let p99_growth = current.p99_ms / recorded.p99_ms - 1.0;
        let p99_line = format!(
            "p99: {:.2} ms vs recorded {:.2} ms ({:+.1}%)",
            current.p99_ms,
            recorded.p99_ms,
            p99_growth * 100.0
        );
        if p99_growth > REGRESSION_TOLERANCE {
            regressions.push(p99_line.clone());
        }
        lines.push(p99_line);

        let qps_loss = 1.0 - current.qps / recorded.qps;
        let qps_line = format!(
            "qps: {:.0} vs recorded {:.0} ({:+.1}%)",
            current.qps,
            recorded.qps,
            -qps_loss * 100.0
        );
        if qps_loss > REGRESSION_TOLERANCE {
            regressions.push(qps_line.clone());
        }
        lines.push(qps_line);

        lines.push(format!("p50: {:.2} ms vs recorded {:.2} ms", current.p50_ms, recorded.p50_ms));
    }

    BaselineComparison { lines, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostInfo {
        HostInfo {
            logical_cores: 4,
            default_threads: 4,
            os: "linux".to_owned(),
            arch: "x86_64".to_owned(),
        }
    }

    fn report(p99_ms: f64, qps: f64) -> LoadReport {
        LoadReport {
            version: "0.2.0".to_owned(),
            date: "2026-08-08".to_owned(),
            quick: true,
            host: host(),
            concurrency: 4,
            requests: 1_200,
            seed: 1,
            errors: 0,
            wall_ms: 500.0,
            qps,
            p50_ms: 0.2,
            p99_ms,
            statuses: [("200".to_owned(), 1_200u64)].into_iter().collect(),
            digest: "00000000deadbeef".to_owned(),
        }
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let original = report(1.5, 2_400.0);
        let json = serde_json::to_string_pretty(&original).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn the_gate_fires_only_on_same_host_same_shape_runs() {
        let recorded = report(1.0, 2_000.0);

        // Within tolerance on both axes: passes.
        assert!(compare_load(&report(1.2, 1_600.0), &recorded).passed());
        // p99 grew beyond +25%: regression.
        assert!(!compare_load(&report(1.3, 2_000.0), &recorded).passed());
        // QPS lost more than 25%: regression.
        assert!(!compare_load(&report(1.0, 1_400.0), &recorded).passed());

        // A different host fingerprint skips the timing gate entirely.
        let mut other_host = report(9.0, 10.0);
        other_host.host.logical_cores = 64;
        let cross = compare_load(&other_host, &recorded);
        assert!(cross.passed(), "{:?}", cross.regressions);
        assert!(cross.lines.iter().any(|l| l.contains("host fingerprint")));

        // A different workload shape also skips it.
        let mut other_shape = report(9.0, 10.0);
        other_shape.concurrency = 64;
        let reshaped = compare_load(&other_shape, &recorded);
        assert!(reshaped.passed(), "{:?}", reshaped.regressions);
        assert!(reshaped.lines.iter().any(|l| l.contains("workload shape")));

        // A mismatched --quick flag likewise.
        let mut other_quick = report(9.0, 10.0);
        other_quick.quick = false;
        assert!(compare_load(&other_quick, &recorded).passed());

        // A digest that moved gates on any host...
        let mut other_answers = other_host.clone();
        other_answers.digest = "00000000feedface".to_owned();
        let moved = compare_load(&other_answers, &recorded);
        assert!(!moved.passed());
        assert!(moved.regressions.iter().any(|l| l.starts_with("digest: ")), "{moved:?}");
        // ...but not across workload shapes, whose digests differ.
        other_shape.digest = "00000000feedface".to_owned();
        assert!(compare_load(&other_shape, &recorded).passed());

        // Transport errors gate on any host and any shape.
        let mut erroring = other_host;
        erroring.errors = 3;
        assert!(!compare_load(&erroring, &recorded).passed());
    }

    #[test]
    fn the_committed_load_reports_still_load() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut loaded = 0;
        for entry in std::fs::read_dir(&root).expect("the repository root") {
            let name = entry.expect("a directory entry").file_name();
            let name = name.to_string_lossy();
            if name.starts_with("LOAD_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(root.join(name.as_ref())).expect("readable");
                let report: LoadReport = serde_json::from_str(&text)
                    .unwrap_or_else(|e| panic!("{name} does not load: {e}"));
                assert_eq!(report.digest.len(), 16, "{name}");
                loaded += 1;
            }
        }
        assert!(loaded > 0, "a load report is committed");
    }
}
