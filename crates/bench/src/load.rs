//! The load-report emitter: runs the deterministic seeded workload
//! from `faultline_serve::loadgen` and writes a machine-readable JSON
//! document (`LOAD_<date>.json`) next to the `BENCH_<date>.json`
//! baselines.
//!
//! A report holds only what is the same on every host: the workload
//! shape, the transport errors, the status histogram and the digest.
//! [`compare_load`] fails on any transport error, and on a digest that
//! differs from the recorded one at the same workload shape. Serving
//! latency and throughput are perfbench's (`perfbench/`), which runs
//! the parent and the change in alternating pairs on one host.

use serde::{Deserialize, Serialize};

use faultline_serve::loadgen::{self, LoadOptions};

use crate::baseline::utc_date;
use crate::BaselineComparison;

/// The complete load report written to `LOAD_<date>.json`. Reports
/// recorded with timings still load: the deserializer ignores their
/// `quick`, `host`, latency and throughput keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Workspace version the report was recorded with.
    pub version: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Total requests fired.
    pub requests: u64,
    /// Workload seed.
    pub seed: u64,
    /// Transport-level failures (should be zero).
    pub errors: u64,
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
pub fn run_load(options: &LoadOptions) -> Result<LoadReport, String> {
    let summary = loadgen::run(options)?;
    Ok(LoadReport {
        version: crate::VERSION.to_owned(),
        date: utc_date(),
        concurrency: options.concurrency,
        requests: options.requests,
        seed: options.seed,
        errors: summary.errors,
        statuses: summary.statuses.iter().map(|(&s, &c)| (s.to_string(), c)).collect(),
        digest: summary.digest,
    })
}

/// Compares a fresh load report against a recorded one.
///
/// Transport errors always gate: a clean workload that starts failing
/// is a regression on any host. The digest must equal the recorded one
/// whenever the workload shape (requests, concurrency, seed) matches,
/// on any host: it is a function of the workload and the server's
/// semantics, not of timing. At another shape it is not compared.
#[must_use]
pub fn compare_load(current: &LoadReport, recorded: &LoadReport) -> BaselineComparison {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    let errors = format!("errors: {} vs recorded {}", current.errors, recorded.errors);
    if current.errors > 0 {
        regressions.push(errors.clone());
    }
    lines.push(errors);
    if current.requests == recorded.requests
        && current.concurrency == recorded.concurrency
        && current.seed == recorded.seed
    {
        let digest = format!("digest: {} vs recorded {}", current.digest, recorded.digest);
        if current.digest != recorded.digest {
            regressions.push(digest.clone());
        }
        lines.push(digest);
    } else {
        lines.push(format!(
            "digest comparison skipped: workload shape differs \
             (requests {} vs {}, concurrency {} vs {}, seed {} vs {})",
            current.requests,
            recorded.requests,
            current.concurrency,
            recorded.concurrency,
            current.seed,
            recorded.seed,
        ));
    }
    BaselineComparison { lines, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LoadReport {
        LoadReport {
            version: "0.2.0".to_owned(),
            date: "2026-08-08".to_owned(),
            concurrency: 4,
            requests: 1_200,
            seed: 1,
            errors: 0,
            statuses: [("200".to_owned(), 1_200u64)].into_iter().collect(),
            digest: "00000000deadbeef".to_owned(),
        }
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let original = report();
        let json = serde_json::to_string_pretty(&original).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn the_gate_fails_on_errors_and_on_a_moved_digest_at_the_recorded_shape() {
        let recorded = report();
        let same = compare_load(&report(), &recorded);
        assert!(same.passed(), "{:?}", same.regressions);
        assert!(same.lines.iter().any(|l| l.starts_with("digest: ")), "{same:?}");

        // A digest that moved at the recorded shape fails.
        let mut other_answers = report();
        other_answers.digest = "00000000feedface".to_owned();
        let moved = compare_load(&other_answers, &recorded);
        assert!(!moved.passed());
        assert!(moved.regressions.iter().any(|l| l.starts_with("digest: ")), "{moved:?}");

        // At another shape the digests differ by construction, so the
        // check is skipped: requests, concurrency and seed each count.
        for reshape in [
            |r: &mut LoadReport| r.requests = 12_000,
            |r: &mut LoadReport| r.concurrency = 8,
            |r: &mut LoadReport| r.seed = 2,
        ] {
            let mut other_shape = other_answers.clone();
            reshape(&mut other_shape);
            let reshaped = compare_load(&other_shape, &recorded);
            assert!(reshaped.passed(), "{:?}", reshaped.regressions);
            assert!(reshaped.lines.iter().any(|l| l.contains("workload shape")));
        }

        // Transport errors fail at any shape.
        let mut erroring = report();
        erroring.errors = 1;
        assert!(!compare_load(&erroring, &recorded).passed());
        erroring.concurrency = 8;
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
