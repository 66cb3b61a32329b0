//! The conformance run: generate instances, fan the oracle set out
//! over the work-stealing pool, aggregate a pass/skip/fail matrix per
//! oracle × regime, and shrink + package failures.
//!
//! Determinism contract: the report is a pure function of
//! `(seed, cases, budget, inject)`. Oracle checks are pure per
//! instance and `par_map_with` preserves input order, so the report
//! bytes are identical for any thread count (including
//! `FAULTLINE_THREADS=1`).

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use faultline_analysis::render_table;
use faultline_core::{par_map_with, Error, ParallelConfig, Result};
use serde::{Deserialize, Serialize};

use crate::counterexample::Counterexample;
use crate::instance::{GenCaps, Instance};
use crate::oracles::{all_oracles, oracle_by_name, Verdict};

/// Report-format version; bump on incompatible schema changes.
pub(crate) const CONFORMANCE_VERSION: u32 = 1;

/// Case budget tier: how finely instances scan, not what they assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// CI-sized: coarse grids, few targets.
    Smoke,
    /// The standard interactive tier.
    #[default]
    Default,
    /// Fine grids and more targets; used by the `--ignored` deep test.
    Deep,
}

impl Tier {
    /// The generation caps this tier hands to [`Instance::generate`].
    #[must_use]
    pub(crate) fn caps(self) -> GenCaps {
        match self {
            Tier::Smoke => GenCaps { grid_lo: 24, grid_hi: 40, targets: 3, explicit_turns: 5 },
            Tier::Default => GenCaps { grid_lo: 32, grid_hi: 72, targets: 4, explicit_turns: 6 },
            Tier::Deep => GenCaps { grid_lo: 48, grid_hi: 112, targets: 6, explicit_turns: 8 },
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Smoke => "smoke",
            Tier::Default => "default",
            Tier::Deep => "deep",
        })
    }
}

impl FromStr for Tier {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "smoke" => Ok(Tier::Smoke),
            "default" => Ok(Tier::Default),
            "deep" => Ok(Tier::Deep),
            other => Err(Error::domain(format!(
                "unknown budget tier `{other}` (expected smoke, default, or deep)"
            ))),
        }
    }
}

/// Inputs of one conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Run seed; every instance derives from `(seed, index)`.
    pub seed: u64,
    /// Number of generated instances.
    pub cases: usize,
    /// Generation budget tier.
    pub budget: Tier,
    /// Test-only: name of one oracle whose observations are skewed so
    /// the failure pipeline (shrink, persist, replay) can be exercised
    /// deliberately.
    pub inject: Option<String>,
    /// Thread-pool configuration for the oracle fan-out.
    pub parallel: ParallelConfig,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            seed: 1,
            cases: 200,
            budget: Tier::Default,
            inject: None,
            parallel: ParallelConfig::default(),
        }
    }
}

/// One row of the conformance matrix: an oracle's tallies within one
/// parameter regime.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixRow {
    /// Oracle name.
    pub oracle: String,
    /// Regime label (`single-robot`, `proportional`, `two-group`).
    pub regime: String,
    /// Instances on which the oracle held.
    pub pass: usize,
    /// Instances outside the oracle's domain.
    pub skip: usize,
    /// Instances on which the oracle was violated.
    pub fail: usize,
}

/// The aggregated result of a conformance run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Report-format version.
    pub(crate) version: u32,
    /// The run seed.
    pub(crate) seed: u64,
    /// Number of generated instances.
    pub(crate) cases: usize,
    /// Budget tier name.
    pub(crate) budget: String,
    /// Name of the oracle skewed by test-only injection, if any.
    #[serde(default)]
    pub(crate) injected: Option<String>,
    /// The pass/skip/fail matrix, ordered by oracle (report order)
    /// then regime (lexicographic).
    pub rows: Vec<MatrixRow>,
    /// Shrunk, replayable documents for every failure, in case order.
    pub failures: Vec<Counterexample>,
}

impl ConformanceReport {
    /// Whether every oracle held on every instance.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.rows.iter().all(|r| r.fail == 0)
    }

    /// Serializes the report to pretty-printed JSON (newline
    /// terminated, byte-stable for a given config).
    ///
    /// # Errors
    ///
    /// Propagates serializer failures as [`Error::Domain`].
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| Error::domain(format!("report serialization failed: {e}")))
    }

    /// The matrix as CSV (`oracle,regime,pass,skip,fail`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("oracle,regime,pass,skip,fail\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                row.oracle, row.regime, row.pass, row.skip, row.fail
            ));
        }
        out
    }

    /// Renders the matrix as an aligned ASCII table with a verdict
    /// footer.
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.oracle.clone(),
                    r.regime.clone(),
                    r.pass.to_string(),
                    r.skip.to_string(),
                    r.fail.to_string(),
                ]
            })
            .collect();
        let mut out = render_table(&["oracle", "regime", "pass", "skip", "fail"], &rows);
        let failed: usize = self.rows.iter().map(|r| r.fail).sum();
        out.push_str(&format!(
            "\nseed {}, {} cases, {} budget: {}\n",
            self.seed,
            self.cases,
            self.budget,
            if failed == 0 {
                "all oracles passed".to_owned()
            } else {
                format!("{failed} oracle violations ({} counterexamples)", self.failures.len())
            }
        ));
        out
    }
}

/// Runs the conformance harness.
///
/// # Errors
///
/// Returns [`Error::Domain`] for a zero case budget or an unknown
/// injection-oracle name; oracle-internal errors never propagate (they
/// are conformance failures and land in the matrix).
pub fn run(config: &ConformanceConfig) -> Result<ConformanceReport> {
    if config.cases == 0 {
        return Err(Error::domain("a conformance run needs at least one case"));
    }
    if let Some(name) = &config.inject {
        if oracle_by_name(name).is_none() {
            return Err(Error::domain(format!("unknown injection oracle `{name}`")));
        }
    }
    let caps = config.budget.caps();
    let instances: Vec<Instance> =
        (0..config.cases as u64).map(|i| Instance::generate(config.seed, i, &caps)).collect();

    // Fan out: one work item per instance, all oracles applied inside
    // the item. Checks are pure, and `par_map_with` preserves order,
    // so the verdict grid is identical for any thread count.
    let verdicts: Vec<Vec<Verdict>> = par_map_with(&instances, &config.parallel, |inst| {
        all_oracles()
            .iter()
            .map(|oracle| oracle.check(inst, config.inject.as_deref() == Some(oracle.name)))
            .collect()
    });

    // Aggregate sequentially (BTreeMap: deterministic row order), and
    // shrink failures serially so counterexample derivation is
    // deterministic too.
    let mut tallies: BTreeMap<(usize, &str), (usize, usize, usize)> = BTreeMap::new();
    let mut failures = Vec::new();
    for (inst, row) in instances.iter().zip(&verdicts) {
        for (oracle_idx, (oracle, verdict)) in all_oracles().iter().zip(row).enumerate() {
            let entry = tallies.entry((oracle_idx, inst.regime_label())).or_default();
            match verdict {
                Verdict::Pass => entry.0 += 1,
                Verdict::Skip(_) => entry.1 += 1,
                Verdict::Fail(mismatch) => {
                    entry.2 += 1;
                    let injected = config.inject.as_deref() == Some(oracle.name);
                    failures.push(Counterexample::build(
                        oracle,
                        inst,
                        mismatch,
                        config.seed,
                        injected,
                    ));
                }
            }
        }
    }

    let rows = tallies
        .into_iter()
        .map(|((oracle_idx, regime), (pass, skip, fail))| MatrixRow {
            oracle: all_oracles()[oracle_idx].name.to_owned(),
            regime: regime.to_owned(),
            pass,
            skip,
            fail,
        })
        .collect();

    Ok(ConformanceReport {
        version: CONFORMANCE_VERSION,
        seed: config.seed,
        cases: config.cases,
        budget: config.budget.to_string(),
        injected: config.inject.clone(),
        rows,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cases: usize) -> ConformanceConfig {
        ConformanceConfig { cases, budget: Tier::Smoke, ..ConformanceConfig::default() }
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [Tier::Smoke, Tier::Default, Tier::Deep] {
            assert_eq!(tier.to_string().parse::<Tier>().unwrap(), tier);
        }
        assert!("nope".parse::<Tier>().is_err());
    }

    #[test]
    fn a_small_run_passes_and_covers_every_regime() {
        let report = run(&small(9)).expect("run succeeds");
        assert!(report.passed(), "failures: {:#?}", report.failures);
        let regimes: std::collections::BTreeSet<&str> =
            report.rows.iter().map(|r| r.regime.as_str()).collect();
        assert_eq!(
            regimes.into_iter().collect::<Vec<_>>(),
            ["proportional", "single-robot", "two-group"]
        );
        let checked: usize = report.rows.iter().map(|r| r.pass + r.skip + r.fail).sum();
        assert_eq!(checked, 9 * crate::oracles::all_oracles().len());
        assert!(report.to_csv().starts_with("oracle,regime,pass,skip,fail\n"));
    }

    #[test]
    fn reports_are_byte_deterministic_across_thread_counts() {
        let base = run(&small(6)).unwrap().to_json().unwrap();
        let again = run(&small(6)).unwrap().to_json().unwrap();
        assert_eq!(base, again, "same config must give identical bytes");
        let single =
            ConformanceConfig { parallel: ParallelConfig { threads: Some(1) }, ..small(6) };
        assert_eq!(base, run(&single).unwrap().to_json().unwrap(), "thread-count invariance");
    }

    #[test]
    fn zero_cases_and_unknown_injection_are_rejected() {
        assert!(run(&small(0)).is_err());
        let bad = ConformanceConfig { inject: Some("no-such-oracle".to_owned()), ..small(3) };
        assert!(run(&bad).is_err());
    }
}
