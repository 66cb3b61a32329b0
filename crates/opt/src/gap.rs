//! The Table-1 gap study: one optimizer run per `(n, f)` pair, folded
//! into a CSV artifact (`repro optimize` → `out/opt_gap.csv`).

use faultline_analysis::table1::TABLE1_PAIRS;
use faultline_core::Result;

use crate::budget::Budget;
use crate::driver::{run, OptimizeConfig, OptimizeReport};

/// One row of the gap study (one Table-1 pair).
#[derive(Debug, Clone)]
pub struct GapRow {
    /// The full report the row summarizes.
    pub report: OptimizeReport,
}

/// Runs the optimizer over every Table-1 pair at the given budget and
/// seed, in the paper's row order.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn gap_study(budget: Budget, seed: u64) -> Result<Vec<GapRow>> {
    TABLE1_PAIRS
        .iter()
        .map(|&(n, f)| {
            let mut config = OptimizeConfig::new(n, f);
            config.budget = budget;
            config.seed = seed;
            Ok(GapRow { report: run(&config)? })
        })
        .collect()
}

/// Renders gap rows as the `out/opt_gap.csv` artifact.
#[must_use]
pub fn gap_csv(rows: &[GapRow]) -> String {
    let mut csv = String::from(
        "n,f,regime,thm1_cr,thm2_alpha,lower_bound,baseline_measured,\
         best_found_cr,improvement,gap_closed,improved,certified_lo,certified_hi,consistent\n",
    );
    for row in rows {
        let r = &row.report;
        let regime = match r.regime {
            faultline_core::Regime::TwoGroup => "two-group",
            faultline_core::Regime::Proportional => "proportional",
        };
        let opt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.9}"));
        csv.push_str(&format!(
            "{},{},{},{:.9},{},{:.9},{:.9},{:.9},{:.9},{},{},{},{},{}\n",
            r.n,
            r.f,
            regime,
            r.thm1_cr,
            opt(r.thm2_alpha),
            r.lower_bound,
            r.baseline_measured,
            r.best_found_cr,
            r.improvement,
            r.gap_closed,
            r.improved,
            opt(r.certificate.as_ref().map(|c| c.lo)),
            opt(r.certificate.as_ref().map(|c| c.hi)),
            r.crosscheck.is_consistent(),
        ));
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_one_row_per_report_and_a_stable_header() {
        let mut config = OptimizeConfig::new(4, 1);
        config.budget = Budget::Tiny;
        let report = run(&config).unwrap();
        let rows = vec![GapRow { report }];
        let csv = gap_csv(&rows);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("n,f,regime,thm1_cr,thm2_alpha"));
        assert!(lines[1].starts_with("4,1,two-group,1.000000000,-,"));
        assert!(lines[1].ends_with(",true"));
    }
}
