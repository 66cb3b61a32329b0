//! Regeneration of **Table 1**: upper and lower bounds on the
//! competitive ratio and the expansion factor of `A(n, f)` for the
//! paper's specific `(n, f)` pairs, with an empirical cross-check.

use faultline_core::{lower_bound, ratio, Params, Regime, Result};
use faultline_strategies::PaperStrategy;
use serde::{Deserialize, Serialize};

use crate::ascii::render_table;
use crate::supremum::measure_strategy_cr;

/// One regenerated row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Number of robots.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
    /// Competitive ratio of `A(n, f)` (Theorem 1) — the paper's
    /// "comp. ratio of A(n, f)" column.
    pub cr_upper: f64,
    /// Lower bound on the competitive ratio of any algorithm — the
    /// paper's "lower bound on comp. ratio" column.
    pub lower_bound: f64,
    /// Expansion factor of `A(n, f)` (absent in the two-group regime,
    /// matching the paper's blank cells).
    pub expansion_factor: Option<f64>,
    /// Empirically measured supremum of `K(x)` (not part of the paper's
    /// table; our cross-check).
    pub cr_measured: Option<f64>,
}

/// The `(n, f)` pairs of Table 1, in the paper's row order.
pub const TABLE1_PAIRS: &[(usize, usize)] = &[
    (2, 1),
    (3, 1),
    (3, 2),
    (4, 1),
    (4, 2),
    (4, 3),
    (5, 1),
    (5, 2),
    (5, 3),
    (5, 4),
    (11, 5),
    (41, 20),
];

/// The values printed in the paper, for comparison:
/// `(n, f, cr, lower bound, expansion factor)`.
///
/// Note: for `(41, 20)` the paper prints a lower bound of 3.12; the
/// defining equation's root is 3.1357 (the paper's print-out is rounded
/// conservatively). We reproduce the equation root.
pub const TABLE1_PAPER: &[(usize, usize, f64, f64, Option<f64>)] = &[
    (2, 1, 9.0, 9.0, Some(2.0)),
    (3, 1, 5.24, 3.76, Some(4.0)),
    (3, 2, 9.0, 9.0, Some(2.0)),
    (4, 1, 1.0, 1.0, None),
    (4, 2, 6.2, 3.649, Some(3.0)),
    (4, 3, 9.0, 9.0, Some(2.0)),
    (5, 1, 1.0, 1.0, None),
    (5, 2, 4.43, 3.57, Some(6.0)),
    (5, 3, 6.76, 3.57, Some(2.67)),
    (5, 4, 9.0, 9.0, Some(2.0)),
    (11, 5, 3.73, 3.345, Some(12.0)),
    (41, 20, 3.24, 3.12, Some(42.0)),
];

/// Regenerates one row analytically; with `measure = true` also runs
/// the exact supremum scan of `A(n, f)` (slower for large `n`).
///
/// # Errors
///
/// Propagates parameter validation and measurement failures.
pub fn regenerate_row(n: usize, f: usize, measure: bool) -> Result<Table1Row> {
    let params = Params::new(n, f)?;
    let cr_upper = ratio::cr_upper(params);
    let lb = lower_bound::lower_bound(params)?;
    let expansion = match params.regime() {
        Regime::Proportional => Some(ratio::expansion_factor(params)?),
        Regime::TwoGroup => None,
    };
    let cr_measured = if measure {
        Some(measure_strategy_cr(&PaperStrategy::new(), params, measure_window(params)?)?.empirical)
    } else {
        None
    };
    Ok(Table1Row { n, f, cr_upper, lower_bound: lb, expansion_factor: expansion, cr_measured })
}

/// The window `[1, xmax]` the measured column scans for `params`: a
/// few proportionality-ratio periods, so the scan sees several
/// turning-point discontinuities.
///
/// # Errors
///
/// Propagates the proportionality-ratio computation.
pub fn measure_window(params: Params) -> Result<f64> {
    Ok(match params.regime() {
        Regime::Proportional => {
            (ratio::proportionality_ratio(params)?.powi(params.n().min(8) as i32) * 4.0).max(16.0)
        }
        Regime::TwoGroup => 16.0,
    })
}

/// Regenerates the full Table 1.
///
/// Rows are measured in parallel on the work-stealing engine: the
/// per-row cost grows with `n` (the `(41, 20)` scan dominates), so
/// contiguous chunking would strand the expensive tail rows on one
/// worker.
///
/// # Errors
///
/// Propagates row failures.
pub fn regenerate(measure: bool) -> Result<Vec<Table1Row>> {
    faultline_core::par_map(TABLE1_PAIRS, |&(n, f)| regenerate_row(n, f, measure))
        .into_iter()
        .collect()
}

/// Serializes regenerated rows as the canonical CSV artifact
/// (`out/table1.csv`), shared by the `repro` harness and the query
/// service's CSV export.
#[must_use]
pub fn to_csv(rows: &[Table1Row]) -> String {
    let mut csv = String::from("n,f,cr_upper,lower_bound,expansion_factor,cr_measured\n");
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.n,
            r.f,
            r.cr_upper,
            r.lower_bound,
            r.expansion_factor.map_or(String::new(), |v| v.to_string()),
            r.cr_measured.map_or(String::new(), |v| v.to_string()),
        ));
    }
    csv
}

/// Renders regenerated rows next to the paper's printed values.
#[must_use]
pub fn render(rows: &[Table1Row]) -> String {
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |x| format!("{x:.3}"));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper = TABLE1_PAPER.iter().find(|p| p.0 == r.n && p.1 == r.f);
            vec![
                r.n.to_string(),
                r.f.to_string(),
                format!("{:.3}", r.cr_upper),
                paper.map_or_else(|| "-".into(), |p| format!("{:.3}", p.2)),
                format!("{:.3}", r.lower_bound),
                paper.map_or_else(|| "-".into(), |p| format!("{:.3}", p.3)),
                fmt_opt(r.expansion_factor),
                paper.map_or_else(|| "-".into(), |p| fmt_opt(p.4)),
                fmt_opt(r.cr_measured),
            ]
        })
        .collect();
    render_table(
        &[
            "n",
            "f",
            "CR A(n,f)",
            "paper",
            "lower bnd",
            "paper",
            "expansion",
            "paper",
            "CR measured",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_rows_match_paper_to_print_precision() {
        let rows = regenerate(false).unwrap();
        assert_eq!(rows.len(), TABLE1_PAPER.len());
        for (row, paper) in rows.iter().zip(TABLE1_PAPER) {
            assert_eq!((row.n, row.f), (paper.0, paper.1));
            // The paper prints two decimals and rounds loosely (it
            // shows 5.24 where the text computes ~5.233).
            assert!(
                (row.cr_upper - paper.2).abs() < 1e-2,
                "(n={}, f={}): CR {} vs paper {}",
                row.n,
                row.f,
                row.cr_upper,
                paper.2
            );
            // Lower bound: the paper's 3.12 for (41,20) is a conservative
            // print-out; everything else matches tightly.
            let lb_tol = if row.n == 41 { 0.02 } else { 5e-3 };
            assert!(
                (row.lower_bound - paper.3).abs() < lb_tol,
                "(n={}, f={}): LB {} vs paper {}",
                row.n,
                row.f,
                row.lower_bound,
                paper.3
            );
            match (row.expansion_factor, paper.4) {
                (Some(got), Some(want)) => {
                    assert!((got - want).abs() < 5e-3, "(n={}, f={})", row.n, row.f);
                }
                (None, None) => {}
                other => panic!("expansion mismatch for (n={}, f={}): {other:?}", row.n, row.f),
            }
        }
    }

    #[test]
    fn measured_rows_confirm_upper_bounds() {
        // Empirical scan for the small rows (skip n = 41 in unit tests
        // for speed; the bench covers it).
        for &(n, f) in &[(2usize, 1usize), (3, 1), (4, 2), (5, 3)] {
            let row = regenerate_row(n, f, true).unwrap();
            let measured = row.cr_measured.unwrap();
            assert!(
                measured <= row.cr_upper + 1e-6,
                "(n={n}, f={f}): measured {measured} above bound {}",
                row.cr_upper
            );
            assert!(
                measured >= row.cr_upper - 5e-3,
                "(n={n}, f={f}): measured {measured} unexpectedly far below bound {}",
                row.cr_upper
            );
        }
    }

    #[test]
    fn two_group_rows_have_no_expansion_factor() {
        let row = regenerate_row(4, 1, true).unwrap();
        assert!(row.expansion_factor.is_none());
        assert_eq!(row.cr_upper, 1.0);
        assert!((row.cr_measured.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let rows = regenerate(false).unwrap();
        let csv = to_csv(&rows);
        assert!(csv.starts_with("n,f,cr_upper,lower_bound,expansion_factor,cr_measured\n"));
        assert_eq!(csv.lines().count(), 1 + rows.len());
        // Two-group rows leave the expansion column empty.
        assert!(csv.lines().any(|l| l.starts_with("4,1,1,")));
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = regenerate(false).unwrap();
        let text = render(&rows);
        assert!(text.contains("41"));
        assert!(text.contains("CR A(n,f)"));
        // One header, one separator, twelve rows.
        assert_eq!(text.lines().count(), 2 + rows.len());
    }
}
