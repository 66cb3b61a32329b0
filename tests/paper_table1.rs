//! Integration test: the regenerated Table 1 matches the paper's
//! printed values (to print precision), including the empirical
//! cross-check column for all small rows.

use faultline_suite::analysis::table1;

/// The paper's Table 1 as printed: `(n, f, cr, lower bound, expansion
/// factor)`. For `(41, 20)` the paper prints a lower bound of 3.12; the
/// defining equation's root is 3.1357 (rounded conservatively there).
const TABLE1_PAPER: &[(usize, usize, f64, f64, Option<f64>)] = &[
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

#[test]
fn table1_regenerates_with_measurement() {
    let rows = table1::regenerate(true).unwrap();
    assert_eq!(rows.len(), 12);
    for (row, paper) in rows.iter().zip(TABLE1_PAPER) {
        assert_eq!((row.n, row.f), (paper.0, paper.1));
        // Upper bound: the paper prints two decimals.
        assert!(
            (row.cr_upper - paper.2).abs() < 1e-2,
            "(n={}, f={}): CR {} vs paper {}",
            row.n,
            row.f,
            row.cr_upper,
            paper.2
        );
        // The measured supremum certifies the upper bound is tight:
        // within the scan window it reaches the analytic value from
        // below.
        let measured = row.cr_measured.expect("measurement requested");
        assert!(measured.is_finite(), "(n={}, f={}): coverage incomplete", row.n, row.f);
        assert!(
            measured <= row.cr_upper + 1e-6,
            "(n={}, f={}): measured {measured} exceeds Theorem 1",
            row.n,
            row.f
        );
        assert!(
            measured >= row.cr_upper - 1e-2,
            "(n={}, f={}): measured {measured} far below the bound {} — scan broken?",
            row.n,
            row.f,
            row.cr_upper
        );
    }
}

#[test]
fn table1_lower_bounds_match_paper() {
    let rows = table1::regenerate(false).unwrap();
    for (row, paper) in rows.iter().zip(TABLE1_PAPER) {
        let tol = if row.n == 41 { 0.02 } else { 5e-3 };
        assert!(
            (row.lower_bound - paper.3).abs() < tol,
            "(n={}, f={}): LB {} vs paper {}",
            row.n,
            row.f,
            row.lower_bound,
            paper.3
        );
        // Sanity: the lower bound never exceeds the upper bound.
        assert!(row.lower_bound <= row.cr_upper + 1e-9);
    }
}

#[test]
fn table1_expansion_factors_match_paper() {
    let rows = table1::regenerate(false).unwrap();
    for (row, paper) in rows.iter().zip(TABLE1_PAPER) {
        match (row.expansion_factor, paper.4) {
            (Some(got), Some(want)) => assert!(
                (got - want).abs() < 5e-3,
                "(n={}, f={}): expansion {got} vs paper {want}",
                row.n,
                row.f
            ),
            (None, None) => {} // two-group rows have blank cells
            other => panic!("(n={}, f={}): {other:?}", row.n, row.f),
        }
    }
}
