//! Regeneration of **Figure 5**: the two competitive-ratio curves of
//! the paper.
//!
//! * Left: `CR(n) = (2 + 2/n)^(1+1/n) (2/n)^(-1/n) + 1` for
//!   `n = 2f + 1`, plotted over odd `n` (the paper uses `n = 3..20`).
//! * Right: the asymptotic ratio `(4/a)^(2/a) (4/a - 2)^(1-2/a) + 1`
//!   for a fixed reliable proportion `a = n/f`, `1 < a < 2`.

use faultline_core::{lower_bound, numeric, ratio, Params, Result};
use faultline_strategies::PaperStrategy;
use serde::{Deserialize, Serialize};

use crate::ascii::{line_chart, Series};
use crate::supremum::measure_strategy_cr;

/// One sample of the Figure 5 (left) curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5LeftSample {
    /// Number of robots (`n = 2f + 1`, odd).
    pub n: usize,
    /// Closed-form competitive ratio of `A(2f+1, f)`.
    pub cr: f64,
    /// Corollary 1 upper envelope `3 + 4 ln n / n`.
    pub corollary1: f64,
    /// Corollary 2 lower envelope `3 + 2 ln n/n - 2 ln ln n/n`.
    pub corollary2: f64,
    /// Theorem 2 lower bound `alpha(n)`.
    pub alpha: f64,
    /// Empirically measured supremum (only for small `n`, when
    /// requested).
    pub measured: Option<f64>,
}

/// Generates the Figure 5 (left) series over odd `n` in
/// `[n_min, n_max]`; when `measure_up_to > 0`, rows with
/// `n <= measure_up_to` also carry an empirical supremum scan.
///
/// # Errors
///
/// Returns an error for invalid ranges or failed measurements.
pub fn fig5_left(n_min: usize, n_max: usize, measure_up_to: usize) -> Result<Vec<Fig5LeftSample>> {
    let start = if n_min.is_multiple_of(2) { n_min + 1 } else { n_min };
    let mut out = Vec::new();
    for n in (start.max(3)..=n_max).step_by(2) {
        let f = (n - 1) / 2;
        let params = Params::new(n, f)?;
        let measured = if n <= measure_up_to {
            Some(measure_strategy_cr(&PaperStrategy::new(), params, 50.0)?.empirical)
        } else {
            None
        };
        out.push(Fig5LeftSample {
            n,
            cr: ratio::cr_odd_n(n)?,
            corollary1: ratio::corollary1_upper(n)?,
            corollary2: lower_bound::corollary2_lower(n)?,
            alpha: lower_bound::alpha(n)?,
            measured,
        });
    }
    Ok(out)
}

/// One sample of the Figure 5 (right) curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5RightSample {
    /// The reliable proportion `a = n/f`.
    pub a: f64,
    /// Asymptotic competitive ratio at that proportion.
    pub cr: f64,
}

/// Generates the Figure 5 (right) series over `a` in `(1, 2]`.
///
/// # Errors
///
/// Returns an error when `samples < 2`.
pub fn fig5_right(samples: usize) -> Result<Vec<Fig5RightSample>> {
    if samples < 2 {
        return Err(faultline_core::Error::domain("fig5 right needs at least 2 samples"));
    }
    // Stay strictly inside (1, 2]: start a hair above 1 where the curve
    // is finite (it tends to 9 as a -> 1+).
    numeric::linspace(1.0 + 1e-3, 2.0, samples)
        .into_iter()
        .map(|a| Ok(Fig5RightSample { a, cr: ratio::asymptotic_cr(a)? }))
        .collect()
}

/// Renders the left plot as a terminal chart (analytic curve plus the
/// two corollary envelopes).
#[must_use]
pub fn render_left(samples: &[Fig5LeftSample]) -> String {
    let cr: Vec<(f64, f64)> = samples.iter().map(|s| (s.n as f64, s.cr)).collect();
    let c1: Vec<(f64, f64)> = samples.iter().map(|s| (s.n as f64, s.corollary1)).collect();
    let c2: Vec<(f64, f64)> = samples.iter().map(|s| (s.n as f64, s.corollary2)).collect();
    line_chart(
        &[
            Series::new("CR of A(2f+1, f)", cr),
            Series::new("3 + 4 ln n / n (Cor. 1)", c1),
            Series::new("3 + 2 ln n/n - 2 ln ln n/n (Cor. 2)", c2),
        ],
        72,
        20,
    )
}

/// Renders the right plot as a terminal chart.
#[must_use]
pub fn render_right(samples: &[Fig5RightSample]) -> String {
    let pts: Vec<(f64, f64)> = samples.iter().map(|s| (s.a, s.cr)).collect();
    line_chart(&[Series::new("(4/a)^(2/a) (4/a-2)^(1-2/a) + 1", pts)], 72, 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_curve_shape() {
        let samples = fig5_left(3, 21, 0).unwrap();
        assert_eq!(samples.len(), 10);
        assert_eq!(samples[0].n, 3);
        assert!((samples[0].cr - 5.233).abs() < 1e-3, "paper's n = 3 value");
        // Decreasing towards 3, sandwiched by the corollaries.
        for w in samples.windows(2) {
            assert!(w[1].cr < w[0].cr);
        }
        for s in &samples {
            assert!(s.cr > 3.0);
            assert!(s.alpha < s.cr, "lower bound below the upper bound at n = {}", s.n);
            assert!(s.corollary2 <= s.alpha + 1e-9, "n = {}", s.n);
        }
    }

    #[test]
    fn left_curve_measured_overlay_matches() {
        let samples = fig5_left(3, 9, 9).unwrap();
        for s in samples {
            let measured = s.measured.expect("requested measurement");
            assert!(
                (measured - s.cr).abs() < 5e-3,
                "n = {}: measured {measured} vs analytic {}",
                s.n,
                s.cr
            );
        }
    }

    #[test]
    fn left_handles_even_start() {
        let samples = fig5_left(4, 8, 0).unwrap();
        assert_eq!(samples[0].n, 5);
    }

    #[test]
    fn right_curve_shape() {
        let samples = fig5_right(101).unwrap();
        assert_eq!(samples.len(), 101);
        // Near a = 1 the ratio approaches 9; at a = 2 it is 3.
        assert!(samples[0].cr > 8.9);
        assert!((samples.last().unwrap().cr - 3.0).abs() < 1e-9);
        for w in samples.windows(2) {
            assert!(w[1].cr < w[0].cr, "monotone decreasing");
        }
        assert!(fig5_right(1).is_err());
    }

    #[test]
    fn renders_are_nonempty() {
        let left = fig5_left(3, 15, 0).unwrap();
        assert!(render_left(&left).contains("Cor. 1"));
        let right = fig5_right(40).unwrap();
        assert!(render_right(&right).contains('*'));
    }
}
