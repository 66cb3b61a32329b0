//! Asymptotic-rate validation: how fast the finite formulas approach
//! their limits.
//!
//! The paper states three asymptotics; this module measures the actual
//! convergence rates, providing the quantitative backing for the
//! `O(·)` claims:
//!
//! * Corollary 1: `CR(A(2f+1, f)) - 3 <= 4 ln n / n + O(1)/n`;
//! * Corollary 2: `alpha(n) - 3 >= 2 ln n/n - 2 ln ln n/n` (asymptotic);
//! * Section 3: `CR(A(n, f)) -> (4/a)^(2/a)(4/a-2)^(1-2/a) + 1` for
//!   fixed `a = n/f`.

use faultline_core::{lower_bound, ratio, Params, Result};
use serde::{Deserialize, Serialize};

/// One row of a convergence study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ConvergenceSample {
    /// The size parameter (robots `n`, or faults `f` for the fixed-`a`
    /// study).
    pub(crate) size: usize,
    /// The finite value.
    pub(crate) value: f64,
    /// The claimed limit.
    pub(crate) limit: f64,
    /// `(value - limit) * size / ln(size)` — bounded iff the gap is
    /// `Theta(ln size / size)`.
    pub(crate) normalized_gap: f64,
}

/// Corollary 1 study: the gap `CR(A(2f+1, f)) - 3`, normalized by
/// `ln n / n`.
///
/// Corollary 1 upper-bounds the gap by `4 ln n / n` (plus `O(1)/n`).
/// The measurement shows the bound is loose by a factor of two: the
/// normalized gap decreases towards **2** — exactly the leading
/// constant of the Corollary 2 *lower* bound. `A(2f+1, f)` is thus
/// asymptotically optimal including the constant of the second-order
/// term, a sharper statement than the paper makes explicit.
///
/// # Errors
///
/// Propagates formula failures.
pub(crate) fn corollary1_rate(sizes: &[usize]) -> Result<Vec<ConvergenceSample>> {
    sizes
        .iter()
        .map(|&n| {
            let value = ratio::cr_odd_n(n)?;
            let nf = n as f64;
            Ok(ConvergenceSample {
                size: n,
                value,
                limit: 3.0,
                normalized_gap: (value - 3.0) * nf / nf.ln(),
            })
        })
        .collect()
}

/// Corollary 2 study: the gap `alpha(n) - 3`, normalized by `ln n / n`;
/// the paper's lower bound says the normalized gap is at least
/// `2 - 2 ln ln n / ln n`, i.e. it approaches 2 from below.
///
/// # Errors
///
/// Propagates solver failures.
pub(crate) fn corollary2_rate(sizes: &[usize]) -> Result<Vec<ConvergenceSample>> {
    sizes
        .iter()
        .map(|&n| {
            let value = lower_bound::alpha(n)?;
            let nf = n as f64;
            Ok(ConvergenceSample {
                size: n,
                value,
                limit: 3.0,
                normalized_gap: (value - 3.0) * nf / nf.ln(),
            })
        })
        .collect()
}

/// Fixed-proportion study: `CR(A(n, f))` with `n = round(a f)` against
/// the asymptotic curve, for growing `f`. The normalized gap uses
/// `f / ln f` scaling and should stay bounded.
///
/// # Errors
///
/// Propagates formula failures and invalid proportions.
pub(crate) fn fixed_proportion_rate(a: f64, sizes: &[usize]) -> Result<Vec<ConvergenceSample>> {
    let limit = ratio::asymptotic_cr(a)?;
    sizes
        .iter()
        .map(|&f| {
            let n = (a * f as f64).round() as usize;
            let params = Params::new(n, f)?;
            let value = ratio::cr_upper(params);
            let ff = f as f64;
            Ok(ConvergenceSample {
                size: f,
                value,
                limit,
                normalized_gap: (value - limit) * ff / ff.ln().max(1.0),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: &[usize] = &[11, 101, 1001, 10_001, 100_001];

    #[test]
    fn corollary1_normalized_gap_approaches_two() {
        let samples = corollary1_rate(SIZES).unwrap();
        // The true leading constant is 2 (the paper's Corollary 1 proves
        // the conservative envelope 4): the normalized gap decreases
        // towards 2 and stays within the corollary's envelope.
        let last = samples.last().unwrap();
        assert!(
            (2.0..=2.3).contains(&last.normalized_gap),
            "normalized gap at n = {} is {}",
            last.size,
            last.normalized_gap
        );
        for w in samples.windows(2) {
            assert!(w[1].normalized_gap < w[0].normalized_gap + 1e-9);
        }
        for s in &samples {
            assert!(s.normalized_gap <= 4.0, "Corollary 1 envelope violated at n = {}", s.size);
        }
    }

    #[test]
    fn upper_and_lower_normalized_gaps_share_the_constant() {
        // The sharpened statement: CR - 3 and alpha - 3 both normalize
        // to the constant 2, so A(2f+1, f) is optimal to second order.
        let n = 100_001;
        let upper = corollary1_rate(&[n]).unwrap()[0].normalized_gap;
        let lower = corollary2_rate(&[n]).unwrap()[0].normalized_gap;
        assert!(upper >= lower, "upper {upper} below lower {lower}");
        assert!(upper - lower < 0.7, "gap between constants: {upper} vs {lower}");
    }

    #[test]
    fn corollary2_normalized_gap_approaches_two() {
        let samples = corollary2_rate(SIZES).unwrap();
        let last = samples.last().unwrap();
        assert!(
            (1.5..=2.2).contains(&last.normalized_gap),
            "normalized gap at n = {} is {}",
            last.size,
            last.normalized_gap
        );
        // And the lower-bound envelope 2 - 2 ln ln n / ln n is respected.
        for s in &samples {
            let nf = s.size as f64;
            let envelope = 2.0 - 2.0 * nf.ln().ln() / nf.ln();
            assert!(
                s.normalized_gap >= envelope - 1e-9,
                "n = {}: {} < envelope {envelope}",
                s.size,
                s.normalized_gap
            );
        }
    }

    #[test]
    fn fixed_proportion_converges() {
        let samples = fixed_proportion_rate(1.5, &[10, 100, 1000, 10_000]).unwrap();
        let mut prev_gap = f64::INFINITY;
        for s in &samples {
            let gap = (s.value - s.limit).abs();
            assert!(gap < prev_gap, "f = {}", s.size);
            prev_gap = gap;
        }
        assert!(prev_gap < 1e-3);
        assert!(fixed_proportion_rate(2.5, &[10]).is_err());
    }

    #[test]
    fn convergence_rates_support_the_corollaries() {
        let sizes = [101usize, 1001, 10_001];
        let c1 = corollary1_rate(&sizes).unwrap();
        let c2 = corollary2_rate(&sizes).unwrap();
        for (u, l) in c1.iter().zip(&c2) {
            // Upper bound dominates lower bound at every size, and both
            // normalized gaps live near the shared constant 2.
            assert!(u.value >= l.value);
            assert!(u.normalized_gap <= 4.0, "Corollary 1 envelope");
            assert!(l.normalized_gap <= u.normalized_gap + 1e-9);
        }
        let fixed = fixed_proportion_rate(1.75, &[100, 1000]).unwrap();
        assert!((fixed[1].value - fixed[1].limit).abs() < (fixed[0].value - fixed[0].limit).abs());
    }
}
