//! The verification matrix: three fully independent evaluations of the
//! same quantity, cross-checked pairwise.
//!
//! For a proportional schedule, the worst-case detection time
//! `T_(f+1)(x)` can be computed by
//!
//! 1. the **exact piecewise closed form** (`faultline_core::ClosedForm`,
//!    derived symbolically from Lemmas 2 and 4),
//! 2. **numeric coverage** queries over materialized trajectories
//!    (`faultline_core::coverage::Fleet`),
//! 3. the **discrete-event simulator** with the worst-case fault
//!    adversary (`faultline_sim`).
//!
//! Agreement across all three, over dense grids and at the delicate
//! turning-point limits, is the repository's strongest correctness
//! evidence; the matrix powers both an integration test and the
//! `repro verify` report.

use faultline_core::closed_form::ClosedForm;
use faultline_core::coverage::Fleet;
use faultline_core::{numeric, Algorithm, Params, Result};
use faultline_sim::engine::SimConfig;
use faultline_sim::{worst_case_outcome, Target};
use serde::{Deserialize, Serialize};

/// One cell of the verification matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Target position checked.
    pub x: f64,
    /// `T_(f+1)(x)` from the closed form.
    pub closed_form: f64,
    /// `T_(f+1)(x)` from coverage queries.
    pub coverage: f64,
    /// `T_(f+1)(x)` from the worst-case simulation.
    pub simulation: f64,
}

impl MatrixCell {
    /// The largest relative disagreement among the three paths.
    #[must_use]
    pub fn max_relative_gap(&self) -> f64 {
        let vals = [self.closed_form, self.coverage, self.simulation];
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / hi.max(1.0)
    }
}

/// Result of running the matrix for one `(n, f)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// Robots.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Checked cells.
    pub cells: Vec<MatrixCell>,
    /// Largest relative disagreement over all cells.
    pub worst_gap: f64,
}

/// Runs the verification matrix for `params` over a log grid up to
/// `xmax` (both sides) plus the first turning-point right-hand limits.
///
/// # Errors
///
/// Propagates design, materialization and evaluation failures; fails
/// when the parameters are not in the proportional regime (the closed
/// form only exists there).
pub fn run_matrix(params: Params, xmax: f64, grid: usize) -> Result<MatrixReport> {
    let alg = Algorithm::design(params)?;
    let schedule = alg.schedule().ok_or_else(|| {
        faultline_core::Error::invalid_params(
            params.n(),
            params.f(),
            "the verification matrix needs the proportional regime",
        )
    })?;
    let cf = ClosedForm::new(schedule);
    let horizon = alg.required_horizon(xmax * 1.01)?;
    let trajectories: Vec<_> =
        alg.plans().iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>>>()?;
    let fleet = Fleet::new(trajectories.clone())?;

    let mut targets: Vec<f64> = Vec::new();
    for x in numeric::logspace(1.0, xmax, grid)? {
        targets.push(x);
        targets.push(-x);
    }
    for j in 0..3i64 {
        let tau = schedule.turning_position(j);
        if tau * 1.001 < xmax {
            targets.push(tau * (1.0 + 1e-9));
            targets.push(-tau * (1.0 + 1e-9));
        }
    }

    let k = params.required_visits();
    let mut cells = Vec::with_capacity(targets.len());
    let mut worst_gap = 0.0f64;
    for &x in &targets {
        let closed = cf.visit_time(x, params.f())?;
        let coverage = fleet.visit_time(x, k).ok_or_else(|| {
            faultline_core::Error::domain(format!("coverage failed to confirm x = {x}"))
        })?;
        let sim =
            worst_case_outcome(&trajectories, Target::new(x)?, params.f(), SimConfig::default())?
                .detection
                .ok_or_else(|| {
                    faultline_core::Error::domain(format!("simulation failed to confirm x = {x}"))
                })?
                .time;
        let cell = MatrixCell { x, closed_form: closed, coverage, simulation: sim };
        worst_gap = worst_gap.max(cell.max_relative_gap());
        cells.push(cell);
    }
    Ok(MatrixReport { n: params.n(), f: params.f(), cells, worst_gap })
}

/// Runs the matrix for a batch of parameter pairs (in parallel) and
/// returns the reports.
///
/// # Errors
///
/// Propagates the first failure.
pub fn run_matrix_batch(
    pairs: &[(usize, usize)],
    xmax: f64,
    grid: usize,
) -> Result<Vec<MatrixReport>> {
    faultline_core::par_map(pairs, |&(n, f)| {
        let params = Params::new(n, f)?;
        run_matrix(params, xmax, grid)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_agrees_for_representative_pairs() {
        for (n, f) in [(2usize, 1usize), (3, 1), (5, 3)] {
            let report = run_matrix(Params::new(n, f).unwrap(), 20.0, 12).unwrap();
            assert!(
                report.worst_gap < 1e-9,
                "(n = {n}, f = {f}): worst relative gap {}",
                report.worst_gap
            );
            assert!(report.cells.len() >= 24);
        }
    }

    #[test]
    fn matrix_rejects_two_group_regime() {
        assert!(run_matrix(Params::new(4, 1).unwrap(), 10.0, 6).is_err());
    }

    #[test]
    fn batch_runs_in_parallel_and_preserves_order() {
        let pairs = [(3usize, 1usize), (4, 2), (5, 2)];
        let reports = run_matrix_batch(&pairs, 10.0, 6).unwrap();
        assert_eq!(reports.len(), 3);
        for (report, &(n, f)) in reports.iter().zip(&pairs) {
            assert_eq!((report.n, report.f), (n, f));
            assert!(report.worst_gap < 1e-9);
        }
    }

    #[test]
    fn cell_gap_computation() {
        let cell = MatrixCell { x: 1.0, closed_form: 10.0, coverage: 10.0, simulation: 10.1 };
        assert!((cell.max_relative_gap() - 0.1 / 10.1).abs() < 1e-12);
    }
}
