//! Multi-robot coverage evaluation: the visit-time function `T_k(x)`,
//! the ratio function `K(x) = T_(f+1)(x) / |x|` (Definition 3), its
//! supremum, and the `(f+1)`-coverage "tower" region of Figure 4.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::plan::Plan;
use crate::trajectory::PiecewiseTrajectory;

/// A fleet of materialized robot trajectories sharing a common horizon,
/// ready for coverage queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fleet {
    trajectories: Vec<PiecewiseTrajectory>,
    horizon: f64,
}

impl Fleet {
    /// Builds a fleet from already materialized trajectories.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] when `trajectories` is
    /// empty.
    pub fn new(trajectories: Vec<PiecewiseTrajectory>) -> Result<Self> {
        if trajectories.is_empty() {
            return Err(Error::invalid_params(0, 0, "a fleet needs at least one robot"));
        }
        let horizon =
            trajectories.iter().map(PiecewiseTrajectory::horizon).fold(f64::INFINITY, f64::min);
        Ok(Fleet { trajectories, horizon })
    }

    /// Materializes a set of plans to the given horizon and builds the
    /// fleet.
    ///
    /// # Errors
    ///
    /// Propagates materialization failures and empty-fleet errors.
    pub fn from_plans(plans: &[Plan], horizon: f64) -> Result<Self> {
        let trajectories =
            plans.iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>>>()?;
        Fleet::new(trajectories)
    }

    /// The common horizon: the earliest end time among the robots.
    /// Queries are only trustworthy for visit times up to this value.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The underlying trajectories.
    #[must_use]
    pub fn trajectories(&self) -> &[PiecewiseTrajectory] {
        &self.trajectories
    }

    /// First-visit times of position `x`, one entry per robot that ever
    /// visits `x`, sorted increasingly.
    #[must_use]
    pub(crate) fn first_visits(&self, x: f64) -> Vec<f64> {
        let mut times: Vec<f64> =
            self.trajectories.iter().filter_map(|t| t.first_visit(x)).collect();
        times.sort_by(f64::total_cmp);
        times
    }

    /// `T_k(x)`: the time at which the `k`-th **distinct** robot first
    /// visits `x` (`k >= 1`), or `None` when fewer than `k` robots reach
    /// `x` within the horizon.
    ///
    /// With `k = f + 1` this is the paper's `T_(f+1)` (Definition 3):
    /// the worst-case detection time with `f` faulty robots.
    #[must_use]
    pub fn visit_time(&self, x: f64, k: usize) -> Option<f64> {
        if k == 0 {
            return Some(0.0);
        }
        self.first_visits(x).get(k - 1).copied()
    }

    /// `K(x) = T_k(x) / |x|` (Definition 3). `None` when `T_k` is
    /// undefined within the horizon.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `x == 0`.
    pub(crate) fn ratio_at(&self, x: f64, k: usize) -> Result<Option<f64>> {
        if x == 0.0 {
            return Err(Error::domain("K(x) is undefined at the origin"));
        }
        Ok(self.visit_time(x, k).map(|t| t / x.abs()))
    }

    /// Scans `K(x)` over the given target positions and returns the
    /// supremum together with its argmax.
    ///
    /// Positions not covered by `k` robots within the horizon yield an
    /// infinite supremum, faithfully signalling incomplete coverage.
    ///
    /// The argmax is deterministic under ties regardless of the target
    /// order (see [`prefer_argmax`]): among equal ratios the smallest
    /// magnitude wins, and between exact mirror images the positive
    /// side wins. Uncovered scans report the uncovered target closest
    /// to the origin under the same preference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when `targets` is empty or contains 0.
    pub fn supremum(&self, targets: &[f64], k: usize) -> Result<SupremumScan> {
        if targets.is_empty() {
            return Err(Error::domain("supremum scan needs at least one target"));
        }
        let mut best: Option<(f64, f64)> = None; // (ratio, argmax) over covered targets
        let mut worst_uncovered: Option<f64> = None;
        let mut uncovered = 0usize;
        for &x in targets {
            match self.ratio_at(x, k)? {
                Some(r) => {
                    let replace = match best {
                        None => true,
                        Some((br, bx)) => r > br || (r == br && prefer_argmax(x, bx)),
                    };
                    if replace {
                        best = Some((r, x));
                    }
                }
                None => {
                    uncovered += 1;
                    if worst_uncovered.is_none_or(|u| prefer_argmax(x, u)) {
                        worst_uncovered = Some(x);
                    }
                }
            }
        }
        Ok(if let Some(u) = worst_uncovered {
            SupremumScan { ratio: f64::INFINITY, argmax: u, uncovered }
        } else {
            let (ratio, argmax) = best.expect("non-empty target list with no uncovered targets");
            SupremumScan { ratio, argmax, uncovered: 0 }
        })
    }

    /// Rasterizes the visit-count field over a space–time grid: cell
    /// `(i, j)` holds the number of robots that have visited position
    /// `xs[i]` by time `ts[j]`. The raster reproduces Figure 4's shaded region
    /// (cells with count `>= f + 1`) faithfully at any resolution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] when either axis is empty.
    pub fn coverage_raster(&self, xs: &[f64], ts: &[f64]) -> Result<CoverageRaster> {
        if xs.is_empty() || ts.is_empty() {
            return Err(Error::domain("coverage raster needs non-empty axes"));
        }
        // Visit times per position are computed once per column.
        let mut counts = Vec::with_capacity(xs.len());
        for &x in xs {
            let visits = self.first_visits(x);
            let column: Vec<usize> =
                ts.iter().map(|&t| visits.partition_point(|&v| v <= t)).collect();
            counts.push(column);
        }
        Ok(CoverageRaster { xs: xs.to_vec(), ts: ts.to_vec(), counts })
    }
}

/// Result of a supremum scan over `K(x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupremumScan {
    /// The largest observed ratio (infinite when some target was not
    /// covered by `k` robots within the horizon).
    pub ratio: f64,
    /// The target achieving the supremum.
    pub argmax: f64,
    /// Number of scanned targets not covered by `k` robots.
    pub uncovered: usize,
}

/// A rasterized visit-count field over a space–time grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageRaster {
    /// Position axis.
    pub(crate) xs: Vec<f64>,
    /// Time axis.
    pub(crate) ts: Vec<f64>,
    /// `counts[i][j]` = distinct visitors of `xs[i]` by time `ts[j]`.
    pub(crate) counts: Vec<Vec<usize>>,
}

impl CoverageRaster {
    /// Renders the raster as text: one row per time sample (earliest at
    /// the bottom, like the paper's figures), digits for counts,
    /// `#` for `>= threshold` (the tower interior).
    #[must_use]
    pub fn render(&self, threshold: usize) -> String {
        let mut out = String::new();
        for (j, t) in self.ts.iter().enumerate().rev() {
            out.push_str(&format!("t = {t:8.2} "));
            for column in &self.counts {
                let c = column[j];
                out.push(if c >= threshold {
                    '#'
                } else if c == 0 {
                    '.'
                } else {
                    char::from_digit(c.min(9) as u32, 10).expect("digit")
                });
            }
            out.push('\n');
        }
        out
    }
}

/// The deterministic argmax tie-break shared by the grid scan and the
/// exact critical-point engine: candidate `x` is preferred over the
/// incumbent `best` when it sits strictly closer to the origin, or at
/// equal magnitude when it is the positive mirror image. This makes
/// every reported argmax independent of target enumeration order.
#[must_use]
pub fn prefer_argmax(x: f64, best: f64) -> bool {
    x.abs() < best.abs() || (x.abs() == best.abs() && x > best)
}

/// Builds the canonical adversarial target grid for measuring the
/// competitive ratio of a schedule empirically: for each interleaved
/// turning point `tau` in `[1, xmax]`, the points `tau` and
/// `tau * (1 + eps)` (the supremum of `K` lives in the right-hand limits
/// at turning points, Lemma 3), plus a uniform log grid, mirrored onto
/// the negative side.
///
/// # Errors
///
/// Returns [`Error::Domain`] for invalid ranges.
pub fn adversarial_targets(
    turning_points: &[f64],
    xmax: f64,
    grid_points: usize,
    eps: f64,
) -> Result<Vec<f64>> {
    if !(xmax > 1.0) {
        return Err(Error::domain(format!("xmax must exceed 1, got {xmax:?}")));
    }
    let mut targets = Vec::new();
    for &tau in turning_points {
        let m = tau.abs();
        if (1.0..=xmax).contains(&m) {
            targets.extend([m, m * (1.0 + eps), -m, -m * (1.0 + eps)]);
        }
    }
    for x in crate::numeric::logspace(1.0, xmax, grid_points)? {
        targets.extend([x, -x]);
    }
    targets.sort_by(f64::total_cmp);
    targets.dedup();
    Ok(targets)
}

#[cfg(test)]
impl Fleet {
    /// The number of distinct robots that have visited position `x` at
    /// or before time `t`.
    ///
    /// A point `(x, t)` lies inside the paper's "tower" region (Figure
    /// 4) exactly when this count is at least `f + 1`.
    #[must_use]
    pub(crate) fn visitors_by(&self, x: f64, t: f64) -> usize {
        self.trajectories.iter().filter(|traj| traj.first_visit(x).is_some_and(|v| v <= t)).count()
    }
}

#[cfg(test)]
impl CoverageRaster {
    /// The visitor count at grid cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[must_use]
    pub(crate) fn count(&self, i: usize, j: usize) -> usize {
        self.counts[i][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;
    use crate::schedule::ProportionalSchedule;
    use crate::trajectory::TrajectoryBuilder;

    fn two_rays() -> Fleet {
        Fleet::from_plans(&[Plan::ray(true), Plan::ray(false)], 100.0).unwrap()
    }

    #[test]
    fn empty_fleet_rejected() {
        assert!(Fleet::new(Vec::new()).is_err());
    }

    #[test]
    fn visit_time_counts_distinct_robots() {
        let fleet = two_rays();
        // Only the right-bound robot ever reaches +5.
        assert_eq!(fleet.visit_time(5.0, 1), Some(5.0));
        assert_eq!(fleet.visit_time(5.0, 2), None);
        // Everybody starts at the origin.
        assert_eq!(fleet.visit_time(0.0, 2), Some(0.0));
        assert_eq!(fleet.visit_time(5.0, 0), Some(0.0));
    }

    #[test]
    fn ratio_at_origin_is_domain_error() {
        assert!(two_rays().ratio_at(0.0, 1).is_err());
    }

    #[test]
    fn two_group_fleet_has_ratio_one() {
        let fleet = two_rays();
        for x in [1.0, -1.0, 3.5, -42.0] {
            let r = fleet.ratio_at(x, 1).unwrap().unwrap();
            assert!(approx_eq(r, 1.0, 1e-12), "x = {x}: ratio = {r}");
        }
    }

    #[test]
    fn supremum_flags_uncovered_targets() {
        let fleet = two_rays();
        let scan = fleet.supremum(&[1.0, 2.0], 2).unwrap();
        assert!(scan.ratio.is_infinite());
        assert_eq!(scan.uncovered, 2);
    }

    #[test]
    fn supremum_requires_targets() {
        assert!(two_rays().supremum(&[], 1).is_err());
    }

    #[test]
    fn supremum_argmax_is_deterministic_under_ties() {
        // The two-ray fleet has K(x) = 1 everywhere: every target ties.
        // Regardless of enumeration order the reported argmax must be
        // the positive target closest to the origin.
        let fleet = two_rays();
        for targets in [[-3.0, -1.0, 1.0, 3.0], [3.0, 1.0, -1.0, -3.0], [1.0, -1.0, 3.0, -3.0]] {
            let scan = fleet.supremum(&targets, 1).unwrap();
            assert_eq!(scan.argmax, 1.0, "order {targets:?}");
            assert_eq!(scan.ratio, 1.0);
        }
        // Duplicate probes (the historical grid-collision case) change
        // nothing.
        let scan = fleet.supremum(&[2.0, 2.0, -2.0, 1.0, 1.0], 1).unwrap();
        assert_eq!(scan.argmax, 1.0);
    }

    #[test]
    fn supremum_uncovered_argmax_is_the_closest_uncovered_target() {
        // Only the right ray covers positive targets, so k = 2 leaves
        // them all uncovered; the argmax must name the uncovered target
        // closest to the origin, not the last one enumerated.
        let fleet = two_rays();
        for targets in [[5.0, 2.0, 7.0], [7.0, 5.0, 2.0], [2.0, 7.0, 5.0]] {
            let scan = fleet.supremum(&targets, 2).unwrap();
            assert!(scan.ratio.is_infinite());
            assert_eq!(scan.uncovered, 3);
            assert_eq!(scan.argmax, 2.0, "order {targets:?}");
        }
    }

    #[test]
    fn prefer_argmax_orders_by_magnitude_then_sign() {
        assert!(prefer_argmax(1.0, 2.0));
        assert!(prefer_argmax(1.0, -2.0));
        assert!(prefer_argmax(1.0, -1.0), "positive mirror wins");
        assert!(!prefer_argmax(-1.0, 1.0));
        assert!(!prefer_argmax(2.0, 1.0));
        assert!(!prefer_argmax(1.0, 1.0), "no self-replacement");
    }

    #[test]
    fn lemma4_visit_time_matches_fleet_evaluation() {
        // The heart of the upper-bound proof: just past robot a_0's
        // turning point tau_0 = 1, the (f+1)-st distinct visitor arrives
        // at the Lemma 4 closed form.
        for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)] {
            let beta = (4 * f + 4) as f64 / n as f64 - 1.0;
            let s = ProportionalSchedule::new(n, beta).unwrap();
            let horizon = s.required_horizon(f + 1, 4.0);
            let trajs: Vec<_> = s.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect();
            let fleet = Fleet::new(trajs).unwrap();
            let x = 1.0 + 1e-9;
            let measured = fleet.visit_time(x, f + 1).unwrap();
            let predicted = s.lemma4_visit_time(f);
            assert!(
                approx_eq(measured, predicted, 1e-6),
                "(n = {n}, f = {f}): measured {measured}, Lemma 4 {predicted}"
            );
        }
    }

    #[test]
    fn ratio_function_decreases_between_turning_points() {
        // Lemma 3: K is decreasing on intervals free of turning points.
        let s = ProportionalSchedule::new(3, 5.0 / 3.0).unwrap();
        let horizon = s.required_horizon(2, 10.0);
        let fleet = Fleet::new(s.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect())
            .unwrap();
        let tau0 = 1.0;
        let tau1 = s.turning_position(1);
        let xs = crate::numeric::linspace(tau0 * 1.001, tau1 * 0.999, 50);
        let mut prev = f64::INFINITY;
        for x in xs {
            let k = fleet.ratio_at(x, 2).unwrap().unwrap();
            assert!(k < prev + 1e-12, "K must decrease, x = {x}");
            prev = k;
        }
    }

    #[test]
    fn visitors_by_counts_monotonically() {
        let fleet = two_rays();
        assert_eq!(fleet.visitors_by(5.0, 4.9), 0);
        assert_eq!(fleet.visitors_by(5.0, 5.0), 1);
        assert_eq!(fleet.visitors_by(0.0, 0.0), 2, "everyone starts at the origin");
        // Counts never decrease in t.
        for x in [1.0, -3.0] {
            let mut prev = 0;
            for step in 0..50 {
                let c = fleet.visitors_by(x, step as f64 * 0.2);
                assert!(c >= prev);
                prev = c;
            }
        }
    }

    #[test]
    fn coverage_raster_matches_pointwise_queries() {
        let s = ProportionalSchedule::new(3, 5.0 / 3.0).unwrap();
        let horizon = s.required_horizon(2, 6.0);
        let fleet = Fleet::new(s.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect())
            .unwrap();
        let xs = crate::numeric::linspace(-5.0, 5.0, 21);
        let ts = crate::numeric::linspace(0.0, horizon.min(40.0), 17);
        let raster = fleet.coverage_raster(&xs, &ts).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            for (j, &t) in ts.iter().enumerate() {
                assert_eq!(raster.count(i, j), fleet.visitors_by(x, t), "cell ({x}, {t})");
            }
        }
        // The rendered tower uses '#' for 2-coverage.
        let text = raster.render(2);
        assert!(text.contains('#'));
        assert!(text.contains('.'));
        assert_eq!(text.lines().count(), 17);
        assert!(fleet.coverage_raster(&[], &ts).is_err());
    }

    #[test]
    fn raster_tower_boundary_agrees_with_t2() {
        // The smallest time row where a column turns '#' brackets the
        // analytic T_2 at that position.
        let s = ProportionalSchedule::new(3, 5.0 / 3.0).unwrap();
        let horizon = s.required_horizon(2, 4.0);
        let fleet = Fleet::new(s.plans().iter().map(|p| p.materialize(horizon).unwrap()).collect())
            .unwrap();
        let x = 2.0;
        let ts = crate::numeric::linspace(0.0, horizon, 4001);
        let raster = fleet.coverage_raster(&[x], &ts).unwrap();
        let first_covered = ts
            .iter()
            .enumerate()
            .find(|&(j, _)| raster.count(0, j) >= 2)
            .map(|(_, &t)| t)
            .expect("covered within the horizon");
        let t2 = fleet.visit_time(x, 2).unwrap();
        let dt = ts[1] - ts[0];
        assert!((first_covered - t2).abs() <= dt + 1e-9);
    }

    #[test]
    fn adversarial_targets_include_turning_point_limits() {
        let targets = adversarial_targets(&[2.0, -4.0], 10.0, 5, 1e-9).unwrap();
        assert!(targets.contains(&2.0));
        assert!(targets.iter().any(|&x| x > 2.0 && x < 2.0 + 1e-6));
        assert!(targets.contains(&-4.0));
        assert!(targets.iter().all(|&x| x.abs() >= 1.0 - 1e-12));
        assert!(targets.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        assert!(adversarial_targets(&[], 0.5, 5, 1e-9).is_err());
    }

    #[test]
    fn fleet_horizon_is_minimum() {
        let a = TrajectoryBuilder::from_origin().sweep_to(5.0).finish().unwrap();
        let b = TrajectoryBuilder::from_origin().sweep_to(-2.0).finish().unwrap();
        let fleet = Fleet::new(vec![a, b]).unwrap();
        assert_eq!(fleet.horizon(), 2.0);
    }
}
