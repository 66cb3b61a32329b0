//! Data generators for the paper's illustrative figures (1–4, 6, 7).
//!
//! Each generator returns a [`FigureData`]: named `(x, t)` series that
//! can be rendered as a terminal chart, exported as CSV, or drawn as an
//! SVG space–time diagram with time growing upwards, matching the
//! paper's conventions.

use faultline_core::coverage::Fleet;
use faultline_core::{
    lower_bound, numeric, Algorithm, Cone, Params, Plan, Result, TrajectoryBuilder,
};

use crate::ascii::Series;
use crate::svg::{SvgCanvas, PALETTE};

/// A figure as raw data: a set of named series in the space–time plane
/// (`x` = position on the line, `y` = time).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Machine name, e.g. `"fig2"`.
    pub name: &'static str,
    /// Human-readable title.
    pub title: String,
    /// The series to plot.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Renders the figure as an SVG space–time diagram.
    ///
    /// # Errors
    ///
    /// Propagates canvas construction failures (degenerate data).
    pub fn to_svg(&self, width: f64, height: f64) -> Result<String> {
        let pts: Vec<(f64, f64)> = self.series.iter().flat_map(|s| s.points.clone()).collect();
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, y) in &pts {
            xmin = xmin.min(*x);
            xmax = xmax.max(*x);
            ymin = ymin.min(*y);
            ymax = ymax.max(*y);
        }
        let pad_x = 0.06 * (xmax - xmin).max(1.0);
        let pad_y = 0.06 * (ymax - ymin).max(1.0);
        let mut canvas = SvgCanvas::new(
            width,
            height,
            (xmin - pad_x, xmax + pad_x),
            (ymin - pad_y, ymax + pad_y),
        )?;
        canvas.axes();
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            canvas.polyline(&s.points, color, 1.5);
            for &(x, y) in &s.points {
                canvas.circle(x, y, 2.0, color);
            }
            if let Some(&(x, y)) = s.points.last() {
                canvas.text(x, y, &s.label);
            }
        }
        Ok(canvas.into_svg())
    }

    /// Exports the figure as CSV (`series,x,t` rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,t\n");
        for s in &self.series {
            for (x, y) in &s.points {
                out.push_str(&format!("{},{x},{y}\n", s.label));
            }
        }
        out
    }
}

fn waypoints_series(label: &str, traj: &faultline_core::PiecewiseTrajectory) -> Series {
    Series::new(label, traj.waypoints().iter().map(|p| (p.x, p.t)).collect())
}

/// **Figure 1**: a general zig-zag strategy with a handful of turning
/// points `(x_i, t_i)` — no cone discipline, arbitrary reversals.
///
/// # Errors
///
/// Never fails in practice; propagates trajectory construction errors.
pub fn fig1() -> Result<FigureData> {
    let traj = TrajectoryBuilder::from_origin()
        .sweep_to(1.5)
        .sweep_to(-2.0)
        .sweep_to(3.5)
        .sweep_to(-4.5)
        .finish()?;
    Ok(FigureData {
        name: "fig1",
        title: "A general zig-zag strategy with turning points (x_i, t_i)".to_owned(),
        series: vec![waypoints_series("trajectory", &traj)],
    })
}

/// **Figure 2**: a zig-zag strategy defined by the cone `C_beta`
/// (`beta = 2`) and a point on its boundary.
///
/// # Errors
///
/// Propagates construction failures.
pub fn fig2() -> Result<FigureData> {
    let beta = 2.0;
    let cone = Cone::new(beta)?;
    let plan = Plan::zigzag(cone, 1.0)?;
    let horizon = 60.0;
    let traj = plan.materialize(horizon)?;
    let reach = traj.max_excursion() * 1.05;
    Ok(FigureData {
        name: "fig2",
        title: format!("Zig-zag defined by cone C_beta (beta = {beta}) and seed (1, {beta})"),
        series: vec![
            Series::new("cone t = beta x", vec![(0.0, 0.0), (reach, beta * reach)]),
            Series::new("cone t = -beta x", vec![(0.0, 0.0), (-reach, beta * reach)]),
            waypoints_series("robot", &traj),
        ],
    })
}

/// **Figure 3**: a proportional schedule for `n = 4` robots in the cone
/// `C_2`, showing the interleaved turning points.
///
/// # Errors
///
/// Propagates construction failures.
pub fn fig3() -> Result<FigureData> {
    let beta = 2.0;
    let schedule = faultline_core::ProportionalSchedule::new(4, beta)?;
    let horizon = schedule.required_horizon(4, 8.0);
    let mut series = Vec::new();
    let mut reach: f64 = 1.0;
    for (i, plan) in schedule.plans().iter().enumerate() {
        let traj = plan.materialize(horizon)?;
        reach = reach.max(traj.max_excursion());
        series.push(waypoints_series(&format!("a{i}"), &traj));
    }
    let reach = reach * 1.05;
    series.push(Series::new("cone t = beta x", vec![(0.0, 0.0), (reach, beta * reach)]));
    series.push(Series::new("cone t = -beta x", vec![(0.0, 0.0), (-reach, beta * reach)]));
    Ok(FigureData {
        name: "fig3",
        title: "Proportional schedule for n = 4 robots in the cone C_2".to_owned(),
        series,
    })
}

/// **Figure 4**: searching by three robots, one of which may be faulty:
/// the three trajectories of `A(3, 1)` plus the boundary of the
/// 2-coverage "tower" region (points `(x, T_2(x))`).
///
/// # Errors
///
/// Propagates construction failures.
pub fn fig4() -> Result<FigureData> {
    let params = Params::new(3, 1)?;
    let alg = Algorithm::design(params)?;
    let xmax = 6.0;
    let horizon = alg.required_horizon(xmax)?;
    let plans = alg.plans();
    let mut series = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        series.push(waypoints_series(&format!("a{i}"), &plan.materialize(horizon)?));
    }
    let fleet = Fleet::from_plans(&plans, horizon)?;
    let mut tower = Vec::new();
    for x in numeric::linspace(-xmax, xmax, 241) {
        if x.abs() < 1.0 {
            continue; // targets are at distance >= 1
        }
        if let Some(t) = fleet.visit_time(x, params.required_visits()) {
            tower.push((x, t));
        }
    }
    series.push(Series::new("tower: T_2(x)", tower));
    Ok(FigureData {
        name: "fig4",
        title: "Three robots, one faulty: trajectories of A(3,1) and the 2-coverage tower"
            .to_owned(),
        series,
    })
}

/// **Figure 6**: a positive and a negative trajectory for `x = 2`
/// (first visits to `{1, x, -1, -x}` in canonical order).
///
/// # Errors
///
/// Propagates construction failures.
pub fn fig6() -> Result<FigureData> {
    let x = 2.0;
    let positive = TrajectoryBuilder::from_origin().sweep_to(x).sweep_to(-x).finish()?;
    let negative = TrajectoryBuilder::from_origin().sweep_to(-x).sweep_to(x).finish()?;
    debug_assert_eq!(
        lower_bound::classify(&positive, x)?,
        Some(lower_bound::TrajectoryClass::Positive)
    );
    debug_assert_eq!(
        lower_bound::classify(&negative, x)?,
        Some(lower_bound::TrajectoryClass::Negative)
    );
    Ok(FigureData {
        name: "fig6",
        title: "Positive (solid) and negative (dotted) trajectories for x = 2".to_owned(),
        series: vec![
            waypoints_series("positive: 1, x, -1, -x", &positive),
            waypoints_series("negative: -1, -x, 1, x", &negative),
        ],
    })
}

/// **Figure 7**: the adversarial target placements
/// `{±1, ±x_(n-1), ..., ±x_0}` of Theorem 2 for `n = 5`, drawn on the
/// line `t = 0`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn fig7() -> Result<FigureData> {
    let n = 5;
    let alpha = lower_bound::alpha(n)?;
    let xs = lower_bound::adversary_points(n, alpha)?;
    let mut placements = vec![(1.0, 0.0), (-1.0, 0.0)];
    for &x in &xs {
        placements.push((x, 0.0));
        placements.push((-x, 0.0));
    }
    placements.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(FigureData {
        name: "fig7",
        title: format!(
            "Adversarial placements for n = {n} (alpha = {alpha:.4}): x_i = 2^(i+1)/((a-1)^i (a-3))"
        ),
        series: vec![Series::new("placements", placements)],
    })
}

/// All figure generators, in paper order.
///
/// # Errors
///
/// Propagates the first failing generator.
pub fn all_figures() -> Result<Vec<FigureData>> {
    Ok(vec![fig1()?, fig2()?, fig3()?, fig4()?, fig6()?, fig7()?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_generate() {
        let figs = all_figures().unwrap();
        assert_eq!(figs.len(), 6);
        for fig in &figs {
            assert!(!fig.series.is_empty(), "{}", fig.name);
            for s in &fig.series {
                assert!(!s.points.is_empty(), "{}: {}", fig.name, s.label);
                for (x, y) in &s.points {
                    assert!(x.is_finite() && y.is_finite(), "{}: {}", fig.name, s.label);
                }
            }
        }
    }

    #[test]
    fn fig1_has_four_turning_points() {
        let fig = fig1().unwrap();
        // Origin + 4 turning targets = 5 waypoints.
        assert_eq!(fig.series[0].points.len(), 5);
    }

    #[test]
    fn fig3_turning_points_interleave_geometrically() {
        let fig = fig3().unwrap();
        // Collect positive turning points (skip cone series).
        let mut taus: Vec<f64> = fig
            .series
            .iter()
            .filter(|s| s.label.starts_with('a'))
            .flat_map(|s| s.points.iter())
            .filter(|(x, t)| *t > 0.0 && *x > 0.0 && (*t - 2.0 * x).abs() < 1e-9)
            .map(|&(x, _)| x)
            .collect();
        taus.sort_by(f64::total_cmp);
        taus.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let r = faultline_core::ProportionalSchedule::new(4, 2.0).unwrap().ratio();
        for w in taus.windows(2) {
            assert!((w[1] / w[0] - r).abs() < 1e-6, "{} / {}", w[1], w[0]);
        }
        assert!(taus.len() >= 4);
    }

    #[test]
    fn fig4_tower_respects_cr() {
        let fig = fig4().unwrap();
        let cr = faultline_core::ratio::cr_upper(Params::new(3, 1).unwrap());
        let tower = fig.series.iter().find(|s| s.label.starts_with("tower")).unwrap();
        for &(x, t) in &tower.points {
            assert!(t / x.abs() <= cr + 1e-9, "tower breaches the CR at x = {x}");
            assert!(t >= x.abs(), "faster than light at x = {x}");
        }
    }

    #[test]
    fn fig7_placements_are_symmetric_and_sorted() {
        let fig = fig7().unwrap();
        let pts = &fig.series[0].points;
        assert_eq!(pts.len(), 12); // ±1 and ±x_i for i = 0..4
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
        let sum: f64 = pts.iter().map(|p| p.0).sum();
        assert!(sum.abs() < 1e-9, "placements are mirror-symmetric");
    }

    #[test]
    fn svg_and_csv_exports_work() {
        let fig = fig2().unwrap();
        let svg = fig.to_svg(640.0, 480.0).unwrap();
        assert!(svg.contains("<svg"));
        assert!(svg.contains("polyline"));
        let csv = fig.to_csv();
        assert!(csv.starts_with("series,x,t\n"));
        assert!(csv.lines().count() > 3);
    }
}
