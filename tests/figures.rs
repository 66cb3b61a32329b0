//! Integration test: every figure generator produces well-formed,
//! paper-faithful data and exports cleanly.

use faultline_suite::analysis::fig5;
use faultline_suite::analysis::figures::{self, FigureData};
use faultline_suite::core::ratio;

fn figure(name: &str) -> FigureData {
    figures::all_figures().unwrap().into_iter().find(|f| f.name == name).expect("a figure")
}

fn assert_well_formed(fig: &FigureData) {
    assert!(!fig.series.is_empty(), "{}", fig.name);
    for s in &fig.series {
        assert!(!s.points.is_empty(), "{}: empty series {}", fig.name, s.label);
        for &(x, t) in &s.points {
            assert!(x.is_finite() && t.is_finite(), "{}", fig.name);
            assert!(t >= -1e-12, "{}: negative time", fig.name);
        }
    }
    let svg = fig.to_svg(640.0, 480.0).unwrap();
    assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
    let csv = fig.to_csv();
    assert!(csv.lines().count() >= 2);
}

#[test]
fn all_six_figures_are_well_formed() {
    let figs = figures::all_figures().unwrap();
    assert_eq!(figs.len(), 6);
    let names: Vec<&str> = figs.iter().map(|f| f.name).collect();
    assert_eq!(names, vec!["fig1", "fig2", "fig3", "fig4", "fig6", "fig7"]);
    for fig in &figs {
        assert_well_formed(fig);
    }
}

#[test]
fn fig2_trajectory_stays_in_its_cone() {
    let fig = figure("fig2");
    let robot = fig.series.iter().find(|s| s.label == "robot").unwrap();
    // Every waypoint (x, t) satisfies t >= 2|x| (beta = 2), i.e. the
    // trajectory lives inside the cone.
    for &(x, t) in &robot.points {
        assert!(t >= 2.0 * x.abs() - 1e-9, "point ({x}, {t}) outside C_2");
    }
}

#[test]
fn fig5_series_match_the_table_values() {
    // The leftmost points of Figure 5 (left) are Table 1 rows:
    // n = 3 -> 5.233..., n = 5 -> 4.434..., n = 11 -> 3.735...
    let left = fig5::fig5_left(3, 11, 0).unwrap();
    let by_n = |n: usize| left.iter().find(|s| s.n == n).unwrap().cr;
    assert!((by_n(3) - 5.233).abs() < 1e-3);
    assert!((by_n(5) - 4.434).abs() < 1e-3);
    assert!((by_n(11) - 3.735).abs() < 1e-3);
}

#[test]
fn fig5_right_endpoints_match_theory() {
    let right = fig5::fig5_right(201).unwrap();
    // a -> 1+ approaches the single-group 9; a = 2 is exactly 3.
    assert!(right.first().unwrap().cr > 8.9);
    assert_eq!(right.last().unwrap().cr, 3.0);
    // Consistency with the finite formula at a corresponding point:
    // a = 1.5 vs large (n, f) with n/f = 1.5.
    let a15 = right.iter().min_by(|p, q| (p.a - 1.5).abs().total_cmp(&(q.a - 1.5).abs())).unwrap();
    let finite = ratio::cr_upper(faultline_suite::core::Params::new(300, 200).unwrap());
    assert!((a15.cr - finite).abs() < 0.05, "{} vs {}", a15.cr, finite);
}

#[test]
fn fig4_tower_is_tightest_at_turning_point_limits() {
    use faultline_suite::core::{ratio as r, Params};
    let fig = figure("fig4");
    let tower = fig.series.iter().find(|s| s.label.starts_with("tower")).unwrap();
    let cr = r::cr_upper(Params::new(3, 1).unwrap());
    // The max of T_2(x)/|x| over the sampled grid is close to (and
    // never above) the competitive ratio.
    let max_ratio = tower.points.iter().map(|&(x, t)| t / x.abs()).fold(0.0f64, f64::max);
    assert!(max_ratio <= cr + 1e-9);
    assert!(max_ratio > 0.8 * cr, "grid max {max_ratio} too far below CR {cr}");
}
