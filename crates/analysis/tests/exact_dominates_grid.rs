//! Satellite property test for the exact critical-point supremum
//! engine: on random [`FreeSchedule`]s the exact supremum dominates
//! the pointwise reference scan over the adversarial target grid and
//! every dense pointwise probe, and agrees with the reference at
//! shared probe points to 1e-9.
//!
//! This is the in-repo twin of the `exact-supremum-dominates-grid`
//! conformance oracle: the oracle fuzzes registry strategies, this
//! test fuzzes raw free schedules (the optimizer's search space),
//! where the grid's tolerance bugs originally hid.

use faultline_analysis::measure_free_schedule_cr;
use faultline_analysis::supremum::{fleet_targets, TURNING_POINT_EPS};
use faultline_core::coverage::SupremumScan;
use faultline_core::{Fleet, FreeRobot, FreeSchedule};
use proptest::prelude::*;

/// The pointwise reference: `K(x)` at every target of [`fleet_targets`],
/// from the exact measurement's first horizon, doubled up to eight times
/// until every target is covered, as the exact measurement does.
fn reference_scan(
    schedule: &FreeSchedule,
    f: usize,
    xmax: f64,
    grid_points: usize,
) -> SupremumScan {
    let mut horizon = schedule.horizon_hint(xmax * (1.0 + 2.0 * TURNING_POINT_EPS)).max(4.0 * xmax);
    let mut attempt = 0;
    loop {
        let fleet = schedule.fleet(horizon).unwrap();
        let targets = fleet_targets(&fleet, xmax, grid_points).unwrap();
        let scan = fleet.supremum(&targets, f + 1).unwrap();
        if scan.uncovered == 0 || attempt >= 8 {
            return scan;
        }
        horizon *= 2.0;
        attempt += 1;
    }
}

/// Decodes eight unit floats into a well-formed robot: geometric-ish
/// expansion with per-leg ratios in `[1.3, 2.5]` so coverage always
/// converges (no bailouts — the bailout path has its own
/// deterministic tests).
fn decode_robot(u: &[f64]) -> FreeRobot {
    let side = if u[0] < 0.5 { 1.0 } else { -1.0 };
    let base = 0.2 + 1.8 * u[1];
    let extra_turns = 1 + (u[2] * 3.999) as usize; // 1..=4 tail ratios
    let mut turns = vec![base];
    for &v in &u[3..3 + extra_turns] {
        let last = *turns.last().unwrap();
        turns.push(last * (1.3 + 1.2 * v));
    }
    let first_turn_time = base * (1.0 + 2.0 * u[7]);
    FreeRobot::new(side, turns, first_turn_time).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_supremum_dominates_every_grid_scan(
        raw_robots in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 8), 2..5),
        f_raw in 0usize..4,
        xmax in 4.0f64..16.0,
        grid_points in 16usize..64,
        raw_probes in prop::collection::vec(0.0f64..1.0, 16),
    ) {
        let robots: Vec<FreeRobot> = raw_robots.iter().map(|u| decode_robot(u)).collect();
        let schedule = FreeSchedule::new(robots).unwrap();
        let f = f_raw % schedule.n();
        let exact = measure_free_schedule_cr(&schedule, f, xmax).unwrap();
        let grid = reference_scan(&schedule, f, xmax, grid_points);

        // Dominance: the exact supremum can never sit below any grid
        // scan of the same window — the grid probes a finite subset of
        // the points the exact engine maximizes over.
        if grid.ratio.is_finite() {
            prop_assert!(
                exact.empirical >= grid.ratio * (1.0 - 1e-9),
                "exact {} < grid {} (f = {}, xmax = {})",
                exact.empirical, grid.ratio, f, xmax
            );
        } else {
            // A grid probe the fleet never covers lies in an interval
            // the exact engine must also flag.
            prop_assert!(
                exact.empirical.is_infinite() || exact.uncovered > 0,
                "grid found uncovered probes but exact converged to {}",
                exact.empirical
            );
        }

        // Pointwise dominance at dense random probes, and agreement at
        // the grid's own argmax (a shared probe point): rebuild the
        // fleet at a horizon generous enough to cover everything the
        // measurement converged on — `T_(f+1)` is horizon-independent
        // once `f + 1` visits exist.
        if exact.empirical.is_finite() && exact.uncovered == 0 {
            let plans = schedule.plans();
            let horizon = schedule.horizon_hint(xmax * (1.0 + 1e-6)).max(4.0 * xmax) * 256.0;
            let fleet = Fleet::from_plans(&plans, horizon).unwrap();
            for pair in raw_probes.chunks_exact(2) {
                let magnitude = 1.0 + pair[0] * (xmax - 1.0);
                let x = if pair[1] < 0.5 { magnitude } else { -magnitude };
                if let Some(ratio) = fleet.ratio_at(x, f + 1).unwrap() {
                    prop_assert!(
                        ratio <= exact.empirical * (1.0 + 1e-9),
                        "K({}) = {} exceeds the exact supremum {}",
                        x, ratio, exact.empirical
                    );
                }
            }
            if grid.ratio.is_finite() && grid.uncovered == 0 {
                let shared = fleet.ratio_at(grid.argmax, f + 1).unwrap();
                prop_assert!(
                    shared.is_some_and(|r| (r - grid.ratio).abs()
                        <= 1e-9 * grid.ratio.max(1.0)),
                    "grid argmax {} re-evaluates to {:?}, not {}",
                    grid.argmax, shared, grid.ratio
                );
            }
        }
    }
}
