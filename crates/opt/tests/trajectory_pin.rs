//! Pins the optimizer's search trajectory: a change to the engine or
//! the search moves that is meant to be bit-identical must reproduce
//! these evaluation counts and best ratios exactly. The values were
//! recorded before the critical-point scan's crossing stage was
//! rewritten, and (41, 20)'s before line-search probes were scored
//! through leave-one-out profiles; drift in any evaluation or accept
//! decision shows here.

use faultline_opt::{run, Budget, OptimizeConfig};

#[test]
fn tiny_budget_trajectories_are_pinned() {
    // (41, 20) puts horizon-moving leave-one-out probes on this path:
    // its max-reach robots' probes move the horizon.
    for (n, f, evaluations, best_bits) in [
        (5usize, 3usize, 2854u64, 0x401a_6e54_f9f1_dfafu64),
        (11, 5, 6271, 0x400d_b01d_7df3_7cf3),
        (41, 20, 22723, 0x4009_8c3c_8a57_35eb),
    ] {
        let mut config = OptimizeConfig::new(n, f);
        config.budget = Budget::Tiny;
        config.seed = 1;
        let report = run(&config).unwrap();
        assert_eq!(report.evaluations, evaluations, "({n}, {f}) evaluations");
        assert_eq!(
            report.best_found_cr.to_bits(),
            best_bits,
            "({n}, {f}) best found {}",
            report.best_found_cr
        );
    }
}
