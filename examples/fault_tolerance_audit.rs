//! Fault-tolerance audit: stress a deployed schedule against fault
//! budgets it was *not* designed for, and against random fault
//! processes.
//!
//! The audit answers: "we planned for f faulty robots — what actually
//! happens if the estimate is wrong?" It combines the analytic
//! misestimation ablation with Monte-Carlo simulation under Bernoulli
//! sensor failures.
//!
//! ```text
//! cargo run -p faultline-suite --example fault_tolerance_audit
//! ```

use faultline_suite::analysis::ablation;
use faultline_suite::analysis::ascii::render_table;
use faultline_suite::core::{ratio, Params};
use faultline_suite::sim::{run_sweep, BernoulliFaults, MonteCarloConfig, RatioStats};
use faultline_suite::strategies::{PaperStrategy, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5usize;
    let f_design = 2usize;
    let params = Params::new(n, f_design)?;

    println!("== Audit of A({n}, {f_design}) ==");
    println!("designed competitive ratio: {:.4}", ratio::cr_upper(params));
    println!();

    // 1. Worst-case penalty for a wrong fault estimate (analytic).
    println!("-- worst case under fault misestimation --");
    let rows: Vec<Vec<String>> = ablation::fault_misestimation(n, f_design)?
        .into_iter()
        .map(|s| {
            vec![
                s.f_true.to_string(),
                format!("{:.4}", s.cr),
                format!("{:.4}", s.cr_oracle),
                format!("{:+.1}%", 100.0 * (s.cr / s.cr_oracle - 1.0)),
            ]
        })
        .collect();
    print!("{}", render_table(&["true faults", "achieved CR", "oracle CR", "penalty"], &rows));
    println!();

    // 2. Typical-case behaviour under random sensor failures.
    println!("-- Monte Carlo under Bernoulli sensor failures (2000 runs each) --");
    let strategy = PaperStrategy::new();
    let plans = strategy.plans(params)?;
    let horizon = strategy.horizon_hint(params, 101.0);
    let mut rows = Vec::new();
    for p_fail in [0.05, 0.2, 0.4] {
        let mut faults = BernoulliFaults::new(p_fail, f_design, StdRng::seed_from_u64(21))?;
        let config = MonteCarloConfig::new(2000, 100.0)?;
        let stats = RatioStats::from_ratios(&run_sweep(&plans, &mut faults, config, horizon, 42)?)?;
        rows.push(vec![
            format!("{p_fail}"),
            format!("{:.4}", stats.mean),
            format!("{:.4}", stats.p95),
            format!("{:.4}", stats.max),
            stats.undetected.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(&["P(sensor broken)", "mean ratio", "p95", "max", "undetected"], &rows)
    );
    println!();
    println!(
        "reading: random faults rarely approach the worst case ({:.4}); the adversarial \
         bound is what you must promise, the Monte-Carlo numbers are what you typically see.",
        ratio::cr_upper(params)
    );
    Ok(())
}
