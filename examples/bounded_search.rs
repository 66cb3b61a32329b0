//! Extensions in action: known distance bounds and turn costs.
//!
//! Two variations the paper leaves open, built on the same schedule
//! machinery:
//!
//! 1. **Known bound `D`** — if the operators know the target is within
//!    `D`, clamping every excursion to `±D` improves the worst case
//!    while `D` clips the early turning points (below `D = 2` here);
//!    for larger `D` the supremum (attained on outbound sweeps) is the
//!    unbounded Theorem 1 value.
//! 2. **Turn cost `c`** — if every reversal costs extra time, the
//!    ratio degrades by an additive `c * reversals`, but (perhaps
//!    surprisingly) the paper's `beta*` remains the optimal cone.
//!
//! Both ratios are exact suprema over the affine pieces of
//! `T_(f+1)`, not grid scans.
//!
//! ```text
//! cargo run -p faultline-suite --example bounded_search
//! ```

use faultline_suite::analysis::ascii::render_table;
use faultline_suite::analysis::{bounded, turncost};
use faultline_suite::core::{ratio, Params};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(3, 1)?;
    println!("base setting: {params}, Theorem 1 ratio {:.4}", ratio::cr_upper(params));
    println!();

    println!("== known distance bound D (clamped schedules) ==");
    let samples = bounded::bound_sweep(params, &[1.5, 2.0, 4.0, 8.0, 16.0, 64.0])?;
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.bound),
                format!("{:.4}", s.measured_cr),
                format!("{:.4}", s.unbounded_cr),
                // An exact ratio may sit an ulp above Theorem 1: no
                // saving, which must not print as -0.0%.
                format!("{:.1}%", (100.0 * (1.0 - s.measured_cr / s.unbounded_cr)).max(0.0)),
            ]
        })
        .collect();
    print!("{}", render_table(&["D", "bounded CR", "unbounded CR", "saving"], &rows));
    println!();

    println!("== turn cost c (re-optimized beta) ==");
    let paper_beta = ratio::optimal_beta(params)?;
    let sweep = turncost::sweep(params, &[0.0, 0.5, 2.0, 8.0], 25.0)?;
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.c),
                format!("{:.4}", s.best_beta),
                format!("{:.4}", s.best_cr),
                format!("{:.4}", s.cr_at_paper_beta),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["cost per turn", "best beta", "best ratio", "ratio at paper beta*"], &rows)
    );
    println!("(paper's turn-free optimum: beta* = {paper_beta:.4})");
    println!();
    println!(
        "reading: the bound only helps while D clips the first excursions (first visits \
         happen on outbound sweeps, which clamping never shortens); under turn costs the \
         penalty is additive and beta* stays optimal — both recorded in EXPERIMENTS.md."
    );
    Ok(())
}
