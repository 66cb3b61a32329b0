//! Quickstart: design the paper's algorithm for a fleet, inspect it,
//! and run one simulated search against the worst-case adversary.
//!
//! ```text
//! cargo run -p faultline-suite --example quickstart
//! ```

use faultline_suite::core::{Algorithm, Params};
use faultline_suite::sim::engine::SimConfig;
use faultline_suite::sim::{worst_case_outcome, Target};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five robots, of which at most two may be faulty. Because
    // 5 < 2*2 + 2 = 6 we are in the interesting regime: the trivial
    // left/right split does not work and the paper's proportional
    // schedule algorithm A(5, 2) is used.
    let params = Params::new(5, 2)?;
    let algorithm = Algorithm::design(params)?;

    println!("{}", algorithm.describe());
    println!();

    let schedule = algorithm.schedule().expect("proportional regime");
    println!("cone parameter beta      = {:.6}", schedule.beta());
    println!("expansion factor kappa   = {:.6}", schedule.expansion_factor());
    println!("proportionality ratio r  = {:.6}", schedule.ratio());
    println!("competitive ratio (Thm 1) = {:.6}", algorithm.analytic_cr());
    println!();

    // Per-robot plans: the seed turning points of Definition 4.
    for i in 0..schedule.n() {
        let seed = schedule.seed_for_robot(i).x;
        println!("robot a{i}: zigzag(beta = {}, seed = {seed})", schedule.beta());
    }
    println!();

    // Simulate a search for a target at position -7.3. The adversary
    // picks the worst two robots to corrupt: the first two to arrive.
    let target = Target::new(-7.3)?;
    let horizon = algorithm.required_horizon(10.0)?;
    let trajectories =
        algorithm.plans().iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>, _>>()?;
    let outcome = worst_case_outcome(&trajectories, target, params.f(), SimConfig::default())?;

    println!("search for {target}:");
    for v in &outcome.visits {
        println!(
            "  t = {:8.4}  robot a{} visits the target ({})",
            v.time,
            v.robot.0,
            if v.reliable { "reliable -> DETECTED" } else { "faulty, walks past" }
        );
    }
    let detection = outcome.detection.expect("A(n, f) always finds the target");
    println!(
        "detected at t = {:.4}; ratio = {:.4} (guarantee: {:.4})",
        detection.time,
        outcome.ratio(),
        algorithm.analytic_cr()
    );
    assert!(outcome.ratio() <= algorithm.analytic_cr() + 1e-9);
    Ok(())
}
