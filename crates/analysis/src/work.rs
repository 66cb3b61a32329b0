//! Work bounds: what a computation costs, in *visit units*, from its
//! resolved inputs alone and without running the engine.
//!
//! A robot of geometric expansion `κ` makes `t = ln(e X) / ln κ` turns
//! out to extent `X` ([`turns`] at [`turn_density`]), and a robot on a
//! ray makes none. Each bound adds a fixed [`OVERHEAD`] per scanned
//! turning point, simulated robot and target. The query service's
//! supremum bound and `faultline_scenario::Document::work` are built
//! from these parts.
//!
//! [`admit`] turns a bound into an admission rule: work that no worker
//! could finish within a time limit, at [`UNIT_SECONDS`] a unit, is
//! refused before anything is built.

use std::time::Duration;

/// The fixed cost, in visit units, of a scanned turning point and of
/// a simulated robot and target, on top of the visits themselves.
pub const OVERHEAD: f64 = 8.0;

/// The cost of one visit unit, in seconds, at its largest measured:
/// 0.06 to 0.08 µs for paper fleets of 801 to 3201 robots at xmax 1e9,
/// in release on a shared 2-vCPU x86-64 host.
pub const UNIT_SECONDS: f64 = 0.08e-6;

/// Refuses a finite work bound over what one worker computes within
/// `timeout` at [`UNIT_SECONDS`] a unit (7.5e8 units at 60 s). An
/// infinite bound means the computation has no bound yet, and passes.
///
/// # Errors
///
/// Returns the refusal, naming the bound and the limit.
pub fn admit(work: f64, timeout: Duration) -> Result<(), String> {
    let limit = timeout.as_secs_f64() / UNIT_SECONDS;
    if work.is_finite() && work > limit {
        return Err(format!(
            "this request needs about {work:.1e} work units, over the {limit:.1e} a worker \
             computes within the {timeout:?} request timeout"
        ));
    }
    Ok(())
}

/// Turns one robot of `strategy` makes per e-fold of extent: `1 / ln κ`
/// of its geometric expansion `κ`, 0 on rays. A strategy the model
/// does not know is infinitely dense, so its bound is infinite.
#[must_use]
pub fn turn_density(strategy: &str, beta: Option<f64>, n: usize, f: usize) -> f64 {
    let (n, f) = (n as f64, f as f64);
    let kappa = match (strategy, beta) {
        // A(n, f)'s cone, κ = (4f + 4) / (4f + 4 − 2n), in the
        // proportional regime; the two-group regime runs on rays.
        ("paper" | "proportional", _) if n < 2.0 * f + 2.0 => {
            (4.0 * f + 4.0) / (4.0 * f + 4.0 - 2.0 * n)
        }
        ("paper" | "proportional" | "two-group" | "pessimal-split", _) => return 0.0,
        ("herd-doubling" | "staggered-doubling" | "mirrored-pairs" | "delayed-doubling", _) => 2.0,
        ("fixed-beta", Some(beta)) => (beta + 1.0) / (beta - 1.0),
        // Kao's optimal expansion, 3.59, rounded down.
        ("randomized-sweep", _) => 3.5,
        _ => return f64::INFINITY,
    };
    1.0 / kappa.ln()
}

/// Turns per robot out to `extent` at `density` turns per e-fold.
#[must_use]
pub fn turns(density: f64, extent: f64) -> f64 {
    density * (std::f64::consts::E * extent).ln()
}
