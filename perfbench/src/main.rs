//! `perfbench`, the faultline benchmark.
//!
//! One command runs one workload for a fixed time, checks every output
//! against an in-process reference, and prints each end-to-end metric
//! by name with its unit. The last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`;
//! the exit status is 0 only when every output was correct and the
//! workload kept the property it exists for.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 1` runs the traced ledger instead: spans around the
//! benchmark's own calls into each layer, kept in memory, written out
//! as JSON lines at the end and summarized into the per-layer metrics.
//! `README.md` beside this crate says why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod alloc;
mod optimize;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;
use workload::Mix;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload serve_hot|serve_cold|optimize_gap \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The metrics a measured run (`--trace 0`) prints, on every workload.
const END_TO_END: [&str; 6] =
    ["throughput_rps", "latency_p50_ms", "latency_p99_ms", "solve_s", "setup_s", "peak_rss_mb"];

/// The metrics a traced run (`--trace 1`) prints, on every workload.
const PER_LAYER: [&str; 51] = [
    // serve_hot: the hit and memo path, stage by stage.
    "http.parse_us",
    "router.route_us",
    "memo.get_us",
    "cache.get_us",
    "http.response_bytes_us",
    "metrics.observe_us",
    "alloc.http.parse",
    "alloc.router.route",
    "alloc.memo.get",
    "alloc.handlers.prepare",
    "alloc.cache.get",
    "alloc.http.response_bytes",
    "alloc.metrics.observe",
    "alloc.per_request",
    "alloc.per_request.memo",
    "alloc.per_request.hit",
    "alloc.per_request.static",
    "server.residual_us",
    "server.residual_us.memo",
    "server.residual_us.hit",
    "server.residual_us.static",
    "tier.memo_share",
    "tier.hit_share",
    "tier.miss_share",
    "tier.static_share",
    "cache.hit_ratio",
    // serve_cold: the miss path.
    "handlers.prepare_us",
    "handlers.compute_us",
    "cache.insert_us",
    "analysis.supremum_us",
    "scenario.run_us",
    "alloc.handlers.compute",
    "alloc.cache.insert",
    "alloc.per_request.miss",
    "server.residual_us.miss",
    "cache.evictions",
    "pool.jobs",
    "flight.coalesced",
    "server.connections_per_req",
    // optimize_gap: the optimizer and the critical-point engine.
    "opt.init_s",
    "opt.round_s",
    "opt.finish_s",
    "opt.evaluations",
    "opt.eval_us",
    "core.fleet_us",
    "core.exact.cover_us",
    "core.exact.mirror_us",
    "analysis.exact.scan_us",
    "analysis.exact.critical_points",
    "alloc.per_eval",
    "trace.overhead_s",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm loadgen mix: memo and cache-hit answers.
    ServeHot,
    /// A new key on every request: the miss path.
    ServeCold,
    /// The optimizer's Table-1 gap study.
    OptimizeGap,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "serve_cold" => Some(Workload::ServeCold),
            "optimize_gap" => Some(Workload::OptimizeGap),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::OptimizeGap => "optimize_gap",
        }
    }
}

/// The command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// The seed every input is generated from.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Run the traced ledger instead of the measured run.
    pub trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = value.parse().map_err(|_| format!("--seed takes a u64, not `{value}`"))?;
            }
            "--seconds" => {
                seconds =
                    value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite()).ok_or_else(
                        || format!("--seconds takes a positive number, not `{value}`"),
                    )?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {}: {error}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    check_metrics(&mut outcome, if args.trace { &PER_LAYER } else { &END_TO_END });
    outcome.print(args.workload.name());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return ledger(args);
    }
    match args.workload {
        Workload::ServeHot => serve::measure(Mix::Hot, args),
        Workload::ServeCold => serve::measure(Mix::Cold, args),
        Workload::OptimizeGap => optimize::measure(args),
    }
}

/// The traced ledger. Every traced run reports every per-layer metric:
/// it runs the serve_hot, serve_cold and optimize_gap sections in turn,
/// its own workload's at full size and the other two reduced.
fn ledger(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::start();
    let mut outcome =
        serve::trace(Mix::Hot, args, args.workload == Workload::ServeHot, &mut tracer)?;
    outcome.absorb(serve::trace(
        Mix::Cold,
        args,
        args.workload == Workload::ServeCold,
        &mut tracer,
    )?);
    outcome.absorb(optimize::trace(args, args.workload == Workload::OptimizeGap, &mut tracer)?);
    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()))
        .join("perfbench");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write(&path))
        .map_err(|e| format!("cannot write the spans to {}: {e}", path.display()))?;
    outcome.note(format!("{} spans written to {}", tracer.next_index(), path.display()));
    Ok(outcome)
}

/// Requires exactly the listed metrics, each once and finite.
fn check_metrics(outcome: &mut Outcome, expected: &[&str]) {
    let names: Vec<String> = outcome.metrics.iter().map(|metric| metric.name.clone()).collect();
    for name in expected {
        let count = names.iter().filter(|n| n == name).count();
        if count != 1 {
            outcome.problem(format!("metric `{name}` was reported {count} times"));
        }
    }
    for name in names.iter().filter(|name| !expected.contains(&name.as_str())) {
        outcome.problem(format!("metric `{name}` is not listed in BENCHMARK.json"));
    }
    let non_finite: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|metric| !metric.value.is_finite())
        .map(|metric| format!("metric `{}` is {}", metric.name, metric.value))
        .collect();
    for problem in non_finite {
        outcome.problem(problem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| (*arg).to_owned()).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = parse_args(strings(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::ServeCold, 7, 2.5, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "serve_hot", "--seed", "-1"],
            &["--workload", "serve_hot", "--trace", "2"],
            &["--workload", "serve_hot", "--seconds", "0"],
            &["--workload", "serve_hot", "--seconds"],
            &["--seed", "1"],
        ] {
            assert!(parse_args(strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let workloads = ["serve_hot", "serve_cold", "optimize_gap"];
        for name in END_TO_END.iter().chain(&PER_LAYER).chain(&workloads) {
            assert_eq!(text.matches(&format!("\"name\": \"{name}\"")).count(), 1, "{name}");
        }
        let listed = text.matches("\"name\": ").count();
        assert_eq!(listed, workloads.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn unlisted_missing_or_non_finite_metrics_fail_the_run() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.metric("solve_s", 1.5, "s");
        check_metrics(&mut outcome, &["solve_s"]);
        assert!(outcome.correct());
        outcome.metric("bogus", f64::INFINITY, "s");
        check_metrics(&mut outcome, &["solve_s", "setup_s"]);
        assert_eq!(outcome.problems.len(), 3, "{:?}", outcome.problems);
    }
}
