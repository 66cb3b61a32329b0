//! `faultline` — command-line interface to the faulty-robot line
//! search stack.
//!
//! ```text
//! faultline design <n> <f>                      # design + inspect A(n, f)
//! faultline simulate <n> <f> <target> [faulty robots: i,j,...]
//! faultline bounds <n> <f>                      # upper & lower bounds
//! faultline compare <n> <f> [xmax]              # all strategies, measured
//! faultline spectrum <n> <f> [xmax]             # CR_k for k = 1..n
//! faultline animate <n> <f> <dt> <until> <file> # CSV position samples
//! faultline optimize <n> <f> [--budget=..]      # Thm 1 / Thm 2 gap probe
//! faultline conformance run [--seed=..]         # differential oracle sweep
//! faultline conformance replay <file.json>      # reproduce a counterexample
//! faultline serve [--addr=..] [--threads=..]    # HTTP query service
//! faultline query <route> [json]                # loopback client
//! faultline loadgen [--seed=..]                 # seeded load driver
//! ```

use std::process::ExitCode;

use faultline_suite::analysis::ascii::render_table;
use faultline_suite::analysis::group_search;
use faultline_suite::analysis::measure_strategy_cr;
use faultline_suite::analysis::supremum;
use faultline_suite::core::{lower_bound, ratio, Algorithm, Params, Regime};
use faultline_suite::sim::engine::SimConfig;
use faultline_suite::sim::{
    sample_positions, snapshots_to_csv, worst_case_outcome, FaultPlan, Simulation, Target,
};
use faultline_suite::strategies::{all_strategies, PaperStrategy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("faultline: {e}");
            // `query` mirrors the server's retryable statuses as
            // distinct exit codes (503 -> 3, 504 -> 4) so scripts can
            // back off and retry instead of treating them as usage
            // errors; no usage dump for those.
            if let Some(status) = e.downcast_ref::<StatusError>() {
                return ExitCode::from(status.exit_code());
            }
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// An HTTP error status from `faultline query`, carried as a typed
/// error so `main` can map retryable statuses onto dedicated exit
/// codes: 503 (backpressure) -> 3, 504 (deadline) -> 4, anything else
/// -> 2.
#[derive(Debug)]
struct StatusError {
    method: &'static str,
    route: String,
    status: u16,
}

impl StatusError {
    fn exit_code(&self) -> u8 {
        match self.status {
            503 => 3,
            504 => 4,
            _ => 2,
        }
    }
}

impl std::fmt::Display for StatusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} answered {}", self.method, self.route, self.status)?;
        match self.status {
            503 => write!(f, " (server saturated; retry after backing off)"),
            504 => write!(f, " (deadline expired; the result may be cached on retry)"),
            _ => Ok(()),
        }
    }
}

impl std::error::Error for StatusError {}

const USAGE: &str = "usage:
  faultline design   <n> <f>
  faultline simulate <n> <f> <target> [faulty: i,j,...]
  faultline bounds   <n> <f>
  faultline compare  <n> <f> [xmax]
  faultline spectrum <n> <f> [xmax]
  faultline animate  <n> <f> <dt> <until> <file.csv>
  faultline timeline <n> <f> [horizon] [target]
  faultline scenario <file.json>             (versioned, legacy, or trace)
  faultline scenario run      <file.json>    (versioned, legacy, or trace)
  faultline scenario validate <file.json>    (exit 0 valid / 2 invalid)
  faultline replay   <trace.json>
  faultline optimize <n> <f> [--budget=tiny|small|medium|large] [--seed=N]
                     [--xmax=X] [--checkpoint=FILE]
                     [--resume=FILE] [--json] [--check]
  faultline conformance run [--seed=N] [--cases=N] [--budget=smoke|default|deep]
                     [--json] [--out=DIR] [--inject=ORACLE]
  faultline conformance replay <counterexample.json>
  faultline serve    [--addr=HOST:PORT] [--threads=N] [--cache-bytes=N]
                     [--queue=N] [--timeout-secs=N] [--memo-max-n=N]
                     (--threads=N runs N event loops and N pool workers)
  faultline query    <route> [json body] [--addr=HOST:PORT]
                     (exit 3 on 503 backpressure, 4 on 504 deadline)
  faultline loadgen  [--seed=N] [--requests=N] [--concurrency=N]
                     [--addr=HOST:PORT] [--out=FILE] [--force]
                     [--baseline=LOAD_date.json] [--json]";

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let command = args.first().map(String::as_str).ok_or("missing command")?;
    match command {
        "design" => design(parse_params(args, Params::fleet)?),
        "simulate" => simulate(parse_params(args, Params::fleet)?, &args[3..]),
        "bounds" => bounds(parse_params(args, Params::new)?),
        "compare" => compare(parse_params(args, Params::fleet)?, parse_xmax(args, 3)?),
        "spectrum" => spectrum(parse_params(args, Params::fleet)?, parse_xmax(args, 3)?),
        "animate" => animate(parse_params(args, Params::fleet)?, &args[3..]),
        "timeline" => timeline(parse_params(args, Params::fleet)?, &args[3..]),
        "scenario" => scenario(&args[1..]),
        "replay" => replay(&args[1..]),
        "optimize" => optimize(&args[1..]),
        "conformance" => conformance(&args[1..]),
        "serve" => serve(&args[1..]),
        "query" => query(&args[1..]),
        "loadgen" => loadgen(&args[1..]),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

/// Reads `<n> <f>`, checked by `Params::fleet` or, for closed forms, `Params::new`.
fn parse_params(
    args: &[String],
    validate: fn(usize, usize) -> faultline_suite::core::Result<Params>,
) -> Result<Params, Box<dyn std::error::Error>> {
    let n: usize = args.get(1).ok_or("missing <n>")?.parse()?;
    let f: usize = args.get(2).ok_or("missing <f>")?.parse()?;
    Ok(validate(n, f)?)
}

/// Reads the optional scan window `xmax` (default 25), refused before
/// anything prints unless `/v1/supremum` would accept it.
fn parse_xmax(args: &[String], idx: usize) -> Result<f64, Box<dyn std::error::Error>> {
    let xmax = match args.get(idx) {
        Some(s) => s.parse()?,
        None => 25.0,
    };
    supremum::check_xmax(xmax)?;
    Ok(xmax)
}

fn design(params: Params) -> Result<(), Box<dyn std::error::Error>> {
    let alg = Algorithm::design(params)?;
    println!("{}", alg.describe());
    if let Some(schedule) = alg.schedule() {
        println!("proportionality ratio r = {:.6}", schedule.ratio());
        println!();
        println!("robot seeds (Definition 4):");
        for i in 0..schedule.n() {
            let seed = schedule.seed_for_robot(i).x;
            println!("  a{i}: zigzag(beta = {}, seed = {seed})", schedule.beta());
        }
        println!();
        println!("first interleaved turning points tau_j = r^j:");
        let rows: Vec<Vec<String>> = schedule
            .interleaved_turning_points(2 * params.n())
            .into_iter()
            .enumerate()
            .map(|(j, (robot, p))| {
                vec![
                    j.to_string(),
                    format!("a{robot}"),
                    format!("{:.6}", p.x),
                    format!("{:.6}", p.t),
                ]
            })
            .collect();
        print!("{}", render_table(&["j", "robot", "tau_j", "time"], &rows));
    }
    Ok(())
}

fn simulate(params: Params, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let target: f64 = rest.first().ok_or("missing <target>")?.parse()?;
    let target = Target::new(target)?;
    let alg = Algorithm::design(params)?;
    let horizon = alg.required_horizon(target.distance() * 1.5 + 2.0)?;
    let trajectories =
        alg.plans().iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>, _>>()?;

    let outcome = match rest.get(1) {
        Some(list) => {
            let faulty: Vec<usize> = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::parse)
                .collect::<Result<_, _>>()?;
            if faulty.len() > params.f() {
                return Err(format!(
                    "{} faults exceed the tolerance f = {}",
                    faulty.len(),
                    params.f()
                )
                .into());
            }
            let plan = FaultPlan::sensor_faults(params.n(), &faulty)?;
            Simulation::new(&trajectories, target, &plan, &[], 0, SimConfig::default(), None)?.run()
        }
        None => {
            println!("(no fault set given: using the worst-case adversary)");
            worst_case_outcome(&trajectories, target, params.f(), SimConfig::default())?
        }
    };

    println!("search for {target} with {params}:");
    for v in &outcome.visits {
        println!(
            "  t = {:10.4}  a{} {}",
            v.time,
            v.robot.0,
            if v.reliable { "DETECTS the target" } else { "passes (faulty)" }
        );
    }
    match &outcome.detection {
        Some(d) => println!(
            "detected by a{} at t = {:.4}; ratio {:.4} (guarantee {:.4})",
            d.robot.0,
            d.time,
            outcome.ratio(),
            alg.analytic_cr()
        ),
        None => println!("NOT detected within horizon {horizon}"),
    }
    Ok(())
}

fn bounds(params: Params) -> Result<(), Box<dyn std::error::Error>> {
    println!("{params} — regime: {}", params.regime());
    println!("upper bound (Theorem 1):  {:.6}", ratio::cr_upper(params));
    println!("lower bound (Section 4):  {:.6}", lower_bound::lower_bound(params)?);
    if params.regime() == Regime::Proportional {
        println!("optimal beta*:            {:.6}", ratio::optimal_beta(params)?);
        println!("expansion factor:         {:.6}", ratio::expansion_factor(params)?);
        println!("proportionality ratio r:  {:.6}", ratio::proportionality_ratio(params)?);
    }
    Ok(())
}

fn compare(params: Params, xmax: f64) -> Result<(), Box<dyn std::error::Error>> {
    println!("measured competitive ratios at {params}, targets up to ±{xmax}:");
    let mut rows = Vec::new();
    for strategy in all_strategies() {
        let row = match measure_strategy_cr(strategy.as_ref(), params, xmax) {
            Ok(m) if m.empirical.is_finite() => {
                vec![
                    strategy.name().to_owned(),
                    m.analytic.map_or("-".into(), |v| format!("{v:.4}")),
                    format!("{:.4}", m.empirical),
                    format!("{:+.4}", m.argmax),
                ]
            }
            Ok(m) => vec![
                strategy.name().to_owned(),
                m.analytic.map_or("-".into(), |v| format!("{v:.4}")),
                "unbounded".into(),
                format!("{} targets uncovered", m.uncovered),
            ],
            Err(e) => vec![strategy.name().to_owned(), "-".into(), "-".into(), e.to_string()],
        };
        rows.push(row);
    }
    print!("{}", render_table(&["strategy", "analytic", "measured", "worst target"], &rows));
    Ok(())
}

fn spectrum(params: Params, xmax: f64) -> Result<(), Box<dyn std::error::Error>> {
    println!("arrival-index spectrum CR_k at {params} (k = f+1 is the paper's objective):");
    let spectrum = group_search::k_spectrum(&PaperStrategy::new(), params, xmax)?;
    let rows: Vec<Vec<String>> = spectrum
        .iter()
        .map(|s| {
            let marker = if s.k == params.required_visits() { " <- f+1" } else { "" };
            vec![format!("{}{marker}", s.k), format!("{:.4}", s.cr)]
        })
        .collect();
    print!("{}", render_table(&["k", "CR_k"], &rows));
    Ok(())
}

fn timeline(params: Params, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let horizon: f64 = match rest.first() {
        Some(s) => s.parse()?,
        None => 40.0,
    };
    let target: Option<f64> = match rest.get(1) {
        Some(s) => Some(s.parse()?),
        None => None,
    };
    let alg = Algorithm::design(params)?;
    let trajectories =
        alg.plans().iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>, _>>()?;
    print!(
        "{}",
        faultline_suite::analysis::timeline::render_timeline(&trajectories, target, 30, 72)?
    );
    Ok(())
}

fn scenario(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_suite::scenario_dsl::{Document, ScenarioDoc};
    let (validate, path) = match rest {
        [cmd, path, ..] if cmd == "run" => (false, path),
        [cmd, path, ..] if cmd == "validate" => (true, path),
        [cmd] if cmd == "run" || cmd == "validate" => return Err("missing <file.json>".into()),
        // Bare-file form, kept for compatibility: runs the same
        // document kinds as `scenario run`.
        [path, ..] => (false, path),
        [] => return Err("missing <file.json>".into()),
    };
    let json = std::fs::read_to_string(path)?;
    // Validation is strict: only versioned documents pass, so scripts
    // can gate on the exit code before shipping a file to the query
    // service.
    let document = if validate {
        Document::Versioned(ScenarioDoc::from_json(&json)?)
    } else {
        Document::from_json(&json)?
    };
    // Work the query service would refuse at its default timeout is
    // refused here too, before anything materializes.
    let timeout = faultline_serve::ServeConfig::default().request_timeout;
    faultline_suite::analysis::work::admit(document.work(), timeout)?;
    if let (true, Document::Versioned(doc)) = (validate, &document) {
        eprintln!(
            "valid scenario document: version {}, n = {}, f = {}, {} geometry, {} target(s)",
            doc.version,
            doc.scenario.n,
            doc.scenario.f,
            doc.geometry,
            doc.scenario.targets.len()
        );
        return Ok(());
    }
    let results = document.run()?;
    println!("{}", faultline_suite::scenario::results_to_json(&results)?);
    Ok(())
}

fn replay(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = rest.first().ok_or("missing <trace.json>")?;
    let json = std::fs::read_to_string(path)?;
    let trace = faultline_suite::sim::RunTrace::from_json(&json)?;
    eprintln!(
        "replaying `{}` ({} robots, target {}, seed {})",
        trace.reason,
        trace.trajectories.len(),
        trace.target,
        trace.seed
    );
    let results = faultline_suite::scenario_dsl::Document::Trace(trace).run()?;
    eprintln!("replay matches the recorded outcome bit-for-bit");
    println!("{}", faultline_suite::scenario::results_to_json(&results)?);
    Ok(())
}

fn optimize(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_suite::opt::{self, Budget, Checkpoint, OptimizeConfig};

    let mut budget = Budget::default();
    let mut seed = 0u64;
    let mut xmax: Option<f64> = None;
    let mut checkpoint: Option<std::path::PathBuf> = None;
    let mut resume: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut check = false;
    let mut positional = Vec::new();
    for arg in rest {
        if let Some(v) = arg.strip_prefix("--budget=") {
            budget = v.parse()?;
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v.parse()?;
        } else if let Some(v) = arg.strip_prefix("--xmax=") {
            xmax = Some(v.parse()?);
        } else if let Some(v) = arg.strip_prefix("--checkpoint=") {
            checkpoint = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--resume=") {
            resume = Some(v.into());
        } else if arg == "--json" {
            json = true;
        } else if arg == "--check" {
            check = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown optimize flag `{arg}`").into());
        } else {
            positional.push(arg.as_str());
        }
    }

    let report = if let Some(path) = resume {
        let mut state = Checkpoint::load(&path)?.into_state();
        if let (Some(n), Some(f)) = (positional.first(), positional.get(1)) {
            let (n, f): (usize, usize) = (n.parse()?, f.parse()?);
            if (n, f) != (state.config.n, state.config.f) {
                return Err(format!(
                    "checkpoint {} is for ({}, {}), not ({n}, {f})",
                    path.display(),
                    state.config.n,
                    state.config.f
                )
                .into());
            }
        }
        eprintln!(
            "resuming ({}, {}) from {} at round {}/{}",
            state.config.n,
            state.config.f,
            path.display(),
            state.round,
            state.config.budget.knobs().rounds
        );
        opt::resume_state(&mut state, checkpoint.as_deref())?
    } else {
        let n: usize = positional.first().ok_or("missing <n>")?.parse()?;
        let f: usize = positional.get(1).ok_or("missing <f>")?.parse()?;
        let mut config = OptimizeConfig::new(n, f);
        config.budget = budget;
        config.seed = seed;
        config.xmax = xmax;
        opt::run_with_checkpoint(&config, checkpoint.as_deref())?
    };

    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "optimize ({}, {}) — regime {}, budget {}, seed {}",
            report.n, report.f, report.regime, report.budget, report.seed
        );
        println!(
            "  window [1, {:.3}], {} starts x {} rounds, {} evaluations",
            report.xmax, report.starts, report.rounds, report.evaluations
        );
        println!("  Theorem 1 closed form:   {:.9}", report.thm1_cr);
        match report.thm2_alpha {
            Some(a) => println!("  Theorem 2 alpha(n):      {a:.9}"),
            None => println!("  Theorem 2 alpha(n):      - (n >= 2f + 2)"),
        }
        println!("  lower bound (Section 4): {:.9}", report.lower_bound);
        println!("  baseline A(n,f) measured:{:.9}", report.baseline_measured);
        println!("  best found CR:           {:.9}", report.best_found_cr);
        if report.gap_closed {
            println!(
                "  improvement:             closed (Theorem 1 equals the lower bound here, so \
                 in-window gains are finite-window artifacts, not improvements)"
            );
        } else if report.improved {
            println!(
                "  improvement:             {:.9} (strictly better than the A(n,f) baseline)",
                report.improvement
            );
        } else {
            println!(
                "  improvement:             none found at this budget \
                 (delta {:.2e} below the {:.0e} margin)",
                report.improvement,
                opt::IMPROVEMENT_MARGIN
            );
        }
        if let Some(cert) = &report.certificate {
            println!(
                "  certified lower bound:   [{:.9}, {:.9}] ({})",
                cert.lo, cert.hi, cert.quantity
            );
        }
        println!(
            "  cross-check:             {}",
            if report.crosscheck.is_consistent() {
                "consistent (best >= certified lower bound)"
            } else {
                "REJECTED (measurement fell below the certified lower bound)"
            }
        );
    }

    if check {
        if !report.crosscheck.is_consistent() {
            return Err("check failed: best_found_cr fell below the certified lower bound".into());
        }
        if report.best_found_cr > report.thm1_cr + opt::THM1_SLACK {
            return Err(format!(
                "check failed: best_found_cr {} exceeds Theorem 1 {} + {:.0e}",
                report.best_found_cr,
                report.thm1_cr,
                opt::THM1_SLACK
            )
            .into());
        }
        eprintln!("check passed: certified lower bound <= best_found_cr <= Thm 1 + 1e-9");
    }
    Ok(())
}

fn conformance(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_suite::conformance::{self, ConformanceConfig, Counterexample};

    let sub = rest.first().map(String::as_str).ok_or("missing conformance subcommand")?;
    match sub {
        "run" => {
            let mut config = ConformanceConfig::default();
            let mut json = false;
            let mut out_dir = std::path::PathBuf::from("out/conformance");
            for arg in &rest[1..] {
                if let Some(v) = arg.strip_prefix("--seed=") {
                    config.seed = v.parse()?;
                } else if let Some(v) = arg.strip_prefix("--cases=") {
                    config.cases = v.parse()?;
                } else if let Some(v) = arg.strip_prefix("--budget=") {
                    config.budget = v.parse()?;
                } else if let Some(v) = arg.strip_prefix("--inject=") {
                    config.inject = Some(v.to_owned());
                } else if let Some(v) = arg.strip_prefix("--out=") {
                    out_dir = v.into();
                } else if arg == "--json" {
                    json = true;
                } else {
                    return Err(format!("unknown conformance run flag `{arg}`").into());
                }
            }
            let report = conformance::run(&config)?;
            if json {
                print!("{}", report.to_json()?);
            } else {
                print!("{}", report.render());
            }
            if !report.passed() {
                std::fs::create_dir_all(&out_dir)?;
                for (i, doc) in report.failures.iter().enumerate() {
                    let path = out_dir.join(format!("counterexample_{}_{i}.json", doc.oracle));
                    std::fs::write(&path, doc.to_json()?)?;
                    eprintln!("wrote {}", path.display());
                }
                return Err(format!(
                    "{} oracle violations (replay the counterexamples above with \
                     `faultline conformance replay <file>`)",
                    report.failures.len()
                )
                .into());
            }
        }
        "replay" => {
            let path = rest.get(1).ok_or("missing <counterexample.json>")?;
            let doc = Counterexample::from_json(&std::fs::read_to_string(path)?)?;
            eprintln!(
                "replaying oracle `{}` on case {} of seed {} ({}{})",
                doc.oracle,
                doc.instance.index,
                doc.run_seed,
                doc.instance.regime_label(),
                if doc.injected { ", injected skew" } else { "" },
            );
            doc.replay()?;
            println!(
                "counterexample reproduces bit-for-bit: expected {}, observed {} ({})",
                doc.expected(),
                doc.observed(),
                doc.detail
            );
        }
        other => return Err(format!("unknown conformance subcommand `{other}`").into()),
    }
    Ok(())
}

fn serve(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_serve::{signal, ServeConfig, Server};
    let mut config = ServeConfig::default();
    for arg in rest {
        if let Some(addr) = arg.strip_prefix("--addr=") {
            config.addr = addr.to_owned();
        } else if let Some(threads) = arg.strip_prefix("--threads=") {
            config.threads = Some(threads.parse()?);
        } else if let Some(bytes) = arg.strip_prefix("--cache-bytes=") {
            config.cache_bytes = bytes.parse()?;
        } else if let Some(depth) = arg.strip_prefix("--queue=") {
            config.queue_capacity = depth.parse()?;
        } else if let Some(secs) = arg.strip_prefix("--timeout-secs=") {
            config.request_timeout = std::time::Duration::from_secs(secs.parse()?);
        } else if let Some(n) = arg.strip_prefix("--memo-max-n=") {
            config.memo_max_n = n.parse()?;
        } else {
            return Err(format!("unknown serve flag `{arg}`").into());
        }
    }
    signal::install();
    let server = Server::bind(config.clone())?;
    let threads = config.resolved_threads();
    eprintln!(
        "faultline-serve listening on http://{} ({threads} event loops, {threads} workers, \
         {} MiB cache, queue {})",
        server.local_addr()?,
        config.cache_bytes / (1024 * 1024),
        config.queue_capacity,
    );
    eprintln!("routes: /healthz /metrics /v1/cr /v1/table1 /v1/scenario /v1/supremum /v1/optimize");
    let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    server.run(shutdown)?; // returns after SIGINT/SIGTERM + drain
    eprintln!("faultline-serve drained and stopped");
    Ok(())
}

fn loadgen(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_serve::loadgen::LoadOptions;

    let mut json = false;
    let mut force = false;
    let mut out: Option<String> = None;
    let mut against: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut requests: Option<u64> = None;
    let mut concurrency: Option<usize> = None;
    let mut addr: Option<String> = None;
    for arg in rest {
        if let Some(v) = arg.strip_prefix("--seed=") {
            seed = Some(v.parse()?);
        } else if let Some(v) = arg.strip_prefix("--requests=") {
            requests = Some(v.parse()?);
        } else if let Some(v) = arg.strip_prefix("--concurrency=") {
            concurrency = Some(v.parse()?);
        } else if let Some(v) = arg.strip_prefix("--addr=") {
            addr = Some(v.to_owned());
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out = Some(v.to_owned());
        } else if let Some(v) = arg.strip_prefix("--baseline=") {
            against = Some(v.to_owned());
        } else if arg == "--json" {
            json = true;
        } else if arg == "--force" {
            force = true;
        } else {
            return Err(format!("unknown loadgen flag `{arg}`").into());
        }
    }

    let mut options = LoadOptions::default();
    if let Some(v) = seed {
        options.seed = v;
    }
    if let Some(v) = requests {
        options.requests = v;
    }
    if let Some(v) = concurrency {
        options.concurrency = v;
    }
    options.addr = addr;

    match &options.addr {
        Some(target) => eprintln!(
            "loadgen: {} requests x {} threads (seed {}) against {target}",
            options.requests, options.concurrency, options.seed
        ),
        None => eprintln!(
            "loadgen: {} requests x {} threads (seed {}) against an in-process server",
            options.requests, options.concurrency, options.seed
        ),
    }
    let report = faultline_bench::run_load(&options)?;
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "loadgen: {} requests, statuses: {:?}, errors: {}, digest: {}",
            report.requests, report.statuses, report.errors, report.digest
        );
    }

    let path = faultline_bench::resolve_out_path(
        out.as_deref(),
        &format!("LOAD_{}.json", report.date),
        force,
    )?;
    std::fs::write(&path, serde_json::to_string_pretty(&report)? + "\n")?;
    eprintln!("(load report written to {})", path.display());

    if let Some(recorded_path) = against {
        println!("== Load gate: vs recorded report {recorded_path} ==");
        let text = std::fs::read_to_string(&recorded_path)
            .map_err(|e| format!("cannot read load report `{recorded_path}`: {e}"))?;
        let recorded: faultline_bench::LoadReport = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse load report `{recorded_path}`: {e}"))?;
        let comparison = faultline_bench::compare_load(&report, &recorded);
        for line in &comparison.lines {
            println!("  {line}");
        }
        if !comparison.passed() {
            return Err(format!(
                "load gate failed: {} entr{} differ from the recorded report \
                 (re-record the load report if the change is intended)",
                comparison.regressions.len(),
                if comparison.regressions.len() == 1 { "y" } else { "ies" },
            )
            .into());
        }
        println!("load gate passed.");
    }
    Ok(())
}

fn query(rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = faultline_serve::DEFAULT_ADDR.to_owned();
    let mut positional = Vec::new();
    for arg in rest {
        if let Some(a) = arg.strip_prefix("--addr=") {
            addr = a.to_owned();
        } else {
            positional.push(arg.as_str());
        }
    }
    let route = positional.first().ok_or(
        "missing <route> (e.g. /v1/cr?n=3&f=1, or POST bodies: \
         /v1/supremum, /v1/optimize, /v1/scenario)",
    )?;
    let body = positional.get(1).copied();
    let method = if body.is_some() { "POST" } else { "GET" };
    let response = faultline_serve::client::query(&addr, method, route, body)?;
    print!("{}", response.text());
    if response.status >= 400 {
        return Err(Box::new(StatusError {
            method,
            route: (*route).to_owned(),
            status: response.status,
        }));
    }
    Ok(())
}

fn animate(params: Params, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dt: f64 = rest.first().ok_or("missing <dt>")?.parse()?;
    let until: f64 = rest.get(1).ok_or("missing <until>")?.parse()?;
    let file = rest.get(2).ok_or("missing <file.csv>")?;
    let alg = Algorithm::design(params)?;
    let trajectories =
        alg.plans().iter().map(|p| p.materialize(until)).collect::<Result<Vec<_>, _>>()?;
    let snaps = sample_positions(&trajectories, dt, until)?;
    std::fs::write(file, snapshots_to_csv(&snaps))?;
    println!("{} snapshots written to {file}", snaps.len());
    Ok(())
}
