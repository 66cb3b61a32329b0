//! `repro` — the reproduction harness.
//!
//! Regenerates every table and figure of *Search on a Line with Faulty
//! Robots* (PODC 2016), prints the results next to the paper's values,
//! and exports CSV/SVG artifacts under `out/`.
//!
//! Usage:
//!
//! ```text
//! repro [table1|fig5|figures|ablation|lower-bound|montecarlo|explore|optimize|conformance|scenario|all] [--fast] [--seed=N]
//! repro replay <trace.json>
//! repro bench [--quick] [--out=PATH] [--force] [--baseline=PATH]
//! ```
//!
//! `--seed=N` re-seeds the Monte-Carlo section (fault stream `N`,
//! target stream `N + 2`; default `N = 11`) and the optimizer's
//! perturbation streams, and is recorded in the explorer's report,
//! keeping every figure reproducible from a single number. `replay`
//! re-executes a recorded failure trace bit-for-bit and exits non-zero
//! if the outcome diverges.
//!
//! `--fast` reduces grids/budgets *and* redirects artifacts to
//! `out/fast/` so quick runs never clobber the tracked full-resolution
//! CSVs under `out/`.

use std::fs;
use std::path::Path;

use faultline_analysis::ascii::{line_chart, render_table, Series};
use faultline_analysis::{ablation, fig5, figures, table1};
use faultline_core::{lower_bound, ratio, Params};
use faultline_strategies::{all_strategies, Strategy};
use rand_free::main_impl;

/// A tiny module to keep `main` testable without rand (the harness
/// itself is deterministic except for the Monte-Carlo section, which
/// seeds explicitly).
mod rand_free {
    use super::*;

    /// Entry point shared by `main`.
    pub fn main_impl() -> Result<(), Box<dyn std::error::Error>> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let fast = args.iter().any(|a| a == "--fast");
        let quick = args.iter().any(|a| a == "--quick");
        let force = args.iter().any(|a| a == "--force");
        let bench_out: Option<String> =
            args.iter().find_map(|a| a.strip_prefix("--out=")).map(str::to_owned);
        let bench_baseline: Option<String> =
            args.iter().find_map(|a| a.strip_prefix("--baseline=")).map(str::to_owned);
        let seed: Option<u64> = args
            .iter()
            .find_map(|a| a.strip_prefix("--seed="))
            .map(|s| s.parse().map_err(|e| format!("invalid --seed value `{s}`: {e}")))
            .transpose()?;
        let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
        let command = positional.first().map_or("all", |s| s.as_str());
        let operand = positional.get(1).map(|s| s.as_str());
        // Fast runs are lower-resolution: keep them away from the
        // tracked full-resolution artifacts under `out/`.
        let out_dir = if fast { Path::new("out/fast") } else { Path::new("out") };
        fs::create_dir_all(out_dir)?;

        println!(
            "faultline repro v{} — Search on a Line with Faulty Robots (PODC 2016)",
            faultline_bench::VERSION
        );
        println!();

        match command {
            "table1" => run_table1(out_dir, fast)?,
            "fig5" => run_fig5(out_dir, fast)?,
            "figures" => run_figures(out_dir)?,
            "ablation" => run_ablation(out_dir, fast)?,
            "lower-bound" => run_lower_bound()?,
            "montecarlo" => run_montecarlo(seed.unwrap_or(11))?,
            "extensions" => run_extensions(out_dir)?,
            "verify" => run_verify()?,
            "certify" => run_certify()?,
            "explore" => run_explore(out_dir, fast, seed.unwrap_or(0))?,
            "optimize" => run_optimize(out_dir, fast, seed.unwrap_or(0))?,
            "conformance" => run_conformance(out_dir, fast, seed.unwrap_or(1))?,
            "scenario" => run_scenario(out_dir)?,
            "replay" => {
                let path = operand.ok_or("replay needs a trace file: repro replay <trace.json>")?;
                run_replay(path)?;
            }
            "bench" => run_bench(quick, bench_out.as_deref(), force, bench_baseline.as_deref())?,
            "all" => {
                run_table1(out_dir, fast)?;
                run_fig5(out_dir, fast)?;
                run_figures(out_dir)?;
                run_ablation(out_dir, fast)?;
                run_lower_bound()?;
                run_montecarlo(seed.unwrap_or(11))?;
                run_extensions(out_dir)?;
                run_verify()?;
                run_certify()?;
                run_explore(out_dir, fast, seed.unwrap_or(0))?;
                run_optimize(out_dir, fast, seed.unwrap_or(0))?;
                run_conformance(out_dir, fast, seed.unwrap_or(1))?;
                run_scenario(out_dir)?;
            }
            other => {
                eprintln!(
                    "unknown command `{other}`; expected table1 | fig5 | figures | ablation | \
                     lower-bound | montecarlo | extensions | verify | certify | explore | \
                     optimize | conformance | scenario | replay <trace.json> | bench | all"
                );
                std::process::exit(2);
            }
        }
        Ok(())
    }
}

fn run_table1(out_dir: &Path, fast: bool) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Table 1: upper/lower bounds and expansion factors ==");
    let rows = table1::regenerate(!fast)?;
    print!("{}", table1::render(&rows));
    fs::write(out_dir.join("table1.csv"), table1::to_csv(&rows))?;
    println!("(written to {}/table1.csv)\n", out_dir.display());
    Ok(())
}

fn run_fig5(out_dir: &Path, fast: bool) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Figure 5 (left): CR of A(2f+1, f) vs n ==");
    let measure_up_to = if fast { 0 } else { 13 };
    let left = fig5::fig5_left(3, 41, measure_up_to)?;
    print!("{}", fig5::render_left(&left));
    let mut csv = String::from("n,cr,corollary1,corollary2,alpha,measured\n");
    for s in &left {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            s.n,
            s.cr,
            s.corollary1,
            s.corollary2,
            s.alpha,
            s.measured.map_or(String::new(), |v| v.to_string())
        ));
    }
    fs::write(out_dir.join("fig5_left.csv"), csv)?;

    println!("== Figure 5 (right): asymptotic CR vs a = n/f ==");
    let right = fig5::fig5_right(101)?;
    print!("{}", fig5::render_right(&right));
    let mut csv = String::from("a,cr\n");
    for s in &right {
        csv.push_str(&format!("{},{}\n", s.a, s.cr));
    }
    fs::write(out_dir.join("fig5_right.csv"), csv)?;
    println!("(written to {dir}/fig5_left.csv, {dir}/fig5_right.csv)\n", dir = out_dir.display());
    Ok(())
}

fn run_figures(out_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Figures 1-4, 6, 7: space-time diagrams ==");
    for fig in figures::all_figures()? {
        println!("{}: {}", fig.name, fig.title);
        fs::write(out_dir.join(format!("{}.svg", fig.name)), fig.to_svg(800.0, 600.0)?)?;
        fs::write(out_dir.join(format!("{}.csv", fig.name)), fig.to_csv())?;
    }

    // Figure 4's shaded "tower" region, rasterized: '#' marks points
    // (x, t) seen by at least f + 1 = 2 robots.
    let params = Params::new(3, 1)?;
    let alg = faultline_core::Algorithm::design(params)?;
    let horizon = alg.required_horizon(6.0)?;
    let trajectories = alg
        .plans()
        .iter()
        .map(|p| p.materialize(horizon.min(45.0)))
        .collect::<Result<Vec<_>, _>>()?;
    let fleet = faultline_core::Fleet::new(trajectories)?;
    let xs = faultline_core::numeric::linspace(-6.0, 6.0, 73);
    let ts = faultline_core::numeric::linspace(0.0, 40.0, 28);
    let raster = fleet.coverage_raster(&xs, &ts)?;
    let rendered = raster.render(params.required_visits());
    fs::write(out_dir.join("fig4_tower.txt"), &rendered)?;
    println!("fig4 tower raster ('#' = 2-covered):");
    print!("{rendered}");
    println!(
        "(SVG + CSV written to {dir}/fig*.svg, {dir}/fig*.csv; raster to {dir}/fig4_tower.txt)\n",
        dir = out_dir.display()
    );
    Ok(())
}

fn run_ablation(out_dir: &Path, fast: bool) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation A1: competitive ratio vs beta (minimum at beta*) ==");
    for (n, f) in [(3usize, 1usize), (5, 2), (5, 3)] {
        let params = Params::new(n, f)?;
        let sweep = ablation::beta_sweep(params, if fast { 9 } else { 17 }, !fast)?;
        println!("A({n}, {f}): beta* = {:.4}, CR(beta*) = {:.4}", sweep.beta_star, sweep.cr_star);
        let series: Vec<(f64, f64)> = sweep.samples.iter().map(|s| (s.beta, s.analytic)).collect();
        print!("{}", line_chart(&[Series::new("CR(beta)", series)], 64, 12));
        let mut csv = String::from("beta,analytic,measured\n");
        for s in &sweep.samples {
            csv.push_str(&format!(
                "{},{},{}\n",
                s.beta,
                s.analytic,
                s.measured.map_or(String::new(), |v| v.to_string())
            ));
        }
        fs::write(out_dir.join(format!("ablation_beta_{n}_{f}.csv")), csv)?;
    }

    println!("== Ablation A3: fault misestimation (n = 5) ==");
    let mut rows = Vec::new();
    for f_design in [2usize, 3] {
        for s in ablation::fault_misestimation(5, f_design)? {
            rows.push(vec![
                s.f_design.to_string(),
                s.f_true.to_string(),
                format!("{:.4}", s.cr),
                format!("{:.4}", s.cr_oracle),
                format!("{:.4}", s.cr / s.cr_oracle),
            ]);
        }
    }
    print!("{}", render_table(&["f designed", "f true", "CR", "CR oracle", "penalty"], &rows));
    println!();
    Ok(())
}

fn run_lower_bound() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Theorem 2: lower bound alpha(n), (alpha-1)^n (alpha-3) = 2^(n+1) ==");
    let mut rows = Vec::new();
    for n in [1usize, 2, 3, 4, 5, 11, 41, 101, 1001] {
        let a = lower_bound::alpha(n)?;
        let c2 =
            if n >= 3 { format!("{:.5}", lower_bound::corollary2_lower(n)?) } else { "-".into() };
        rows.push(vec![n.to_string(), format!("{a:.5}"), c2]);
    }
    print!("{}", render_table(&["n", "alpha(n)", "Cor.2 asymptote"], &rows));

    println!("\n== Baseline comparison at (n, f) = (3, 1) ==");
    let params = Params::new(3, 1)?;
    let mut rows = Vec::new();
    for strategy in all_strategies() {
        let cr = strategy.analytic_cr(params).map_or("n/a".to_owned(), |v| format!("{v:.4}"));
        let measured = faultline_analysis::measure_strategy_cr(strategy.as_ref(), params, 30.0)
            .map(|m| {
                if m.empirical.is_finite() {
                    format!("{:.4}", m.empirical)
                } else {
                    format!("unbounded ({} targets uncovered)", m.uncovered)
                }
            })
            .unwrap_or_else(|e| format!("error: {e}"));
        rows.push(vec![strategy.name().to_owned(), cr, measured]);
    }
    println!(
        "lower bound for any algorithm: alpha(3) = {:.4}; paper's A(3,1): {:.4}",
        lower_bound::alpha(3)?,
        ratio::cr_upper(params)
    );
    print!("{}", render_table(&["strategy", "analytic CR", "measured CR"], &rows));
    println!();
    Ok(())
}

fn run_montecarlo(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_sim::{run_sweep, BernoulliFaults, MonteCarloConfig, RatioStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    println!("== Monte Carlo: random faults vs the worst case, A(5, 2) ==");
    println!("(seed {seed}: fault stream {seed}, target stream {})", seed + 2);
    let params = Params::new(5, 2)?;
    let strategy = faultline_strategies::PaperStrategy::new();
    let plans = strategy.plans(params)?;
    let horizon = strategy.horizon_hint(params, 101.0);
    let mut rows = Vec::new();
    let mut heavy_tail: Vec<f64> = Vec::new();
    for p in [0.1, 0.3, 0.5] {
        let mut faults = BernoulliFaults::new(p, params.f(), StdRng::seed_from_u64(seed))?;
        let ratios =
            run_sweep(&plans, &mut faults, MonteCarloConfig::new(2000, 100.0)?, horizon, seed + 2)?;
        let stats = RatioStats::from_ratios(&ratios)?;
        if p == 0.5 {
            heavy_tail = ratios;
        }
        rows.push(vec![
            format!("{p}"),
            format!("{:.4}", stats.mean),
            format!("{:.4}", stats.p50),
            format!("{:.4}", stats.p95),
            format!("{:.4}", stats.max),
        ]);
    }
    println!("worst-case CR (Theorem 1): {:.4}", ratio::cr_upper(params));
    print!("{}", render_table(&["fault prob", "mean", "p50", "p95", "max"], &rows));
    println!();
    println!("achieved-ratio distribution at fault probability 0.5:");
    print!("{}", faultline_analysis::ascii::histogram(&heavy_tail, 12, 48));
    println!();
    Ok(())
}

fn run_extensions(out_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_analysis::{bounded, group_search, turncost};
    use faultline_strategies::PaperStrategy;

    let params = Params::new(3, 1)?;

    println!("== Extension E1: known distance bound D (A(3,1) clamped) ==");
    let samples = bounded::bound_sweep(params, &[1.5, 2.0, 4.0, 16.0, 64.0])?;
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.bound),
                format!("{:.4}", s.measured_cr),
                format!("{:.4}", s.unbounded_cr),
            ]
        })
        .collect();
    print!("{}", render_table(&["D", "bounded CR", "unbounded CR"], &rows));
    let mut csv = String::from("bound,measured_cr,unbounded_cr\n");
    for s in &samples {
        csv.push_str(&format!("{},{},{}\n", s.bound, s.measured_cr, s.unbounded_cr));
    }
    fs::write(out_dir.join("extension_bounded.csv"), csv)?;

    println!("== Extension E2: turn cost (A(3,1)) ==");
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
    print!("{}", render_table(&["c", "best beta", "best cost-CR", "cost-CR at beta*"], &rows));
    let mut csv = String::from("c,best_beta,best_cr,cr_at_paper_beta\n");
    for s in &sweep {
        csv.push_str(&format!("{},{},{},{}\n", s.c, s.best_beta, s.best_cr, s.cr_at_paper_beta));
    }
    fs::write(out_dir.join("extension_turncost.csv"), csv)?;

    println!("== Extension E3: arrival-index spectrum CR_k (A(5,2)) ==");
    let params = Params::new(5, 2)?;
    let spectrum = group_search::k_spectrum(&PaperStrategy::new(), params, 15.0)?;
    let rows: Vec<Vec<String>> = spectrum
        .iter()
        .map(|s| {
            let marker = if s.k == params.required_visits() { " (= f+1)" } else { "" };
            vec![format!("{}{marker}", s.k), format!("{:.4}", s.cr)]
        })
        .collect();
    print!("{}", render_table(&["k", "CR_k"], &rows));
    let mut csv = String::from("k,cr\n");
    for s in &spectrum {
        csv.push_str(&format!("{},{}\n", s.k, s.cr));
    }
    fs::write(out_dir.join("extension_spectrum.csv"), csv)?;

    println!("== Extension E4: randomized sweeps (expected competitive ratio) ==");
    use faultline_analysis::randomized;
    use faultline_strategies::RandomizedSweepStrategy;
    let kao = RandomizedSweepStrategy::kao_optimal();
    println!(
        "Kao-Reif-Tate expansion r* = {:.5}, single-robot expected CR = {:.5}",
        kao.expansion(),
        kao.single_robot_expected_cr()
    );
    let mut rows = Vec::new();
    for (n, f) in [(1usize, 0usize), (2, 1), (3, 1)] {
        let params = Params::new(n, f)?;
        let result = randomized::expected_cr(&kao, params, 30.0, 16, 200, 17)?;
        let deterministic = ratio::cr_upper(params);
        rows.push(vec![
            format!("({n}, {f})"),
            format!("{:.4}", result.expected_cr),
            format!("{deterministic:.4}"),
            result.uncovered.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["(n, f)", "randomized E[CR] (sup over x)", "deterministic CR", "uncovered"],
            &rows
        )
    );

    println!("== Extension E5: crash faults vs sensor faults ==");
    {
        use faultline_core::Fleet;
        use faultline_sim::worst_case_crashes;
        let params = Params::new(3, 1)?;
        let alg = faultline_core::Algorithm::design(params)?;
        let horizon = alg.required_horizon(21.0)?;
        let trajs: Vec<_> =
            alg.plans().iter().map(|p| p.materialize(horizon)).collect::<Result<Vec<_>, _>>()?;
        let fleet = Fleet::new(trajs.clone())?;
        let mut rows = Vec::new();
        for x in [1.0 + 1e-9, -2.5, 7.0, -20.0] {
            let (_, crash_detection) = worst_case_crashes(&trajs, x, params.f())?;
            let sensor = fleet.visit_time(x, params.required_visits()).expect("covered");
            rows.push(vec![
                format!("{x:+.4}"),
                format!("{:.6}", crash_detection.expect("covered")),
                format!("{sensor:.6}"),
            ]);
        }
        print!(
            "{}",
            render_table(&["target", "crash-adversary detection", "sensor T_(f+1)"], &rows)
        );
        println!(
            "finding: for any fixed target the two adversaries coincide — crashing the \
             f earliest visitors just before arrival forces exactly T_(f+1)(x).\n"
        );
    }

    println!("== Extension E6: average case (exact, log-uniform targets up to 100) ==");
    {
        use faultline_analysis::average_case;
        let mut rows = Vec::new();
        for (n, f) in [(2usize, 1usize), (3, 1), (4, 2), (5, 2), (5, 3), (11, 5)] {
            let avg = average_case::exact_average(Params::new(n, f)?, 100.0)?;
            rows.push(vec![
                format!("({n}, {f})"),
                format!("{:.4}", avg.expected),
                format!("{:.4}", avg.worst_case),
                format!("{:.2}x", avg.pessimism()),
            ]);
        }
        print!("{}", render_table(&["(n, f)", "E[K] exact", "worst case", "pessimism"], &rows));
    }
    println!("(written to {}/extension_*.csv)\n", out_dir.display());
    Ok(())
}

fn run_verify() -> Result<(), Box<dyn std::error::Error>> {
    use faultline_analysis::verification;

    println!("== Verification matrix: closed form vs coverage vs simulator ==");
    let pairs: Vec<(usize, usize)> =
        vec![(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (7, 3), (9, 4)];
    let reports = verification::run_matrix_batch(&pairs, 30.0, 16)?;
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                format!("({}, {})", r.n, r.f),
                r.cells.len().to_string(),
                format!("{:.2e}", r.worst_gap),
            ]
        })
        .collect();
    print!("{}", render_table(&["(n, f)", "targets checked", "worst relative gap"], &rows));
    let overall = reports.iter().map(|r| r.worst_gap).fold(0.0f64, f64::max);
    println!("overall worst gap across three independent evaluation paths: {overall:.2e}");
    println!();
    Ok(())
}

fn run_certify() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Certified enclosures (outward-rounded interval arithmetic) ==");
    let certs = faultline_core::certificate::certify_table1()?;
    let rows: Vec<Vec<String>> = certs
        .iter()
        .map(|c| {
            vec![
                c.quantity.clone(),
                format!("{:.12}", c.lo),
                format!("{:.12}", c.hi),
                format!("{:.1e}", c.width()),
            ]
        })
        .collect();
    print!("{}", render_table(&["quantity", "certified lo", "certified hi", "width"], &rows));
    println!(
        "every Table-1 value above is PROVEN to lie in its interval \
         (monotone sign argument for alpha, direct interval evaluation for CR)."
    );

    println!("\n== Measured enclosures: exact supremum scans vs the closed forms ==");
    // The exact critical-point engine now carries an outward-rounded
    // enclosure of its own supremum; wrapping it as a certificate lets
    // the *measured* value join the closed forms above, with
    // intersection as the consistency check (disjoint enclosures would
    // prove a discrepancy between the scan and Theorem 1).
    use faultline_core::certificate::Certificate;
    let xmax = 25.0;
    let mut rows = Vec::new();
    for (n, f) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)] {
        let params = Params::new(n, f)?;
        let alg = faultline_core::Algorithm::design(params)?;
        let horizon = alg.required_horizon(xmax * (1.0 + 1e-6))?;
        let fleet = faultline_core::Fleet::from_plans(&alg.plans(), horizon)?;
        let enclosed = faultline_analysis::exact_supremum_enclosed(&fleet, f + 1, xmax)?;
        let measured = Certificate::from_interval(
            format!("measured sup of A({n}, {f}) on [1, {xmax}]"),
            enclosed.enclosure,
        );
        let quantity = format!("CR of A({n}, {f})");
        let closed_form = certs
            .iter()
            .find(|c| c.quantity == quantity)
            .ok_or_else(|| format!("no Table-1 certificate for {quantity}"))?;
        if !measured.intersects(closed_form) {
            return Err(format!(
                "{}: measured enclosure [{}, {}] is disjoint from the certified closed form \
                 [{}, {}]",
                measured.quantity, measured.lo, measured.hi, closed_form.lo, closed_form.hi
            )
            .into());
        }
        rows.push(vec![
            measured.quantity.clone(),
            format!("{:.12}", measured.lo),
            format!("{:.12}", measured.hi),
            format!("{:.1e}", measured.width()),
            "intersects".to_owned(),
        ]);
    }
    print!(
        "{}",
        render_table(&["quantity", "measured lo", "measured hi", "width", "vs closed form"], &rows)
    );
    println!("every measured supremum enclosure intersects its certified Theorem-1 interval.\n");
    Ok(())
}

fn run_explore(out_dir: &Path, fast: bool, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_explore::{explore_pair, ExploreConfig, ExploreReport};

    println!("== Systematic adversary-space exploration (dominance-pruned, certified) ==");
    let pairs: &[(usize, usize)] = if fast {
        &[(2, 1), (3, 1), (4, 2)]
    } else {
        // Every Table-1 pair with n <= 5: small enough that the
        // equivalence-class frontier is genuinely exhaustive.
        &[(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
    };
    let xmax = 25.0;
    let pruned_config = ExploreConfig { seed, ..ExploreConfig::default() };
    let exhaustive_config = ExploreConfig { seed, exhaustive: true, ..ExploreConfig::default() };
    let mut csv = String::from(ExploreReport::csv_header());
    csv.push('\n');
    let mut rows = Vec::new();
    for &(n, f) in pairs {
        let report = explore_pair(n, f, xmax, &pruned_config)?;
        let baseline = explore_pair(n, f, xmax, &exhaustive_config)?;
        println!("  {}", report.summary());
        if report.worst.value.to_bits() != baseline.worst.value.to_bits() {
            return Err(format!(
                "({n}, {f}): pruned worst value {} diverges from the exhaustive baseline {}",
                report.worst.value, baseline.worst.value
            )
            .into());
        }
        if !report.matches_exact || !baseline.matches_exact {
            return Err(format!(
                "({n}, {f}): explorer worst value diverges from the exact supremum scan"
            )
            .into());
        }
        if report.explored + report.pruned_dominance != report.class_states {
            return Err(format!("({n}, {f}): coverage accounting does not close").into());
        }
        if report.raw_cut_fraction() < 0.30 {
            return Err(format!(
                "({n}, {f}): dominance cut only {:.1}% of raw states (acceptance floor 30%)",
                100.0 * report.raw_cut_fraction()
            )
            .into());
        }
        rows.push(vec![
            format!("({n}, {f})"),
            format!("{}/{}", report.explored, report.class_states),
            report.raw_states.to_string(),
            format!("{:.1}%", 100.0 * report.raw_cut_fraction()),
            baseline.explored.to_string(),
            format!("{:.1e}", report.enclosure_width()),
        ]);
        csv.push_str(&report.csv_row());
        csv.push('\n');
        csv.push_str(&baseline.csv_row());
        csv.push('\n');
    }
    print!(
        "{}",
        render_table(
            &["(n, f)", "explored/classes", "raw states", "raw cut", "exhaustive", "encl. width"],
            &rows
        )
    );
    fs::write(out_dir.join("explore_coverage.csv"), csv)?;
    println!(
        "every pair: 100% equivalence-class coverage, pruned worst bit-identical to the \
         exhaustive baseline and the exact supremum scan."
    );
    println!("(written to {}/explore_coverage.csv)\n", out_dir.display());
    Ok(())
}

fn run_optimize(out_dir: &Path, fast: bool, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_opt::{gap_csv, gap_study, Budget};

    let budget = if fast { Budget::Tiny } else { Budget::Small };
    println!("== Optimizer gap study: Theorem 1 vs best found vs Theorem 2 ==");
    println!("(budget {budget}, seed {seed}; free-schedule search over every Table-1 pair)");
    let rows = gap_study(budget, seed)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let r = &row.report;
            vec![
                format!("({}, {})", r.n, r.f),
                format!("{:.4}", r.thm1_cr),
                format!("{:.4}", r.best_found_cr),
                r.thm2_alpha.map_or("-".into(), |a| format!("{a:.4}")),
                if r.improved {
                    format!("-{:.4}", r.improvement)
                } else if r.gap_closed {
                    "closed".into()
                } else {
                    "none".into()
                },
                if r.crosscheck.is_consistent() { "ok".into() } else { "REJECTED".into() },
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["(n, f)", "Thm 1 CR", "best found", "alpha(n)", "improvement", "cross-check"],
            &table
        )
    );
    for row in &rows {
        let r = &row.report;
        if !r.crosscheck.is_consistent() {
            return Err(format!(
                "optimizer cross-check rejected ({}, {}): best {} beats the certified lower bound",
                r.n, r.f, r.best_found_cr
            )
            .into());
        }
    }
    let improved = rows.iter().filter(|r| r.report.improved).count();
    let closed = rows.iter().filter(|r| r.report.gap_closed).count();
    println!(
        "{improved}/{} pairs found a non-proportional schedule strictly below Theorem 1 at \
         this budget; {closed} are `closed` (Theorem 1 already equals the lower bound, so \
         in-window gains are never claimed); the rest document `none` rather than claiming \
         silently.",
        rows.len()
    );
    fs::write(out_dir.join("opt_gap.csv"), gap_csv(&rows))?;
    println!("(written to {}/opt_gap.csv)\n", out_dir.display());
    Ok(())
}

fn run_conformance(
    out_dir: &Path,
    fast: bool,
    seed: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_conformance::{ConformanceConfig, Tier};

    println!("== Conformance matrix: sim / analytic / closed-form / optimizer oracles ==");
    let config = ConformanceConfig {
        seed,
        cases: if fast { 48 } else { 200 },
        budget: if fast { Tier::Smoke } else { Tier::Default },
        ..ConformanceConfig::default()
    };
    println!("(seed {}, {} cases, {} budget)", config.seed, config.cases, config.budget);
    let report = faultline_conformance::run(&config)?;
    print!("{}", report.render());
    fs::write(out_dir.join("conformance.csv"), report.to_csv())?;
    println!("(written to {}/conformance.csv)\n", out_dir.display());
    if !report.passed() {
        for (i, doc) in report.failures.iter().enumerate() {
            let path = out_dir.join(format!("counterexample_{}_{i}.json", doc.oracle));
            fs::write(&path, doc.to_json()?)?;
            println!("shrunk replayable counterexample written to {}", path.display());
        }
        return Err(format!(
            "{} oracle violations (replay with `faultline conformance replay <file>`)",
            report.failures.len()
        )
        .into());
    }
    Ok(())
}

/// Exact supremum vs adversarial-grid baseline for one fleet under
/// one geometry; errors if the two engines disagree beyond
/// [`faultline_conformance::EXACT_RTOL`].
fn geometry_row(
    case: &str,
    fleet: &faultline_core::coverage::Fleet,
    k: usize,
    xmax: f64,
    geometry: faultline_core::Geometry,
) -> Result<String, Box<dyn std::error::Error>> {
    use faultline_analysis::supremum::fleet_targets;
    use faultline_conformance::EXACT_RTOL;

    let scan = faultline_analysis::exact_supremum_geometry(fleet, k, xmax, geometry)?;
    let grid = fleet_targets(fleet, xmax, 96)?
        .iter()
        .filter(|&&x| geometry.admits_target(x))
        .map(|&x| fleet.visit_time(x, k).map_or(f64::INFINITY, |t| t / x.abs()))
        .fold(0.0f64, f64::max);
    let rel_gap = (scan.ratio - grid).abs() / grid.abs().max(1.0);
    if !(scan.ratio.is_finite() && grid.is_finite()) || rel_gap > EXACT_RTOL {
        return Err(format!(
            "{case} / {}: exact supremum {} vs grid baseline {} disagree \
             (rel gap {rel_gap:.3e} > {EXACT_RTOL:.0e})",
            geometry.label(),
            scan.ratio,
            grid
        )
        .into());
    }
    println!(
        "  {case:<24} {:<9}  exact CR {:.6}  grid {:.6}  rel gap {rel_gap:.2e}  argmax {:.4}",
        geometry.label(),
        scan.ratio,
        grid,
        scan.argmax
    );
    Ok(format!(
        "{case},{},{k},{xmax},{:.12e},{:.12e},{rel_gap:.3e},{:.12e}\n",
        geometry.label(),
        scan.ratio,
        grid,
        scan.argmax
    ))
}

fn run_scenario(out_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_core::coverage::Fleet;
    use faultline_core::Geometry;
    use faultline_scenario::ScenarioDoc;

    println!("== Scenario geometry: full-line vs half-line competitive ratios ==");
    let mut csv = String::from("case,geometry,k,xmax,exact_cr,grid_cr,rel_gap,argmax\n");

    // One Table-1 pair under both geometries: the half-line adversary
    // is strictly weaker (no negative side), so its supremum can
    // never be higher; both geometries must agree with the grid
    // baseline.
    let (n, f) = (3usize, 1usize);
    let params = Params::new(n, f)?;
    let xmax = 40.0;
    let strategy = faultline_analysis::resolve_strategy("paper", None)?;
    let plans = strategy.plans(params)?;
    let probe = strategy.horizon_hint(params, xmax * 1.01);
    let fleet = Fleet::from_plans(&plans, probe)?;
    let case = format!("A({n},{f})");
    csv.push_str(&geometry_row(&case, &fleet, f + 1, xmax, Geometry::Line)?);
    csv.push_str(&geometry_row(&case, &fleet, f + 1, xmax, Geometry::HalfLine)?);

    // The heterogeneous half-line example end-to-end: materialize the
    // document's wall-clock fleet (non-unit speeds), run the exact
    // engine on it, and simulate every declared target.
    let path = "examples/scenarios/half_line.json";
    let doc = ScenarioDoc::from_json(
        &fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e} (run repro from the repository root)"))?,
    )?;
    let doc_xmax = doc.scenario.targets.iter().fold(1.0f64, |a, &x| a.max(x.abs()));
    let (trajectories, _) = doc.materialize_fleet()?;
    let het = Fleet::new(trajectories)?;
    let visits = doc.scenario.f + 1;
    csv.push_str(&geometry_row("half_line.json", &het, visits, doc_xmax, Geometry::HalfLine)?);
    for result in doc.run()? {
        match result.detection_time {
            Some(t) => println!(
                "  target {:>5}: detected at t = {:.4} (ratio {:.4})",
                result.target, t, result.ratio
            ),
            None => println!("  target {:>5}: undetected within the horizon", result.target),
        }
    }

    fs::write(out_dir.join("scenario_geometry.csv"), csv)?;
    println!("(written to {}/scenario_geometry.csv)\n", out_dir.display());
    Ok(())
}

fn run_bench(
    quick: bool,
    out: Option<&str>,
    force: bool,
    against: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Perf baseline: canonical workloads, path comparison and work counts ==");
    if quick {
        println!("(--quick: reduced workloads, suitable for CI smoke)");
    }
    let baseline = faultline_bench::run_baseline(quick)?;
    println!(
        "host: {} cores ({}, {}), default engine threads {}",
        baseline.host.logical_cores,
        baseline.host.os,
        baseline.host.arch,
        baseline.host.default_threads
    );
    let rows: Vec<Vec<String>> = baseline
        .workloads
        .iter()
        .map(|w| vec![w.name.clone(), format!("{:.1}", w.wall_ms), w.detail.clone()])
        .collect();
    print!("{}", render_table(&["workload", "wall ms", "detail"], &rows));
    let rows: Vec<Vec<String>> = baseline
        .paths
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{:.1}", p.grid_ms),
                format!("{:.1}", p.exact_ms),
                format!("{:.2}x", p.speedup),
                p.detail.clone(),
            ]
        })
        .collect();
    print!("{}", render_table(&["path", "baseline ms", "fast ms", "speedup", "detail"], &rows));
    let rows: Vec<Vec<String>> = baseline
        .counts
        .iter()
        .map(|c| vec![c.name.clone(), c.value.to_string(), c.detail.clone()])
        .collect();
    print!("{}", render_table(&["work count", "value", "detail"], &rows));
    // Resolve before writing: create missing parent directories, and
    // refuse to clobber an existing baseline unless --force was given.
    let path =
        faultline_bench::resolve_out_path(out, &format!("BENCH_{}.json", baseline.date), force)?;
    fs::write(&path, serde_json::to_string_pretty(&baseline)? + "\n")?;
    println!("(baseline written to {})\n", path.display());
    if let Some(recorded_path) = against {
        println!("== Perf gate: vs recorded baseline {recorded_path} ==");
        let text = fs::read_to_string(recorded_path)
            .map_err(|e| format!("cannot read baseline `{recorded_path}`: {e}"))?;
        let recorded: faultline_bench::BenchBaseline = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse baseline `{recorded_path}`: {e}"))?;
        let comparison = faultline_bench::compare_baselines(&baseline, &recorded);
        for line in &comparison.lines {
            println!("  {line}");
        }
        if !comparison.passed() {
            return Err(format!(
                "perf gate failed: {} entr{} regressed beyond {:.0}% \
                 (re-record the baseline if the regression is intended)",
                comparison.regressions.len(),
                if comparison.regressions.len() == 1 { "y" } else { "ies" },
                faultline_bench::REGRESSION_TOLERANCE * 100.0
            )
            .into());
        }
        println!("perf gate passed.\n");
    }
    Ok(())
}

fn run_replay(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use faultline_sim::RunTrace;

    println!("== Replay: {path} ==");
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let trace = RunTrace::from_json(&text)?;
    println!("reason:   {}", trace.reason);
    println!(
        "fleet:    {} robots, fault plan [{}], seed {}",
        trace.trajectories.len(),
        trace.plan.iter().map(|k| k.name()).collect::<Vec<_>>().join(", "),
        trace.seed,
    );
    println!("target:   {}", trace.target);
    match trace.bound {
        Some(b) => println!("bound:    T_(f+1) = {b}"),
        None => println!("bound:    none recorded"),
    }
    match &trace.outcome.detection {
        Some(d) => println!("recorded: detected by a{} at t = {}", d.robot.0, d.time),
        None => println!("recorded: undetected within the horizon"),
    }
    trace.verify()?;
    println!("replay:   bit-for-bit identical to the recorded outcome.\n");
    Ok(())
}

fn main() {
    if let Err(e) = main_impl() {
        eprintln!("repro failed: {e}");
        std::process::exit(1);
    }
}
