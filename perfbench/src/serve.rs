//! The serve workloads: an in-process one-shard `ServerHandle` driven
//! over loopback by closed-loop keep-alive clients, one thread each.
//! Each client stores the digest of every response during the timed
//! phase; afterwards the benchmark regenerates the client's request
//! stream and checks every digest against an in-process reference.
//!
//! The traced ledger replays the same seeded request bytes,
//! single-threaded and without sockets, through `http::parse_request`
//! → `route` → `CrMemo::get` / `handlers::prepare` →
//! `ResponseCache::get` / `insert` → compute → `http::response_bytes`
//! → `Metrics::observe`, one span per stage.

use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use faultline_analysis::scenario::Scenario;
use faultline_analysis::supremum::SupremumQuery;
use faultline_core::CrQuery;
use faultline_serve::cache::ResponseCache;
use faultline_serve::client::{Response, Session};
use faultline_serve::handlers::{self, Prepared, SCENARIO_PRESETS};
use faultline_serve::http::{self, Parsed};
use faultline_serve::memo::CrMemo;
use faultline_serve::metrics::Metrics;
use faultline_serve::router::{route, Route, Routed};
use faultline_serve::{ServeConfig, ServerHandle, ServerState};

use crate::report::Outcome;
use crate::stats::{self, fnv1a};
use crate::trace::Tracer;
use crate::workload::{self, Mix, Request, Stream, CLIENTS, WARMUP_STREAM};
use crate::Args;

/// The response-cache budget of both serve workloads: far above the
/// hot mix's few computed answers, far below the cold mix's stream of
/// distinct ones, so after warm-up every cold insert evicts.
const CACHE_BYTES: usize = 256 * 1024;
/// Independently locked cache shards; each holds a quarter of the
/// budget.
const CACHE_SHARDS: usize = 4;
/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Socket phase of a traced run on its own workload.
const TRACE_SOCKET_S: f64 = 3.0;
/// Socket phase of a traced run on the other serve workload.
const TRACE_SOCKET_OTHER_S: f64 = 1.0;
/// The `/healthz` body, as the server writes it.
const HEALTHZ_BODY: &[u8] = b"{\"status\": \"ok\"}\n";
/// Replay spans whose times serve_hot reports.
const HOT_TIMED: [&str; 6] = [
    "http.parse",
    "router.route",
    "memo.get",
    "cache.get",
    "http.response_bytes",
    "metrics.observe",
];
/// Replay spans whose allocations serve_hot reports.
const HOT_ALLOCS: [&str; 7] = [
    "http.parse",
    "router.route",
    "memo.get",
    "handlers.prepare",
    "cache.get",
    "http.response_bytes",
    "metrics.observe",
];
/// Replay spans whose times serve_cold reports; the last two are
/// compute samples outside the chain.
const COLD_TIMED: [&str; 5] =
    ["handlers.prepare", "handlers.compute", "cache.insert", "analysis.supremum", "scenario.run"];
/// Replay spans whose allocations serve_cold reports.
const COLD_ALLOCS: [&str; 2] = ["handlers.compute", "cache.insert"];

/// Warm-up requests per client: hot repeats its mix until every path
/// has run; cold overfills the cache budget.
fn warmup_per_client(mix: Mix) -> usize {
    match mix {
        Mix::Hot => 2000,
        Mix::Cold => 500,
    }
}

/// Responses per pass. `solve_s` is the median wall time of a pass,
/// and `latency_p99_ms` the median of the passes' p99: a burst of
/// interference from outside moves a few passes, not the median. A
/// pass is long enough that its p99 has ten samples beyond it.
fn pass_len(mix: Mix) -> usize {
    match mix {
        Mix::Hot => 4096,
        Mix::Cold => 1024,
    }
}

/// Requests a traced run replays, on its own workload and on the other.
fn replay_len(mix: Mix, home: bool) -> usize {
    match (mix, home) {
        (Mix::Hot, true) => 10_000,
        (Mix::Hot, false) => 2_000,
        (Mix::Cold, true) => 400,
        (Mix::Cold, false) => 100,
    }
}

/// The one server configuration both serve workloads use.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_bytes: CACHE_BYTES,
        cache_shards: CACHE_SHARDS,
        ..ServeConfig::default()
    }
}

/// Which serving tier answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// The precomputed `/v1/cr` lattice.
    Memo,
    /// A response-cache hit.
    Hit,
    /// A cache miss that computed.
    Miss,
    /// `/healthz`, answered from a literal.
    Static,
}

impl Tier {
    const ALL: [Tier; 4] = [Tier::Memo, Tier::Hit, Tier::Miss, Tier::Static];

    fn of(response: &Response) -> Tier {
        match response.header("x-cache") {
            Some("memo") => Tier::Memo,
            Some("hit") => Tier::Hit,
            Some(_) => Tier::Miss,
            None => Tier::Static,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Tier::Memo => "memo",
            Tier::Hit => "hit",
            Tier::Miss => "miss",
            Tier::Static => "static",
        }
    }
}

/// One response as its client saw it; `status` 0 is a transport error.
#[derive(Debug, Clone, Copy)]
struct Observation {
    latency_ns: u64,
    done_ns: u64,
    digest: u64,
    status: u16,
    tier: Tier,
}

/// The server's own counters, read from its `ServerState`.
#[derive(Debug, Clone, Copy)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    insertions: u64,
    live_entries: u64,
    live_bytes: u64,
    memo_hits: u64,
    pool_jobs: u64,
    coalesced: u64,
    connections: u64,
    keepalive_reuses: u64,
}

impl Counters {
    fn read(state: &ServerState) -> Counters {
        Counters {
            cache_hits: state.cache.hits(),
            cache_misses: state.cache.misses(),
            insertions: state.cache.insertions(),
            live_entries: state.cache.live_entries() as u64,
            live_bytes: state.cache.live_bytes() as u64,
            memo_hits: state.metrics.memo_hits(),
            pool_jobs: state.metrics.pool_jobs(),
            coalesced: state.metrics.coalesced_requests(),
            connections: state.metrics.connections(),
            keepalive_reuses: state.metrics.keepalive_reuses(),
        }
    }

    /// Entries evicted since the cache was built. The workloads insert
    /// each key once, so every insertion no longer live was evicted.
    fn evictions(&self) -> u64 {
        self.insertions.saturating_sub(self.live_entries)
    }
}

/// A timed closed-loop run against one server.
struct TimedRun {
    wall_s: f64,
    /// One log per client, in the order of its stream.
    logs: Vec<Vec<Observation>>,
    before: Counters,
    after: Counters,
}

impl TimedRun {
    fn completed(&self) -> impl Iterator<Item = &Observation> {
        self.logs.iter().flatten().filter(|o| o.status != 0)
    }

    fn tier_count(&self, tier: Tier) -> usize {
        self.completed().filter(|o| o.tier == tier).count()
    }

    /// Socket latencies in microseconds, of one tier or of all.
    fn latencies_us(&self, tier: Option<Tier>) -> Vec<f64> {
        self.completed()
            .filter(|o| tier.is_none_or(|t| o.tier == t))
            .map(|o| o.latency_ns as f64 / 1e3)
            .collect()
    }
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Drives one closed-loop keep-alive client through its stream until
/// `deadline`.
fn drive(
    addr: &str,
    mix: Mix,
    seed: u64,
    stream: u64,
    origin: Instant,
    deadline: Instant,
) -> Vec<Observation> {
    let mut session = Session::new(addr);
    let mut log = Vec::with_capacity(1 << 16);
    for request in Stream::new(mix, seed, stream) {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        let result = session.request(request.method, &request.path, request.body.as_deref());
        let done = Instant::now();
        let (digest, status, tier) = match &result {
            Ok(response) => (fnv1a(&response.body), response.status, Tier::of(response)),
            Err(_) => (0, 0, Tier::Miss),
        };
        log.push(Observation {
            latency_ns: nanos(done - start),
            done_ns: nanos(done - origin),
            digest,
            status,
            tier,
        });
    }
    log
}

/// Sends `requests` over one keep-alive session; returns how many did
/// not answer 200.
fn exchange(addr: &str, requests: impl Iterator<Item = Request>) -> usize {
    let mut session = Session::new(addr);
    requests
        .filter(|r| {
            !matches!(session.request(r.method, &r.path, r.body.as_deref()),
                      Ok(response) if response.status == 200)
        })
        .count()
}

/// Runs `client(stream)` on one thread per client; results in client
/// order.
fn per_client<T: Send>(client: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let client = &client;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64).map(|c| scope.spawn(move || client(c))).collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    })
}

/// Warms a fresh server: every computed key of the hot mix once, then
/// each client's warm-up stream.
fn warm_up(addr: &str, mix: Mix, seed: u64) -> Result<(), String> {
    let mut failed = match mix {
        Mix::Hot => exchange(addr, workload::hot_compute_requests().into_iter()),
        Mix::Cold => 0,
    };
    failed += per_client(|c| {
        exchange(addr, Stream::new(mix, seed, WARMUP_STREAM + c).take(warmup_per_client(mix)))
    })
    .into_iter()
    .sum::<usize>();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} warm-up requests did not answer 200"))
    }
}

/// Spawns and warms one server; returns it with its set-up time: spawn,
/// memo build and warm-up.
fn set_up(mix: Mix, seed: u64) -> Result<(ServerHandle, f64), String> {
    let start = Instant::now();
    let server =
        ServerHandle::spawn(config()).map_err(|e| format!("cannot spawn the server: {e}"))?;
    warm_up(&server.addr().to_string(), mix, seed)?;
    Ok((server, start.elapsed().as_secs_f64()))
}

fn timed(server: &ServerHandle, mix: Mix, seed: u64, seconds: f64) -> TimedRun {
    let state = server.state();
    let addr = server.addr().to_string();
    let before = Counters::read(&state);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let logs = per_client(|c| drive(&addr, mix, seed, c, origin, deadline));
    let wall_s = origin.elapsed().as_secs_f64();
    TimedRun { wall_s, logs, before, after: Counters::read(&state) }
}

/// A measured run: `SETUP_REPS` set-ups, the last server timed for
/// `args.seconds`, then every response checked and the workload's
/// defining property asserted.
///
/// # Errors
///
/// Fails when a server cannot spawn or its warm-up fails.
pub fn measure(mix: Mix, args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            ServerHandle::shutdown(previous);
        }
        let (next, seconds) = set_up(mix, args.seed)?;
        setups.push(seconds);
        server = Some(next);
    }
    let server = server.expect("SETUP_REPS is positive");
    // Read before timing: the clients' logs grow with throughput and
    // would otherwise dominate the figure.
    let peak_rss_mb = stats::peak_rss_mb()?;
    let run = timed(&server, mix, args.seed, args.seconds);
    server.shutdown();

    let mut outcome = Outcome::default();
    verify(&mut outcome, mix, args.seed, &run);
    check_purpose(&mut outcome, mix, &run);
    let mut completions: Vec<(u64, f64)> =
        run.completed().map(|o| (o.done_ns, o.latency_ns as f64 / 1e6)).collect();
    completions.sort_by_key(|&(done_ns, _)| done_ns);
    let latencies_ms: Vec<f64> = completions.iter().map(|&(_, latency)| latency).collect();
    let passes = stats::passes(&completions, pass_len(mix));
    if passes.is_empty() {
        outcome.problem(format!("fewer than {} responses: no full pass", pass_len(mix)));
    }
    let tails: Vec<f64> = passes.iter().map(|pass| pass.tail.value).collect();
    let seconds: Vec<f64> = passes.iter().map(|pass| pass.seconds).collect();
    let of_passes = format!("median of {} passes of {} responses", passes.len(), pass_len(mix));
    outcome.metric("throughput_rps", latencies_ms.len() as f64 / run.wall_s, "1/s");
    outcome.metric("latency_p50_ms", stats::median(&latencies_ms), "ms");
    let tail = passes.first().map_or_else(String::new, |pass| pass.tail.describe());
    outcome.metric_noted(
        "latency_p99_ms",
        stats::median(&tails),
        "ms",
        format!("{of_passes}, each pass's {tail}"),
    );
    outcome.metric_noted("solve_s", stats::median(&seconds), "s", of_passes);
    outcome.metric_noted(
        "setup_s",
        stats::median(&setups),
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    );
    outcome.metric_noted("peak_rss_mb", peak_rss_mb, "MB", "VmHWM once set up".to_owned());
    Ok(outcome)
}

/// Checks every stored response against the reference body of its
/// regenerated request, one thread per client.
fn verify(outcome: &mut Outcome, mix: Mix, seed: u64, run: &TimedRun) {
    for (count, failures) in per_client(|c| check_client(mix, seed, c, &run.logs[c as usize])) {
        outcome.checked(count, failures);
    }
}

/// One client's failures, against its regenerated stream.
fn check_client(mix: Mix, seed: u64, stream: u64, log: &[Observation]) -> (u64, Vec<String>) {
    let mut references: HashMap<Request, Result<u64, String>> = HashMap::new();
    let mut failures = Vec::new();
    for (index, (observed, request)) in log.iter().zip(Stream::new(mix, seed, stream)).enumerate() {
        if !references.contains_key(&request) {
            let digest = reference_body(&request).map(|body| fnv1a(&body));
            references.insert(request.clone(), digest);
        }
        let problem = match &references[&request] {
            _ if observed.status == 0 => Some("transport error".to_owned()),
            _ if observed.status != 200 => Some(format!("status {}", observed.status)),
            Err(error) => Some(format!("no reference: {error}")),
            Ok(digest) if *digest != observed.digest => {
                Some("body differs from the reference".to_owned())
            }
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            failures.push(format!(
                "client {stream} request {index} ({} {}): {problem}",
                request.method, request.path
            ));
        }
    }
    (log.len() as u64, failures)
}

/// The body the server must answer `request` with, computed in process
/// by the same handlers: `cr_body` for `/v1/cr`, `prepare(..)` and its
/// compute for the other compute routes, the literal for `/healthz`.
fn reference_body(request: &Request) -> Result<Vec<u8>, String> {
    let wire = request.wire("reference");
    let Parsed::Ready { request: parsed, .. } = http::parse_request(&wire) else {
        return Err("the request bytes do not parse".to_owned());
    };
    match route(&parsed.method, &parsed.path) {
        Routed::Matched(Route::Healthz) => Ok(HEALTHZ_BODY.to_vec()),
        Routed::Matched(Route::Cr) => {
            let param = |name: &str| {
                parsed
                    .query_param(name)
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("bad `{name}`"))
            };
            handlers::cr_body(&CrQuery { n: param("n")?, f: param("f")? })
                .map_err(|e| e.to_string())
        }
        Routed::Matched(matched) => {
            let Prepared { compute, .. } =
                handlers::prepare(matched, &parsed).map_err(|e| e.to_string())?;
            compute().map_err(|e| e.to_string())
        }
        Routed::MethodNotAllowed(_) | Routed::NotFound => {
            Err("the request does not route".to_owned())
        }
    }
}

/// Notes the server's counters over the timed phase and asserts the
/// property the workload exists for.
fn check_purpose(outcome: &mut Outcome, mix: Mix, run: &TimedRun) {
    let (b, a) = (run.before, run.after);
    outcome.note(format!(
        "server counters over the timed phase: cache hits {}, misses {}, insertions {}, \
         live bytes {}; memo hits {}; pool jobs {}; coalesced {}; connections {}; \
         keep-alive reuses {}; evictions since start {}",
        a.cache_hits - b.cache_hits,
        a.cache_misses - b.cache_misses,
        a.insertions - b.insertions,
        a.live_bytes,
        a.memo_hits - b.memo_hits,
        a.pool_jobs - b.pool_jobs,
        a.coalesced - b.coalesced,
        a.connections - b.connections,
        a.keepalive_reuses - b.keepalive_reuses,
        a.evictions(),
    ));
    let completed = run.completed().count().max(1) as f64;
    let share = |tier| run.tier_count(tier) as f64 / completed;
    outcome.note(format!(
        "tier shares: memo {:.4}, hit {:.4}, miss {:.4}, static {:.4}",
        share(Tier::Memo),
        share(Tier::Hit),
        share(Tier::Miss),
        share(Tier::Static)
    ));
    match mix {
        Mix::Hot => {
            let inline = 1.0 - share(Tier::Miss);
            if inline < 0.99 {
                outcome.problem(format!(
                    "serve_hot answered only {inline:.4} of requests without computing \
                     (memo, hit or /healthz); it must be at least 0.99"
                ));
            }
        }
        Mix::Cold => {
            let hits = a.cache_hits - b.cache_hits;
            if hits > 0 || run.tier_count(Tier::Hit) + run.tier_count(Tier::Memo) > 0 {
                outcome.problem(format!("serve_cold saw {hits} cache hits; every key must be new"));
            }
            if a.evictions() == 0 {
                outcome
                    .problem("serve_cold never evicted: warm-up did not fill the cache".to_owned());
            }
        }
    }
}

/// The serve section of the traced ledger for one mix: a short socket
/// phase for the server's counters and each tier's socket latency, then
/// the single-threaded replay of the same request bytes. `home` is
/// whether the mix is the run's own workload, which gets the longer
/// phase and replay.
///
/// # Errors
///
/// Fails when the server cannot spawn or warm up, or a replayed
/// request fails to parse, route or compute.
pub fn trace(mix: Mix, args: &Args, home: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (server, _) = set_up(mix, args.seed)?;
    let host = server.addr().to_string();
    let socket_s = if home { TRACE_SOCKET_S.min(args.seconds) } else { TRACE_SOCKET_OTHER_S };
    let run = timed(&server, mix, args.seed, socket_s);
    server.shutdown();
    let mut outcome = Outcome::default();
    verify(&mut outcome, mix, args.seed, &run);
    check_purpose(&mut outcome, mix, &run);
    let first = tracer.next_index();
    let (replayed, layers) =
        replay(&mut outcome, tracer, mix, args.seed, &host, replay_len(mix, home))?;
    let spans = first..tracer.next_index();
    match mix {
        Mix::Hot => hot_layers(&mut outcome, tracer, spans, &run, &replayed),
        Mix::Cold => cold_layers(&mut outcome, tracer, spans, &run, &replayed, &layers),
    }
    Ok(outcome)
}

/// The layers a replay drives: the server's memo, cache and metrics
/// types, built from the same configuration.
struct Layers {
    memo: CrMemo,
    cache: ResponseCache,
    metrics: Metrics,
}

impl Layers {
    fn build() -> Layers {
        let config = config();
        Layers {
            memo: CrMemo::build(config.memo_max_n),
            cache: ResponseCache::new(config.cache_bytes, config.cache_shards),
            metrics: Metrics::new(config.resolved_threads()),
        }
    }
}

/// One replayed request: its tier, and the summed time and allocations
/// of its stages.
struct Replayed {
    tier: Tier,
    stages_ns: u64,
    allocs: u64,
}

/// Warms fresh layers as set-up warms the server, then replays `count`
/// requests of the timed clients' streams, interleaved, checking each
/// body against the reference.
fn replay(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    mix: Mix,
    seed: u64,
    host: &str,
    count: usize,
) -> Result<(Vec<Replayed>, Layers), String> {
    let layers = Layers::build();
    let mut warm = match mix {
        Mix::Hot => workload::hot_compute_requests(),
        Mix::Cold => Vec::new(),
    };
    for c in 0..CLIENTS as u64 {
        warm.extend(Stream::new(mix, seed, WARMUP_STREAM + c).take(warmup_per_client(mix)));
    }
    let mut scratch = Tracer::start();
    for (id, request) in warm.iter().enumerate() {
        replay_one(&layers, &mut scratch, id as u64, &request.wire(host))?;
    }

    let mut streams: Vec<Stream> = (0..CLIENTS as u64).map(|c| Stream::new(mix, seed, c)).collect();
    let mut references: HashMap<Request, Result<u64, String>> = HashMap::new();
    let mut replayed = Vec::with_capacity(count);
    let mut failures = Vec::new();
    for id in 0..count as u64 {
        let request = streams[id as usize % CLIENTS].next().expect("streams are endless");
        let (one, digest) = replay_one(&layers, tracer, id, &request.wire(host))?;
        if !references.contains_key(&request) {
            let reference = reference_body(&request).map(|body| fnv1a(&body));
            references.insert(request.clone(), reference);
        }
        if references[&request] != Ok(digest) {
            failures.push(format!(
                "replayed request {id} ({} {}): body differs from the reference",
                request.method, request.path
            ));
        }
        if mix == Mix::Cold {
            sample_compute(tracer, id, &request)?;
        }
        replayed.push(one);
    }
    outcome.checked(count as u64, failures);
    Ok((replayed, layers))
}

/// Replays one request's bytes through the serving chain the way the
/// event loop serves it, one span per stage under a root span; returns
/// the request's record and the digest of its body.
fn replay_one(
    layers: &Layers,
    tracer: &mut Tracer,
    id: u64,
    wire: &[u8],
) -> Result<(Replayed, u64), String> {
    let root = tracer.open(id, None, "request");
    let received = Instant::now();
    let parsed = tracer.span(id, Some(root), "http.parse", || http::parse_request(wire));
    let Parsed::Ready { request, .. } = parsed else {
        return Err(format!("replayed request {id} does not parse"));
    };
    let routed =
        tracer.span(id, Some(root), "router.route", || route(&request.method, &request.path));
    let Routed::Matched(matched) = routed else {
        return Err(format!("replayed request {id} does not route"));
    };
    let memoized = if matched == Route::Cr {
        tracer.span(id, Some(root), "memo.get", || {
            let param =
                |name: &str| request.query_param(name).and_then(|v| v.parse::<usize>().ok());
            param("n").zip(param("f")).and_then(|(n, f)| layers.memo.get(n, f))
        })
    } else {
        None
    };
    let (tier, body): (Tier, Arc<[u8]>) = if matched == Route::Healthz {
        (Tier::Static, Arc::from(HEALTHZ_BODY))
    } else if let Some(body) = memoized {
        (Tier::Memo, body)
    } else {
        let Prepared { cache_key, compute } = tracer
            .span(id, Some(root), "handlers.prepare", || handlers::prepare(matched, &request))
            .map_err(|e| format!("replayed request {id}: {e}"))?;
        match tracer.span(id, Some(root), "cache.get", || layers.cache.get(&cache_key)) {
            Some(body) => (Tier::Hit, body),
            None => {
                let body = tracer
                    .span(id, Some(root), "handlers.compute", compute)
                    .map_err(|e| format!("replayed request {id}: {e}"))?;
                tracer.span(id, Some(root), "cache.insert", || {
                    layers
                        .cache
                        .insert(cache_key.clone(), Arc::from(body.clone().into_boxed_slice()));
                });
                (Tier::Miss, Arc::from(body))
            }
        }
    };
    let keep_alive = request.keep_alive;
    let response = tracer.span(id, Some(root), "http.response_bytes", || match tier {
        Tier::Static => http::response_bytes(200, "application/json", &[], &body, keep_alive),
        _ => http::response_bytes(
            200,
            "application/json",
            &[("X-Cache", tier.label().to_owned())],
            &body,
            keep_alive,
        ),
    });
    black_box(response);
    tracer.span(id, Some(root), "metrics.observe", || {
        if tier == Tier::Memo {
            layers.metrics.memo_hit();
        }
        layers.metrics.observe(matched.label(), 200, received.elapsed());
    });
    tracer.close(root);
    let stages_ns = tracer.children(root).map(|span| span.end_ns - span.start_ns).sum();
    let allocs = tracer.get(root).allocs;
    Ok((Replayed { tier, stages_ns, allocs }, fnv1a(&body)))
}

/// Times the compute layer a cold request reaches, outside the chain:
/// `SupremumQuery::run`, or `Scenario::run`, which includes the
/// simulator.
fn sample_compute(tracer: &mut Tracer, id: u64, request: &Request) -> Result<(), String> {
    if let Some((name, seed)) = request.preset {
        let json = SCENARIO_PRESETS
            .iter()
            .find(|(preset, _)| *preset == name)
            .map(|(_, json)| *json)
            .ok_or_else(|| format!("no preset `{name}`"))?;
        let mut scenario = Scenario::from_json(json).map_err(|e| e.to_string())?;
        scenario.seed = Some(seed);
        let results = tracer.span(id, None, "scenario.run", || scenario.run());
        black_box(results.map_err(|e| e.to_string())?);
    } else if let Some(body) = &request.body {
        let query: SupremumQuery = serde_json::from_str(body).map_err(|e| e.to_string())?;
        let report = tracer.span(id, None, "analysis.supremum", || query.run());
        black_box(report.map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Median allocations per replayed request, of one tier or of all.
fn allocs_per_request(replayed: &[Replayed], tier: Option<Tier>) -> f64 {
    let allocs: Vec<f64> = replayed
        .iter()
        .filter(|r| tier.is_none_or(|t| r.tier == t))
        .map(|r| r.allocs as f64)
        .collect();
    stats::median(&allocs)
}

/// Socket p50 minus the replay's summed stage time (its trimmed mean),
/// in microseconds, of one tier or of all: the time spent in the
/// event loop, the kernel and the client.
fn residual_us(run: &TimedRun, replayed: &[Replayed], tier: Option<Tier>) -> f64 {
    let stages: Vec<f64> = replayed
        .iter()
        .filter(|r| tier.is_none_or(|t| r.tier == t))
        .map(|r| r.stages_ns as f64 / 1e3)
        .collect();
    stats::median(&run.latencies_us(tier)) - stats::trimmed_mean(&stages)
}

fn stage_metrics(
    outcome: &mut Outcome,
    tracer: &Tracer,
    spans: &Range<usize>,
    timed: &[&str],
    allocs: &[&str],
) {
    for stage in timed {
        let micros = tracer.micros(spans.clone(), stage);
        outcome.metric(format!("{stage}_us"), stats::trimmed_mean(&micros), "us");
    }
    for stage in allocs {
        outcome.metric(
            format!("alloc.{stage}"),
            stats::median(&tracer.allocs(spans.clone(), stage)),
            "count",
        );
    }
}

fn hot_layers(
    outcome: &mut Outcome,
    tracer: &Tracer,
    spans: Range<usize>,
    run: &TimedRun,
    replayed: &[Replayed],
) {
    stage_metrics(outcome, tracer, &spans, &HOT_TIMED, &HOT_ALLOCS);
    outcome.metric("alloc.per_request", allocs_per_request(replayed, None), "count");
    outcome.metric("server.residual_us", residual_us(run, replayed, None), "us");
    for tier in [Tier::Memo, Tier::Hit, Tier::Static] {
        let label = tier.label();
        outcome.metric(
            format!("alloc.per_request.{label}"),
            allocs_per_request(replayed, Some(tier)),
            "count",
        );
        outcome.metric(
            format!("server.residual_us.{label}"),
            residual_us(run, replayed, Some(tier)),
            "us",
        );
    }
    let count = |tier| replayed.iter().filter(|r| r.tier == tier).count() as f64;
    for tier in Tier::ALL {
        outcome.metric(
            format!("tier.{}_share", tier.label()),
            count(tier) / replayed.len().max(1) as f64,
            "ratio",
        );
    }
    let lookups = (count(Tier::Hit) + count(Tier::Miss)).max(1.0);
    outcome.metric("cache.hit_ratio", count(Tier::Hit) / lookups, "ratio");
}

fn cold_layers(
    outcome: &mut Outcome,
    tracer: &Tracer,
    spans: Range<usize>,
    run: &TimedRun,
    replayed: &[Replayed],
    layers: &Layers,
) {
    stage_metrics(outcome, tracer, &spans, &COLD_TIMED, &COLD_ALLOCS);
    outcome.metric(
        "alloc.per_request.miss",
        allocs_per_request(replayed, Some(Tier::Miss)),
        "count",
    );
    outcome.metric("server.residual_us.miss", residual_us(run, replayed, Some(Tier::Miss)), "us");
    let evictions = layers.cache.insertions().saturating_sub(layers.cache.live_entries() as u64);
    outcome.metric("cache.evictions", evictions as f64, "count");
    let (b, a) = (run.before, run.after);
    outcome.metric("pool.jobs", (a.pool_jobs - b.pool_jobs) as f64, "count");
    outcome.metric("flight.coalesced", (a.coalesced - b.coalesced) as f64, "count");
    let per_request =
        (a.connections - b.connections) as f64 / run.completed().count().max(1) as f64;
    outcome.metric("server.connections_per_req", per_request, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_replays_to_the_same_tier_counts() {
        let tiers = |seed| {
            let mut outcome = Outcome::default();
            let (replayed, _) =
                replay(&mut outcome, &mut Tracer::start(), Mix::Hot, seed, "localhost", 600)
                    .expect("the hot mix replays");
            assert_eq!((outcome.attempted, outcome.failed), (600, 0), "{:?}", outcome.problems);
            Tier::ALL.map(|tier| replayed.iter().filter(|r| r.tier == tier).count())
        };
        let counts = tiers(3);
        assert_eq!(counts, tiers(3));
        assert_eq!(counts[2], 0, "warm-up leaves no misses: {counts:?}");
        assert!(counts[0] > 0 && counts[1] > 0 && counts[3] > 0, "{counts:?}");
    }
}
