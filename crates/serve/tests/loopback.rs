//! Loopback integration tests: a real server on `127.0.0.1:0`, spoken
//! to over raw `TcpStream`s through the bundled client. Saturation and
//! drain sequencing is driven by the server's own gauges (never by
//! sleeps alone), so the tests are deterministic on slow machines.

use std::time::{Duration, Instant};

use faultline_serve::client::{self, Response, Session};
use faultline_serve::{ServeConfig, ServerHandle};

/// An optimize body slow enough (about 200 ms in release) to hold a
/// worker while the test sequences saturation around it.
const SLOW_OPTIMIZE: &str = r#"{"n": 41, "f": 20, "budget": "tiny", "seed": 1}"#;
/// Same workload, another seed: a distinct cache entry.
const SLOW_OPTIMIZE_B: &str = r#"{"n": 41, "f": 20, "budget": "tiny", "seed": 2}"#;

fn spawn(config: ServeConfig) -> (ServerHandle, String) {
    let handle = ServerHandle::spawn(ServeConfig { addr: "127.0.0.1:0".to_owned(), ..config })
        .expect("bind on a free port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn get(addr: &str, path: &str) -> Response {
    client::query(addr, "GET", path, None).expect("loopback GET")
}

fn post(addr: &str, path: &str, body: &str) -> Response {
    client::query(addr, "POST", path, Some(body)).expect("loopback POST")
}

/// Polls `condition` until it holds or `deadline` elapses.
fn wait_for(what: &str, deadline: Duration, mut condition: impl FnMut() -> bool) {
    let start = Instant::now();
    while !condition() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn health_cr_and_404s() {
    let (handle, addr) = spawn(ServeConfig::default());
    assert_eq!(get(&addr, "/healthz").status, 200);

    let cr = get(&addr, "/v1/cr?n=3&f=1");
    assert_eq!(cr.status, 200);
    assert!(cr.text().contains("\"cr_upper\""));

    assert_eq!(get(&addr, "/nope").status, 404);
    assert_eq!(post(&addr, "/v1/cr", "{}").status, 405);
    assert_eq!(get(&addr, "/v1/cr?n=3").status, 400);
    handle.shutdown();
}

#[test]
fn a_fleet_over_the_ceiling_is_refused_and_the_server_stays_up() {
    let (handle, addr) = spawn(ServeConfig { threads: Some(1), ..ServeConfig::default() });
    // Computed, this fleet would abort the process allocating its plans.
    let refused = post(&addr, "/v1/supremum", r#"{"n": 1125899906842624, "f": 1}"#);
    assert_eq!(refused.status, 400, "{}", refused.text());
    assert!(refused.text().contains("at most 4096 robots"), "{}", refused.text());
    assert_eq!(get(&addr, "/healthz").status, 200, "the server is still up");
    assert_eq!(handle.state().metrics.pool_jobs(), 0, "refused before computing");
    handle.shutdown();
}

#[test]
fn work_no_worker_can_finish_is_refused_and_the_server_stays_up() {
    let (handle, addr) = spawn(ServeConfig { threads: Some(1), ..ServeConfig::default() });
    // Computed, this cone would grow one waypoint vector without bound.
    let body = r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e10, "targets": [5.0]}"#;
    let refused = post(&addr, "/v1/scenario", body);
    assert_eq!(refused.status, 400, "{}", refused.text());
    assert!(refused.text().contains("8.6e11 work units, over the 7.5e8"), "{}", refused.text());
    let body = r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e10}"#;
    let refused = post(&addr, "/v1/supremum", body);
    assert_eq!(refused.status, 400, "{}", refused.text());
    assert!(refused.text().contains("7.0e11 work units"), "{}", refused.text());
    assert_eq!(get(&addr, "/healthz").status, 200, "the server is still up");
    assert_eq!(handle.state().metrics.pool_jobs(), 0, "refused before parking");
    // Under the limit (8.6e7 units), a slow cone still parks and answers.
    let body = r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e6, "targets": [5.0]}"#;
    let answered = post(&addr, "/v1/scenario", body);
    assert_eq!(answered.status, 200, "{}", answered.text());
    assert_eq!(handle.state().metrics.pool_jobs(), 1, "parked on the pool");
    handle.shutdown();
}

#[test]
fn cache_hits_are_byte_identical_and_metrics_move() {
    let (handle, addr) = spawn(ServeConfig::default());

    let fresh = post(&addr, "/v1/scenario", r#"{"name": "smoke"}"#);
    assert_eq!(fresh.status, 200);
    assert_eq!(fresh.header("X-Cache"), Some("miss"));

    // Different spelling (whitespace, field order) of the same request
    // must hit the cache and return the exact same bytes.
    let cached = post(&addr, "/v1/scenario", r#"{  "name":"smoke"   }"#);
    assert_eq!(cached.status, 200);
    assert_eq!(cached.header("X-Cache"), Some("hit"));
    assert_eq!(cached.body, fresh.body, "cache hit is byte-identical");

    // Distinct seeds are distinct entries: a fresh computation, not a
    // hit on the unseeded run.
    let seeded = post(&addr, "/v1/scenario", r#"{"name": "randomized", "seed": 7}"#);
    assert_eq!(seeded.status, 200);
    assert_eq!(seeded.header("X-Cache"), Some("miss"));
    let reseeded = post(&addr, "/v1/scenario", r#"{"seed": 8, "name": "randomized"}"#);
    assert_eq!(reseeded.header("X-Cache"), Some("miss"), "seed 8 is not seed 7");
    assert_ne!(seeded.body, reseeded.body, "different seeds explore different sweeps");

    let metrics = get(&addr, "/metrics").text();
    assert!(
        metrics.contains("faultline_requests_total{route=\"/v1/scenario\",status=\"200\"} 4"),
        "scenario requests counted: {metrics}"
    );
    assert!(metrics.contains("faultline_cache_hits_total 1"), "one hit: {metrics}");
    assert!(metrics.contains("faultline_cache_misses_total 3"), "three misses: {metrics}");
    assert!(metrics.contains("faultline_request_latency_us_count"), "histogram rendered");
    handle.shutdown();
}

#[test]
fn optimize_route_caches_resolved_configs() {
    let (handle, addr) = spawn(ServeConfig::default());

    let body = r#"{"n": 3, "f": 1, "budget": "tiny", "xmax": 8.0, "grid_points": 12}"#;
    let fresh = post(&addr, "/v1/optimize", body);
    assert_eq!(fresh.status, 200, "optimize failed: {}", fresh.text());
    assert_eq!(fresh.header("X-Cache"), Some("miss"));
    assert!(fresh.text().contains("\"best_found_cr\""));
    assert!(fresh.text().contains("\"crosscheck\""));

    // A reordered spelling of the same resolved run is a byte-identical
    // cache hit.
    let reordered = r#"{"xmax": 8.0, "f": 1, "grid_points": 12, "budget": "tiny", "n": 3}"#;
    let cached = post(&addr, "/v1/optimize", reordered);
    assert_eq!(cached.status, 200);
    assert_eq!(cached.header("X-Cache"), Some("hit"));
    assert_eq!(cached.body, fresh.body);

    // Wrong method and invalid pairs mirror the other POST routes.
    assert_eq!(get(&addr, "/v1/optimize").status, 405);
    assert_eq!(post(&addr, "/v1/optimize", r#"{"n": 2, "f": 3}"#).status, 400);

    let metrics = get(&addr, "/metrics").text();
    assert!(
        metrics.contains("faultline_requests_total{route=\"/v1/optimize\",status=\"200\"} 2"),
        "optimize requests counted per route: {metrics}"
    );
    handle.shutdown();
}

#[test]
fn saturated_queue_answers_503_while_light_routes_stay_up() {
    let config = ServeConfig {
        threads: Some(1),
        queue_capacity: 1,
        request_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    };
    let (handle, addr) = spawn(config);
    let state = handle.state();

    // Occupy the single worker...
    let addr_a = addr.clone();
    let slow_a = std::thread::spawn(move || post(&addr_a, "/v1/optimize", SLOW_OPTIMIZE));
    wait_for("the worker to pick up the slow job", Duration::from_secs(30), || {
        state.metrics.workers_busy() == 1
    });

    // ...fill the only queue slot...
    let addr_b = addr.clone();
    let slow_b = std::thread::spawn(move || post(&addr_b, "/v1/optimize", SLOW_OPTIMIZE_B));
    wait_for("the queue slot to fill", Duration::from_secs(30), || state.pool.queue_depth() == 1);

    // ...and the next heavy miss must bounce with backpressure.
    let rejected = get(&addr, "/v1/table1?measure=true");
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.header("Retry-After"), Some("1"));

    // Light routes and cache hits keep answering under saturation.
    assert_eq!(get(&addr, "/healthz").status, 200);
    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("faultline_rejected_total 1"));

    let a = slow_a.join().expect("no panic");
    let b = slow_b.join().expect("no panic");
    assert_eq!(a.status, 200, "in-flight work completed: {}", a.text());
    assert_eq!(b.status, 200, "queued work completed: {}", b.text());
    handle.shutdown();
}

#[test]
fn deadline_expiry_answers_504_and_still_warms_the_cache() {
    let config = ServeConfig {
        threads: Some(1),
        request_timeout: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let (handle, addr) = spawn(config);
    let state = handle.state();

    let timed_out = post(&addr, "/v1/optimize", SLOW_OPTIMIZE);
    assert_eq!(timed_out.status, 504, "slower than the 10ms deadline");

    // The abandoned computation finishes in the background and inserts
    // its result, so the retry is an instant, inline cache hit.
    wait_for("the abandoned job to warm the cache", Duration::from_secs(60), || {
        state.cache.live_entries() >= 1
    });
    let retry = post(&addr, "/v1/optimize", SLOW_OPTIMIZE);
    assert_eq!(retry.status, 200);
    assert_eq!(retry.header("X-Cache"), Some("hit"));
    handle.shutdown();
}

/// Timing harness behind `--ignored`: reproduces the cache-hit speedup
/// number reported in EXPERIMENTS.md. Run with
/// `cargo test --release -p faultline-serve --test loopback -- --ignored --nocapture`.
#[test]
#[ignore = "timing harness, not a correctness test"]
fn cache_hit_speedup_on_repeated_table1_workload() {
    let (handle, addr) = spawn(ServeConfig::default());
    // The measured table is the heaviest `/v1/table1` variant: the
    // exact supremum scan of every row, the kind of work the cache
    // exists for.
    let path = "/v1/table1?measure=true";

    let start = Instant::now();
    let fresh = get(&addr, path);
    let miss = start.elapsed();
    assert_eq!(fresh.status, 200);
    assert_eq!(fresh.header("X-Cache"), Some("miss"));

    const HITS: u32 = 50;
    let start = Instant::now();
    for _ in 0..HITS {
        let hit = get(&addr, path);
        assert_eq!(hit.header("X-Cache"), Some("hit"));
        assert_eq!(hit.body, fresh.body);
    }
    let hit = start.elapsed() / HITS;
    let speedup = miss.as_secs_f64() / hit.as_secs_f64();
    println!(
        "table1(measure) miss: {:.2} ms, hit: {:.3} ms over {HITS} requests, speedup {speedup:.1}x",
        miss.as_secs_f64() * 1e3,
        hit.as_secs_f64() * 1e3,
    );
    assert!(speedup >= 10.0, "expected >= 10x on cache hits, measured {speedup:.1}x");
    handle.shutdown();
}

#[test]
fn tight_cache_budget_evicts_oldest_first_and_recomputes_identically() {
    const A: &str = "/v1/cr?n=3&f=1";
    const B: &str = "/v1/cr?n=5&f=2";
    const C: &str = "/v1/cr?n=7&f=3";

    // This test pins LRU mechanics, so the closed-form memo tier (which
    // would answer /v1/cr before the cache is consulted) is disabled in
    // both spawns; the assertions themselves are unchanged.
    // Pre-flight on a roomy server: measure each entry's exact charge
    // (canonical key + body bytes) from the live-bytes gauge, and keep
    // the reference bodies for byte-identity checks after re-compute.
    let (roomy, addr) = spawn(ServeConfig { memo_max_n: 0, ..ServeConfig::default() });
    let state = roomy.state();
    let mut charges = Vec::new();
    let mut bodies = Vec::new();
    for path in [A, B, C] {
        let before = state.cache.live_bytes();
        let response = get(&addr, path);
        assert_eq!(response.status, 200);
        assert_eq!(response.header("X-Cache"), Some("miss"));
        charges.push(state.cache.live_bytes() - before);
        bodies.push(response.body);
    }
    roomy.shutdown();

    // One shard whose budget holds any two of the entries but not all
    // three, so the third insertion must evict exactly one entry.
    let budget: usize = charges.iter().sum::<usize>() - 1;
    let (handle, addr) = spawn(ServeConfig {
        cache_bytes: budget,
        cache_shards: 1,
        memo_max_n: 0,
        ..ServeConfig::default()
    });
    let state = handle.state();

    let miss_a = get(&addr, A);
    assert_eq!(miss_a.header("X-Cache"), Some("miss"));
    let miss_b = get(&addr, B);
    assert_eq!(miss_b.header("X-Cache"), Some("miss"));
    assert_eq!(state.cache.live_entries(), 2, "both entries fit the budget");
    assert_eq!(state.cache.live_bytes(), charges[0] + charges[1]);

    // Hit B: byte-identical, and refreshes B's recency so A becomes
    // the oldest entry.
    let hit_b = get(&addr, B);
    assert_eq!(hit_b.header("X-Cache"), Some("hit"));
    assert_eq!(hit_b.body, miss_b.body);

    // C overflows the budget: the oldest entry (A, not the refreshed
    // B) is evicted; the gauges move and stay within budget.
    let miss_c = get(&addr, C);
    assert_eq!(miss_c.header("X-Cache"), Some("miss"));
    assert_eq!(state.cache.live_entries(), 2, "one entry was evicted");
    assert_eq!(state.cache.live_bytes(), charges[1] + charges[2], "A's bytes were released");
    assert!(state.cache.live_bytes() <= budget);
    assert_eq!(get(&addr, B).header("X-Cache"), Some("hit"), "B survived the eviction");

    // A was genuinely evicted: re-requesting is a miss, and the
    // re-computed body is byte-identical to the original response.
    let recomputed_a = get(&addr, A);
    assert_eq!(recomputed_a.header("X-Cache"), Some("miss"), "A was evicted oldest-first");
    assert_eq!(recomputed_a.body, miss_a.body, "re-compute reproduces the exact bytes");
    assert_eq!(recomputed_a.body, bodies[0], "and matches the roomy server's bytes");

    // A's reinsertion overflowed the budget again and evicted C, not
    // the hit-refreshed B: had `get` not updated recency, B (inserted
    // earliest) would have been the victim and this would be a hit.
    assert_eq!(state.cache.live_entries(), 2);
    assert_eq!(state.cache.live_bytes(), charges[0] + charges[1]);
    assert_eq!(
        get(&addr, C).header("X-Cache"),
        Some("miss"),
        "C was the oldest this time (hits refreshed B's recency)"
    );

    assert_eq!(state.cache.hits(), 2);
    assert_eq!(state.cache.misses(), 5);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_refuses_new() {
    let config = ServeConfig { threads: Some(1), ..ServeConfig::default() };
    let (handle, addr) = spawn(config);
    let state = handle.state();

    let addr_a = addr.clone();
    let in_flight = std::thread::spawn(move || post(&addr_a, "/v1/optimize", SLOW_OPTIMIZE));
    wait_for("the worker to pick up the job", Duration::from_secs(30), || {
        state.metrics.workers_busy() == 1
    });

    // Shutdown must wait for the in-flight job, which still answers 200.
    handle.shutdown();
    let drained = in_flight.join().expect("no panic");
    assert_eq!(drained.status, 200, "drained, not dropped: {}", drained.text());

    // The listener is gone: new connections are refused.
    assert!(
        client::query_with_timeout(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err(),
        "the drained server must not accept new connections"
    );
}

#[test]
fn idle_keep_alive_connections_do_not_block_drain() {
    let (handle, addr) = spawn(ServeConfig::default());

    // Two persistent connections: one has served a request and sits
    // idle, the other never sends a byte (a connected-but-silent peer).
    let mut session = Session::new(&addr);
    assert_eq!(session.request("GET", "/healthz", None).expect("keep-alive GET").status, 200);
    assert!(session.is_connected(), "the session held its connection open");
    let silent = std::net::TcpStream::connect(&addr).expect("silent connect");

    // Shutdown must return promptly even though both connections are
    // still open: idle keep-alive peers are torn down, not drained.
    let start = Instant::now();
    handle.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drain was blocked by idle keep-alive connections"
    );

    // Both peers observe the close, and the port stops answering.
    assert!(
        session.request("GET", "/healthz", None).is_err(),
        "the idle session's connection was closed and cannot reconnect"
    );
    drop(silent);
    assert!(
        client::query_with_timeout(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err(),
        "the drained server must not accept new connections"
    );
}
