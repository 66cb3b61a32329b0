//! Deterministic soak: a seeded mixed workload against one server with
//! two event loops. Ignored by default — CI runs it in the release job
//! with `cargo test --release -p faultline-serve --test soak --
//! --ignored`.

use std::time::{Duration, Instant};

use faultline_serve::loadgen::{self, LoadOptions};
use faultline_serve::{ServeConfig, ServerHandle};

#[derive(Debug, Clone, Copy)]
struct Counters {
    connections: [u64; 2],
    keepalive_reuses: u64,
    memo_hits: u64,
    pool_jobs: u64,
    coalesced: u64,
    cache_hits: u64,
}

fn snapshot(server: &ServerHandle) -> Counters {
    let state = server.state();
    Counters {
        connections: [state.metrics.connections_on(0), state.metrics.connections_on(1)],
        keepalive_reuses: state.metrics.keepalive_reuses(),
        memo_hits: state.metrics.memo_hits(),
        pool_jobs: state.metrics.pool_jobs(),
        coalesced: state.metrics.coalesced_requests(),
        cache_hits: state.cache.hits(),
    }
}

/// Waits until both loops have closed every connection of a run, so the
/// next run's connections are balanced from zero.
fn wait_for_idle_loops(server: &ServerHandle) {
    let state = server.state();
    let start = Instant::now();
    while state.metrics.open_connections(0) + state.metrics.open_connections(1) > 0 {
        assert!(start.elapsed() < Duration::from_secs(30), "a run's connections stayed open");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
#[ignore = "soak workload; CI runs it in the release job"]
fn a_seeded_soak_against_two_event_loops_is_clean_and_reproducible() {
    let server = ServerHandle::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: Some(2),
        ..ServeConfig::default()
    })
    .expect("a two-loop server");

    let options = LoadOptions {
        addr: Some(server.addr().to_string()),
        requests: 20_000,
        concurrency: 8,
        seed: 42,
    };

    let start = snapshot(&server);
    let run1 = loadgen::run(&options).expect("first soak run");
    wait_for_idle_loops(&server);
    let mid = snapshot(&server);
    let run2 = loadgen::run(&options).expect("second soak run");
    wait_for_idle_loops(&server);
    let end = snapshot(&server);

    for (label, run) in [("first", &run1), ("second", &run2)] {
        assert_eq!(run.errors, 0, "{label} run had transport errors");
        assert_eq!(run.requests, options.requests, "{label} run completed every request");
        // The workload induces no saturation, so *every* response is a
        // 200 — no 5xx of any kind.
        assert_eq!(
            run.statuses.get(&200).copied(),
            Some(options.requests),
            "{label} run statuses: {:?}",
            run.statuses
        );
        assert_eq!(run.statuses.len(), 1, "{label} run statuses: {:?}", run.statuses);
    }

    // Same seed ⇒ identical request streams ⇒ identical digest.
    assert_eq!(run1.digest, run2.digest, "the soak digest is seed-deterministic");

    // Each run's eight keep-alive clients were spread evenly: the
    // acceptor gives each connection to the loop with fewer open.
    for (label, before, after) in [("first", start, mid), ("second", mid, end)] {
        let arrived = [0, 1].map(|lp| after.connections[lp] - before.connections[lp]);
        assert_eq!(arrived, [4, 4], "{label} run's connections per loop");
    }

    // Counters only ever move forward, and the cr mix exercised the
    // memo tier.
    assert!(end.keepalive_reuses >= mid.keepalive_reuses, "keep-alive reuses regressed");
    assert!(end.memo_hits >= mid.memo_hits, "memo hits regressed");
    assert!(end.pool_jobs >= mid.pool_jobs, "pool jobs regressed");
    assert!(end.coalesced >= mid.coalesced, "coalesced regressed");
    assert!(end.cache_hits >= mid.cache_hits, "cache hits regressed");
    assert!(end.memo_hits > 0, "the cr mix exercised the memo tier");

    server.shutdown();
}
