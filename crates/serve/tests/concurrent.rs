//! Concurrency semantics of the epoll server: connections balanced over
//! its event loops, single-flight coalescing across them, HTTP/1.1
//! keep-alive, the memo tier, and slowloris resistance. Sequencing is
//! driven by the server's own gauges (never by sleeps alone), so the
//! tests are deterministic on slow machines.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use faultline_serve::client::{self, Response, Session};
use faultline_serve::handlers;
use faultline_serve::http::Request;
use faultline_serve::router::Route;
use faultline_serve::{ServeConfig, ServerHandle, ServerState};

/// An optimize body slow enough (about 200 ms in release) to hold a
/// worker while the herd piles onto its flight.
const SLOW_OPTIMIZE: &str = r#"{"n": 41, "f": 20, "budget": "tiny", "seed": 1}"#;

/// A supremum body over the inline work bound, so its miss parks on
/// the pool: A(41, 20) out to `xmax >= 1e6`, under a millisecond in
/// release.
fn parked_supremum(xmax: f64) -> String {
    assert!(xmax >= 1e6, "smaller windows compute inline");
    format!(r#"{{"n": 41, "f": 20, "xmax": {xmax}}}"#)
}

fn spawn(config: ServeConfig) -> (ServerHandle, String) {
    let handle = ServerHandle::spawn(ServeConfig { addr: "127.0.0.1:0".to_owned(), ..config })
        .expect("bind on a free port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn post(addr: &str, path: &str, body: &str) -> Response {
    client::query(addr, "POST", path, Some(body)).expect("loopback POST")
}

/// The integer value of the `/metrics` line `name`, as the server
/// renders it.
fn metric(state: &ServerState, name: &str) -> u64 {
    let text = state.metrics.render(&state.cache);
    let value = text.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' '));
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no integer {name} in {text}"))
}

fn wait_for(what: &str, deadline: Duration, mut condition: impl FnMut() -> bool) {
    let start = Instant::now();
    while !condition() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_thundering_herd_of_identical_misses_computes_exactly_once() {
    const HERD: usize = 7;
    let (handle, addr) = spawn(ServeConfig { threads: Some(2), ..ServeConfig::default() });
    let state = handle.state();

    // The creator parks first and its job occupies a worker...
    let creator_addr = addr.clone();
    let creator = std::thread::spawn(move || post(&creator_addr, "/v1/optimize", SLOW_OPTIMIZE));
    wait_for("the creator's job to start computing", Duration::from_secs(30), || {
        metric(&state, "faultline_workers_busy") >= 1
    });

    // ...then the herd sends the byte-different spellings of the same
    // canonical request while it is still in flight. The coalesced
    // gauge confirms every one of them parked on the creator's flight
    // (none raced past a landed flight into a fresh job).
    let herd: Vec<_> = (0..HERD)
        .map(|i| {
            let addr = addr.clone();
            // Whitespace varies per requester; the canonical key does not.
            let body = format!(
                "{{\"n\": 41,{} \"f\": 20, \"budget\": \"tiny\", \"seed\": 1}}",
                " ".repeat(i + 1)
            );
            std::thread::spawn(move || post(&addr, "/v1/optimize", &body))
        })
        .collect();
    wait_for("the whole herd to coalesce", Duration::from_secs(30), || {
        state.metrics.coalesced_requests() == HERD as u64
    });

    let reference = creator.join().expect("creator thread");
    assert_eq!(reference.status, 200, "creator answered: {}", reference.text());
    for follower in herd {
        let response = follower.join().expect("herd thread");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, reference.body, "coalesced responses are byte-identical");
    }

    assert_eq!(state.metrics.pool_jobs(), 1, "eight requests, one computation");
    assert_eq!(state.metrics.coalesced_requests(), HERD as u64);
    assert_eq!(state.cache.misses(), HERD as u64 + 1, "every requester probed the cache once");
    let per_loop = [0, 1]
        .map(|lp| metric(&state, &format!("faultline_loop_connections_total{{loop=\"{lp}\"}}")));
    assert!(per_loop.iter().all(|&n| n > 0), "the herd landed on both loops: {per_loop:?}");
    let rendered = state.metrics.render(&state.cache);
    assert!(
        rendered.contains(&format!("faultline_coalesced_requests_total {HERD}")),
        "coalesced_requests exported: {rendered}"
    );
    handle.shutdown();
}

#[test]
fn connections_alternate_over_two_loops_and_a_closed_one_frees_its_slot() {
    let (handle, addr) = spawn(ServeConfig { threads: Some(2), ..ServeConfig::default() });
    let state = handle.state();
    let metrics = &state.metrics;
    // Opens a connection and waits for the acceptor to give it a loop.
    let open = |accepted: u64| {
        let stream = TcpStream::connect(&addr).expect("connect");
        wait_for("the accept", Duration::from_secs(30), || metrics.connections() == accepted);
        stream
    };
    let on = || {
        [0, 1]
            .map(|lp| metric(&state, &format!("faultline_loop_connections_total{{loop=\"{lp}\"}}")))
    };

    let a = open(1);
    assert_eq!(on(), [1, 0], "ties go to loop 0");
    let b = open(2);
    assert_eq!(on(), [1, 1], "then to the loop with fewer");
    let c = open(3);
    assert_eq!(on(), [2, 1]);
    drop(b);
    wait_for("loop 1 to close B", Duration::from_secs(30), || {
        metric(&state, "faultline_loop_connections{loop=\"1\"}") == 0
    });
    let d = open(4);
    assert_eq!(on(), [2, 2], "B's slot went back to loop 1");
    let rendered = metrics.render(&state.cache);
    assert!(rendered.contains("faultline_loop_connections{loop=\"0\"} 2\n"), "{rendered}");
    assert!(rendered.contains("faultline_loop_connections{loop=\"1\"} 1\n"), "{rendered}");
    drop((a, c, d));
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (handle, addr) = spawn(ServeConfig::default());
    let state = handle.state();

    let mut session = Session::new(&addr);
    let first = session.request("GET", "/v1/cr?n=5&f=2", None).expect("first request");
    assert_eq!(first.status, 200);
    for _ in 0..4 {
        let again = session.request("GET", "/v1/cr?n=5&f=2", None).expect("reused connection");
        assert_eq!(again.status, 200);
        assert_eq!(again.body, first.body);
    }
    assert_eq!(state.metrics.connections(), 1, "five requests, one connection");
    assert_eq!(state.metrics.keepalive_reuses(), 4, "four requests after the first reused it");
    handle.shutdown();
}

#[test]
fn a_half_written_request_cannot_stall_other_connections() {
    let (handle, addr) = spawn(ServeConfig { threads: Some(1), ..ServeConfig::default() });

    // A slowloris peer: opens the connection, dribbles half a request
    // head, and then just... holds.
    let mut slow = TcpStream::connect(&addr).expect("slowloris connect");
    slow.write_all(b"GET /healthz HTTP/1.1\r\nHost: loop").expect("partial head");
    slow.flush().expect("flush partial head");

    // Every well-behaved client keeps getting answered promptly while
    // the half-written request sits in its own connection buffer.
    for _ in 0..5 {
        let start = Instant::now();
        let response = client::query(&addr, "GET", "/healthz", None)
            .expect("healthy request while slowloris holds");
        assert_eq!(response.status, 200);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "requests answered while a peer dribbles"
        );
    }
    drop(slow);
    handle.shutdown();
}

#[test]
fn the_memo_tier_answers_cr_without_touching_the_pool() {
    let (handle, addr) = spawn(ServeConfig::default());
    let state = handle.state();

    let memoized = client::query(&addr, "GET", "/v1/cr?n=9&f=4", None).expect("memo GET");
    assert_eq!(memoized.status, 200);
    assert_eq!(memoized.header("X-Cache"), Some("memo"), "the first request fills its point");
    let again = client::query(&addr, "GET", "/v1/cr?n=9&f=4", None).expect("memo GET");
    assert_eq!(again.header("X-Cache"), Some("memo"));
    assert_eq!(again.body, memoized.body);
    assert_eq!(state.metrics.memo_hits(), 2);
    assert_eq!(state.metrics.pool_jobs(), 0, "GET /v1/cr never dispatched to the pool");
    assert_eq!(state.cache.misses(), 0, "nor to the LRU/compute path");
    let rendered = state.metrics.render(&state.cache);
    assert!(rendered.contains("faultline_cr_memo_hits_total 2"), "memo tier exported: {rendered}");
    handle.shutdown();

    // The memo tier is byte-identical to the computed path: the same
    // query against a memo-disabled server produces the same body.
    let (plain, plain_addr) = spawn(ServeConfig { memo_max_n: 0, ..ServeConfig::default() });
    let computed = client::query(&plain_addr, "GET", "/v1/cr?n=9&f=4", None).expect("computed GET");
    assert_eq!(computed.status, 200);
    assert_eq!(computed.header("X-Cache"), Some("miss"), "memo disabled: the compute path");
    assert_eq!(computed.body, memoized.body, "memo bytes equal computed bytes");
    plain.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_all_answer() {
    let (handle, addr) = spawn(ServeConfig::default());

    // Two back-to-back requests in a single write: the parser must
    // consume exactly one at a time and answer both in order.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: l\r\n\r\nGET /v1/cr?n=3&f=1 HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n",
        )
        .expect("pipelined write");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut bytes = Vec::new();
    use std::io::Read;
    stream.read_to_end(&mut bytes).expect("read both responses");
    let text = String::from_utf8_lossy(&bytes);
    let answers = text.matches("HTTP/1.1 200 OK").count();
    assert_eq!(answers, 2, "both pipelined requests answered: {text}");
    assert!(text.contains("\"cr_upper\""), "the second response carries the CR report");
    handle.shutdown();
}

#[test]
fn chunked_body_is_answered_once_and_never_served_as_a_request() {
    let (handle, addr) = spawn(ServeConfig::default());

    // The chunk data is a complete request: a parser that ignored the
    // transfer coding would answer it as a second, smuggled request.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            b"POST /v1/scenario HTTP/1.1\r\nHost: l\r\nTransfer-Encoding: chunked\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n",
        )
        .expect("chunked write");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut bytes = Vec::new();
    use std::io::Read;
    stream.read_to_end(&mut bytes).expect("the server answers and closes");
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "exactly one response: {text}");
    assert!(text.starts_with("HTTP/1.1 400 "), "a 400: {text}");
    assert!(!text.contains("\"status\""), "no health answer leaked: {text}");
    handle.shutdown();
}

#[test]
fn heavy_misses_keep_their_keep_alive_connection() {
    const N: u64 = 4;
    let (handle, addr) = spawn(ServeConfig::default());
    let state = handle.state();

    let mut session = Session::new(&addr);
    for i in 0..N {
        let body = parked_supremum(1e6 + i as f64);
        let response = session.request("POST", "/v1/supremum", Some(&body)).expect("heavy miss");
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(response.header("X-Cache"), Some("miss"));
        assert_eq!(response.header("Connection"), Some("keep-alive"));
    }
    assert_eq!(state.metrics.pool_jobs(), N, "every request computed on the pool");
    assert_eq!(state.metrics.connections(), 1, "{N} pool answers, one connection");
    assert_eq!(state.metrics.keepalive_reuses(), N - 1);
    handle.shutdown();
}

#[test]
fn a_request_pipelined_behind_a_parked_miss_is_answered_after_it() {
    let (handle, addr) = spawn(ServeConfig::default());
    let state = handle.state();

    // A heavy miss, then two requests behind it in the same write.
    let body = parked_supremum(1e6);
    let wire = format!(
        "POST /v1/supremum HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n{body}\
         GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n\
         GET /v1/cr?n=3&f=1 HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(wire.as_bytes()).expect("pipelined write");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut bytes = Vec::new();
    use std::io::Read;
    stream.read_to_end(&mut bytes).expect("read all three responses");
    let text = String::from_utf8_lossy(&bytes);

    let answers: Vec<usize> = text.match_indices("HTTP/1.1 200 OK").map(|(at, _)| at).collect();
    assert_eq!(answers.len(), 3, "every pipelined request answered: {text}");
    let (parked, health, cr) =
        (&text[..answers[1]], &text[answers[1]..answers[2]], &text[answers[2]..]);
    assert!(parked.contains("X-Cache: miss") && parked.contains("Connection: keep-alive"));
    assert!(health.ends_with("{\"status\": \"ok\"}\n"), "the probe answers second: {health}");
    assert!(cr.contains("\"cr_upper\"") && cr.contains("Connection: close"), "then /v1/cr: {cr}");
    assert_eq!(state.metrics.pool_jobs(), 1);
    assert_eq!(state.metrics.connections(), 1);
    handle.shutdown();
}

/// The reference bytes of a compute route: `prepare(..)` and its
/// compute, in process.
fn reference(route: Route, path: &str, body: &str) -> Vec<u8> {
    let request = Request {
        method: "POST".to_owned(),
        path: path.to_owned(),
        query: Vec::new(),
        body: body.to_owned(),
        keep_alive: true,
    };
    let prepared = handlers::prepare(route, &request).expect("a valid request");
    (prepared.compute)().expect("it computes")
}

#[test]
fn small_misses_compute_inline_with_the_bytes_of_their_handlers() {
    let (handle, addr) = spawn(ServeConfig::default());
    let state = handle.state();
    let small = [
        (Route::Supremum, "/v1/supremum", r#"{"n": 41, "f": 20, "xmax": 31.5}"#),
        (Route::Supremum, "/v1/supremum", r#"{"n": 3, "f": 1, "xmax": 4.25}"#),
        (Route::Scenario, "/v1/scenario", r#"{"name": "byzantine", "seed": 11}"#),
        (Route::Scenario, "/v1/scenario", r#"{"name": "randomized", "seed": 12}"#),
    ];
    for (route, path, body) in small {
        let response = post(&addr, path, body);
        assert_eq!(response.status, 200, "{body}: {}", response.text());
        assert_eq!(response.header("X-Cache"), Some("miss"));
        assert!(response.body == reference(route, path, body), "{body}: bytes differ");
    }
    assert_eq!(state.metrics.pool_jobs(), 0, "no small miss went to the pool");
    assert_eq!(metric(&state, "faultline_inline_computes_total"), small.len() as u64);
    let rendered = state.metrics.render(&state.cache);
    assert!(rendered.contains("faultline_inline_computes_total 4"), "{rendered}");
    handle.shutdown();
}

#[test]
fn large_supremum_and_scenario_misses_park_on_the_pool() {
    let (handle, addr) = spawn(ServeConfig::default());
    let state = handle.state();
    let targets: Vec<String> =
        (1..=50).map(|i| format!("{}.5", if i % 2 == 0 { i } else { -i })).collect();
    let scenario = format!(r#"{{"n": 41, "f": 20, "targets": [{}]}}"#, targets.join(", "));
    let large = [
        (Route::Supremum, "/v1/supremum", r#"{"n": 201, "f": 100, "xmax": 1e9}"#.to_owned()),
        (Route::Scenario, "/v1/scenario", scenario),
    ];
    for (route, path, body) in &large {
        let response = post(&addr, path, body);
        assert_eq!(response.status, 200, "{body}: {}", response.text());
        assert_eq!(response.header("X-Cache"), Some("miss"));
        assert!(response.body == reference(*route, path, body), "{body}: bytes differ");
    }
    assert_eq!(state.metrics.pool_jobs(), large.len() as u64, "both parked on the pool");
    assert_eq!(metric(&state, "faultline_inline_computes_total"), 0);
    handle.shutdown();
}
