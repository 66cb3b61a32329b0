//! Seeded request streams for the serve workloads. Stream `k` of a run
//! is a pure function of `(mix, seed, k)`: the benchmark regenerates a
//! client's stream after the timed phase to check each stored response,
//! and the traced ledger replays the very same request bytes.

use faultline_analysis::table1::TABLE1_PAIRS;

use crate::stats::{splitmix64, stream_state, unit};

/// Closed-loop client threads, one connection each: the host's two
/// cores.
pub const CLIENTS: usize = 2;
/// First index of the warm-up streams; timed clients use `0..CLIENTS`.
pub const WARMUP_STREAM: u64 = 1 << 32;

/// Scenario presets the hot mix draws; each resolves to one cache key.
const HOT_PRESETS: [&str; 6] =
    ["smoke", "two-group", "proportional", "explicit-faults", "byzantine", "p-faulty"];
/// Seeded presets the cold mix draws, each request with a fresh seed.
const COLD_PRESETS: [&str; 3] = ["randomized", "byzantine", "p-faulty"];

/// Which request mix a stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// serve_hot: loadgen's mix over a handful of keys.
    Hot,
    /// serve_cold: a new canonical key on every request.
    Cold,
}

/// One request as a client sends it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Path with query string.
    pub path: String,
    /// JSON body of a `POST`.
    pub body: Option<String>,
    /// `(preset, seed)` of a seeded scenario request.
    pub preset: Option<(&'static str, u64)>,
}

impl Request {
    fn get(path: &str) -> Request {
        Request { method: "GET", path: path.to_owned(), body: None, preset: None }
    }

    fn post(path: &str, body: String) -> Request {
        Request { method: "POST", path: path.to_owned(), body: Some(body), preset: None }
    }

    /// The bytes `faultline_serve::client::Session` writes for this
    /// request to `host`.
    #[must_use]
    pub fn wire(&self, host: &str) -> Vec<u8> {
        let payload = self.body.as_deref().unwrap_or("");
        format!(
            "{} {} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{payload}",
            self.method,
            self.path,
            payload.len(),
        )
        .into_bytes()
    }
}

/// An endless seeded request stream.
pub struct Stream {
    mix: Mix,
    state: u64,
}

impl Stream {
    /// Stream `stream` of the run seeded with `seed`.
    #[must_use]
    pub fn new(mix: Mix, seed: u64, stream: u64) -> Stream {
        Stream { mix, state: stream_state(seed, stream) }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(match self.mix {
            Mix::Hot => hot(&mut self.state),
            Mix::Cold => cold(&mut self.state),
        })
    }
}

fn pick<T: Copy>(state: &mut u64, items: &[T]) -> T {
    items[(splitmix64(state) % items.len() as u64) as usize]
}

/// loadgen's mix: 60% `/v1/cr` inside the memo lattice, 20% scenario
/// presets, 10% `/v1/table1`, 10% `/healthz`.
fn hot(state: &mut u64) -> Request {
    match splitmix64(state) % 10 {
        0..=5 => {
            let n = splitmix64(state) % 16 + 1;
            let f = splitmix64(state) % n;
            Request::get(&format!("/v1/cr?n={n}&f={f}"))
        }
        6 | 7 => preset_request(pick(state, &HOT_PRESETS)),
        8 => Request::get("/v1/table1"),
        _ => Request::get("/healthz"),
    }
}

/// Half `/v1/supremum` on a Table-1 pair with a continuous `xmax`, half
/// seeded scenario presets with a fresh seed: every key is new.
fn cold(state: &mut u64) -> Request {
    if splitmix64(state).is_multiple_of(2) {
        let (n, f) = pick(state, TABLE1_PAIRS);
        let xmax = 4.0 + 28.0 * unit(state);
        Request::post("/v1/supremum", format!("{{\"n\": {n}, \"f\": {f}, \"xmax\": {xmax}}}"))
    } else {
        let name = pick(state, &COLD_PRESETS);
        // 53 bits keep the seed exact on every JSON number path.
        let seed = splitmix64(state) >> 11;
        let body = format!("{{\"name\": \"{name}\", \"seed\": {seed}}}");
        Request { preset: Some((name, seed)), ..Request::post("/v1/scenario", body) }
    }
}

fn preset_request(name: &str) -> Request {
    Request::post("/v1/scenario", format!("{{\"name\": \"{name}\"}}"))
}

/// Every computed key of the hot mix, once each: warming them leaves
/// only memo, hit and `/healthz` answers for the timed phase.
#[must_use]
pub fn hot_compute_requests() -> Vec<Request> {
    let mut requests: Vec<Request> = HOT_PRESETS.iter().map(|name| preset_request(name)).collect();
    requests.push(Request::get("/v1/table1"));
    requests
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use faultline_serve::handlers;
    use faultline_serve::http::{parse_request, Parsed};
    use faultline_serve::router::{route, Routed};

    use super::*;

    fn take(mix: Mix, seed: u64, stream: u64, count: usize) -> Vec<Request> {
        Stream::new(mix, seed, stream).take(count).collect()
    }

    fn cache_key(request: &Request) -> String {
        let wire = request.wire("localhost");
        let Parsed::Ready { request: parsed, .. } = parse_request(&wire) else {
            panic!("{request:?} does not parse");
        };
        let Routed::Matched(matched) = route(&parsed.method, &parsed.path) else {
            panic!("{request:?} does not route");
        };
        handlers::prepare(matched, &parsed).expect("a valid request").cache_key
    }

    #[test]
    fn one_seed_gives_one_stream() {
        for mix in [Mix::Hot, Mix::Cold] {
            assert_eq!(take(mix, 7, 0, 500), take(mix, 7, 0, 500));
        }
    }

    #[test]
    fn another_seed_or_client_changes_the_stream() {
        for mix in [Mix::Hot, Mix::Cold] {
            assert_ne!(take(mix, 7, 0, 100), take(mix, 8, 0, 100));
            assert_ne!(take(mix, 7, 0, 100), take(mix, 7, 1, 100));
        }
    }

    #[test]
    fn the_hot_mix_keeps_loadgens_shares() {
        let requests = take(Mix::Hot, 3, 0, 20_000);
        let share = |prefix: &str| {
            requests.iter().filter(|r| r.path.starts_with(prefix)).count() as f64 / 20_000.0
        };
        for (prefix, expected) in
            [("/v1/cr", 0.6), ("/v1/scenario", 0.2), ("/v1/table1", 0.1), ("/healthz", 0.1)]
        {
            assert!((share(prefix) - expected).abs() < 0.02, "{prefix}: {}", share(prefix));
        }
        let computed: HashSet<String> = requests
            .iter()
            .filter(|r| !r.path.starts_with("/v1/cr") && r.path != "/healthz")
            .map(cache_key)
            .collect();
        let warmed: HashSet<String> = hot_compute_requests().iter().map(cache_key).collect();
        assert_eq!(computed, warmed, "warm-up covers every computed key");
    }

    #[test]
    fn every_cold_request_has_its_own_cache_key() {
        let mut keys = HashSet::new();
        let streams = (0..CLIENTS as u64).chain((0..CLIENTS as u64).map(|c| WARMUP_STREAM + c));
        for stream in streams {
            for request in take(Mix::Cold, 11, stream, 1500) {
                assert!(keys.insert(cache_key(&request)), "duplicate key for {request:?}");
            }
        }
    }
}
