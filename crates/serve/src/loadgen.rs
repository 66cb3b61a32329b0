//! Deterministic seeded load generation against a running server (or
//! an in-process one spawned on demand, with its default event loops).
//!
//! The workload is a fixed mix over the serving tiers — memoized
//! `/v1/cr` lattice points, scenario presets (computed once, then hits),
//! `/v1/table1`, and `/healthz` probes — generated from per-thread
//! SplitMix64 streams, so the same `(seed, requests, concurrency)`
//! produces the same request sequence on every run. Each thread folds
//! `(status, body)` of every response into an FNV-1a digest in request
//! order; thread digests combine in thread order, so *the digest is a
//! deterministic function of the workload and the server's semantics*,
//! not of timing. Two runs with one seed must produce one digest — the
//! soak test pins exactly that.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::client::Session;
use crate::config::ServeConfig;
use crate::server::ServerHandle;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// What to drive and how hard.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Target address; `None` spawns an in-process server.
    pub addr: Option<String>,
    /// Total request count across all client threads.
    pub requests: u64,
    /// Concurrent client threads, each with one keep-alive session.
    pub concurrency: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { addr: None, requests: 12_000, concurrency: 8, seed: 1 }
    }
}

impl LoadOptions {
    /// The CI-sized variant: same mix, fewer requests.
    #[must_use]
    pub fn quick(self) -> LoadOptions {
        LoadOptions { requests: 1_200, concurrency: 4, ..self }
    }
}

/// Measured outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Requests completed (transport errors included in `errors`, not
    /// here).
    pub requests: u64,
    /// Transport-level failures (connect/read/write after retry).
    pub errors: u64,
    /// Wall-clock of the firing phase in milliseconds.
    pub wall_ms: f64,
    /// Completed requests per second.
    pub qps: f64,
    /// Median response latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response latency in milliseconds.
    pub p99_ms: f64,
    /// Worst response latency in milliseconds.
    pub max_ms: f64,
    /// Response count by HTTP status.
    pub statuses: BTreeMap<u16, u64>,
    /// Order-stable FNV-1a digest over every `(status, body)` pair,
    /// hex-encoded. Identical seed ⇒ identical digest.
    pub digest: String,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv_fold(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// One deterministic request: `(method, path, body)`.
fn nth_request(rng: &mut u64) -> (&'static str, String, Option<String>) {
    /// Scenario presets driven by the mixed workload; all resolve
    /// deterministically (seeded presets use their default seed).
    const PRESETS: [&str; 6] =
        ["smoke", "two-group", "proportional", "explicit-faults", "byzantine", "p-faulty"];
    match splitmix64(rng) % 10 {
        // 60%: the memoized closed-form lattice.
        0..=5 => {
            let n = (splitmix64(rng) % 16) as usize + 1;
            let f = (splitmix64(rng) as usize) % n;
            ("GET", format!("/v1/cr?n={n}&f={f}"), None)
        }
        // 20%: scenario presets (each computed inline on its first
        // miss, then cache hits).
        6 | 7 => {
            let name = PRESETS[(splitmix64(rng) as usize) % PRESETS.len()];
            ("POST", "/v1/scenario".to_owned(), Some(format!("{{\"name\": \"{name}\"}}")))
        }
        // 10%: the closed-form Table 1.
        8 => ("GET", "/v1/table1".to_owned(), None),
        // 10%: liveness probes.
        _ => ("GET", "/healthz".to_owned(), None),
    }
}

struct ThreadOutcome {
    latencies_ms: Vec<f64>,
    statuses: BTreeMap<u16, u64>,
    digest: u64,
    errors: u64,
}

fn drive_thread(addr: &str, seed: u64, thread_index: u64, count: u64) -> ThreadOutcome {
    let mut rng = seed ^ thread_index.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut session = Session::new(addr);
    let mut outcome = ThreadOutcome {
        latencies_ms: Vec::with_capacity(count as usize),
        statuses: BTreeMap::new(),
        digest: FNV_OFFSET,
        errors: 0,
    };
    for _ in 0..count {
        let (method, path, body) = nth_request(&mut rng);
        let start = Instant::now();
        match session.request(method, &path, body.as_deref()) {
            Ok(response) => {
                outcome.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                *outcome.statuses.entry(response.status).or_insert(0) += 1;
                fnv_fold(&mut outcome.digest, &response.status.to_be_bytes());
                fnv_fold(&mut outcome.digest, &response.body);
            }
            Err(_) => {
                outcome.errors += 1;
                fnv_fold(&mut outcome.digest, b"transport-error");
            }
        }
    }
    outcome
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the seeded workload and summarizes it.
///
/// # Errors
///
/// Fails when the in-process server cannot spawn, or the options are
/// degenerate (zero requests/concurrency).
pub fn run(options: &LoadOptions) -> Result<LoadSummary, String> {
    if options.requests == 0 || options.concurrency == 0 {
        return Err("loadgen needs at least one request and one thread".to_owned());
    }
    // Spawn an in-process server unless a target was given.
    let (addr, server) = match &options.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let config = ServeConfig { addr: "127.0.0.1:0".to_owned(), ..ServeConfig::default() };
            let server =
                ServerHandle::spawn(config).map_err(|e| format!("cannot spawn the server: {e}"))?;
            (server.addr().to_string(), Some(server))
        }
    };

    let addr: Arc<str> = Arc::from(addr.into_boxed_str());
    let threads = options.concurrency.min(options.requests as usize);
    let per_thread = options.requests / threads as u64;
    let remainder = options.requests % threads as u64;
    let started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|i| {
            let addr = Arc::clone(&addr);
            let seed = options.seed;
            let count = per_thread + u64::from((i as u64) < remainder);
            std::thread::Builder::new()
                .name(format!("faultline-loadgen-{i}"))
                .spawn(move || drive_thread(&addr, seed, i as u64, count))
                .map_err(|e| format!("cannot spawn load thread {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let outcomes: Vec<ThreadOutcome> = workers
        .into_iter()
        .map(|w| w.join().map_err(|_| "a load thread panicked".to_owned()))
        .collect::<Result<_, _>>()?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Combine in thread order: the digest stays order-stable.
    let mut digest = FNV_OFFSET;
    let mut latencies = Vec::new();
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut errors = 0u64;
    for outcome in &outcomes {
        fnv_fold(&mut digest, &outcome.digest.to_be_bytes());
        latencies.extend_from_slice(&outcome.latencies_ms);
        for (&status, &count) in &outcome.statuses {
            *statuses.entry(status).or_insert(0) += count;
        }
        errors += outcome.errors;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = latencies.len() as u64;
    let qps = if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 };
    let summary = LoadSummary {
        requests: completed,
        errors,
        wall_ms,
        qps,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        statuses,
        digest: format!("{digest:016x}"),
    };
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_deterministic_per_seed() {
        let mut a = 7u64;
        let mut b = 7u64;
        for _ in 0..100 {
            assert_eq!(nth_request(&mut a), nth_request(&mut b));
        }
        let mut c = 8u64;
        let different = (0..100).any(|_| nth_request(&mut a) != nth_request(&mut c));
        assert!(different, "different seeds produce different streams");
    }

    #[test]
    fn the_mix_covers_every_tier() {
        let mut rng = 3u64;
        let mut saw_cr = false;
        let mut saw_scenario = false;
        let mut saw_table = false;
        let mut saw_health = false;
        for _ in 0..200 {
            let (_, path, _) = nth_request(&mut rng);
            saw_cr |= path.starts_with("/v1/cr");
            saw_scenario |= path == "/v1/scenario";
            saw_table |= path == "/v1/table1";
            saw_health |= path == "/healthz";
        }
        assert!(saw_cr && saw_scenario && saw_table && saw_health);
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 0.50), 5.0);
        assert_eq!(percentile(&sorted, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn degenerate_options_are_rejected() {
        assert!(run(&LoadOptions { requests: 0, ..LoadOptions::default() }).is_err());
        assert!(run(&LoadOptions { concurrency: 0, ..LoadOptions::default() }).is_err());
    }

    #[test]
    fn a_tiny_run_against_an_in_process_server_completes_cleanly() {
        let options = LoadOptions { requests: 60, concurrency: 3, ..LoadOptions::default() };
        let summary = run(&options).expect("tiny run");
        assert_eq!(summary.requests, 60);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.statuses.get(&200), Some(&60), "every response is a 200");
        assert_eq!(summary.digest.len(), 16);
    }
}
