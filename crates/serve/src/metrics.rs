//! Service metrics: request counts by route and status, a latency
//! histogram in microseconds, cache statistics, queue depth, worker utilization and
//! each event loop's open connections, rendered as a plain-text
//! document for `GET /metrics` (Prometheus-style exposition, one
//! `name{labels} value` per line).
//!
//! Every event loop records each request it answers, so recording takes
//! no lock and allocates nothing: request counts live in a fixed table
//! of atomics, one per route label and status the service answers
//! with, and only a label outside that table takes a locked map.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::ResponseCache;

/// Upper bounds (microseconds) of the latency histogram buckets, from
/// 10 µs (a hot answer takes about 20) to the default 60 s request
/// timeout; the final implicit bucket is `+Inf`.
pub(crate) const LATENCY_BUCKETS_US: [u64; 17] = [
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    1_000_000, 5_000_000, 60_000_000,
];

/// Route labels whose requests are counted without a lock.
const ROUTES: [&str; 8] = [
    "/healthz",
    "/metrics",
    "/v1/cr",
    "/v1/table1",
    "/v1/scenario",
    "/v1/supremum",
    "/v1/optimize",
    "unmatched",
];

/// Every status the service answers with.
const STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 500, 503, 504];

/// The cell of the `ROUTES` × `STATUSES` table that counts `route`
/// answered with `status`.
fn slot(route: &str, status: u16) -> Option<usize> {
    let row = ROUTES.iter().position(|&label| label == route)?;
    let column = STATUSES.iter().position(|&known| known == status)?;
    Some(row * STATUSES.len() + column)
}

/// Shared service metrics. All counters are monotonically increasing;
/// gauges reflect the current state.
pub struct Metrics {
    requests: [AtomicU64; ROUTES.len() * STATUSES.len()],
    /// Requests whose route label or status is outside the table.
    other_requests: Mutex<BTreeMap<(String, u16), u64>>,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    latency_count: AtomicU64,
    latency_sum_us: AtomicU64,
    rejected_total: AtomicU64,
    timeout_total: AtomicU64,
    coalesced_total: AtomicU64,
    memo_hits_total: AtomicU64,
    pool_jobs_total: AtomicU64,
    inline_computes_total: AtomicU64,
    keepalive_reuses_total: AtomicU64,
    queue_depth: AtomicUsize,
    workers_busy: AtomicUsize,
    workers_total: usize,
    /// Per event loop: the connections it has open, which the acceptor
    /// balances on.
    loop_open: Box<[AtomicUsize]>,
    /// Per event loop: the connections it was given since start.
    loop_accepted: Box<[AtomicU64]>,
}

impl Metrics {
    /// Creates zeroed metrics for a server of `threads` event loops and
    /// as many pool workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Metrics {
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            other_requests: Mutex::new(BTreeMap::new()),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_count: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            timeout_total: AtomicU64::new(0),
            coalesced_total: AtomicU64::new(0),
            memo_hits_total: AtomicU64::new(0),
            pool_jobs_total: AtomicU64::new(0),
            inline_computes_total: AtomicU64::new(0),
            keepalive_reuses_total: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            workers_busy: AtomicUsize::new(0),
            workers_total: threads,
            loop_open: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            loop_accepted: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one completed request: route label, response status and
    /// end-to-end latency.
    pub fn observe(&self, route: &str, status: u16, latency: Duration) {
        match slot(route, status) {
            Some(slot) => {
                self.requests[slot].fetch_add(1, Ordering::Relaxed);
            }
            None => {
                *self
                    .other_requests
                    .lock()
                    .expect("metrics map poisoned")
                    .entry((route.to_owned(), status))
                    .or_insert(0) += 1;
            }
        }
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_US.iter().position(|&bound| us <= bound);
        let index = bucket.unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_buckets[index].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        if status == 503 {
            self.rejected_total.fetch_add(1, Ordering::Relaxed);
        }
        if status == 504 {
            self.timeout_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sets the admission-queue depth gauge.
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Records one request coalesced onto an existing in-flight
    /// computation (single-flight follower; no pool job submitted).
    pub(crate) fn coalesced(&self) {
        self.coalesced_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative count of coalesced (single-flight follower) requests.
    #[must_use]
    pub fn coalesced_requests(&self) -> u64 {
        self.coalesced_total.load(Ordering::Relaxed)
    }

    /// Records one `/v1/cr` answered from the closed-form lattice.
    pub fn memo_hit(&self) {
        self.memo_hits_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative count of memo-tier hits.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits_total.load(Ordering::Relaxed)
    }

    /// Records one job starting execution on the worker pool.
    pub(crate) fn pool_job(&self) {
        self.pool_jobs_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative count of jobs the worker pool executed.
    #[must_use]
    pub fn pool_jobs(&self) -> u64 {
        self.pool_jobs_total.load(Ordering::Relaxed)
    }

    /// Records one cache miss computed inline on the event loop.
    pub(crate) fn inline_compute(&self) {
        self.inline_computes_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one accepted connection, given to event loop `lp`.
    pub(crate) fn connection_accepted(&self, lp: usize) {
        self.loop_open[lp].fetch_add(1, Ordering::Relaxed);
        self.loop_accepted[lp].fetch_add(1, Ordering::Relaxed);
    }

    /// Records that event loop `lp` closed one of its connections.
    pub(crate) fn connection_closed(&self, lp: usize) {
        self.loop_open[lp].fetch_sub(1, Ordering::Relaxed);
    }

    /// The connections event loop `lp` has open.
    #[must_use]
    pub(crate) fn open_connections(&self, lp: usize) -> usize {
        self.loop_open[lp].load(Ordering::Relaxed)
    }

    /// Cumulative count of accepted connections.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.loop_accepted.iter().map(|accepted| accepted.load(Ordering::Relaxed)).sum()
    }

    /// Records a second-or-later request on a persistent connection.
    pub(crate) fn keepalive_reuse(&self) {
        self.keepalive_reuses_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative count of keep-alive connection reuses.
    #[must_use]
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses_total.load(Ordering::Relaxed)
    }

    /// Marks one worker as busy (on job start).
    pub(crate) fn worker_busy(&self) {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one worker as idle (on job end).
    pub(crate) fn worker_idle(&self) {
        self.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Renders the plain-text metrics document.
    #[must_use]
    pub fn render(&self, cache: &ResponseCache) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# faultline-serve metrics\n");

        out.push_str("# TYPE faultline_requests_total counter\n");
        let mut requests = self.other_requests.lock().expect("metrics map poisoned").clone();
        for (slot, count) in self.requests.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            if count > 0 {
                let cell = (ROUTES[slot / STATUSES.len()], STATUSES[slot % STATUSES.len()]);
                requests.insert((cell.0.to_owned(), cell.1), count);
            }
        }
        for ((route, status), count) in &requests {
            out.push_str(&format!(
                "faultline_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}\n"
            ));
        }

        out.push_str("# TYPE faultline_request_latency_us histogram\n");
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "faultline_request_latency_us_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        out.push_str(&format!("faultline_request_latency_us_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "faultline_request_latency_us_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "faultline_request_latency_us_sum {}\n",
            self.latency_sum_us.load(Ordering::Relaxed)
        ));

        out.push_str("# TYPE faultline_cache counters and gauges\n");
        out.push_str(&format!("faultline_cache_hits_total {}\n", cache.hits()));
        out.push_str(&format!("faultline_cache_misses_total {}\n", cache.misses()));
        out.push_str(&format!("faultline_cache_insertions_total {}\n", cache.insertions()));
        out.push_str(&format!("faultline_cache_hit_ratio {:.6}\n", cache.hit_ratio()));
        out.push_str(&format!("faultline_cache_bytes {}\n", cache.live_bytes()));
        out.push_str(&format!("faultline_cache_entries {}\n", cache.live_entries()));

        out.push_str("# TYPE faultline_serving_tiers counters\n");
        out.push_str(&format!(
            "faultline_cr_memo_hits_total {}\n",
            self.memo_hits_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "faultline_coalesced_requests_total {}\n",
            self.coalesced_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "faultline_pool_jobs_total {}\n",
            self.pool_jobs_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "faultline_inline_computes_total {}\n",
            self.inline_computes_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("faultline_connections_total {}\n", self.connections()));
        out.push_str(&format!(
            "faultline_keepalive_reuses_total {}\n",
            self.keepalive_reuses_total.load(Ordering::Relaxed)
        ));

        out.push_str("# TYPE faultline_pool gauges\n");
        out.push_str(&format!(
            "faultline_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "faultline_rejected_total {}\n",
            self.rejected_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "faultline_timeout_total {}\n",
            self.timeout_total.load(Ordering::Relaxed)
        ));
        let busy = self.workers_busy.load(Ordering::Relaxed);
        out.push_str(&format!("faultline_workers_busy {busy}\n"));
        out.push_str(&format!("faultline_workers_total {}\n", self.workers_total));
        let utilization =
            if self.workers_total == 0 { 0.0 } else { busy as f64 / self.workers_total as f64 };
        out.push_str(&format!("faultline_worker_utilization {utilization:.6}\n"));

        out.push_str("# TYPE faultline_loop_connections gauge\n");
        for (lp, open) in self.loop_open.iter().enumerate() {
            let open = open.load(Ordering::Relaxed);
            out.push_str(&format!("faultline_loop_connections{{loop=\"{lp}\"}} {open}\n"));
        }
        out.push_str("# TYPE faultline_loop_connections_total counter\n");
        for (lp, accepted) in self.loop_accepted.iter().enumerate() {
            let accepted = accepted.load(Ordering::Relaxed);
            out.push_str(&format!(
                "faultline_loop_connections_total{{loop=\"{lp}\"}} {accepted}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
impl Metrics {
    /// Cumulative count of misses computed inline on the event loop.
    #[must_use]
    pub(crate) fn inline_computes(&self) -> u64 {
        self.inline_computes_total.load(Ordering::Relaxed)
    }

    /// Cumulative count of requests answered with `status` on `route`.
    #[must_use]
    pub(crate) fn requests_for(&self, route: &str, status: u16) -> u64 {
        match slot(route, status) {
            Some(slot) => self.requests[slot].load(Ordering::Relaxed),
            None => *self
                .other_requests
                .lock()
                .expect("metrics map poisoned")
                .get(&(route.to_owned(), status))
                .unwrap_or(&0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_buckets_and_counters() {
        let metrics = Metrics::new(4);
        metrics.observe("/v1/cr", 200, Duration::from_millis(3));
        metrics.observe("/v1/cr", 200, Duration::from_millis(3));
        metrics.observe("/v1/scenario", 503, Duration::from_micros(200));
        metrics.observe("/v1/supremum", 504, Duration::from_secs(10));
        metrics.observe("/healthz", 200, Duration::from_nanos(7_400));
        metrics.observe("/healthz", 200, Duration::from_nanos(20_900));
        metrics.observe("/v1/optimize", 200, Duration::from_secs(61));
        assert_eq!(metrics.requests_for("/v1/cr", 200), 2);
        assert_eq!(metrics.requests_for("/v1/scenario", 503), 1);
        assert_eq!(metrics.rejected_total.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.timeout_total.load(Ordering::Relaxed), 1);

        let cache = ResponseCache::new(1024, 2);
        let text = metrics.render(&cache);
        assert!(text.contains("faultline_requests_total{route=\"/v1/cr\",status=\"200\"} 2"));
        // Whole microseconds, so a hot answer has buckets of its own.
        assert!(text.contains("faultline_request_latency_us_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("faultline_request_latency_us_bucket{le=\"25\"} 2\n"), "{text}");
        assert!(text.contains("faultline_request_latency_us_bucket{le=\"250\"} 3\n"), "{text}");
        assert!(text.contains("faultline_request_latency_us_bucket{le=\"5000\"} 5\n"), "{text}");
        assert!(text.contains("faultline_request_latency_us_bucket{le=\"60000000\"} 6\n"));
        assert!(text.contains("faultline_request_latency_us_bucket{le=\"+Inf\"} 7\n"));
        assert!(text.contains("faultline_request_latency_us_count 7\n"));
        // 3000 + 3000 + 200 + 10_000_000 + 7 + 20 + 61_000_000.
        assert!(text.contains("faultline_request_latency_us_sum 71006227\n"), "{text}");
        assert!(text.contains("faultline_queue_depth 0"));
        assert!(text.contains("faultline_workers_total 4"));
    }

    #[test]
    fn tier_counters_render_and_accumulate() {
        let metrics = Metrics::new(1);
        metrics.memo_hit();
        metrics.memo_hit();
        metrics.coalesced();
        metrics.pool_job();
        metrics.inline_compute();
        metrics.connection_accepted(0);
        metrics.keepalive_reuse();
        assert_eq!(metrics.memo_hits(), 2);
        assert_eq!(metrics.coalesced_requests(), 1);
        assert_eq!(metrics.pool_jobs(), 1);
        assert_eq!(metrics.inline_computes(), 1);
        assert_eq!(metrics.connections(), 1);
        assert_eq!(metrics.keepalive_reuses(), 1);
        let cache = ResponseCache::new(16, 1);
        let text = metrics.render(&cache);
        assert!(text.contains("faultline_cr_memo_hits_total 2"));
        assert!(text.contains("faultline_coalesced_requests_total 1"));
        assert!(text.contains("faultline_pool_jobs_total 1"));
        assert!(text.contains("faultline_inline_computes_total 1"));
        assert!(text.contains("faultline_connections_total 1"));
        assert!(text.contains("faultline_keepalive_reuses_total 1"));
    }

    #[test]
    fn worker_gauges_track_busy_count() {
        let metrics = Metrics::new(2);
        metrics.worker_busy();
        let cache = ResponseCache::new(16, 1);
        assert!(metrics.render(&cache).contains("faultline_workers_busy 1"));
        assert!(metrics.render(&cache).contains("faultline_worker_utilization 0.5"));
        metrics.worker_idle();
        assert!(metrics.render(&cache).contains("faultline_workers_busy 0"));
    }

    #[test]
    fn request_lines_keep_their_order_whichever_path_counts_them() {
        let metrics = Metrics::new(1);
        let observed = [
            ("/v1/scenario", 200),
            ("/test", 200),
            ("unmatched", 404),
            ("/healthz", 200),
            ("/v1/cr", 299),
            ("/v1/cr", 200),
            ("/healthz", 200),
        ];
        for (route, status) in observed {
            metrics.observe(route, status, Duration::ZERO);
        }
        assert_eq!(metrics.requests_for("/healthz", 200), 2);
        assert_eq!(metrics.requests_for("/test", 200), 1, "outside the table");
        let text = metrics.render(&ResponseCache::new(16, 1));
        let lines: Vec<&str> =
            text.lines().filter(|line| line.starts_with("faultline_requests_total")).collect();
        // The order of a map keyed on (route, status), as before.
        assert_eq!(
            lines,
            [
                "faultline_requests_total{route=\"/healthz\",status=\"200\"} 2",
                "faultline_requests_total{route=\"/test\",status=\"200\"} 1",
                "faultline_requests_total{route=\"/v1/cr\",status=\"200\"} 1",
                "faultline_requests_total{route=\"/v1/cr\",status=\"299\"} 1",
                "faultline_requests_total{route=\"/v1/scenario\",status=\"200\"} 1",
                "faultline_requests_total{route=\"unmatched\",status=\"404\"} 1",
            ]
        );
    }

    #[test]
    fn loop_gauges_follow_each_loops_open_connections() {
        let metrics = Metrics::new(2);
        for lp in [0, 1, 1] {
            metrics.connection_accepted(lp);
        }
        metrics.connection_closed(1);
        assert_eq!([metrics.open_connections(0), metrics.open_connections(1)], [1, 1]);
        assert_eq!(metrics.connections(), 3);
        let text = metrics.render(&ResponseCache::new(16, 1));
        assert!(text.contains("faultline_connections_total 3\n"), "{text}");
        assert!(
            text.ends_with(
                "# TYPE faultline_loop_connections gauge\n\
                 faultline_loop_connections{loop=\"0\"} 1\n\
                 faultline_loop_connections{loop=\"1\"} 1\n\
                 # TYPE faultline_loop_connections_total counter\n\
                 faultline_loop_connections_total{loop=\"0\"} 1\n\
                 faultline_loop_connections_total{loop=\"1\"} 2\n"
            ),
            "{text}"
        );
    }
}
