//! # faultline-serve
//!
//! A dependency-light HTTP/1.1 JSON query service over the faultline
//! analysis stack, built on readiness-based epoll event loops (raw
//! syscall FFI in [`sys`], no `libc` crate):
//!
//! * **Routes** — `GET /v1/cr?n=&f=` (closed-form competitive-ratio
//!   report), `GET /v1/table1` (regenerated Table 1),
//!   `POST /v1/scenario` (named presets with explicit seeds, or full
//!   scenario/trace documents), `POST /v1/supremum` (empirical
//!   supremum), `POST /v1/optimize` (schedule-space optimizer gap
//!   report), plus `GET /healthz` and `GET /metrics`.
//! * **Event loops** — `threads` identical loops in one process, one
//!   thread each ([`server`]). Loop 0 accepts and gives each connection
//!   to the loop with the fewest open connections; that loop's thread
//!   then reads, parses, answers and writes for it over non-blocking
//!   sockets with HTTP/1.1 keep-alive on every tier. A half-written
//!   request never occupies more than its own connection (no
//!   thread-per-connection slowloris exposure).
//! * **Serving tiers** — `GET /v1/cr` is answered from a closed-form
//!   memo lattice whose points are each serialized on their first
//!   request, nothing at start-up ([`memo`], `X-Cache: memo`); other
//!   requests hit the sharded LRU (`X-Cache: hit`), compute inline on
//!   their loop when their work bound ([`handlers::INLINE_WORK`])
//!   allows, or park in place on their loop while the bounded worker
//!   pool computes them.
//! * **Single-flight coalescing** — concurrent misses on one canonical
//!   cache key compute once, whichever loops they arrive on ([`flight`],
//!   one table behind a mutex that a loop locks only while a flight is
//!   in the air); every coalesced connection receives the
//!   byte-identical response and keeps its connection.
//! * **Backpressure** — a bounded worker pool with a bounded admission
//!   queue; a full queue answers `503 + Retry-After`, and the loops
//!   answer `504` at a parked request's deadline. The job keeps its
//!   worker until it finishes, so at most `threads` pool computations
//!   run, plus one inline on each loop. A fleet over
//!   [`faultline_core::Params::MAX_ROBOTS`] is refused (`400`) before
//!   anything is built.
//! * **Load generation** — a deterministic seeded load generator
//!   ([`loadgen`], `faultline loadgen`).
//! * **Operability** — plain-text metrics (including per-tier counters
//!   and each loop's open connections), graceful drain on
//!   SIGINT/SIGTERM that answers parked connections and is not blocked
//!   by idle keep-alive connections.
//!
//! The binary surface lives in the `faultline` CLI (`faultline serve`,
//! `faultline query`, `faultline loadgen`); this crate is the library
//! behind it.

pub mod cache;
pub mod client;
pub mod config;
pub mod flight;
pub mod handlers;
pub mod http;
pub mod loadgen;
pub mod memo;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod server;
pub mod signal;
pub mod sys;

pub use cache::ResponseCache;
pub use config::{ServeConfig, DEFAULT_ADDR};
pub use metrics::Metrics;
pub use server::{Server, ServerHandle, ServerState};

/// A request-level failure with its HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The client sent something invalid (400).
    BadRequest(String),
    /// The service failed internally (500).
    Internal(String),
}

impl ServeError {
    /// The HTTP status code this error answers with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::Internal(_) => 500,
        }
    }

    /// The human-readable message.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            ServeError::BadRequest(message) | ServeError::Internal(message) => message,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status(),
            crate::http::reason_phrase(self.status()),
            self.message()
        )
    }
}

impl std::error::Error for ServeError {}

impl From<faultline_core::Error> for ServeError {
    fn from(error: faultline_core::Error) -> Self {
        use faultline_core::Error;
        match &error {
            // Client-attributable: bad parameters or a document whose
            // contents fail domain checks (e.g. a diverging trace).
            Error::InvalidParameters { .. } | Error::InvalidBeta { .. } | Error::Domain { .. } => {
                ServeError::BadRequest(error.to_string())
            }
            _ => ServeError::Internal(error.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_variants() {
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::Internal("x".into()).status(), 500);
        assert_eq!(ServeError::BadRequest("nope".into()).to_string(), "400 Bad Request: nope");
    }

    #[test]
    fn core_errors_map_onto_statuses() {
        let invalid = faultline_core::Params::new(2, 2).expect_err("f >= n");
        assert_eq!(ServeError::from(invalid).status(), 400);
        let domain = faultline_core::Error::domain("diverged");
        assert_eq!(ServeError::from(domain).status(), 400);
    }
}
