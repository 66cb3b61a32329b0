//! Service configuration: listen address, event-loop and worker-pool
//! sizing, cache budget, admission-queue depth and per-request deadline.

use std::time::Duration;

use faultline_core::Params;

/// The default listen address of `faultline serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Tuning knobs for the query service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Event loops, one thread each, and as many pool workers executing
    /// misses over the inline work bound; `None` defers to
    /// [`faultline_core::ParallelConfig`]'s resolution (the
    /// `FAULTLINE_THREADS` environment variable, then core count).
    pub threads: Option<usize>,
    /// Total response-cache byte budget across all shards.
    pub cache_bytes: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Admission-queue capacity; a full queue answers
    /// `503 Service Unavailable` with a `Retry-After` header.
    pub queue_capacity: usize,
    /// Per-request deadline measured from admission: a request that is
    /// still queued or computing when it expires answers
    /// `504 Gateway Timeout`.
    pub request_timeout: Duration,
    /// Largest `n` of the `/v1/cr` closed-form lattice: every valid
    /// `(n, f)` with `n <= memo_max_n` is serialized on its first
    /// request and then served without touching the cache or the pool.
    /// `0` disables the tier; at most [`Params::MAX_ROBOTS`].
    pub memo_max_n: usize,
    /// Keep-alive connections idle longer than this are closed by the
    /// event loop's sweep (slowloris hygiene: a half-written request
    /// holds one buffer, never a thread, and not forever).
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_owned(),
            threads: None,
            cache_bytes: 64 * 1024 * 1024,
            cache_shards: 16,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(60),
            memo_max_n: 64,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    /// The resolved count of event loops, and of pool workers (never
    /// zero).
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        faultline_core::ParallelConfig { threads: self.threads, grain: None }.resolved_threads()
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Rejects a zero cache shard count, a zero admission queue, a zero
    /// request or idle timeout, and a memo lattice over
    /// [`Params::MAX_ROBOTS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.cache_shards == 0 {
            return Err("cache_shards must be at least 1".to_owned());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".to_owned());
        }
        if self.request_timeout.is_zero() {
            return Err("request_timeout must be positive".to_owned());
        }
        if self.idle_timeout.is_zero() {
            return Err("idle_timeout must be positive".to_owned());
        }
        if self.memo_max_n > Params::MAX_ROBOTS {
            return Err(format!(
                "memo_max_n must be at most {} (the largest fleet served), got {}",
                Params::MAX_ROBOTS,
                self.memo_max_n
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let config = ServeConfig::default();
        assert!(config.validate().is_ok());
        assert!(config.resolved_threads() >= 1);
    }

    #[test]
    fn zero_knobs_are_rejected() {
        assert!(ServeConfig { cache_shards: 0, ..ServeConfig::default() }.validate().is_err());
        assert!(ServeConfig { queue_capacity: 0, ..ServeConfig::default() }.validate().is_err());
        assert!(ServeConfig { request_timeout: Duration::ZERO, ..ServeConfig::default() }
            .validate()
            .is_err());
        assert!(ServeConfig { idle_timeout: Duration::ZERO, ..ServeConfig::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn memo_tier_defaults_on_and_can_be_disabled() {
        let config = ServeConfig::default();
        assert_eq!(config.memo_max_n, 64);
        let off = ServeConfig { memo_max_n: 0, ..ServeConfig::default() };
        assert!(off.validate().is_ok(), "a disabled memo tier is valid");
    }

    #[test]
    fn memo_lattice_is_bounded_by_the_largest_fleet() {
        let at = |memo_max_n| ServeConfig { memo_max_n, ..ServeConfig::default() }.validate();
        assert!(at(Params::MAX_ROBOTS).is_ok());
        for over in [Params::MAX_ROBOTS + 1, usize::MAX] {
            let refused = at(over).expect_err("over the largest fleet");
            assert!(refused.contains("memo_max_n must be at most 4096"), "{refused}");
        }
    }
}
