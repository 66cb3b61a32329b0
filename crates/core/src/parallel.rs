//! Work-stealing parallel map built on crossbeam scoped threads.
//!
//! Lives in `faultline-core` so every downstream crate (the scenario
//! runner, the Monte-Carlo sweeps, the analysis sweeps) can share one
//! implementation without `faultline-sim` depending on
//! `faultline-analysis`.
//!
//! ## Why work-stealing instead of contiguous chunks
//!
//! Simulation cost grows geometrically in the target position `x`: the
//! turning points of `A(n, f)` form a geometric sequence (Lemma 2), so
//! the items at the tail of a sorted target grid are far more expensive
//! than the head. Splitting such a sweep into one contiguous chunk per
//! core puts the entire expensive tail in the last chunk and the sweep
//! degrades toward serial. Here workers instead claim small chunks of
//! `grain` items from a shared atomic index until the work runs out, so
//! a straggler item only delays its own chunk.
//!
//! Results are returned in input order regardless of which worker
//! computed them, and a panic in any worker is re-raised on the caller
//! with its original payload via [`std::panic::resume_unwind`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossbeam::thread;

/// Environment variable overriding the worker-thread count
/// (`FAULTLINE_THREADS=1` forces serial execution — useful for
/// reproducible CI timings and debugging).
pub const THREADS_ENV: &str = "FAULTLINE_THREADS";

/// Tuning knobs for [`par_map_with`].
///
/// The default configuration resolves the thread count from the
/// `FAULTLINE_THREADS` environment variable when set, falling back to
/// [`std::thread::available_parallelism`], and picks a grain size that
/// yields roughly eight chunks per worker so stolen chunks stay small
/// enough to rebalance geometric cost skew.
#[derive(Debug, Clone, Default)]
pub struct ParallelConfig {
    /// Worker-thread count; `None` defers to `FAULTLINE_THREADS`, then
    /// to the number of available cores.
    pub threads: Option<usize>,
    /// Items claimed per steal; `None` derives a grain from the input
    /// length and thread count.
    pub grain: Option<usize>,
}

impl ParallelConfig {
    /// Configuration with an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads: Some(threads), grain: None }
    }

    /// Sets the number of items claimed per steal.
    #[must_use]
    pub fn grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain);
        self
    }

    /// The effective worker-thread count: explicit setting, then the
    /// `FAULTLINE_THREADS` environment variable, then the number of
    /// available cores. Never zero.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if let Some(t) = self.threads {
            return t.max(1);
        }
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Ok(t) = raw.trim().parse::<usize>() {
                if t >= 1 {
                    return t;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }

    /// The effective grain for `len` items on `threads` workers: the
    /// explicit setting, or `len / (8 * threads)` clamped to at least
    /// one item.
    #[must_use]
    pub fn resolved_grain(&self, len: usize, threads: usize) -> usize {
        match self.grain {
            Some(g) => g.max(1),
            None => (len / (8 * threads.max(1))).max(1),
        }
    }
}

/// Maps `f` over `items` in parallel with the default configuration,
/// preserving order.
///
/// Uses the work-stealing scheduler of [`par_map_with`]; the closure
/// must be `Sync` because it is shared across threads. A panic in a
/// worker is re-raised here with its original payload.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, &ParallelConfig::default(), f)
}

/// Maps `f` over `items` on a work-stealing scheduler, preserving
/// order.
///
/// Workers repeatedly claim the next `grain` items from a shared
/// atomic index until the input is exhausted, so expensive items near
/// the end of the input cannot strand the sweep in a single straggler
/// chunk. Results are written into per-chunk slots and flattened in
/// chunk order, so the output matches `items.iter().map(f)` exactly.
///
/// # Panics
///
/// If `f` panics on any item, the first captured payload is re-raised
/// on the caller via [`std::panic::resume_unwind`], preserving the
/// original panic message; remaining workers stop claiming new chunks.
pub fn par_map_with<T, R, F>(items: &[T], config: &ParallelConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let threads = config.resolved_threads().min(len);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let grain = config.resolved_grain(len, threads);
    let num_chunks = len.div_ceil(grain);

    let next_chunk = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    // One slot per chunk, each written exactly once by whichever worker
    // claims it, so the locks are uncontended.
    let slots: Vec<Mutex<Vec<R>>> = (0..num_chunks).map(|_| Mutex::new(Vec::new())).collect();

    thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(|_| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                if chunk >= num_chunks {
                    break;
                }
                let start = chunk * grain;
                let end = (start + grain).min(len);
                match catch_unwind(AssertUnwindSafe(|| {
                    items[start..end].iter().map(&f).collect::<Vec<R>>()
                })) {
                    Ok(values) => {
                        *slots[chunk].lock().expect("result slot poisoned") = values;
                    }
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut first = panic_payload.lock().expect("panic slot poisoned");
                        if first.is_none() {
                            *first = Some(payload);
                        }
                        break;
                    }
                }
            }));
        }
        // Join each worker, so it has fully exited and handed its
        // allocator arena and stack back before the next fan-out spawns
        // threads; a worker still exiting makes those allocate afresh,
        // which raises peak memory across back-to-back fan-outs.
        for worker in workers {
            if let Err(payload) = worker.join() {
                resume_unwind(payload);
            }
        }
    })
    .expect("worker panics are caught inside the scope");

    if let Some(payload) = panic_payload.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }

    let mut out = Vec::with_capacity(len);
    for slot in slots {
        out.append(&mut slot.into_inner().expect("result slot poisoned"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled.len(), 1000);
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<u8> = par_map(&Vec::<u8>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn handles_fewer_items_than_cores() {
        let out = par_map(&[1, 2], |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn fallible_mapping_collects_results() {
        let items = [1.0f64, 2.0, 3.0];
        let out: Vec<Result<f64, String>> =
            par_map(&items, |&x| if x > 2.5 { Err(format!("{x} too big")) } else { Ok(x) });
        assert!(out[0].is_ok() && out[1].is_ok() && out[2].is_err());
    }

    #[test]
    fn explicit_grain_and_threads_preserve_order() {
        let items: Vec<u64> = (0..997).collect();
        let config = ParallelConfig::with_threads(7).grain(13);
        let out = par_map_with(&items, &config, |&x| x + 1);
        let expected: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn single_thread_config_runs_serially() {
        let items: Vec<u32> = (0..64).collect();
        let out = par_map_with(&items, &ParallelConfig::with_threads(1), |&x| x * x);
        let expected: Vec<u32> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panic_payload_survives_with_original_message() {
        let items: Vec<u64> = (0..256).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(&items, &ParallelConfig::with_threads(4).grain(8), |&x| {
                assert!(x != 97, "item {x} hit the poison value");
                x
            })
        }))
        .expect_err("the mapping panics on item 97");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a string");
        assert!(
            message.contains("item 97 hit the poison value"),
            "original panic message lost: {message}"
        );
    }

    #[test]
    fn threads_env_override_is_honoured() {
        // `resolved_threads` consults the environment only when no
        // explicit count is set.
        let explicit = ParallelConfig::with_threads(3);
        assert_eq!(explicit.resolved_threads(), 3);
        let default = ParallelConfig::default();
        assert!(default.resolved_threads() >= 1);
    }
}
