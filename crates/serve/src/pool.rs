//! Bounded worker pool with an admission queue and a completion queue.
//!
//! The event loop resolves and validates requests, computes a miss
//! under the work bound itself, and submits every other miss as a
//! [`Job`] here. `try_submit` never blocks: when the queue is at
//! capacity the caller answers `503 Service Unavailable` with a
//! `Retry-After` header instead (backpressure, not buffering).
//!
//! Each worker runs one job at a time, in place and under
//! `catch_unwind`, then posts a [`Completion`] (the job's flight and
//! its [`Outcome`]) to the completion queue. A post into an empty queue
//! also writes one byte into a `UnixStream` pair whose read end sits on
//! the event loop's poller, so the loop wakes, takes every completion
//! queued by then and answers the flights' connections itself. Workers
//! never touch a socket, and a job holds its worker until it finishes,
//! even after the loop answered its flight `504`: at most `threads`
//! pool computations ever run, plus the one the loop may be running
//! inline. A job dequeued after its deadline is not run.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::flight::FlightId;
use crate::handlers::Compute;
use crate::metrics::Metrics;
use crate::ServeError;

/// An admitted computation waiting for (or undergoing) execution. The
/// connections it answers are parked on its flight.
pub struct Job {
    /// The flight this job lands.
    pub flight: FlightId,
    /// Computes the response body (and inserts it into the cache).
    pub compute: Compute,
    /// The flight's deadline; a job dequeued after it is not run.
    pub deadline: Instant,
}

/// What a job answers its flight with: the response body, or an error
/// status with its message.
pub type Outcome = Result<Vec<u8>, (u16, String)>;

/// A finished job, posted for the event loop.
pub struct Completion {
    /// The flight the job lands.
    pub flight: FlightId,
    /// Its answer.
    pub outcome: Outcome,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the wake-up pair (non-blocking).
    wake: UnixStream,
}

/// The bounded worker pool. Shared behind an `Arc` between the event
/// loop (submit, completions) and the server teardown (drain).
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Read end of the wake-up pair (non-blocking), for the poller.
    woken: UnixStream,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `threads` workers sharing an admission queue of
    /// `capacity` jobs.
    ///
    /// # Errors
    ///
    /// Fails when the wake-up socket pair cannot be created.
    pub fn new(threads: usize, capacity: usize, metrics: Arc<Metrics>) -> io::Result<Self> {
        let pool = WorkerPool::unstarted(capacity, metrics)?;
        let handles = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&pool.shared);
                std::thread::Builder::new()
                    .name(format!("faultline-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker cannot fail")
            })
            .collect();
        *pool.handles.lock().expect("pool handles poisoned") = handles;
        Ok(pool)
    }

    /// A pool with no workers yet.
    fn unstarted(capacity: usize, metrics: Arc<Metrics>) -> io::Result<Self> {
        let (wake, woken) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        woken.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
            completions: Mutex::new(Vec::new()),
            wake,
        });
        Ok(WorkerPool { shared, woken, handles: Mutex::new(Vec::new()) })
    }

    /// Admits a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns the job back when the queue is at capacity or the pool
    /// is draining; the caller answers 503 to the flight's waiters.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let mut state = self.shared.state.lock().expect("pool queue poisoned");
        if state.closed || state.jobs.len() >= self.shared.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        self.shared.metrics.set_queue_depth(state.jobs.len());
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }

    /// The number of jobs currently queued (not yet picked up).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().expect("pool queue poisoned").jobs.len()
    }

    /// The descriptor that turns readable when completions are queued.
    #[must_use]
    pub fn completion_fd(&self) -> RawFd {
        self.woken.as_raw_fd()
    }

    /// Appends every queued completion to `out`, in the order the jobs
    /// finished, and consumes the wake-up bytes that announced them.
    pub fn take_completions(&self, out: &mut Vec<Completion>) {
        // Drain before taking: a completion posted after the take
        // writes a fresh byte, so none is left unannounced.
        let mut sink = [0u8; 64];
        while matches!((&self.woken).read(&mut sink), Ok(n) if n > 0) {}
        out.append(&mut self.shared.completions.lock().expect("completion queue poisoned"));
    }

    /// Graceful drain: stops admitting, lets the workers finish every
    /// queued and in-flight job, then joins them. Idempotent.
    pub fn drain(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool queue poisoned");
            state.closed = true;
        }
        self.shared.available.notify_all();
        let handles: Vec<_> =
            self.handles.lock().expect("pool handles poisoned").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Runs a computation under `catch_unwind`, as the workers and the
/// event loop's inline computes both do: a panic answers 500.
pub(crate) fn run_guarded(compute: impl FnOnce() -> Result<Vec<u8>, ServeError>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(compute)) {
        Ok(Ok(body)) => Ok(body),
        Ok(Err(error)) => Err((error.status(), error.message().to_owned())),
        Err(_panic) => Err((500, "computation panicked".to_owned())),
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    shared.metrics.set_queue_depth(state.jobs.len());
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.available.wait(state).expect("pool queue poisoned");
            }
        };
        shared.metrics.worker_busy();
        shared.metrics.pool_job();
        let Job { flight, compute, deadline } = job;
        let outcome = if Instant::now() >= deadline {
            Err((504, "deadline exceeded while queued".to_owned()))
        } else {
            run_guarded(compute)
        };
        let mut completions = shared.completions.lock().expect("completion queue poisoned");
        let announce = completions.is_empty();
        completions.push(Completion { flight, outcome });
        drop(completions);
        if announce {
            // Non-blocking, and at most a few bytes are ever unread.
            let _ = (&shared.wake).write(&[1]);
        }
        shared.metrics.worker_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightTable, Parked, Waiter};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn waiter() -> Waiter {
        Waiter { fd: 7, token: 0, received: Instant::now(), keep_alive: true, route: "/test" }
    }

    fn dummy_job(flights: &mut FlightTable, key: &str, deadline_from_now: Duration) -> Job {
        let deadline = Instant::now() + deadline_from_now;
        let Parked::Created(flight) = flights.park(key, deadline, waiter()) else {
            panic!("test keys are unique per job")
        };
        Job { flight, compute: Box::new(|| Ok(b"{}".to_vec())), deadline }
    }

    /// Every completion the pool has posted, landed on `flights`.
    fn land_all(pool: &WorkerPool, flights: &mut FlightTable) -> Vec<(usize, Outcome)> {
        let mut completions = Vec::new();
        pool.take_completions(&mut completions);
        completions
            .into_iter()
            .map(|c| (flights.land(&c.flight).map_or(0, |waiters| waiters.len()), c.outcome))
            .collect()
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        // No workers consuming: one slot, second submit bounces.
        let pool = WorkerPool::unstarted(1, Arc::new(Metrics::new(1))).unwrap();
        let mut flights = FlightTable::new();
        assert!(pool.try_submit(dummy_job(&mut flights, "a", Duration::from_secs(5))).is_ok());
        assert!(pool.try_submit(dummy_job(&mut flights, "b", Duration::from_secs(5))).is_err());
        assert_eq!(pool.queue_depth(), 1);
    }

    #[test]
    fn drain_finishes_queued_jobs() {
        let metrics = Arc::new(Metrics::new(2));
        let pool = WorkerPool::new(2, 8, Arc::clone(&metrics)).unwrap();
        let mut flights = FlightTable::new();
        for key in ["a", "b", "c", "d"] {
            pool.try_submit(dummy_job(&mut flights, key, Duration::from_secs(5)))
                .map_err(|_| "full")
                .unwrap();
        }
        pool.drain();
        let landed = land_all(&pool, &mut flights);
        assert_eq!(landed.len(), 4, "every queued job was executed");
        assert!(landed.iter().all(|(waiters, outcome)| *waiters == 1 && outcome.is_ok()));
        assert_eq!(metrics.pool_jobs(), 4);
        assert_eq!(flights.in_flight(), 0, "every flight landed");
    }

    #[test]
    fn expired_jobs_answer_504_without_computing() {
        let pool = WorkerPool::new(1, 4, Arc::new(Metrics::new(1))).unwrap();
        let mut flights = FlightTable::new();
        let ran = Arc::new(AtomicBool::new(false));
        let mut job = dummy_job(&mut flights, "late", Duration::ZERO);
        let flag = Arc::clone(&ran);
        job.compute = Box::new(move || {
            flag.store(true, Ordering::SeqCst);
            Ok(Vec::new())
        });
        pool.try_submit(job).map_err(|_| "full").unwrap();
        pool.drain();
        let landed = land_all(&pool, &mut flights);
        assert!(matches!(landed.as_slice(), [(1, Err((504, _)))]), "{landed:?}");
        assert!(!ran.load(Ordering::SeqCst), "an expired job never computes");
    }

    #[test]
    fn one_job_answers_every_coalesced_waiter() {
        let metrics = Arc::new(Metrics::new(1));
        let pool = WorkerPool::new(1, 4, Arc::clone(&metrics)).unwrap();
        let mut flights = FlightTable::new();
        let job = dummy_job(&mut flights, "herd", Duration::from_secs(5));
        // Three more connections coalesce onto the same flight.
        for _ in 0..3 {
            let parked = flights.park("herd", Instant::now(), waiter());
            assert_eq!(parked, Parked::Coalesced, "the flight exists");
        }
        pool.try_submit(job).map_err(|_| "full").unwrap();
        pool.drain();
        let landed = land_all(&pool, &mut flights);
        assert_eq!(landed.len(), 1, "one computation for the herd");
        assert_eq!(landed[0].0, 4, "all four waiters answered");
        assert_eq!(metrics.pool_jobs(), 1);
    }
}
