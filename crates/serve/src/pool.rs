//! Bounded worker pool with an admission queue.
//!
//! An event loop resolves and validates requests, computes a miss
//! under the work bound itself, and submits every other miss as a
//! `Job` here. `try_submit` never blocks: when the queue is at
//! capacity the caller answers `503 Service Unavailable` with a
//! `Retry-After` header instead (backpressure, not buffering).
//!
//! Each worker runs one job at a time, in place and under
//! `catch_unwind`, then posts the job's flight and its [`Outcome`] to
//! the inbox of the loop that submitted it ([`crate::server`]), which
//! wakes, lands the flight and answers its waiters. Workers never touch
//! a socket, and a job holds its worker until it finishes, even after a
//! loop answered its flight `504`: at most `threads` pool computations
//! ever run, plus the one each loop may be running inline. A job
//! dequeued after its deadline is not run.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::flight::FlightId;
use crate::handlers::Compute;
use crate::metrics::Metrics;
use crate::server::{Inbox, Message};
use crate::ServeError;

/// An admitted computation waiting for (or undergoing) execution. The
/// connections it answers are parked on its flight.
pub(crate) struct Job {
    /// The flight this job lands.
    pub(crate) flight: FlightId,
    /// Computes the response body (and inserts it into the cache).
    pub(crate) compute: Compute,
    /// The flight's deadline; a job dequeued after it is not run.
    pub(crate) deadline: Instant,
    /// The inbox of the loop that submitted the job and lands its
    /// flight.
    pub(crate) reply: Arc<Inbox>,
}

/// What a job answers its flight with: the response body, or an error
/// status with its message.
pub type Outcome = Result<Vec<u8>, (u16, String)>;

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
}

/// The bounded worker pool. Shared behind an `Arc` between the event
/// loops (submit) and the server teardown (drain).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `threads` workers sharing an admission queue of
    /// `capacity` jobs.
    #[must_use]
    pub fn new(threads: usize, capacity: usize, metrics: Arc<Metrics>) -> Self {
        let pool = WorkerPool::unstarted(capacity, metrics);
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
        pool
    }

    /// A pool with no workers yet.
    fn unstarted(capacity: usize, metrics: Arc<Metrics>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
        });
        WorkerPool { shared, handles: Mutex::new(Vec::new()) }
    }

    /// Admits a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns the job back when the queue is at capacity or the pool
    /// is draining; the caller answers 503 to the flight's waiters.
    pub(crate) fn try_submit(&self, job: Job) -> Result<(), Job> {
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
/// event loops' inline computes both do: a panic answers 500.
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
        let Job { flight, compute, deadline, reply } = job;
        let outcome = if Instant::now() >= deadline {
            Err((504, "deadline exceeded while queued".to_owned()))
        } else {
            run_guarded(compute)
        };
        reply.post(Message::Landed(flight, outcome));
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
        Waiter {
            lp: 0,
            fd: 7,
            token: 0,
            received: Instant::now(),
            keep_alive: true,
            route: "/test",
        }
    }

    fn dummy_job(
        flights: &FlightTable,
        inbox: &Arc<Inbox>,
        key: &str,
        deadline_from_now: Duration,
    ) -> Job {
        let deadline = Instant::now() + deadline_from_now;
        let Parked::Created(flight) = flights.park(key, deadline, waiter()) else {
            panic!("test keys are unique per job")
        };
        let reply = Arc::clone(inbox);
        Job { flight, compute: Box::new(|| Ok(b"{}".to_vec())), deadline, reply }
    }

    fn inbox() -> Arc<Inbox> {
        Arc::new(Inbox::new().expect("a socket pair"))
    }

    /// Every completion posted to `inbox`, landed on `flights`.
    fn land_all(inbox: &Inbox, flights: &FlightTable) -> Vec<(usize, Outcome)> {
        let mut messages = Vec::new();
        inbox.take(&mut messages);
        messages
            .into_iter()
            .map(|message| {
                let Message::Landed(flight, outcome) = message else {
                    panic!("the pool posts only completions")
                };
                (flights.land(&flight).map_or(0, |waiters| waiters.len()), outcome)
            })
            .collect()
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        // No workers consuming: one slot, second submit bounces.
        let pool = WorkerPool::unstarted(1, Arc::new(Metrics::new(1)));
        let (flights, inbox) = (FlightTable::new(), inbox());
        let first = dummy_job(&flights, &inbox, "a", Duration::from_secs(5));
        assert!(pool.try_submit(first).is_ok());
        let second = dummy_job(&flights, &inbox, "b", Duration::from_secs(5));
        assert!(pool.try_submit(second).is_err());
        assert_eq!(pool.queue_depth(), 1);
    }

    #[test]
    fn drain_finishes_queued_jobs() {
        let metrics = Arc::new(Metrics::new(2));
        let pool = WorkerPool::new(2, 8, Arc::clone(&metrics));
        let (flights, inbox) = (FlightTable::new(), inbox());
        for key in ["a", "b", "c", "d"] {
            pool.try_submit(dummy_job(&flights, &inbox, key, Duration::from_secs(5)))
                .map_err(|_| "full")
                .unwrap();
        }
        pool.drain();
        let landed = land_all(&inbox, &flights);
        assert_eq!(landed.len(), 4, "every queued job was executed");
        assert!(landed.iter().all(|(waiters, outcome)| *waiters == 1 && outcome.is_ok()));
        assert_eq!(metrics.pool_jobs(), 4);
        assert_eq!(flights.in_flight(), 0, "every flight landed");
    }

    #[test]
    fn expired_jobs_answer_504_without_computing() {
        let pool = WorkerPool::new(1, 4, Arc::new(Metrics::new(1)));
        let (flights, inbox) = (FlightTable::new(), inbox());
        let ran = Arc::new(AtomicBool::new(false));
        let mut job = dummy_job(&flights, &inbox, "late", Duration::ZERO);
        let flag = Arc::clone(&ran);
        job.compute = Box::new(move || {
            flag.store(true, Ordering::SeqCst);
            Ok(Vec::new())
        });
        pool.try_submit(job).map_err(|_| "full").unwrap();
        pool.drain();
        let landed = land_all(&inbox, &flights);
        assert!(matches!(landed.as_slice(), [(1, Err((504, _)))]), "{landed:?}");
        assert!(!ran.load(Ordering::SeqCst), "an expired job never computes");
    }

    #[test]
    fn one_job_answers_every_coalesced_waiter() {
        let metrics = Arc::new(Metrics::new(1));
        let pool = WorkerPool::new(1, 4, Arc::clone(&metrics));
        let (flights, inbox) = (FlightTable::new(), inbox());
        let job = dummy_job(&flights, &inbox, "herd", Duration::from_secs(5));
        // Three more connections coalesce onto the same flight.
        for _ in 0..3 {
            let parked = flights.park("herd", Instant::now(), waiter());
            assert_eq!(parked, Parked::Coalesced, "the flight exists");
        }
        pool.try_submit(job).map_err(|_| "full").unwrap();
        pool.drain();
        let landed = land_all(&inbox, &flights);
        assert_eq!(landed.len(), 1, "one computation for the herd");
        assert_eq!(landed[0].0, 4, "all four waiters answered");
        assert_eq!(metrics.pool_jobs(), 1);
    }
}
