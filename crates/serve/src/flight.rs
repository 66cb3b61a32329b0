//! Single-flight request coalescing.
//!
//! A thundering herd of identical cache misses should compute once: the
//! first requester of a key creates a *flight* and submits the one pool
//! job; every later requester of the same key parks on the flight as a
//! waiter instead of submitting anything. When the job finishes (or the
//! flight's deadline passes) the flight *lands* and every waiter
//! receives the byte-identical response.
//!
//! One table serves every event loop of a server, behind one mutex, so
//! a herd spread over several loops still computes once. Parking and
//! landing both take the lock, so a waiter can never slip onto a flight
//! that already landed. Once a flight lands, the next request for its
//! key either hits the cache (the job inserted before it completed) or
//! creates a fresh flight. The number of flights in the air is also
//! kept outside the lock: with none, [`FlightTable::expire`] and
//! [`FlightTable::next_deadline`] take no lock, so a loop with no
//! flight in the air takes none per turn.
//!
//! Each flight has a serial number that is never reused, and a job
//! completes its flight by [`FlightId`]. A job whose flight already
//! expired therefore lands nothing, not even a newer flight of the same
//! key.
//!
//! Keys are the same canonical cache keys the LRU uses
//! (`route-label|canonical_string`), so "identical request" means
//! identical after default resolution — exactly the dedup rule the
//! cache already implements.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One parked connection awaiting a flight's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// The index of the event loop that owns the connection.
    pub lp: usize,
    /// The connection's file descriptor.
    pub fd: i32,
    /// The connection's token. An fd is reused by the next connection
    /// once this one closes; a token never is, so a waiter whose
    /// connection is gone answers no one.
    pub token: u64,
    /// When this waiter's request was parsed (for its latency metric).
    pub received: Instant,
    /// Whether the answer keeps the connection open.
    pub keep_alive: bool,
    /// The request's route label (for its metric).
    pub route: &'static str,
}

/// Names one flight: its key and its never-reused serial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightId {
    key: String,
    serial: u64,
}

/// Outcome of [`FlightTable::park`].
#[derive(Debug, PartialEq, Eq)]
pub enum Parked {
    /// The caller's waiter created the flight; the caller must submit
    /// its one pool job (or land it at once with an error).
    Created(FlightId),
    /// The waiter coalesced onto an existing flight; nothing to submit.
    Coalesced,
}

struct Flight {
    serial: u64,
    /// The creator's deadline; followers share it.
    deadline: Instant,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct Flights {
    flights: HashMap<String, Flight>,
    launched: u64,
}

/// All flights currently in the air, keyed on the cache key.
#[derive(Default)]
pub struct FlightTable {
    table: Mutex<Flights>,
    /// The number of flights in `table`, readable without the lock.
    in_flight: AtomicUsize,
}

impl FlightTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> FlightTable {
        FlightTable::default()
    }

    /// Runs `update` under the lock, then republishes the flight count.
    fn with<T>(&self, update: impl FnOnce(&mut Flights) -> T) -> T {
        let mut table = self.table.lock().expect("a loop panicked holding the flight table");
        let result = update(&mut table);
        self.in_flight.store(table.flights.len(), Ordering::SeqCst);
        result
    }

    /// Parks a waiter on the flight for `key`, creating the flight, with
    /// its deadline, if absent.
    #[must_use]
    pub fn park(&self, key: &str, deadline: Instant, waiter: Waiter) -> Parked {
        self.with(|table| {
            if let Some(flight) = table.flights.get_mut(key) {
                flight.waiters.push(waiter);
                return Parked::Coalesced;
            }
            table.launched += 1;
            let serial = table.launched;
            table
                .flights
                .insert(key.to_owned(), Flight { serial, deadline, waiters: vec![waiter] });
            Parked::Created(FlightId { key: key.to_owned(), serial })
        })
    }

    /// Lands the flight `id`: removes it (later requests for the key
    /// start fresh) and returns its waiters for answering. `None` when
    /// it already landed or expired.
    #[must_use]
    pub fn land(&self, id: &FlightId) -> Option<Vec<Waiter>> {
        self.with(|table| {
            if table.flights.get(&id.key)?.serial != id.serial {
                return None;
            }
            table.flights.remove(&id.key).map(|flight| flight.waiters)
        })
    }

    /// Lands every flight whose deadline is not after `now`, returning
    /// all their waiters. Takes no lock when no flight is in the air.
    #[must_use]
    pub fn expire(&self, now: Instant) -> Vec<Waiter> {
        if self.in_flight() == 0 {
            return Vec::new();
        }
        self.with(|table| {
            let mut expired = Vec::new();
            table.flights.retain(|_, flight| {
                let due = flight.deadline <= now;
                if due {
                    expired.append(&mut flight.waiters);
                }
                !due
            });
            expired
        })
    }

    /// The earliest deadline in the air. Takes no lock when no flight
    /// is in the air.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.in_flight() == 0 {
            return None;
        }
        self.with(|table| table.flights.values().map(|flight| flight.deadline).min())
    }

    /// The number of flights currently in the air.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;

    fn waiter(token: u64) -> Waiter {
        Waiter { lp: 0, fd: 7, token, received: Instant::now(), keep_alive: true, route: "/test" }
    }

    fn park(table: &FlightTable, key: &str, token: u64) -> Parked {
        table.park(key, Instant::now() + Duration::from_secs(60), waiter(token))
    }

    /// Holds `table`'s lock until the returned guard drops.
    pub(crate) fn hold(table: &FlightTable) -> impl Sized + '_ {
        table.table.lock().expect("the flight table is not poisoned")
    }

    #[test]
    fn first_parker_creates_then_others_coalesce() {
        let table = FlightTable::new();
        let Parked::Created(id) = park(&table, "k", 0) else { panic!("a new key creates") };
        for token in 1..4 {
            assert_eq!(park(&table, "k", token), Parked::Coalesced);
        }
        assert_eq!(table.in_flight(), 1);
        let waiters = table.land(&id).expect("the flight is in the air");
        let tokens: Vec<u64> = waiters.iter().map(|w| w.token).collect();
        assert_eq!(tokens, [0, 1, 2, 3], "creator + three coalesced waiters, in order");
        assert_eq!(table.in_flight(), 0);
        assert!(table.land(&id).is_none(), "landing is idempotent");
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = FlightTable::new();
        let Parked::Created(a) = park(&table, "a", 0) else { panic!("a creates") };
        assert!(matches!(park(&table, "b", 1), Parked::Created(_)));
        assert_eq!(table.in_flight(), 2);
        let _ = table.land(&a);
        assert!(matches!(park(&table, "a", 2), Parked::Created(_)), "landed keys restart");
    }

    #[test]
    fn expired_flights_land_and_their_late_jobs_land_nothing() {
        let table = FlightTable::new();
        let now = Instant::now();
        let soon = now + Duration::from_millis(5);
        let Parked::Created(old) = table.park("k", soon, waiter(0)) else {
            panic!("a new key creates")
        };
        let Parked::Created(other) = park(&table, "other", 1) else { panic!("creates") };
        assert_eq!(table.next_deadline(), Some(soon));
        assert!(table.expire(now).is_empty(), "nothing is due yet");

        let expired = table.expire(soon);
        assert_eq!(expired.iter().map(|w| w.token).collect::<Vec<_>>(), [0]);
        assert_eq!(table.in_flight(), 1, "the other flight is still due later");

        // A fresh flight of the same key is not landed by the expired
        // flight's job.
        let Parked::Created(new) = park(&table, "k", 2) else { panic!("k restarts") };
        assert!(table.land(&old).is_none(), "a late completion lands nothing");
        assert_eq!(table.land(&new).expect("the new flight").len(), 1);
        assert!(table.land(&other).is_some());
    }

    #[test]
    fn an_empty_table_answers_deadline_and_expiry_without_its_lock() {
        let table = FlightTable::new();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let held = hold(&table);
            scope.spawn(|| {
                let answers = (table.next_deadline(), table.expire(Instant::now()));
                done.send(answers).expect("the test thread waits");
            });
            let answers = finished.recv_timeout(Duration::from_secs(30));
            drop(held);
            assert_eq!(answers.expect("no lock was taken"), (None, Vec::new()));
        });
        let Parked::Created(id) = park(&table, "k", 0) else { panic!("a new key creates") };
        assert_eq!(table.in_flight(), 1);
        assert!(table.next_deadline().is_some(), "a flight in the air has a deadline");
        assert_eq!(table.land(&id).map(|waiters| waiters.len()), Some(1));
        assert_eq!(table.in_flight(), 0, "the count follows the table");
    }
}
