//! The server: a readiness-based epoll event loop (raw FFI, see
//! [`crate::sys`]) owning accept/read/write with HTTP/1.1 keep-alive.
//!
//! One thread multiplexes every connection: non-blocking reads fill a
//! per-connection buffer, requests are parsed incrementally out of it
//! (a half-written header — slowloris — just occupies a buffer, never a
//! thread), and responses queue into a per-connection write buffer
//! flushed on writability. Serving goes through four tiers:
//!
//! 1. **memo** — `GET /v1/cr` inside the precomputed `(n, f)` lattice:
//!    a `HashMap` probe, no cache, no pool (`X-Cache: memo`).
//! 2. **hit** — the sharded LRU answers inline with the exact bytes of
//!    the original computation (`X-Cache: hit`).
//! 3. **a miss under the work bound** — [`handlers::prepare_with_work`]
//!    bounds each request's computation from its resolved parameters;
//!    under [`handlers::INLINE_WORK`] it runs inline on the event loop,
//!    under `catch_unwind` and with no deadline (`X-Cache: miss`). The
//!    same cache key always takes the same tier.
//! 4. **a miss over the bound** — the connection *parks* in place on a
//!    single-flight keyed on the cache key ([`crate::flight`]): its
//!    read interest goes off and any pipelined bytes wait in its
//!    buffer. The first requester submits the one bounded worker-pool
//!    job, coalesced followers just wait. The loop answers every waiter
//!    when the job's completion wakes it ([`crate::pool`]), `504` itself
//!    when the flight's deadline passes, and `503 + Retry-After` at once
//!    when the admission queue is full, while probes and repeat queries
//!    keep answering.
//!
//! Turns are fair: a connection gets at most one inline compute per
//! turn. One with bytes left behind it goes on a ready list and is
//! served on the next turn, whose wait does not block, so a client
//! pipelining many small misses holds the loop for one compute at a
//! time.
//!
//! Every tier honors keep-alive: an answered parked connection goes on
//! to its next request. A graceful drain closes the listener and every
//! connection nothing is owed to, then keeps the loop running until each
//! parked connection has its answer (with `Connection: close`) written.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::ResponseCache;
use crate::config::ServeConfig;
use crate::flight::{FlightTable, Parked, Waiter};
use crate::handlers::{self, Compute, Prepared};
use crate::http::{self, Cursor, Parsed, Request};
use crate::memo::CrMemo;
use crate::metrics::Metrics;
use crate::pool::{self, Completion, Job, WorkerPool};
use crate::router::{route, Route, Routed};
use crate::signal;
use crate::sys::{self, Event, Poller, EVENT_READ, EVENT_WRITE};
use crate::ServeError;

/// Metrics label for requests that match no route.
const UNMATCHED: &str = "unmatched";
/// The longest epoll wait; bounds shutdown reaction time (a wait tick
/// re-checks the latches), NOT request latency (readiness wakes it).
/// A flight's deadline shortens the wait.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);
/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 8 * 1024;
/// How often idle connections are swept.
const SWEEP_INTERVAL: Duration = Duration::from_secs(1);

/// Everything a connection needs, shared behind one `Arc`.
pub struct ServerState {
    /// The configuration the server was built with.
    pub config: ServeConfig,
    /// The response cache.
    pub cache: Arc<ResponseCache>,
    /// Service metrics.
    pub metrics: Arc<Metrics>,
    /// The bounded worker pool.
    pub pool: Arc<WorkerPool>,
    /// The precomputed `/v1/cr` closed-form lattice.
    pub memo: Arc<CrMemo>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and builds the cache, metrics, pool and
    /// closed-form memo.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, if the address cannot be bound or
    /// if the pool's wake-up socket pair cannot be created.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        config.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = if config.reuse_port {
            let addr: SocketAddr = config
                .addr
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e}")))?;
            sys::bind_reuseport(&addr)?
        } else {
            TcpListener::bind(&config.addr)?
        };
        let threads = config.resolved_threads();
        let cache = Arc::new(ResponseCache::new(config.cache_bytes, config.cache_shards));
        let metrics = Arc::new(Metrics::new(threads));
        let pool = Arc::new(WorkerPool::new(threads, config.queue_capacity, Arc::clone(&metrics))?);
        let memo = Arc::new(CrMemo::build(config.memo_max_n));
        Ok(Server { listener, state: Arc::new(ServerState { config, cache, metrics, pool, memo }) })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state handle (cache, metrics, pool, memo).
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the event loop until `shutdown` flips or a termination
    /// signal arrives, then drains gracefully: the listener closes (no
    /// new connections), idle keep-alive connections are dropped, every
    /// parked connection is answered with `Connection: close`, and every
    /// admitted pool job completes before this returns.
    pub fn run(self, shutdown: Arc<AtomicBool>) {
        let Server { listener, state } = self;
        match EventLoop::new(listener, Arc::clone(&state)) {
            Ok(event_loop) => event_loop.run_and_drain(&shutdown),
            Err(error) => {
                eprintln!("faultline-serve event loop failed: {error}");
                state.pool.drain();
            }
        }
    }
}

/// A server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<ServerState>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds and runs a server on a background thread, which has built
    /// its event loop by the time this returns.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] failures and those of building the
    /// event loop.
    pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
        let Server { listener, state } = Server::bind(config)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let loop_state = Arc::clone(&state);
        let (built, ready) = mpsc::sync_channel(1);
        let started = std::thread::Builder::new()
            .name("faultline-serve-loop".to_owned())
            .spawn(move || match EventLoop::new(listener, loop_state) {
                Ok(event_loop) => {
                    let _ = built.send(Ok(()));
                    event_loop.run_and_drain(&flag);
                }
                Err(error) => {
                    let _ = built.send(Err(error));
                }
            })
            .and_then(|thread| {
                // Waiting here makes the loop thread take its malloc arena
                // before the caller's own threads run: sequential servers
                // then reuse one arena instead of spreading over several,
                // which measured about 17% more peak RSS.
                let built = ready.recv().unwrap_or_else(|_| {
                    Err(io::Error::other("the event loop thread panicked while starting"))
                });
                match built {
                    Ok(()) => Ok(thread),
                    Err(error) => {
                        let _ = thread.join();
                        Err(error)
                    }
                }
            });
        match started {
            Ok(thread) => Ok(ServerHandle { addr, shutdown, state, thread: Some(thread) }),
            Err(error) => {
                state.pool.drain();
                Err(error)
            }
        }
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle (cache, metrics, pool, memo).
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Requests a graceful shutdown and waits for the drain to finish.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the event loop: a loopback connect makes the listener
        // readable, so the next wait returns without the poll tick.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection owned by the event loop.
struct Connection {
    stream: TcpStream,
    /// Names this connection to its flight; unlike the fd, never reused.
    token: u64,
    /// Accumulated unparsed request bytes.
    buf: Vec<u8>,
    /// How far parsing `buf` has got.
    cursor: Cursor,
    /// Pending response bytes not yet written.
    out: Vec<u8>,
    /// Prefix of `out` already written to the socket.
    written: usize,
    /// When the request currently being accumulated started arriving.
    request_start: Instant,
    /// Last moment bytes moved in either direction.
    last_activity: Instant,
    /// Close the connection once `out` drains.
    close_after_flush: bool,
    /// Waiting on a flight: reads are off, and `buf` holds whatever was
    /// pipelined behind the parked request until the flight lands.
    parked: bool,
    /// On the ready list: it computed this turn and is served again on
    /// the next, not on a readable event.
    queued: bool,
    /// Requests answered on this connection (keep-alive accounting).
    requests_served: u64,
    /// The epoll interest currently registered.
    interest: u32,
}

impl Connection {
    fn new(stream: TcpStream, token: u64) -> Connection {
        let now = Instant::now();
        Connection {
            stream,
            token,
            buf: Vec::new(),
            cursor: Cursor::default(),
            out: Vec::new(),
            written: 0,
            request_start: now,
            last_activity: now,
            close_after_flush: false,
            parked: false,
            queued: false,
            requests_served: 0,
            interest: EVENT_READ,
        }
    }

    fn pending_output(&self) -> bool {
        self.written < self.out.len()
    }

    /// Reads nothing more: the connection closes once `out` drains.
    fn close_after_output(&mut self) {
        self.close_after_flush = true;
        self.buf.clear();
        self.cursor = Cursor::default();
    }
}

/// A cache miss over the work bound, to park on its flight.
struct ParkRequest {
    key: String,
    route: &'static str,
    compute: Compute,
    received: Instant,
    keep_alive: bool,
}

/// The event loop's state. Only the loop's thread touches it, so the
/// flight table needs no lock.
struct EventLoop {
    state: Arc<ServerState>,
    poller: Poller,
    /// `None` once draining: dropping it refuses new connections.
    listener: Option<TcpListener>,
    conns: HashMap<i32, Connection>,
    flights: FlightTable,
    /// The last connection token handed out.
    tokens: u64,
    draining: bool,
    events: Vec<Event>,
    completions: Vec<Completion>,
    /// Connections, by fd and token, that computed inline this turn and
    /// hold more bytes: served on the next turn.
    ready: Vec<(i32, u64)>,
    /// The ready list being served this turn.
    serving: Vec<(i32, u64)>,
    last_sweep: Instant,
}

impl EventLoop {
    fn new(listener: TcpListener, state: Arc<ServerState>) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), EVENT_READ)?;
        poller.add(state.pool.completion_fd(), EVENT_READ)?;
        Ok(EventLoop {
            state,
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            flights: FlightTable::new(),
            tokens: 0,
            draining: false,
            events: Vec::new(),
            completions: Vec::new(),
            ready: Vec::new(),
            serving: Vec::new(),
            last_sweep: Instant::now(),
        })
    }

    /// Serves until the drain ends, then waits out the pool's admitted
    /// jobs: those whose flights the loop answered 504 still hold
    /// workers.
    fn run_and_drain(self, shutdown: &AtomicBool) {
        let state = Arc::clone(&self.state);
        if let Err(error) = self.run(shutdown) {
            eprintln!("faultline-serve event loop failed: {error}");
        }
        state.pool.drain();
    }

    /// Serves until `shutdown` flips or a termination signal arrives,
    /// then until the drain has answered every parked connection.
    fn run(mut self, shutdown: &AtomicBool) -> io::Result<()> {
        loop {
            if !self.draining && (shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }
            self.turn()?;
        }
    }

    /// One wait, everything it woke, and the connections the last turn
    /// left on the ready list.
    fn turn(&mut self) -> io::Result<()> {
        // Served after this turn's events; whatever computes now goes on
        // the next turn's list.
        std::mem::swap(&mut self.ready, &mut self.serving);
        let mut timeout = if self.serving.is_empty() { SHUTDOWN_POLL } else { Duration::ZERO };
        if let Some(deadline) = self.flights.next_deadline() {
            timeout = timeout.min(deadline.saturating_duration_since(Instant::now()));
        }
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.poller.wait(timeout, &mut events)?;
        let listener_fd = self.listener.as_ref().map(AsRawFd::as_raw_fd);
        let completion_fd = self.state.pool.completion_fd();
        for &event in &events {
            let fd = event.token as i32;
            if Some(fd) == listener_fd {
                self.accept_ready();
            } else if fd == completion_fd {
                self.land_completions();
            } else {
                self.service(fd, event);
            }
        }
        self.events = events;
        let mut serving = std::mem::take(&mut self.serving);
        for (fd, token) in serving.drain(..) {
            if self.conns.get(&fd).is_none_or(|conn| conn.token != token) {
                continue; // closed since; the fd may be another's now
            }
            let mut conn = self.conns.remove(&fd).expect("the connection was just found");
            conn.queued = false;
            self.process_buffer(&mut conn);
            self.settle(fd, conn);
        }
        self.serving = serving;
        if self.flights.in_flight() > 0 {
            let expired = self.flights.expire(Instant::now());
            if !expired.is_empty() {
                self.answer(expired, &Err((504, "deadline exceeded".to_owned())));
            }
        }
        if self.last_sweep.elapsed() >= SWEEP_INTERVAL {
            self.sweep_idle();
            self.last_sweep = Instant::now();
        }
        Ok(())
    }

    /// Stops accepting and closes every connection nothing is owed to;
    /// the rest close once answered and flushed.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.del(listener.as_raw_fd());
        }
        let poller = &self.poller;
        self.conns.retain(|&fd, conn| {
            if !conn.parked && conn.pending_output() {
                conn.close_after_output();
            }
            let owed = conn.parked || conn.pending_output();
            if !owed {
                let _ = poller.del(fd);
            }
            owed
        });
    }

    /// Accepts every pending connection on a readable listener.
    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    if self.poller.add(fd, EVENT_READ).is_ok() {
                        self.state.metrics.connection_accepted();
                        self.tokens += 1;
                        self.conns.insert(fd, Connection::new(stream, self.tokens));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Handles one readiness event for an established connection.
    fn service(&mut self, fd: i32, event: Event) {
        let Some(mut conn) = self.conns.remove(&fd) else {
            return; // already closed this tick
        };
        if event.writable() && try_flush(&mut conn).is_err() {
            let _ = self.poller.del(fd);
            return;
        }
        if conn.parked {
            // Reads are off, so this is a reset or hang-up: forget the
            // connection. Its waiter's token answers no one.
            if event.hung_up() {
                let _ = self.poller.del(fd);
                return;
            }
        } else if event.readable() {
            if !read_available(&mut conn) {
                let _ = self.poller.del(fd);
                return;
            }
            // A queued connection is served from the ready list.
            if !conn.queued {
                self.process_buffer(&mut conn);
            }
        }
        self.settle(fd, conn);
    }

    /// Parses and answers the complete requests in the buffer, up to the
    /// first that parks, or up to the first inline compute when more
    /// bytes follow it: the connection then goes on the ready list.
    fn process_buffer(&mut self, conn: &mut Connection) {
        while !conn.close_after_flush && !conn.parked {
            match http::parse_next(&conn.buf, &mut conn.cursor) {
                Parsed::Incomplete => break,
                Parsed::Invalid(error) => {
                    let bytes = http::error_bytes(error.status, &error.message, &[], false);
                    conn.out.extend_from_slice(&bytes);
                    let latency = conn.request_start.elapsed();
                    self.state.metrics.observe(UNMATCHED, error.status, latency);
                    conn.close_after_output();
                }
                Parsed::Ready { request, consumed } => {
                    conn.buf.drain(..consumed);
                    conn.requests_served += 1;
                    if conn.requests_served > 1 {
                        self.state.metrics.keepalive_reuse();
                    }
                    let received = conn.request_start;
                    conn.request_start = Instant::now();
                    let (bytes, computed) = match handle_request(&self.state, &request, received) {
                        Outcome::Answer(bytes) => (bytes, false),
                        Outcome::Computed(bytes) => (bytes, true),
                        Outcome::Park(park) => {
                            self.park(conn, park);
                            continue;
                        }
                    };
                    conn.out.extend_from_slice(&bytes);
                    if !request.keep_alive {
                        conn.close_after_output();
                    }
                    if computed && !conn.close_after_flush && !conn.buf.is_empty() {
                        conn.queued = true;
                        self.ready.push((conn.stream.as_raw_fd(), conn.token));
                        break;
                    }
                }
            }
        }
    }

    /// Parks a miss over the work bound on its flight; the creator
    /// submits the one pool job, coalesced followers just count the
    /// metric. A full queue answers `503 + Retry-After` at once,
    /// without parking.
    fn park(&mut self, conn: &mut Connection, park: ParkRequest) {
        let ParkRequest { key, route, compute, received, keep_alive } = park;
        let fd = conn.stream.as_raw_fd();
        let waiter = Waiter { fd, token: conn.token, received, keep_alive, route };
        let deadline = received + self.state.config.request_timeout;
        match self.flights.park(&key, deadline, waiter) {
            Parked::Coalesced => self.state.metrics.coalesced(),
            Parked::Created(flight) => {
                if let Err(job) = self.state.pool.try_submit(Job { flight, compute, deadline }) {
                    let _ = self.flights.land(&job.flight);
                    self.state.metrics.observe(route, 503, received.elapsed());
                    conn.out.extend_from_slice(&http::error_bytes(
                        503,
                        "admission queue is full, retry shortly",
                        &[("Retry-After", "1".to_owned())],
                        keep_alive,
                    ));
                    if !keep_alive {
                        conn.close_after_output();
                    }
                    return;
                }
            }
        }
        conn.parked = true;
    }

    /// Answers the flights of every job that finished.
    fn land_completions(&mut self) {
        let mut completions = std::mem::take(&mut self.completions);
        self.state.pool.take_completions(&mut completions);
        for Completion { flight, outcome } in completions.drain(..) {
            // `None`: the loop already answered it 504.
            if let Some(waiters) = self.flights.land(&flight) {
                self.answer(waiters, &outcome);
            }
        }
        self.completions = completions;
    }

    /// Answers the waiters of landed flights whose connections are still
    /// open, then serves what each pipelined behind its parked request.
    fn answer(&mut self, waiters: Vec<Waiter>, outcome: &pool::Outcome) {
        let status = outcome.as_ref().map_or_else(|(status, _)| *status, |_| 200);
        for Waiter { fd, token, received, keep_alive, route } in waiters {
            // Count before writing: a client that has read its response
            // must already see the request in /metrics.
            self.state.metrics.observe(route, status, received.elapsed());
            if self.conns.get(&fd).is_none_or(|conn| conn.token != token) {
                continue; // closed while parked; the fd may be another's now
            }
            let mut conn = self.conns.remove(&fd).expect("the connection was just found");
            let keep = keep_alive && !self.draining;
            let bytes = match outcome {
                Ok(body) => http::response_bytes(
                    200,
                    "application/json",
                    &[("X-Cache", "miss".to_owned())],
                    body,
                    keep,
                ),
                Err((status, message)) => http::error_bytes(*status, message, &[], keep),
            };
            conn.out.extend_from_slice(&bytes);
            conn.parked = false;
            if !keep {
                conn.close_after_output();
            }
            self.process_buffer(&mut conn);
            self.settle(fd, conn);
        }
    }

    /// Writes what the socket takes, then registers the interest the
    /// connection's state needs, or closes it.
    fn settle(&mut self, fd: i32, mut conn: Connection) {
        if try_flush(&mut conn).is_err() || (conn.close_after_flush && !conn.pending_output()) {
            let _ = self.poller.del(fd);
            return;
        }
        let read = if conn.parked { 0 } else { EVENT_READ };
        let interest = read | if conn.pending_output() { EVENT_WRITE } else { 0 };
        if interest != conn.interest {
            if self.poller.set(fd, interest).is_err() {
                return;
            }
            conn.interest = interest;
        }
        self.conns.insert(fd, conn);
    }

    /// Closes connections with no traffic inside the idle window. This
    /// is the slowloris backstop: a half-written request header costs
    /// one buffer for at most `idle_timeout`. A parked connection waits
    /// on the server, not the peer; its flight's deadline bounds it.
    fn sweep_idle(&mut self) {
        let idle_timeout = self.state.config.idle_timeout;
        let poller = &self.poller;
        self.conns.retain(|&fd, conn| {
            let live = conn.parked || conn.last_activity.elapsed() < idle_timeout;
            if !live {
                let _ = poller.del(fd);
            }
            live
        });
    }
}

/// Drains the socket into the buffer; false once the peer closed or
/// failed.
fn read_available(conn: &mut Connection) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false, // peer closed
            Ok(n) => {
                if conn.buf.is_empty() {
                    conn.request_start = Instant::now();
                }
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// How one parsed request gets answered.
enum Outcome {
    /// Complete response bytes for the connection's write buffer,
    /// without computing.
    Answer(Vec<u8>),
    /// The response bytes of a miss computed inline.
    Computed(Vec<u8>),
    /// A miss over the work bound: park the connection on the
    /// single-flight.
    Park(ParkRequest),
}

/// Computes a miss and caches its body.
fn compute_and_insert(
    cache: &ResponseCache,
    key: String,
    compute: Compute,
) -> Result<Vec<u8>, ServeError> {
    let body = compute()?;
    cache.insert(key, Arc::from(body.as_slice()));
    Ok(body)
}

/// Serves one request through the tier ladder (memo → cache hit →
/// inline compute under the work bound → parked pool compute).
fn handle_request(state: &ServerState, request: &Request, received: Instant) -> Outcome {
    let keep = request.keep_alive;
    let matched = match route(&request.method, &request.path) {
        Routed::NotFound => {
            state.metrics.observe(UNMATCHED, 404, received.elapsed());
            return Outcome::Answer(http::error_bytes(
                404,
                &format!("no route for {} {}", request.method, request.path),
                &[],
                keep,
            ));
        }
        Routed::MethodNotAllowed(allowed) => {
            state.metrics.observe(UNMATCHED, 405, received.elapsed());
            return Outcome::Answer(http::error_bytes(
                405,
                &format!("{} expects {allowed}", request.path),
                &[("Allow", allowed.to_owned())],
                keep,
            ));
        }
        Routed::Matched(Route::Healthz) => {
            state.metrics.observe(Route::Healthz.label(), 200, received.elapsed());
            return Outcome::Answer(http::response_bytes(
                200,
                "application/json",
                &[],
                b"{\"status\": \"ok\"}\n",
                keep,
            ));
        }
        Routed::Matched(Route::Metrics) => {
            let body = state.metrics.render(&state.cache);
            state.metrics.observe(Route::Metrics.label(), 200, received.elapsed());
            return Outcome::Answer(http::response_bytes(
                200,
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
                keep,
            ));
        }
        Routed::Matched(matched) => matched,
    };

    // Tier 1: the precomputed closed-form lattice. A memoized (n, f)
    // answers straight off the event loop — no cache, no pool. Pairs
    // outside the lattice (or unparsable parameters) fall through to
    // the normal path for its exact resolution and diagnostics.
    if matched == Route::Cr {
        let parsed = (
            request.query_param("n").and_then(|v| v.parse::<usize>().ok()),
            request.query_param("f").and_then(|v| v.parse::<usize>().ok()),
        );
        if let (Some(n), Some(f)) = parsed {
            if let Some(body) = state.memo.get(n, f) {
                state.metrics.memo_hit();
                state.metrics.observe(matched.label(), 200, received.elapsed());
                return Outcome::Answer(http::response_bytes(
                    200,
                    "application/json",
                    &[("X-Cache", "memo".to_owned())],
                    &body,
                    keep,
                ));
            }
        }
    }

    let (Prepared { cache_key, compute }, work) =
        match handlers::prepare_with_work(matched, request) {
            Ok(prepared) => prepared,
            Err(error) => {
                state.metrics.observe(matched.label(), error.status(), received.elapsed());
                return Outcome::Answer(http::error_bytes(
                    error.status(),
                    error.message(),
                    &[],
                    keep,
                ));
            }
        };

    // Tier 2: cache hits are answered inline, whatever their work, with
    // the exact bytes the original computation produced.
    if let Some(body) = state.cache.get(&cache_key) {
        state.metrics.observe(matched.label(), 200, received.elapsed());
        return Outcome::Answer(http::response_bytes(
            200,
            "application/json",
            &[("X-Cache", "hit".to_owned())],
            &body,
            keep,
        ));
    }

    // Tier 4: a miss over the work bound parks on the single-flight.
    // The job also populates the cache, so even a deadline-abandoned
    // job warms it for the next request.
    if work >= handlers::INLINE_WORK {
        let cache = Arc::clone(&state.cache);
        let key = cache_key.clone();
        return Outcome::Park(ParkRequest {
            key: cache_key,
            route: matched.label(),
            compute: Box::new(move || compute_and_insert(&cache, key, compute)),
            received,
            keep_alive: keep,
        });
    }

    // Tier 3: a miss under the work bound computes inline.
    state.metrics.inline_compute();
    let outcome = pool::run_guarded(|| compute_and_insert(&state.cache, cache_key, compute));
    let status = outcome.as_ref().map_or_else(|(status, _)| *status, |_| 200);
    state.metrics.observe(matched.label(), status, received.elapsed());
    Outcome::Computed(match outcome {
        Ok(body) => http::response_bytes(
            200,
            "application/json",
            &[("X-Cache", "miss".to_owned())],
            &body,
            keep,
        ),
        Err((status, message)) => http::error_bytes(status, &message, &[], keep),
    })
}

/// Writes as much pending output as the socket accepts.
fn try_flush(conn: &mut Connection) -> io::Result<()> {
    while conn.pending_output() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading")),
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if !conn.pending_output() {
        conn.out.clear();
        conn.written = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Response};
    use std::sync::mpsc;

    /// An event loop on a fresh loopback listener, driven from the test.
    fn event_loop(config: ServeConfig) -> (EventLoop, SocketAddr) {
        let config = ServeConfig { addr: "127.0.0.1:0".to_owned(), threads: Some(1), ..config };
        let Server { listener, state } = Server::bind(config).expect("bind on a free port");
        let addr = listener.local_addr().expect("bound address");
        (EventLoop::new(listener, state).expect("event loop"), addr)
    }

    /// A compute closure that answers `body` once `gate` opens.
    fn gated(
        gate: mpsc::Receiver<()>,
        body: Vec<u8>,
    ) -> impl FnOnce() -> Result<Vec<u8>, crate::ServeError> + Send + 'static {
        move || {
            // A failed test drops the sender; the job just ends.
            let _ = gate.recv();
            Ok(body)
        }
    }

    fn read(client: &mut TcpStream) -> Response {
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        client::read_response(client).expect("a framed response")
    }

    impl EventLoop {
        fn turn_until(&mut self, what: &str, mut done: impl FnMut(&EventLoop) -> bool) {
            let start = Instant::now();
            while !done(self) {
                assert!(start.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
                self.turn().expect("epoll wait");
            }
        }

        /// Connects a client and accepts it: the client and the
        /// server-side fd.
        fn connect(&mut self, addr: SocketAddr) -> (TcpStream, i32) {
            let client = TcpStream::connect(addr).expect("connect");
            let local = client.local_addr().expect("client address");
            let accepted = |lp: &EventLoop| {
                lp.conns
                    .iter()
                    .find(|(_, c)| c.stream.peer_addr().ok() == Some(local))
                    .map(|e| *e.0)
            };
            self.turn_until("the accept", |lp| accepted(lp).is_some());
            let fd = accepted(self).expect("accepted");
            (client, fd)
        }

        /// Accepts a new connection on the free server-side fd `fd`:
        /// placeholders hold `fd` and every lower free fd while the
        /// client connects, then `fd` alone is let go for the accept.
        /// `None` when another thread took `fd` first.
        fn connect_on_fd(&mut self, addr: SocketAddr, fd: i32) -> Option<TcpStream> {
            let mut lower = Vec::new();
            let target = loop {
                let placeholder = TcpListener::bind("127.0.0.1:0").expect("placeholder fd");
                match placeholder.as_raw_fd().cmp(&fd) {
                    std::cmp::Ordering::Less => lower.push(placeholder),
                    std::cmp::Ordering::Equal => break placeholder,
                    std::cmp::Ordering::Greater => return None,
                }
            };
            let client = TcpStream::connect(addr).expect("connect");
            let local = client.local_addr().expect("client address");
            drop(target);
            let peer_is = |c: &Connection| c.stream.peer_addr().ok() == Some(local);
            self.turn_until("the accept", |lp| lp.conns.values().any(peer_is));
            drop(lower);
            if self.conns.get(&fd).is_some_and(peer_is) {
                return Some(client);
            }
            drop(client);
            self.turn_until("the close", |lp| !lp.conns.values().any(peer_is));
            None
        }

        /// Parks connection `fd` on `key`, as a miss over the work bound
        /// would.
        fn park_fd(
            &mut self,
            fd: i32,
            key: &str,
            compute: impl FnOnce() -> Result<Vec<u8>, crate::ServeError> + Send + 'static,
        ) {
            let mut conn = self.conns.remove(&fd).expect("an open connection");
            let park = ParkRequest {
                key: key.to_owned(),
                route: "/test",
                compute: Box::new(compute),
                received: Instant::now(),
                keep_alive: true,
            };
            self.park(&mut conn, park);
            assert!(conn.parked, "the pool admitted the job");
            self.settle(fd, conn);
        }

        /// Runs the loop on its own thread until `shutdown` flips and
        /// the drain ends.
        fn serve(self, shutdown: &Arc<AtomicBool>) -> JoinHandle<io::Result<()>> {
            let flag = Arc::clone(shutdown);
            std::thread::spawn(move || self.run(&flag))
        }
    }

    #[test]
    fn a_panicking_job_answers_500_to_every_waiter_and_the_worker_carries_on() {
        let (mut lp, addr) = event_loop(ServeConfig::default());
        let state = Arc::clone(&lp.state);
        let mut clients: Vec<(TcpStream, i32)> = (0..3).map(|_| lp.connect(addr)).collect();
        for &(_, fd) in &clients {
            lp.park_fd(fd, "panics", || panic!("injected compute panic"));
        }
        assert_eq!(state.metrics.coalesced_requests(), 2, "two followers joined the creator");
        let shutdown = Arc::new(AtomicBool::new(false));
        let serving = lp.serve(&shutdown);

        for (client, _) in &mut clients {
            let answer = read(client);
            assert_eq!(answer.status, 500);
            assert!(answer.text().contains("computation panicked"), "{}", answer.text());
            assert_eq!(answer.header("Connection"), Some("keep-alive"));
        }
        // Each connection goes on to its next request...
        for (client, _) in &mut clients {
            client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
            assert_eq!(read(client).status, 200);
        }
        // ...and the worker runs the next job: a supremum over the
        // inline work bound.
        let body = r#"{"n": 41, "f": 20, "xmax": 1e6}"#;
        let request =
            format!("POST /v1/supremum HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        clients[0].0.write_all(request.as_bytes()).expect("write");
        let computed = read(&mut clients[0].0);
        assert_eq!(computed.status, 200, "{}", computed.text());
        assert_eq!(computed.header("X-Cache"), Some("miss"));
        assert_eq!(state.metrics.pool_jobs(), 2);
        assert_eq!(state.metrics.connections(), 3, "no connection was replaced");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("the loop thread").expect("the loop");
        state.pool.drain();
    }

    #[test]
    fn a_connection_gets_one_inline_compute_per_turn_and_its_answers_stay_in_order() {
        let (mut lp, addr) = event_loop(ServeConfig::default());
        let (mut a, a_fd) = lp.connect(addr);
        let (mut b, b_fd) = lp.connect(addr);
        let bodies: Vec<String> =
            (1..=3).map(|seed| format!(r#"{{"name": "randomized", "seed": {seed}}}"#)).collect();
        let pipelined: String = bodies
            .iter()
            .map(|body| {
                format!(
                    "POST /v1/scenario HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            })
            .collect();
        let probe = b"GET /healthz HTTP/1.1\r\n\r\n";
        a.write_all(pipelined.as_bytes()).expect("write");
        b.write_all(probe).expect("write");
        // Both writes sit in the server's socket buffers before the turn.
        let arrived = |lp: &EventLoop, fd: i32, len: usize| {
            let mut peek = vec![0u8; len + 1];
            matches!(lp.conns[&fd].stream.peek(&mut peek), Ok(n) if n == len)
        };
        let start = Instant::now();
        while !(arrived(&lp, a_fd, pipelined.len()) && arrived(&lp, b_fd, probe.len())) {
            assert!(start.elapsed() < Duration::from_secs(30), "the writes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }

        lp.turn().expect("epoll wait");
        assert_eq!(lp.conns[&b_fd].requests_served, 1, "B was answered in the same turn");
        assert_eq!(lp.conns[&a_fd].requests_served, 1, "A computed exactly once");
        assert_eq!(lp.ready, [(a_fd, lp.conns[&a_fd].token)], "A waits on the ready list");
        assert_eq!(read(&mut b).text(), "{\"status\": \"ok\"}\n");

        let mut answers = vec![read(&mut a)];
        for served in 2..=3 {
            lp.turn().expect("epoll wait");
            assert_eq!(lp.conns[&a_fd].requests_served, served, "one compute per turn");
            answers.push(read(&mut a));
        }
        assert!(lp.ready.is_empty(), "A's buffer is empty");
        for (answer, body) in answers.iter().zip(&bodies) {
            let request = Request {
                method: "POST".to_owned(),
                path: "/v1/scenario".to_owned(),
                query: Vec::new(),
                body: body.clone(),
                keep_alive: true,
            };
            let prepared = handlers::prepare(Route::Scenario, &request).expect("a preset");
            assert_eq!(answer.status, 200);
            assert!(answer.body == (prepared.compute)().expect("it runs"), "in order: {body}");
        }
        assert_eq!(lp.state.metrics.pool_jobs(), 0);
        assert_eq!(lp.state.metrics.inline_computes(), 3);
        lp.state.pool.drain();
    }

    #[test]
    fn a_parked_connection_that_resets_is_forgotten_even_when_its_fd_is_reused() {
        let (mut lp, addr) = event_loop(ServeConfig::default());
        let (release, gate) = mpsc::channel();
        let (mut a, a_fd) = lp.connect(addr);
        // A response A never reads: closing A then resets it.
        a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
        lp.turn_until("the health answer", |lp| {
            lp.conns[&a_fd].requests_served == 1 && !lp.conns[&a_fd].pending_output()
        });
        lp.park_fd(a_fd, "gated", gated(gate, b"{\"late\": true}\n".to_vec()));
        let a_token = lp.conns[&a_fd].token;
        drop(a);
        lp.turn_until("the reset", |lp| !lp.conns.contains_key(&a_fd));
        assert_eq!(lp.flights.in_flight(), 1, "the job still owns the flight");

        // Another thread of the test harness may hold A's fd number for
        // a moment; then try again.
        let mut b = (0..500)
            .find_map(|_| {
                let reused = lp.connect_on_fd(addr, a_fd);
                if reused.is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                reused
            })
            .expect("a new connection reused A's fd");
        let b_fd = a_fd;
        assert_ne!(lp.conns[&b_fd].token, a_token, "tokens are never reused");

        release.send(()).expect("open the gate");
        lp.turn_until("the flight to land", |lp| lp.flights.in_flight() == 0);
        assert_eq!(lp.state.metrics.requests_for("/test", 200), 1, "A's answer was counted");
        b.set_nonblocking(true).expect("non-blocking");
        let mut byte = [0u8; 1];
        let unanswered = b.read(&mut byte);
        assert!(
            matches!(&unanswered, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "B received bytes meant for A: {unanswered:?}"
        );
        b.set_nonblocking(false).expect("blocking");
        b.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
        lp.turn_until("B's answer", |lp| {
            lp.conns[&b_fd].requests_served == 1 && !lp.conns[&b_fd].pending_output()
        });
        assert_eq!(read(&mut b).text(), "{\"status\": \"ok\"}\n", "B's own answer comes first");
        lp.state.pool.drain();
    }

    #[test]
    fn the_idle_sweep_never_reaps_a_parked_connection() {
        let idle_timeout = Duration::from_millis(20);
        let (mut lp, addr) = event_loop(ServeConfig { idle_timeout, ..ServeConfig::default() });
        let (release, gate) = mpsc::channel();
        let (mut parked, parked_fd) = lp.connect(addr);
        let (_idle, idle_fd) = lp.connect(addr);
        lp.park_fd(parked_fd, "gated", gated(gate, b"{}\n".to_vec()));

        std::thread::sleep(idle_timeout * 3);
        lp.sweep_idle();
        assert!(!lp.conns.contains_key(&idle_fd), "an idle connection is reaped");
        assert!(lp.conns.contains_key(&parked_fd), "a parked one is not");

        release.send(()).expect("open the gate");
        lp.turn_until("the flight to land", |lp| lp.flights.in_flight() == 0);
        let answer = read(&mut parked);
        assert_eq!((answer.status, answer.body.as_slice()), (200, &b"{}\n"[..]));
        lp.state.pool.drain();
    }

    #[test]
    fn drain_answers_parked_connections_with_close_and_exits_after_writing_them() {
        let (mut lp, addr) = event_loop(ServeConfig::default());
        let state = Arc::clone(&lp.state);
        let (release, gate) = mpsc::channel();
        let (mut parked, fd) = lp.connect(addr);
        // Far more than the socket buffers hold, so the answer takes
        // many writable wake-ups to write.
        let body = vec![b'x'; 8 << 20];
        lp.park_fd(fd, "gated", gated(gate, body.clone()));

        // Draining from the first turn: the listener closes at once.
        let shutdown = Arc::new(AtomicBool::new(true));
        let serving = lp.serve(&shutdown);
        let start = Instant::now();
        while TcpStream::connect(addr).is_ok() {
            assert!(start.elapsed() < Duration::from_secs(30), "the listener never closed");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!serving.is_finished(), "the drain waits for the parked connection");

        let reader = std::thread::spawn(move || {
            let answer = read(&mut parked);
            let mut rest = Vec::new();
            let eof = parked.read_to_end(&mut rest).map(|_| rest.is_empty());
            (answer, eof)
        });
        release.send(()).expect("open the gate");
        serving.join().expect("the loop thread").expect("the loop");
        let (answer, eof) = reader.join().expect("the reader");
        assert_eq!(answer.status, 200);
        assert_eq!(answer.header("Connection"), Some("close"), "drained answers close");
        assert!(answer.body == body, "the whole body was written before the loop exited");
        assert!(eof.expect("a clean close"), "nothing follows the answer");
        state.pool.drain();
    }
}
