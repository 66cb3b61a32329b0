//! The server: `threads` identical event loops in one process, one
//! thread each. Each is a readiness-based epoll loop (raw FFI, see
//! [`crate::sys`]) that owns read and write, with HTTP/1.1 keep-alive,
//! for its connections.
//!
//! Loop 0 also owns the listener. It gives each accepted connection to
//! the loop with the fewest open connections, ties to the lowest index;
//! from then on one thread parses, looks up, computes and writes for
//! that connection. Non-blocking reads fill a per-connection buffer,
//! requests are parsed incrementally out of it (a half-written header —
//! slowloris — just occupies a buffer, never a thread), and responses
//! queue into a per-connection write buffer flushed on writability.
//! Serving goes through four tiers:
//!
//! 1. **memo** — `GET /v1/cr` inside the closed-form `(n, f)` lattice
//!    ([`crate::memo`]): an indexed load of the body its first request
//!    serialized, no cache, no pool (`X-Cache: memo`).
//! 2. **hit** — the sharded LRU answers inline with the exact bytes of
//!    the original computation (`X-Cache: hit`).
//! 3. **a miss under the work bound** — [`handlers::prepare_with_work`]
//!    bounds each request's computation from its resolved parameters;
//!    under [`handlers::INLINE_WORK`] it runs inline on the loop, under
//!    `catch_unwind` and with no deadline (`X-Cache: miss`). The same
//!    cache key always takes the same tier, and a bound no worker can
//!    finish within the request timeout is refused with a 400 before
//!    it computes or parks ([`handlers::admit`]).
//! 4. **a miss over the bound** — the connection *parks* in place on a
//!    single-flight keyed on the cache key ([`crate::flight`]): its
//!    read interest goes off and any pipelined bytes wait in its
//!    buffer. The first requester submits the one bounded worker-pool
//!    job, coalesced followers, on any loop, just wait. The job's
//!    completion wakes the loop that submitted it ([`crate::pool`]);
//!    that loop lands the flight and answers every waiter, as does
//!    whichever loop sees the flight's deadline pass (`504`). A full
//!    admission queue answers `503 + Retry-After` at once. Meanwhile
//!    probes and repeat queries keep answering.
//!
//! The loops share the cache, memo, metrics and pool, plus the one
//! single-flight table behind its mutex, so a herd spread over several
//! loops still computes once. Each loop has one inbox, a queue plus
//! a socket-pair wake-up, which carries the connections the acceptor
//! hands that loop, the completions of the jobs it submitted, and the
//! answers for its parked waiters that another loop landed. A loop with
//! no flight in the air takes no lock per turn.
//!
//! Turns are fair: a connection gets at most one inline compute per
//! turn. One with bytes left behind it goes on a ready list and is
//! served on the next turn, whose wait does not block, so a client
//! pipelining many small misses holds its loop for one compute at a
//! time.
//!
//! Every tier honors keep-alive: an answered parked connection goes on
//! to its next request, and a peer that closes its sending side still
//! gets an answer to every complete request it sent. A graceful drain
//! closes the listener and every connection nothing is owed to, then
//! keeps each loop running until each of its parked connections has
//! its answer (with `Connection: close`) written and no flight is in
//! the air.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::ResponseCache;
use crate::config::ServeConfig;
use crate::flight::{FlightId, FlightTable, Parked, Waiter};
use crate::handlers::{self, Compute, Prepared};
use crate::http::{self, Cursor, Parsed, Request};
use crate::memo::CrMemo;
use crate::metrics::Metrics;
use crate::pool::{self, Job, WorkerPool};
use crate::router::{route, Route, Routed};
use crate::signal;
use crate::sys::{Event, Poller, EVENT_READ, EVENT_WRITE};
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

/// Everything a connection needs, shared behind one `Arc` by every
/// event loop.
pub struct ServerState {
    /// The configuration the server was built with.
    pub(crate) config: ServeConfig,
    /// The response cache.
    pub cache: Arc<ResponseCache>,
    /// Service metrics.
    pub metrics: Arc<Metrics>,
    /// The bounded worker pool.
    pub(crate) pool: Arc<WorkerPool>,
    /// The `/v1/cr` closed-form lattice, filled on first use.
    pub(crate) memo: Arc<CrMemo>,
    /// The single-flight table every loop parks on.
    pub(crate) flights: FlightTable,
    /// One per event loop.
    pub(crate) inboxes: Vec<Arc<Inbox>>,
}

/// What one loop's inbox carries.
pub(crate) enum Message {
    /// A connection the acceptor gives the loop.
    Connection(TcpStream),
    /// A job the loop submitted finished: its flight and its answer.
    Landed(FlightId, pool::Outcome),
    /// The answer for one of the loop's waiters on a flight that
    /// another loop landed.
    Answer(Waiter, Arc<pool::Outcome>),
}

/// One loop's inbox: a queue, plus a socket pair whose read end sits on
/// the loop's poller, so a post into an empty queue wakes the loop.
pub(crate) struct Inbox {
    queue: Mutex<Vec<Message>>,
    /// Write end of the wake-up pair (non-blocking).
    wake: UnixStream,
    /// Read end of the wake-up pair (non-blocking), for the poller.
    woken: UnixStream,
}

impl Inbox {
    pub(crate) fn new() -> io::Result<Inbox> {
        let (wake, woken) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        woken.set_nonblocking(true)?;
        Ok(Inbox { queue: Mutex::new(Vec::new()), wake, woken })
    }

    fn fd(&self) -> RawFd {
        self.woken.as_raw_fd()
    }

    /// Queues a message for the loop.
    pub(crate) fn post(&self, message: Message) {
        let mut queue = self.queue.lock().expect("a thread panicked holding an inbox");
        let announce = queue.is_empty();
        queue.push(message);
        drop(queue);
        if announce {
            // Non-blocking, and at most a few bytes are ever unread.
            let _ = (&self.wake).write(&[1]);
        }
    }

    /// Appends every queued message to `out`, in the order they were
    /// posted, and consumes the wake-up bytes that announced them.
    pub(crate) fn take(&self, out: &mut Vec<Message>) {
        // Drain before taking: a message posted after the take writes a
        // fresh byte, so none is left unannounced.
        let mut sink = [0u8; 64];
        while matches!((&self.woken).read(&mut sink), Ok(n) if n > 0) {}
        out.append(&mut self.queue.lock().expect("a thread panicked holding an inbox"));
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and builds the cache, metrics, pool, the
    /// unfilled closed-form memo and one inbox per event loop.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, if the address cannot be bound or
    /// if an inbox's wake-up socket pair cannot be created.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        config.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let threads = config.resolved_threads();
        let inboxes =
            (0..threads).map(|_| Inbox::new().map(Arc::new)).collect::<io::Result<_>>()?;
        let cache = Arc::new(ResponseCache::new(config.cache_bytes, config.cache_shards));
        let metrics = Arc::new(Metrics::new(threads));
        let pool = Arc::new(WorkerPool::new(threads, config.queue_capacity, Arc::clone(&metrics)));
        let memo = Arc::new(CrMemo::build(config.memo_max_n));
        let flights = FlightTable::new();
        let state = ServerState { config, cache, metrics, pool, memo, flights, inboxes };
        Ok(Server { listener, state: Arc::new(state) })
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
    pub(crate) fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the event loops until `shutdown` flips or a termination
    /// signal arrives, then drains gracefully: the listener closes (no
    /// new connections), idle keep-alive connections are dropped, every
    /// parked connection is answered with `Connection: close`, and every
    /// admitted pool job completes before this returns.
    ///
    /// # Errors
    ///
    /// Fails if an event loop cannot be built, or if one failed or
    /// panicked while serving; the others drained first.
    pub fn run(self, shutdown: Arc<AtomicBool>) -> io::Result<()> {
        let state = self.state();
        let loops = self.start(&shutdown)?;
        finish(&state, loops)
    }

    /// Starts one thread per event loop, loop 0 with the listener. Each
    /// thread builds its loop before the next starts, and this returns
    /// once the last has: the loop threads then take their malloc
    /// arenas before the caller's own threads run, so sequential
    /// servers reuse the same arenas instead of spreading over more,
    /// which measured about 17% more peak RSS with one loop.
    fn start(self, shutdown: &Arc<AtomicBool>) -> io::Result<Vec<JoinHandle<io::Result<()>>>> {
        let Server { listener, state } = self;
        let mut listener = Some(listener);
        let mut loops = Vec::with_capacity(state.inboxes.len());
        for index in 0..state.inboxes.len() {
            let (listener, loop_state, flag) =
                (listener.take(), Arc::clone(&state), Arc::clone(shutdown));
            let (built, ready) = mpsc::sync_channel(1);
            let started = std::thread::Builder::new()
                .name(format!("faultline-serve-loop-{index}"))
                .spawn(move || match EventLoop::new(index, listener, loop_state) {
                    Ok(event_loop) => {
                        let _ = built.send(Ok(()));
                        let _stop = StopOthers(&flag);
                        event_loop.run(&flag)
                    }
                    Err(error) => {
                        let _ = built.send(Err(error));
                        Ok(())
                    }
                })
                .and_then(|thread| {
                    let built = ready.recv().unwrap_or_else(|_| {
                        Err(io::Error::other("an event loop thread panicked while starting"))
                    });
                    loops.push(thread);
                    built
                });
            if let Err(error) = started {
                shutdown.store(true, Ordering::SeqCst);
                let _ = finish(&state, loops);
                return Err(error);
            }
        }
        Ok(loops)
    }
}

/// Sets the shutdown flag when its event loop thread ends, by a
/// failure or a panic too: the other loops drain, and none is left
/// handing connections to a loop nobody runs.
struct StopOthers<'a>(&'a AtomicBool);

impl Drop for StopOthers<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Joins the event loop threads, then waits out the pool's admitted
/// jobs (those whose flights a loop answered 504 still hold workers)
/// and closes any connection still waiting in an inbox. Returns the
/// first loop's failure or panic.
fn finish(state: &ServerState, loops: Vec<JoinHandle<io::Result<()>>>) -> io::Result<()> {
    let mut outcome = Ok(());
    for (index, thread) in loops.into_iter().enumerate() {
        let failure = match thread.join() {
            Ok(Ok(())) => continue,
            Ok(Err(error)) => format!("event loop {index} failed: {error}"),
            Err(_) => format!("event loop {index} panicked"),
        };
        if outcome.is_ok() {
            outcome = Err(io::Error::other(failure));
        }
    }
    state.pool.drain();
    for inbox in &state.inboxes {
        inbox.take(&mut Vec::new());
    }
    outcome
}

/// A server running on background threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<ServerState>,
    loops: Vec<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// Binds and runs a server on background threads, one per event
    /// loop, which have built their loops by the time this returns.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] failures and those of building the
    /// event loops.
    pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let (addr, state) = (server.local_addr()?, server.state());
        let shutdown = Arc::new(AtomicBool::new(false));
        let loops = server.start(&shutdown)?;
        Ok(ServerHandle { addr, shutdown, state, loops })
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
        // Nudge loop 0: a loopback connect makes the listener readable,
        // so its next wait returns without the poll tick.
        let _ = TcpStream::connect(self.addr);
        let _ = finish(&self.state, std::mem::take(&mut self.loops));
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection owned by an event loop.
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
    /// The peer closed its sending side: reads are off, and the
    /// connection closes once every complete request in `buf` is
    /// answered and written.
    eof: bool,
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
            eof: false,
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

/// One event loop's state. Only its thread touches it.
struct EventLoop {
    /// This loop's index: its inbox, its connection counts, its waiters.
    index: usize,
    state: Arc<ServerState>,
    poller: Poller,
    /// Loop 0's until draining: dropping it refuses new connections.
    listener: Option<TcpListener>,
    conns: HashMap<i32, Connection>,
    /// The last connection token handed out.
    tokens: u64,
    draining: bool,
    events: Vec<Event>,
    messages: Vec<Message>,
    /// Connections, by fd and token, that computed inline this turn and
    /// hold more bytes: served on the next turn.
    ready: Vec<(i32, u64)>,
    /// The ready list being served this turn.
    serving: Vec<(i32, u64)>,
    last_sweep: Instant,
}

impl EventLoop {
    fn new(
        index: usize,
        listener: Option<TcpListener>,
        state: Arc<ServerState>,
    ) -> io::Result<EventLoop> {
        let poller = Poller::new()?;
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.add(listener.as_raw_fd(), EVENT_READ)?;
        }
        poller.add(state.inboxes[index].fd(), EVENT_READ)?;
        Ok(EventLoop {
            index,
            state,
            poller,
            listener,
            conns: HashMap::new(),
            tokens: 0,
            draining: false,
            events: Vec::new(),
            messages: Vec::new(),
            ready: Vec::new(),
            serving: Vec::new(),
            last_sweep: Instant::now(),
        })
    }

    /// Serves until `shutdown` flips or a termination signal arrives,
    /// then until the drain has answered every parked connection and no
    /// flight is in the air: a flight this loop submitted may still owe
    /// another loop's waiters their answer.
    fn run(mut self, shutdown: &AtomicBool) -> io::Result<()> {
        loop {
            if !self.draining && (shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() && self.state.flights.in_flight() == 0 {
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
        if let Some(deadline) = self.state.flights.next_deadline() {
            timeout = timeout.min(deadline.saturating_duration_since(Instant::now()));
        }
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.poller.wait(timeout, &mut events)?;
        let listener_fd = self.listener.as_ref().map(AsRawFd::as_raw_fd);
        let inbox_fd = self.state.inboxes[self.index].fd();
        for &event in &events {
            let fd = event.token as i32;
            if Some(fd) == listener_fd {
                self.accept_ready();
            } else if fd == inbox_fd {
                self.read_inbox();
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
        let expired = self.state.flights.expire(Instant::now());
        if !expired.is_empty() {
            self.answer(expired, Err((504, "deadline exceeded".to_owned())));
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
        let (poller, metrics) = (&self.poller, &self.state.metrics);
        self.conns.retain(|&fd, conn| {
            if !conn.parked && conn.pending_output() {
                conn.close_after_output();
            }
            let owed = conn.parked || conn.pending_output();
            if !owed {
                let _ = poller.del(fd);
                metrics.connection_closed(self.index);
            }
            owed
        });
    }

    /// Accepts every pending connection on a readable listener and gives
    /// each to the loop with the fewest open connections.
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // drained (WouldBlock) or failed
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let metrics = &self.state.metrics;
            let target = (0..self.state.inboxes.len())
                .min_by_key(|&lp| metrics.open_connections(lp))
                .expect("a server has at least one loop");
            metrics.connection_accepted(target);
            if target == self.index {
                self.register(stream);
            } else {
                self.state.inboxes[target].post(Message::Connection(stream));
            }
        }
    }

    /// Takes on a connection given to this loop; a draining loop closes
    /// it at once.
    fn register(&mut self, stream: TcpStream) {
        let fd = stream.as_raw_fd();
        if self.draining || self.poller.add(fd, EVENT_READ).is_err() {
            self.state.metrics.connection_closed(self.index);
            return;
        }
        self.tokens += 1;
        self.conns.insert(fd, Connection::new(stream, self.tokens));
    }

    /// Handles every message in the inbox.
    fn read_inbox(&mut self) {
        let mut messages = std::mem::take(&mut self.messages);
        self.state.inboxes[self.index].take(&mut messages);
        for message in messages.drain(..) {
            match message {
                Message::Connection(stream) => self.register(stream),
                // `None`: a loop already answered it 504.
                Message::Landed(flight, outcome) => {
                    if let Some(waiters) = self.state.flights.land(&flight) {
                        self.answer(waiters, outcome);
                    }
                }
                Message::Answer(waiter, outcome) => self.answer_here(waiter, &outcome),
            }
        }
        self.messages = messages;
    }

    /// Deregisters a connection taken out of `conns`; dropping it then
    /// closes the socket.
    fn close(&self, fd: i32) {
        let _ = self.poller.del(fd);
        self.state.metrics.connection_closed(self.index);
    }

    /// Handles one readiness event for an established connection.
    fn service(&mut self, fd: i32, event: Event) {
        let Some(mut conn) = self.conns.remove(&fd) else {
            return; // already closed this tick
        };
        if event.writable() && try_flush(&mut conn).is_err() {
            self.close(fd);
            return;
        }
        if conn.parked || conn.eof {
            // Reads are off, so this is a reset or hang-up: forget the
            // connection. A parked waiter's token answers no one.
            if event.hung_up() {
                self.close(fd);
                return;
            }
        } else if event.readable() {
            if !read_available(&mut conn) {
                self.close(fd);
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
    /// metric. A full queue lands the flight at once: the creator and
    /// any follower that joined it meanwhile, on another loop, answer
    /// `503 + Retry-After`.
    fn park(&mut self, conn: &mut Connection, park: ParkRequest) {
        let ParkRequest { key, route, compute, received, keep_alive } = park;
        let fd = conn.stream.as_raw_fd();
        let waiter = Waiter { lp: self.index, fd, token: conn.token, received, keep_alive, route };
        let deadline = received + self.state.config.request_timeout;
        match self.state.flights.park(&key, deadline, waiter) {
            Parked::Coalesced => self.state.metrics.coalesced(),
            Parked::Created(flight) => {
                let reply = Arc::clone(&self.state.inboxes[self.index]);
                if let Err(job) =
                    self.state.pool.try_submit(Job { flight, compute, deadline, reply })
                {
                    let mut followers = self.state.flights.land(&job.flight).unwrap_or_default();
                    followers.retain(|follower| *follower != waiter);
                    let refused = Err((503, "admission queue is full, retry shortly".to_owned()));
                    self.state.metrics.observe(route, 503, received.elapsed());
                    conn.out.extend_from_slice(&outcome_bytes(&refused, keep_alive));
                    if !keep_alive {
                        conn.close_after_output();
                    }
                    if !followers.is_empty() {
                        self.answer(followers, refused);
                    }
                    return;
                }
            }
        }
        conn.parked = true;
    }

    /// Answers the waiters of a landed flight: this loop's here, every
    /// other loop's through that loop's inbox.
    fn answer(&mut self, waiters: Vec<Waiter>, outcome: pool::Outcome) {
        let outcome = Arc::new(outcome);
        for waiter in waiters {
            if waiter.lp == self.index {
                self.answer_here(waiter, &outcome);
            } else {
                self.state.inboxes[waiter.lp].post(Message::Answer(waiter, Arc::clone(&outcome)));
            }
        }
    }

    /// Answers one of this loop's waiters if its connection is still
    /// open, then serves what it pipelined behind its parked request.
    fn answer_here(&mut self, waiter: Waiter, outcome: &pool::Outcome) {
        let Waiter { fd, token, received, keep_alive, route, .. } = waiter;
        let status = outcome.as_ref().map_or_else(|(status, _)| *status, |_| 200);
        // Count before writing: a client that has read its response must
        // already see the request in /metrics.
        self.state.metrics.observe(route, status, received.elapsed());
        if self.conns.get(&fd).is_none_or(|conn| conn.token != token) {
            return; // closed while parked; the fd may be another's now
        }
        let mut conn = self.conns.remove(&fd).expect("the connection was just found");
        let keep = keep_alive && !self.draining;
        conn.out.extend_from_slice(&outcome_bytes(outcome, keep));
        conn.parked = false;
        if !keep {
            conn.close_after_output();
        }
        self.process_buffer(&mut conn);
        self.settle(fd, conn);
    }

    /// Writes what the socket takes, then registers the interest the
    /// connection's state needs, or closes it.
    fn settle(&mut self, fd: i32, mut conn: Connection) {
        if conn.eof && !conn.parked && !conn.queued {
            conn.close_after_output(); // every complete request is answered
        }
        if try_flush(&mut conn).is_err() || (conn.close_after_flush && !conn.pending_output()) {
            self.close(fd);
            return;
        }
        let read = if conn.parked || conn.eof { 0 } else { EVENT_READ };
        let interest = read | if conn.pending_output() { EVENT_WRITE } else { 0 };
        if interest != conn.interest {
            if self.poller.set(fd, interest).is_err() {
                self.close(fd);
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
        let (poller, metrics) = (&self.poller, &self.state.metrics);
        self.conns.retain(|&fd, conn| {
            let live = conn.parked || conn.last_activity.elapsed() < idle_timeout;
            if !live {
                let _ = poller.del(fd);
                metrics.connection_closed(self.index);
            }
            live
        });
    }
}

/// Drains the socket into the buffer; false once the peer failed. A
/// peer that closed its sending side sets `eof`.
fn read_available(conn: &mut Connection) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
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

/// The response bytes of a computed miss's outcome.
fn outcome_bytes(outcome: &pool::Outcome, keep: bool) -> Vec<u8> {
    match outcome {
        Ok(body) => http::response_bytes(
            200,
            "application/json",
            &[("X-Cache", "miss".to_owned())],
            body,
            keep,
        ),
        Err((503, message)) => {
            http::error_bytes(503, message, &[("Retry-After", "1".to_owned())], keep)
        }
        Err((status, message)) => http::error_bytes(*status, message, &[], keep),
    }
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

    // Tier 1: the closed-form lattice. An (n, f) inside it answers
    // straight off the event loop (the first request for the point
    // serializes it) — no cache, no pool. Pairs outside the lattice
    // (or unparsable parameters) fall through to the normal path for
    // its exact resolution and diagnostics.
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

    // Work no worker can finish before the deadline is refused before
    // it computes or parks.
    let prepared = handlers::prepare_with_work(matched, request).and_then(|(prepared, work)| {
        handlers::admit(work, state.config.request_timeout)?;
        Ok((prepared, work))
    });
    let (Prepared { cache_key, compute }, work) = match prepared {
        Ok(prepared) => prepared,
        Err(error) => {
            state.metrics.observe(matched.label(), error.status(), received.elapsed());
            return Outcome::Answer(http::error_bytes(error.status(), error.message(), &[], keep));
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
    Outcome::Computed(outcome_bytes(&outcome, keep))
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
        (EventLoop::new(0, Some(listener), state).expect("event loop"), addr)
    }

    /// The two event loops of one server, driven from the test.
    fn two_loops(config: ServeConfig) -> ([EventLoop; 2], SocketAddr) {
        let config = ServeConfig { addr: "127.0.0.1:0".to_owned(), threads: Some(2), ..config };
        let Server { listener, state } = Server::bind(config).expect("bind on a free port");
        let addr = listener.local_addr().expect("bound address");
        let first = EventLoop::new(0, Some(listener), Arc::clone(&state)).expect("loop 0");
        (([first, EventLoop::new(1, None, state).expect("loop 1")]), addr)
    }

    /// Connects a client that loop 0 accepts and hands to loop `lp`:
    /// the client and its server-side fd there.
    fn connect_to(loops: &mut [EventLoop; 2], addr: SocketAddr, lp: usize) -> (TcpStream, i32) {
        let client = TcpStream::connect(addr).expect("connect");
        let local = client.local_addr().expect("client address");
        let start = Instant::now();
        loop {
            for event_loop in loops.iter_mut() {
                event_loop.turn().expect("epoll wait");
            }
            let found =
                loops[lp].conns.iter().find(|(_, c)| c.stream.peer_addr().ok() == Some(local));
            if let Some((&fd, _)) = found {
                return (client, fd);
            }
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "loop {lp} never took the connection"
            );
        }
    }

    /// Parks A on loop 0, creating a flight on `gate`, and B on loop 1,
    /// coalescing onto it.
    fn park_across(
        loops: &mut [EventLoop; 2],
        addr: SocketAddr,
        gate: mpsc::Receiver<()>,
        body: &[u8],
    ) -> (TcpStream, TcpStream) {
        let (a, a_fd) = connect_to(loops, addr, 0);
        let (b, b_fd) = connect_to(loops, addr, 1);
        loops[0].park_fd(a_fd, "gated", gated(gate, body.to_vec()));
        loops[1].park_fd(b_fd, "gated", || panic!("a follower submits nothing"));
        let metrics = &loops[0].state.metrics;
        assert_eq!((metrics.coalesced_requests(), loops[1].state.flights.in_flight()), (1, 1));
        (a, b)
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
        assert_eq!(lp.state.flights.in_flight(), 1, "the job still owns the flight");

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
        lp.turn_until("the flight to land", |lp| lp.state.flights.in_flight() == 0);
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
        lp.turn_until("the flight to land", |lp| lp.state.flights.in_flight() == 0);
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

    #[test]
    fn a_half_closed_connection_gets_every_complete_request_answered() {
        let (mut lp, addr) = event_loop(ServeConfig::default());
        let (mut client, fd) = lp.connect(addr);
        let misses: String = [21, 22]
            .iter()
            .map(|seed| {
                let body = format!(r#"{{"name": "randomized", "seed": {seed}}}"#);
                format!(
                    "POST /v1/scenario HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            })
            .collect();
        let probe = "GET /healthz HTTP/1.1\r\n\r\n";
        client.write_all(format!("{probe}{probe}{misses}GET /heal").as_bytes()).expect("write");
        client.shutdown(std::net::Shutdown::Write).expect("half-close");
        // One inline compute per turn still, then the close; the
        // trailing partial request is dropped.
        let mut computes = vec![0];
        while lp.conns.contains_key(&fd) {
            assert!(computes.len() < 2000, "the connection never closed");
            lp.turn().expect("epoll wait");
            computes.push(lp.state.metrics.inline_computes());
        }
        assert!(computes.windows(2).all(|w| w[1] - w[0] <= 1), "{computes:?}");
        assert_eq!(computes.last(), Some(&2));

        let mut bytes = Vec::new();
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        client.read_to_end(&mut bytes).expect("the answers, then a clean close");
        let text = String::from_utf8_lossy(&bytes);
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 4, "every complete request: {text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 4, "nothing for the partial one: {text}");
        lp.state.pool.drain();
    }

    #[test]
    fn a_loop_with_no_flight_in_the_air_takes_no_lock_per_turn() {
        let (mut lp, addr) = event_loop(ServeConfig::default());
        let state = Arc::clone(&lp.state);
        let (mut client, _) = lp.connect(addr);
        let shutdown = Arc::new(AtomicBool::new(false));
        let held = crate::flight::tests::hold(&state.flights);
        let serving = lp.serve(&shutdown);
        // The loop waits, turns, answers a probe and computes a miss
        // inline while the table stays locked.
        let miss = r#"{"name": "smoke"}"#;
        let requests = [
            "GET /healthz HTTP/1.1\r\n\r\n".to_owned(),
            format!("POST /v1/scenario HTTP/1.1\r\nContent-Length: {}\r\n\r\n{miss}", miss.len()),
        ];
        for request in &requests {
            std::thread::sleep(SHUTDOWN_POLL * 2); // idle turns in between
            client.write_all(request.as_bytes()).expect("write");
            assert_eq!(read(&mut client).status, 200, "answered with the table locked");
        }
        drop(held);
        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("the loop thread").expect("the loop");
        assert_eq!(state.metrics.inline_computes(), 1);
        state.pool.drain();
    }

    #[test]
    fn a_flight_landed_on_one_loop_answers_a_waiter_on_the_other() {
        let (mut loops, addr) = two_loops(ServeConfig::default());
        let (release, gate) = mpsc::channel();
        let (mut a, mut b) = park_across(&mut loops, addr, gate, b"{\"landed\": true}\n");
        release.send(()).expect("open the gate");
        // Loop 0 submitted the job: it lands the flight, answers A and
        // forwards B's answer to loop 1, which writes it.
        let start = Instant::now();
        while loops.iter().any(|lp| lp.conns.values().any(|conn| conn.parked)) {
            assert!(start.elapsed() < Duration::from_secs(30), "the waiters were never answered");
            for lp in &mut loops {
                lp.turn().expect("epoll wait");
            }
        }
        for client in [&mut a, &mut b] {
            let answer = read(client);
            assert_eq!(
                (answer.status, answer.body.as_slice()),
                (200, &b"{\"landed\": true}\n"[..])
            );
            assert_eq!(answer.header("Connection"), Some("keep-alive"));
        }
        let metrics = Arc::clone(&loops[1].state.metrics);
        assert_eq!((metrics.pool_jobs(), metrics.requests_for("/test", 200)), (1, 2));
        // B goes on to its next request on loop 1.
        b.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
        let start = Instant::now();
        while metrics.requests_for("/healthz", 200) == 0 {
            assert!(start.elapsed() < Duration::from_secs(30), "B's probe was never answered");
            loops[1].turn().expect("epoll wait");
        }
        assert_eq!(read(&mut b).status, 200);
        loops[0].state.pool.drain();
    }

    #[test]
    fn a_deadline_seen_on_one_loop_answers_504_on_both() {
        let request_timeout = Duration::from_millis(300);
        let (mut loops, addr) =
            two_loops(ServeConfig { request_timeout, ..ServeConfig::default() });
        let (release, gate) = mpsc::channel();
        let (mut a, mut b) = park_across(&mut loops, addr, gate, b"{}\n");
        // Only loop 1 turns: it expires the flight, answers B and
        // forwards A's 504 to loop 0.
        loops[1].turn_until("the deadline", |lp| lp.state.flights.in_flight() == 0);
        let answer = read(&mut b);
        assert_eq!(answer.status, 504, "{}", answer.text());
        assert!(loops[0].conns.values().any(|conn| conn.parked), "A waits in loop 0's inbox");
        loops[0].turn_until("A's answer", |lp| lp.conns.values().all(|conn| !conn.parked));
        assert_eq!(read(&mut a).status, 504);
        assert_eq!(loops[0].state.metrics.requests_for("/test", 504), 2);
        release.send(()).expect("open the gate");
        loops[0].state.pool.drain();
    }

    #[test]
    fn drain_answers_parked_connections_on_both_loops_before_the_server_exits() {
        let (mut loops, addr) = two_loops(ServeConfig::default());
        let state = Arc::clone(&loops[0].state);
        let (release, gate) = mpsc::channel();
        let (mut a, mut b) = park_across(&mut loops, addr, gate, b"{\"drained\": true}\n");

        // Draining from the first turn: the listener closes at once.
        let shutdown = Arc::new(AtomicBool::new(true));
        let [first, second] = loops;
        let serving = [first.serve(&shutdown), second.serve(&shutdown)];
        let start = Instant::now();
        while TcpStream::connect(addr).is_ok() {
            assert!(start.elapsed() < Duration::from_secs(30), "the listener never closed");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(SHUTDOWN_POLL * 2);
        assert!(serving.iter().all(|lp| !lp.is_finished()), "both loops wait for their waiter");

        release.send(()).expect("open the gate");
        for client in [&mut a, &mut b] {
            let answer = read(client);
            assert_eq!(answer.status, 200);
            assert_eq!(answer.header("Connection"), Some("close"), "drained answers close");
            let mut rest = Vec::new();
            assert_eq!(client.read_to_end(&mut rest).expect("a clean close"), 0);
        }
        for lp in serving {
            lp.join().expect("the loop thread").expect("the loop");
        }
        state.pool.drain();
    }

    #[test]
    fn a_panicked_loop_stops_the_server_with_a_failure() {
        // `validate` refuses this timeout; bypassing it, the first
        // parked deadline overflows an `Instant` and panics its loop.
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: Some(2),
            ..ServeConfig::default()
        };
        let Server { listener, state } = Server::bind(config).expect("bind on a free port");
        let mut state = Arc::into_inner(state).expect("the only owner");
        state.config.request_timeout = Duration::MAX;
        let server = Server { listener, state: Arc::new(state) };
        let addr = server.local_addr().expect("bound address");
        let (ended, run) = mpsc::channel();
        std::thread::spawn(move || ended.send(server.run(Arc::new(AtomicBool::new(false)))));

        let mut client = TcpStream::connect(addr).expect("connect");
        let body = r#"{"n": 41, "f": 20, "xmax": 1e6}"#;
        let request =
            format!("POST /v1/supremum HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        client.write_all(request.as_bytes()).expect("write");
        // The other loop drains, so `run` returns, and with a failure.
        let outcome = run.recv_timeout(Duration::from_secs(30)).expect("run returns");
        let failure = outcome.expect_err("a loop panicked");
        assert!(failure.to_string().contains("panicked"), "{failure}");
        let mut rest = Vec::new();
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        assert_eq!(client.read_to_end(&mut rest).expect("a closed connection"), 0);
    }
}
