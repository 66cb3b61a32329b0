//! Loopback HTTP client for `faultline query`, the load generator and
//! the integration tests. Two dialects:
//!
//! * [`query`] — one request per connection (`Connection: close`).
//! * [`Session`] — a persistent keep-alive connection carrying many
//!   requests, with `Content-Length` framing.
//!
//! Both retry exactly once on a reset-class failure (ECONNRESET,
//! broken pipe, unexpected EOF): a keep-alive peer may legitimately
//! close a connection the instant before a request lands on it (the
//! stale-connection race), and a fresh connection resolves it. A
//! second failure is reported.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default socket read timeout.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// A response as seen by the client.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers as `(name, value)` pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name` (case-insensitive).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Whether a request failure warrants the single fresh-connection
/// retry (reset-class: the peer went away under us).
fn is_retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
    )
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Writes one request and reads one `Content-Length`-framed response.
fn send_and_read(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> io::Result<Response> {
    let payload = body.unwrap_or("");
    let connection = if close { "close" } else { "keep-alive" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{payload}",
        payload.len(),
    );
    stream.write_all(request.as_bytes())?;
    read_response(stream)
}

/// Reads one framed response off the stream.
pub(crate) fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                if raw.is_empty() {
                    "connection closed before any response bytes"
                } else {
                    "connection closed mid-header"
                },
            ));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8"))?
        .to_owned();
    let content_length = head
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok());
    match content_length {
        Some(len) => {
            let total = head_end + 4 + len;
            while raw.len() < total {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-body",
                    ));
                }
                raw.extend_from_slice(&chunk[..n]);
            }
            raw.truncate(total);
        }
        // No Content-Length: close-delimited framing.
        None => {
            stream.read_to_end(&mut raw)?;
        }
    }
    parse_response(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The shared retry loop: `slot` holds a reusable connection between
/// calls (empty for the one-shot dialect).
fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
    keep_alive: bool,
    slot: &mut Option<TcpStream>,
) -> Result<Response, String> {
    let mut last_error: Option<io::Error> = None;
    for attempt in 0..2 {
        let mut stream = match slot.take() {
            Some(stream) => stream,
            None => match connect(addr, timeout) {
                Ok(stream) => stream,
                Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
            },
        };
        match send_and_read(&mut stream, addr, method, path, body, !keep_alive) {
            Ok(response) => {
                let peer_closes =
                    response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if keep_alive && !peer_closes {
                    *slot = Some(stream);
                }
                return Ok(response);
            }
            Err(e) if attempt == 0 && is_retryable(e.kind()) => last_error = Some(e),
            Err(e) => return Err(format!("request failed: {e}")),
        }
    }
    let error = last_error.expect("loop exits early unless a retryable error was stored");
    Err(format!("request failed after retry: {error}"))
}

/// A persistent keep-alive connection to one server address.
pub struct Session {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Session {
    /// A session with the default read timeout. Connects lazily.
    #[must_use]
    pub fn new(addr: &str) -> Session {
        Session::with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// A session with an explicit socket read timeout.
    #[must_use]
    pub fn with_timeout(addr: &str, timeout: Duration) -> Session {
        Session { addr: addr.to_owned(), timeout, stream: None }
    }

    /// Sends one request over the persistent connection, reconnecting
    /// (and retrying once) when the server closed it under us.
    ///
    /// # Errors
    ///
    /// Returns `Err(String)` on connection, write, read or parse
    /// failures that survive the single retry.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        request_with_retry(&self.addr, method, path, body, self.timeout, true, &mut self.stream)
    }

    /// Whether the session currently holds a live connection.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }
}

/// Sends one HTTP/1.1 request (`Connection: close`) to `addr` and
/// reads the full response, retrying once on a reset-class failure.
///
/// # Errors
///
/// Returns `Err(String)` on connection, write, read or parse failures.
pub fn query(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Response, String> {
    query_with_timeout(addr, method, path, body, DEFAULT_TIMEOUT)
}

/// [`query`] with an explicit socket read timeout.
///
/// # Errors
///
/// Returns `Err(String)` on connection, write, read or parse failures.
pub fn query_with_timeout(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, String> {
    let mut slot = None;
    request_with_retry(addr, method, path, body, timeout, false, &mut slot)
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response has no header/body separator".to_owned())?;
    let head =
        std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8".to_owned())?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| "empty response".to_owned())?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line}"))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':').map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
        })
        .collect();
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn responses_parse() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Cache: hit\r\n\r\n{\"ok\":1}\n";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-cache"), Some("hit"));
        assert_eq!(response.text(), "{\"ok\":1}\n");
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(parse_response(b"garbage").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    /// Reads until the request's blank line, so the peer's write
    /// completed before we act on the connection.
    fn read_request_head(stream: &mut TcpStream) {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(0) | Err(_) => break,
                Ok(_) => buf.extend_from_slice(&byte),
            }
        }
    }

    fn ok_response(keep_alive: bool) -> String {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\nConnection: {connection}\r\n\r\n{{}}\n"
        )
    }

    #[test]
    fn query_retries_exactly_once_after_a_reset() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        let server = std::thread::spawn(move || {
            // First accept: read the request, then close without
            // answering (the stale keep-alive race, as the client sees
            // it). Second accept: answer properly.
            let (mut first, _) = listener.accept().unwrap();
            counter.fetch_add(1, Ordering::SeqCst);
            read_request_head(&mut first);
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            counter.fetch_add(1, Ordering::SeqCst);
            read_request_head(&mut second);
            second.write_all(ok_response(false).as_bytes()).unwrap();
        });
        let response = query(&addr, "GET", "/healthz", None).expect("the retry succeeds");
        assert_eq!(response.status, 200);
        server.join().unwrap();
        assert_eq!(accepts.load(Ordering::SeqCst), 2, "one original attempt plus one retry");
    }

    #[test]
    fn a_second_reset_is_a_hard_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        let client = std::thread::spawn(move || query(&addr, "GET", "/healthz", None));
        // Exactly two connection attempts arrive; both get closed.
        for _ in 0..2 {
            let (mut conn, _) = listener.accept().unwrap();
            counter.fetch_add(1, Ordering::SeqCst);
            read_request_head(&mut conn);
            drop(conn);
        }
        let result = client.join().unwrap();
        assert!(result.is_err(), "two resets exhaust the single retry");
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
        // No third attempt is pending.
        listener.set_nonblocking(true).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            matches!(listener.accept(), Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "the client must not retry a second time"
        );
    }

    #[test]
    fn sessions_reuse_one_connection_for_many_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            counter.fetch_add(1, Ordering::SeqCst);
            for _ in 0..3 {
                read_request_head(&mut conn);
                conn.write_all(ok_response(true).as_bytes()).unwrap();
            }
        });
        let mut session = Session::new(&addr);
        for _ in 0..3 {
            let response = session.request("GET", "/healthz", None).unwrap();
            assert_eq!(response.status, 200);
            assert!(session.is_connected(), "keep-alive responses keep the connection");
        }
        server.join().unwrap();
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "three requests, one connection");
    }

    #[test]
    fn a_connection_close_response_drops_the_session_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_request_head(&mut conn);
            conn.write_all(ok_response(false).as_bytes()).unwrap();
        });
        let mut session = Session::new(&addr);
        let response = session.request("GET", "/healthz", None).unwrap();
        assert_eq!(response.status, 200);
        assert!(!session.is_connected(), "Connection: close is honored");
        server.join().unwrap();
    }
}
