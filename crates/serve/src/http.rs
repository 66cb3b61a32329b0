//! Minimal HTTP/1.1 support for the event loop: incremental request
//! parsing out of a connection's accumulation buffer (with size
//! limits), percent-decoded query strings, and response serialization.
//! HTTP/1.1 connections are keep-alive by default; `Connection: close`
//! (or HTTP/1.0 without `Connection: keep-alive`) opts out, on every
//! serving tier alike. The event loop parses through a per-connection
//! [`Cursor`], so a request that arrives in many reads is scanned once;
//! [`parse_request`] is the same parse from a fresh cursor.

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased.
    pub method: String,
    /// Decoded path without the query string (e.g. `/v1/cr`).
    pub path: String,
    /// Percent-decoded query parameters in request order.
    pub query: Vec<(String, String)>,
    /// Request body (empty when absent).
    pub body: String,
    /// Whether the connection may carry further requests afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// The first query parameter named `key`, if present.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A request that could not be parsed, with the status code to answer.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// HTTP status code to respond with (400 or 413).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl ParseError {
    fn bad(message: impl Into<String>) -> Self {
        ParseError { status: 400, message: message.into() }
    }

    fn too_large(message: impl Into<String>) -> Self {
        ParseError { status: 413, message: message.into() }
    }
}

/// Outcome of attempting to parse one request from a buffer prefix.
#[derive(Debug)]
pub enum Parsed {
    /// More bytes are needed; the buffer is a valid prefix so far.
    Incomplete,
    /// One complete request occupying the first `consumed` bytes.
    Ready {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed.
        consumed: usize,
    },
    /// The buffer prefix can never become a valid request.
    Invalid(ParseError),
}

/// Decodes `%XX` escapes and `+` in a query component.
fn percent_decode(text: &str) -> String {
    if !text.contains(['%', '+']) {
        return text.to_owned();
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h).ok().and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Splits a query string into decoded key/value pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// How far one connection's parse has got, so each read resumes it
/// instead of starting over at byte 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    /// Bytes already searched for the head's `\r\n\r\n` without a
    /// match; the next search starts 3 bytes before, in case the
    /// terminator straddles two reads.
    scanned: usize,
    /// Once the head is complete: where it ends, and the bytes head and
    /// body occupy together. Nothing is parsed again until they are all
    /// in the buffer.
    framed: Option<(usize, usize)>,
}

/// Attempts to parse one request from the front of `buf`.
///
/// Incremental: call again with the same (grown) buffer after more
/// bytes arrive. `Ready.consumed` tells the caller how much of the
/// buffer to drain before parsing the next pipelined request.
#[must_use]
pub fn parse_request(buf: &[u8]) -> Parsed {
    parse_next(buf, &mut Cursor::default())
}

/// [`parse_request`] resumed from `cursor`, which must have seen only
/// growing prefixes of `buf` since it was last reset (`Ready` and
/// `Invalid` reset it). The result is the one [`parse_request`] gives
/// on `buf`.
#[must_use]
pub fn parse_next(buf: &[u8], cursor: &mut Cursor) -> Parsed {
    let head_end = match cursor.framed {
        Some((_, total)) if buf.len() < total => return Parsed::Incomplete,
        Some((head_end, _)) => head_end,
        None => {
            // A terminator starting before `scanned - 3` would lie wholly
            // inside bytes already searched.
            let from = cursor.scanned.saturating_sub(3);
            let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") else {
                if buf.len() > MAX_HEAD_BYTES {
                    *cursor = Cursor::default();
                    return Parsed::Invalid(ParseError::too_large("request head exceeds 16 KiB"));
                }
                cursor.scanned = buf.len();
                return Parsed::Incomplete;
            };
            from + at
        }
    };
    let head = match parse_head(buf, head_end) {
        Ok(head) => head,
        Err(error) => {
            *cursor = Cursor::default();
            return Parsed::Invalid(error);
        }
    };
    if buf.len() < head.total {
        cursor.framed = Some((head_end, head.total));
        return Parsed::Incomplete;
    }
    *cursor = Cursor::default();
    let body = match std::str::from_utf8(&buf[head_end + 4..head.total]) {
        Ok(text) => text.to_owned(),
        Err(_) => return Parsed::Invalid(ParseError::bad("request body is not valid UTF-8")),
    };

    let Head { method, target, keep_alive, total } = head;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };
    Parsed::Ready {
        request: Request { method, path: percent_decode(path), query, body, keep_alive },
        consumed: total,
    }
}

/// A parsed request line and headers; the target borrows the buffer.
struct Head<'a> {
    method: String,
    target: &'a str,
    keep_alive: bool,
    /// The bytes head and body occupy together.
    total: usize,
}

/// Parses the head that ends at `head_end` (where its `\r\n\r\n`
/// starts).
fn parse_head(buf: &[u8], head_end: usize) -> Result<Head<'_>, ParseError> {
    if head_end + 4 > MAX_HEAD_BYTES {
        return Err(ParseError::too_large("request head exceeds 16 KiB"));
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Err(ParseError::bad("request head is not valid UTF-8"));
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1") => (m.to_uppercase(), t, v),
        _ => {
            return Err(ParseError::bad(format!("malformed request line: {}", request_line.trim())))
        }
    };

    // Framing is Content-Length only. A header line the parser cannot
    // read (including whitespace before its colon, RFC 9112 §5.1), a
    // length that is not all digits (RFC 9110 §8.6), a second length or
    // a transfer coding would let the body be framed differently from
    // what the client meant (and its tail be served as a smuggled
    // request), so each is a 400 that closes the connection.
    let mut content_length = None;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for header in lines {
        let Some((name, value)) =
            header.split_once(':').filter(|(name, _)| !name.ends_with([' ', '\t']))
        else {
            return Err(ParseError::bad(format!("malformed header line: {}", header.trim())));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(ParseError::bad("duplicate Content-Length header"));
            }
            // `usize::from_str` also takes a leading `+`.
            content_length = match value.parse::<usize>() {
                Ok(v) if value.bytes().all(|b| b.is_ascii_digit()) => Some(v),
                _ => return Err(ParseError::bad(format!("invalid Content-Length `{value}`"))),
            };
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::bad(
                "Transfer-Encoding is not supported; send the body with a Content-Length",
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::too_large("request body exceeds 1 MiB"));
    }
    Ok(Head { method, target, keep_alive, total: head_end + 4 + content_length })
}

/// The standard reason phrase for the status codes the service emits.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes a complete HTTP/1.1 response into one wire buffer.
#[must_use]
pub fn response_bytes(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason_phrase(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One buffer, one write: avoids a Nagle/delayed-ACK interaction
    // between a separate head and body segment.
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body);
    wire
}

/// Serializes a JSON error body `{"error": ...}` with the given status.
#[must_use]
pub fn error_bytes(
    status: u16,
    message: &str,
    extra_headers: &[(&str, String)],
    keep_alive: bool,
) -> Vec<u8> {
    let body = serde_json::to_string(&serde::Value::Object(vec![(
        "error".to_owned(),
        serde::Value::String(message.to_owned()),
    )]))
    .unwrap_or_else(|_| "{\"error\":\"unrepresentable\"}".to_owned())
        + "\n";
    response_bytes(status, "application/json", extra_headers, body.as_bytes(), keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_strings_decode() {
        let q = parse_query("n=3&f=1&name=two%20words&flag");
        assert_eq!(q[0], ("n".to_owned(), "3".to_owned()));
        assert_eq!(q[2], ("name".to_owned(), "two words".to_owned()));
        assert_eq!(q[3], ("flag".to_owned(), String::new()));
    }

    #[test]
    fn percent_decoding_is_permissive() {
        assert_eq!(percent_decode("a%2Bb"), "a+b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%"), "trail%");
        assert_eq!(percent_decode("plain/é"), "plain/é");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
        assert_eq!(percent_decode("bad%FFbyte"), "bad\u{FFFD}byte", "invalid UTF-8 is replaced");
    }

    #[test]
    fn reason_phrases_cover_service_statuses() {
        for status in [200, 400, 404, 405, 408, 413, 500, 503, 504] {
            assert_ne!(reason_phrase(status), "Unknown", "status {status}");
        }
    }

    #[test]
    fn incremental_parse_waits_for_the_full_request() {
        let wire = b"POST /v1/supremum?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..wire.len() {
            match parse_request(&wire[..cut]) {
                Parsed::Incomplete => {}
                other => panic!("prefix of {cut} bytes parsed as {other:?}"),
            }
        }
        match parse_request(wire) {
            Parsed::Ready { request, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/v1/supremum");
                assert_eq!(request.query_param("x"), Some("1"));
                assert_eq!(request.body, "body");
                assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!("complete request parsed as {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_one_request() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        match parse_request(wire) {
            Parsed::Ready { request, consumed } => {
                assert_eq!(request.path, "/healthz");
                assert_eq!(consumed, b"GET /healthz HTTP/1.1\r\n\r\n".len());
                match parse_request(&wire[consumed..]) {
                    Parsed::Ready { request, .. } => assert_eq!(request.path, "/metrics"),
                    other => panic!("second request parsed as {other:?}"),
                }
            }
            other => panic!("first request parsed as {other:?}"),
        }
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let Parsed::Ready { request, .. } = parse_request(close) else { panic!("parse") };
        assert!(!request.keep_alive);

        let old = b"GET / HTTP/1.0\r\n\r\n";
        let Parsed::Ready { request, .. } = parse_request(old) else { panic!("parse") };
        assert!(!request.keep_alive, "HTTP/1.0 defaults to close");

        let old_keep = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let Parsed::Ready { request, .. } = parse_request(old_keep) else { panic!("parse") };
        assert!(request.keep_alive);
    }

    #[test]
    fn oversized_heads_and_bodies_answer_413() {
        let huge_head = format!("GET /?x={} HTTP/1.1\r\n", "a".repeat(MAX_HEAD_BYTES));
        match parse_request(huge_head.as_bytes()) {
            Parsed::Invalid(e) => assert_eq!(e.status, 413),
            other => panic!("oversized head parsed as {other:?}"),
        }
        let huge_body =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        match parse_request(huge_body.as_bytes()) {
            Parsed::Invalid(e) => assert_eq!(e.status, 413),
            other => panic!("oversized body parsed as {other:?}"),
        }
    }

    #[test]
    fn malformed_request_lines_are_invalid_not_incomplete() {
        match parse_request(b"NOT-HTTP\r\n\r\n") {
            Parsed::Invalid(e) => assert_eq!(e.status, 400),
            other => panic!("garbage parsed as {other:?}"),
        }
    }

    #[test]
    fn ambiguous_framing_is_invalid_not_served() {
        for wire in [
            // The chunk data is a whole request: served, it would be
            // a smuggled one.
            &b"POST /v1/scenario HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
               GET /healthz HTTP/1.1\r\n\r\n"[..],
            b"POST /v1/scenario HTTP/1.1\r\nContent-Length: 200\r\nContent-Length: 2\r\n\r\n{}",
            b"GET /healthz HTTP/1.1\r\nHost example\r\n\r\n",
            // Read as an unknown header, the length would frame an
            // empty body and `{"a"}` would parse as the next request.
            b"POST /v1/scenario HTTP/1.1\r\nContent-Length : 5\r\n\r\n{\"a\"}",
            // `"+5".parse::<usize>()` is `Ok(5)`.
            b"POST /v1/scenario HTTP/1.1\r\nContent-Length: +5\r\n\r\n{\"a\"}",
        ] {
            match parse_request(wire) {
                Parsed::Invalid(e) => assert_eq!(e.status, 400, "{}", e.message),
                other => panic!("{:?} parsed as {other:?}", String::from_utf8_lossy(wire)),
            }
        }
    }

    #[test]
    fn pipelined_stream_parses_the_same_when_split_at_any_byte() {
        let wire: &[u8] = b"POST /v1/scenario HTTP/1.1\r\nContent-Length: 17\r\n\r\n\
            {\"name\": \"smoke\"}GET /v1/cr?n=3&f=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let summary =
            |r: &Request| (r.method.clone(), r.path.clone(), r.body.clone(), r.keep_alive);
        let expected = vec![
            ("POST".to_owned(), "/v1/scenario".to_owned(), r#"{"name": "smoke"}"#.to_owned(), true),
            ("GET".to_owned(), "/v1/cr".to_owned(), String::new(), false),
        ];
        for split in 0..=wire.len() {
            // A connection buffer that first holds `wire[..split]`,
            // then receives the rest.
            let mut buf = wire[..split].to_vec();
            let mut rest = Some(&wire[split..]);
            let mut parsed = Vec::new();
            loop {
                match parse_request(&buf) {
                    Parsed::Ready { request, consumed } => {
                        parsed.push(summary(&request));
                        buf.drain(..consumed);
                    }
                    Parsed::Incomplete => match rest.take() {
                        Some(tail) => buf.extend_from_slice(tail),
                        None => break,
                    },
                    Parsed::Invalid(e) => panic!("split at {split}: {}", e.message),
                }
            }
            assert_eq!(parsed, expected, "split at {split}");
            assert!(buf.is_empty(), "split at {split}: {} bytes left over", buf.len());
        }
    }

    #[test]
    fn a_request_fed_a_byte_at_a_time_is_scanned_once() {
        let wire: &[u8] =
            b"POST /v1/scenario HTTP/1.1\r\nContent-Length: 17\r\n\r\n{\"name\": \"smoke\"}";
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let mut cursor = Cursor::default();
        for len in 1..wire.len() {
            let parsed = parse_next(&wire[..len], &mut cursor);
            assert!(matches!(parsed, Parsed::Incomplete), "{len} bytes parsed as {parsed:?}");
            if len < head_end + 4 {
                // The next search resumes 3 bytes before the end.
                assert_eq!(cursor, Cursor { scanned: len, framed: None }, "{len} bytes");
            } else {
                // The head is parsed; nothing is parsed again until the
                // whole body is in.
                assert_eq!(cursor.framed, Some((head_end, wire.len())), "{len} bytes");
            }
        }
        let Parsed::Ready { request, consumed } = parse_next(wire, &mut cursor) else {
            panic!("the complete request parses");
        };
        assert_eq!(
            (request.path.as_str(), request.body.as_str()),
            ("/v1/scenario", r#"{"name": "smoke"}"#)
        );
        assert_eq!(consumed, wire.len());
        assert_eq!(cursor, Cursor::default(), "a parsed request resets the cursor");

        // A pipelined stream fed through one cursor a byte at a time
        // parses into what `parse_request` makes of it.
        let stream: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/cr?n=3&f=1 HTTP/1.1\r\n\r\n";
        let mut buf = Vec::new();
        let mut paths = Vec::new();
        for &byte in stream {
            buf.push(byte);
            if let Parsed::Ready { request, consumed } = parse_next(&buf, &mut cursor) {
                paths.push(request.path);
                buf.drain(..consumed);
            }
        }
        assert_eq!(paths, ["/healthz", "/v1/cr"]);
        assert!(buf.is_empty());
    }

    #[test]
    fn response_bytes_set_the_connection_header() {
        let keep = response_bytes(200, "application/json", &[], b"{}", true);
        assert!(std::str::from_utf8(&keep).unwrap().contains("Connection: keep-alive\r\n"));
        let close = response_bytes(200, "application/json", &[], b"{}", false);
        assert!(std::str::from_utf8(&close).unwrap().contains("Connection: close\r\n"));
    }
}
