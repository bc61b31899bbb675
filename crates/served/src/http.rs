//! A minimal HTTP/1.1 implementation over `std::net` — just enough for
//! the compilation server and its clients, with hard limits everywhere a
//! remote peer controls an allocation.
//!
//! Supported surface: request line + headers + `Content-Length` bodies,
//! keep-alive by default (HTTP/1.1 semantics), `Connection: close`
//! opt-out. Chunked transfer encoding, trailers, upgrades and multi-line
//! headers are deliberately rejected; the wire peer is either our own
//! `rake-client`/rakebench or `curl`, both of which speak this subset.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Upper bound on the request line plus all header bytes. Prevents a
/// peer from streaming an unbounded header section.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, uppercased by the peer (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/compile`.
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to drop the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request line —
    /// the normal end of a keep-alive session, not an error to report.
    Closed,
    /// The request violates the supported HTTP subset or its limits; the
    /// string is a human-readable reason for the 400 response.
    Malformed(String),
    /// `Content-Length` exceeds the configured body limit → 413.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// A started request did not finish arriving within the read
    /// deadline (slow-loris guard) → 408. Distinct from an *idle*
    /// keep-alive connection timing out between requests, which is a
    /// clean close.
    TimedOut,
    /// The socket failed mid-read (reset, ...).
    Io(io::Error),
}

/// Read one request from the stream.
///
/// # Errors
///
/// See [`ReadError`]; `Closed` is the clean end of a keep-alive session.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Request, ReadError> {
    read_request_deadline(reader, max_body_bytes, None)
}

/// [`read_request`] with a slow-loris guard: the *entire* request —
/// line, headers, body — must arrive before `deadline`, or the read
/// fails with [`ReadError::TimedOut`] (→ 408).
///
/// The deadline catches drip-feed peers (a byte every few seconds keeps
/// any per-read socket timeout happy forever); callers should *also*
/// set a socket read timeout of the same order so a fully silent peer
/// cannot pin the thread between bytes — with a deadline armed, those
/// `WouldBlock`/`TimedOut` socket errors are mapped to `TimedOut` too.
///
/// # Errors
///
/// See [`ReadError`].
pub fn read_request_deadline(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
    deadline: Option<Instant>,
) -> Result<Request, ReadError> {
    read_request_inner(reader, max_body_bytes, deadline).map_err(|e| match e {
        // With a deadline armed, a socket-level stall is the same
        // slow-loris verdict as blowing the overall deadline.
        ReadError::Io(io)
            if deadline.is_some()
                && matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
        {
            ReadError::TimedOut
        }
        other => other,
    })
}

fn read_request_inner(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
    deadline: Option<Instant>,
) -> Result<Request, ReadError> {
    let overdue = || deadline.is_some_and(|d| Instant::now() >= d);
    let mut head_budget = MAX_HEAD_BYTES;
    let line = read_line(reader, &mut head_budget)?;
    if line.is_empty() {
        return Err(ReadError::Closed);
    }
    if overdue() {
        return Err(ReadError::TimedOut);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed("bad request line".to_owned()));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported version `{version}`")));
    }
    let method = method.to_owned();
    let path = path.to_owned();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_budget)?;
        if overdue() {
            return Err(ReadError::TimedOut);
        }
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut req = Request { method, path, headers, body: Vec::new() };
    if req.header("transfer-encoding").is_some() {
        return Err(ReadError::Malformed("chunked transfer encoding is not supported".to_owned()));
    }
    if let Some(len) = req.header("content-length") {
        let Ok(len) = len.parse::<usize>() else {
            return Err(ReadError::Malformed(format!("bad content-length `{len}`")));
        };
        if len > max_body_bytes {
            return Err(ReadError::BodyTooLarge { declared: len, limit: max_body_bytes });
        }
        // Chunked reads so a drip-fed body checks the deadline between
        // chunks instead of sitting in one long `read_exact`.
        let mut body = vec![0u8; len];
        let mut filled = 0usize;
        while filled < len {
            if overdue() {
                return Err(ReadError::TimedOut);
            }
            let chunk = (len - filled).min(64 * 1024);
            match reader.read(&mut body[filled..filled + chunk]) {
                Ok(0) => {
                    return Err(ReadError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "body cut short",
                    )));
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        req.body = body;
    }
    Ok(req)
}

/// Read one CRLF (or bare LF) terminated line, charging `budget`. An empty
/// return means either a blank line or EOF — callers distinguish by
/// position.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if *budget == 0 {
                    return Err(ReadError::Malformed(format!(
                        "request head exceeds {MAX_HEAD_BYTES} bytes"
                    )));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ReadError::Malformed("non-UTF-8 in head".to_owned()))
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Media type of the body.
    pub content_type: &'static str,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &driver::json::Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.to_string().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// Serialize onto the wire. `close` controls the `Connection` header.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (the peer may already be gone).
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write per response: head and body split across two small
        // writes interacts with Nagle + delayed ACK for a ~40 ms stall
        // per exchange, which would dwarf a warm cache hit.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Client side: write `method path` with an optional body over `stream`
/// and read back `(status, body)`. Keep-alive: the same stream can be
/// reused for the next call unless the server answered `Connection:
/// close`.
///
/// # Errors
///
/// Propagates socket failures and malformed responses as `io::Error`.
pub fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<(u16, Vec<u8>)> {
    roundtrip_headers(stream, method, path, body).map(|(status, _, body)| (status, body))
}

/// Status, headers (lowercased names), and body of an HTTP response.
pub type StatusHeadersBody = (u16, Vec<(String, String)>, Vec<u8>);

/// [`roundtrip`], but also returning the response headers (lowercased
/// names) — retry logic needs `Retry-After`.
///
/// # Errors
///
/// Propagates socket failures and malformed responses as `io::Error`.
pub fn roundtrip_headers(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<StatusHeadersBody> {
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: rake-served\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    // Single write for the same reason as `Response::write_to`: two
    // small writes on a keep-alive connection trip Nagle + delayed ACK.
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    stream.set_nodelay(true).ok();
    stream.write_all(&wire)?;
    stream.flush()?;

    let mut reader = io::BufReader::new(stream.try_clone()?);
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(&mut reader, &mut budget).map_err(|e| match e {
        ReadError::Io(io) => io,
        other => io::Error::new(io::ErrorKind::InvalidData, format!("{other:?}")),
    })?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line `{status_line}`")))?;
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader, &mut budget).map_err(|e| match e {
            ReadError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, format!("{other:?}")),
        })?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad("bad response content-length"))?;
            }
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, body))
}

/// Capped exponential backoff with full jitter, for retrying transient
/// failures: delay `attempt` (0-based) is uniform in
/// `[0, min(base · 2^attempt, cap)]` — the AWS "full jitter" scheme,
/// which decorrelates a thundering herd of retrying clients. `salt`
/// seeds the jitter (callers mix in pid/time; this module stays
/// dependency-free and deterministic for tests).
pub fn backoff_delay(base_ms: u64, cap_ms: u64, attempt: u32, salt: u64) -> std::time::Duration {
    let ceiling = base_ms.saturating_mul(1u64 << attempt.min(20)).min(cap_ms).max(1);
    // SplitMix64 finalizer over (salt, attempt) → uniform-enough jitter.
    let mut z = salt.wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(u64::from(attempt) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    std::time::Duration::from_millis(z % ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
    }

    #[test]
    fn oversized_body_is_413_class() {
        let err = parse(b"POST / HTTP/1.1\r\ncontent-length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(err, ReadError::BodyTooLarge { declared: 9999, limit: 1024 }));
    }

    #[test]
    fn rejects_garbage_and_oversized_heads() {
        assert!(matches!(parse(b"\x00\x01\x02\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(parse(b"GET /\r\n\r\n"), Err(ReadError::Malformed(_))));
        let huge = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "y".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(huge.as_bytes()), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn expired_deadline_is_timed_out_not_malformed() {
        let raw = b"POST /compile HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err =
            read_request_deadline(&mut BufReader::new(&raw[..]), 1024, Some(past)).unwrap_err();
        assert!(matches!(err, ReadError::TimedOut), "{err:?}");
        // A generous deadline changes nothing.
        let future = Instant::now() + std::time::Duration::from_secs(60);
        let req = read_request_deadline(&mut BufReader::new(&raw[..]), 1024, Some(future)).unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn socket_stall_maps_to_timed_out_only_under_deadline() {
        struct Stall;
        impl io::Read for Stall {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
        let future = Instant::now() + std::time::Duration::from_secs(60);
        let err =
            read_request_deadline(&mut BufReader::new(Stall), 1024, Some(future)).unwrap_err();
        assert!(matches!(err, ReadError::TimedOut), "{err:?}");
        let err = read_request_deadline(&mut BufReader::new(Stall), 1024, None).unwrap_err();
        assert!(matches!(err, ReadError::Io(_)), "no deadline keeps the old Io verdict: {err:?}");
    }

    #[test]
    fn backoff_jitter_stays_under_the_cap_and_grows() {
        for attempt in 0..10 {
            for salt in [1u64, 7, 42, 0xDEAD] {
                let d = backoff_delay(100, 2000, attempt, salt);
                let ceiling = 100u64.saturating_mul(1 << attempt).min(2000);
                assert!(d.as_millis() < u128::from(ceiling.max(1)) + 1, "{d:?} vs {ceiling}");
            }
        }
        // Deterministic for a fixed (salt, attempt).
        assert_eq!(backoff_delay(100, 2000, 3, 9), backoff_delay(100, 2000, 3, 9));
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::text(429, "busy")
            .with_header("retry-after", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy"));
    }
}
