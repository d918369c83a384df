//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! Implements exactly the subset the daemon, the `chaos` drill's client
//! and the tests need: request/response lines, headers, `Content-Length`
//! bodies and keep-alive. No chunked transfer encoding (a request with
//! `Transfer-Encoding` is rejected with 411), no TLS, no HTTP/2 — this is
//! a service for trusted infrastructure, not the open internet, and the
//! framing layer is deliberately small enough to audit in one sitting.
//!
//! Hard limits ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]) bound the memory
//! any single connection can pin, so a malformed or hostile peer cannot
//! balloon the server.
//!
//! A response body is an `Arc<Vec<u8>>`, the plan cache's own type, so a
//! cache hit hands the cached document to the socket without copying it;
//! head and body leave in one vectored write.

use std::io::{BufRead, IoSlice, Write};
use std::sync::Arc;

/// Largest accepted request/status line + headers block, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path; query strings are not split off).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open (HTTP/1.1
    /// default) or to close it.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a (complete)
    /// request. A clean EOF before the first byte is *not* an error —
    /// [`read_request`] returns `Ok(None)` for that.
    Closed,
    /// Request line or headers are malformed (maps to 400).
    BadRequest(String),
    /// Head or body exceeds the hard limits (maps to 431/413).
    TooLarge(&'static str),
    /// The request needs a length we do not implement (maps to 411).
    LengthRequired,
    /// The underlying transport failed (including read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::BadRequest(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
            HttpError::LengthRequired => write!(f, "length required"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line terminated by `\n` (tolerating a trailing `\r`),
/// bounding the total bytes consumed. Returns `None` on EOF before any
/// byte.
///
/// The line is taken a buffer at a time (`read_until` scans `fill_buf`
/// for the `\n` and consumes up to it) through a `take` one byte past
/// the budget, so the limit trips on exactly byte `budget + 1`.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let limit = *budget as u64 + 1;
    let taken = std::io::Read::take(&mut *reader, limit).read_until(b'\n', &mut line)?;
    if taken == 0 {
        return Ok(None);
    }
    if taken > *budget {
        return Err(HttpError::TooLarge("request head"));
    }
    *budget -= taken;
    if line.pop() != Some(b'\n') {
        return Err(HttpError::Closed);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 header line".into()))
}

/// Reads one request from the stream. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive shutdown).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => return Err(HttpError::BadRequest("bad request line".into())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("unsupported HTTP version".into()));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest("header without colon".into()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::LengthRequired);
    }
    if let Some(len_text) = request.header("content-length") {
        let len: usize = len_text
            .parse()
            .map_err(|_| HttpError::BadRequest("bad content-length".into()))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("request body"));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::Closed
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(Some(request))
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length`, `Content-Type` and `Connection`
    /// are emitted automatically).
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes; a `/v1/plan` answer shares the plan cache's own.
    pub body: Arc<Vec<u8>>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::shared_json(status, Arc::new(body.into()))
    }

    /// A JSON response whose body is shared, not copied: the plan
    /// cache's bytes go out as they are stored.
    pub fn shared_json(status: u16, body: Arc<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
        }
    }

    /// A response with an explicit `Content-Type` (suppresses the default
    /// `application/json`). Used by the Prometheus `/metrics` endpoint.
    pub fn text(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response::json(status, body).with_header("Content-Type", content_type)
    }

    /// A JSON error document `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let doc = crate::json::JsonValue::object(vec![
            ("error", crate::json::JsonValue::from(message)),
            ("status", crate::json::JsonValue::from(u64::from(status))),
        ]);
        Response::json(status, doc.to_pretty_string())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Serialises the response to the wire, flushing at the end.
    /// `keep_alive` controls the emitted `Connection` header.
    ///
    /// The head is built in one buffer sized up front; head and body
    /// then leave in one `write_vectored` call when the writer takes
    /// them whole, and in as many calls as it needs otherwise.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let reason = status_reason(self.status);
        let extra: usize = self
            .headers
            .iter()
            .map(|(name, value)| name.len() + value.len() + 4)
            .sum();
        // Status line, the three automatic headers and the blank line
        // fit in 128 bytes beside the reason phrase.
        let mut head = Vec::with_capacity(128 + reason.len() + extra);
        write!(head, "HTTP/1.1 {} {reason}\r\n", self.status)?;
        let has_content_type = self
            .headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("content-type"));
        if !has_content_type {
            head.extend_from_slice(b"Content-Type: application/json\r\n");
        }
        write!(head, "Content-Length: {}\r\n", self.body.len())?;
        head.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n"
        } else {
            b"Connection: close\r\n"
        });
        for (name, value) in &self.headers {
            head.extend_from_slice(name.as_bytes());
            head.extend_from_slice(b": ");
            head.extend_from_slice(value.as_bytes());
            head.extend_from_slice(b"\r\n");
        }
        head.extend_from_slice(b"\r\n");
        write_all_vectored(writer, &mut [IoSlice::new(&head), IoSlice::new(&self.body)])?;
        writer.flush()
    }
}

/// Writes every byte of `bufs`, advancing across partial writes and
/// slice boundaries. `Interrupted` is retried; a writer that takes no
/// bytes fails with `WriteZero` instead of spinning.
fn write_all_vectored(
    writer: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match writer.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response read back by a client: status, headers (lower-cased names)
/// and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from the stream (the client half of the protocol,
/// used by the `chaos` drill and the tests).
pub fn read_response(reader: &mut impl BufRead) -> Result<ClientResponse, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?;
    let mut parts = status_line.split_whitespace();
    let (version, status) = (parts.next(), parts.next());
    if !version.is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::BadRequest("bad status line".into()));
    }
    let status: u16 = status
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::BadRequest("bad status code".into()))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?.ok_or(HttpError::Closed)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let response = ClientResponse {
        status,
        headers,
        body: Vec::new(),
    };
    let len: usize = response
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("response body"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(ClientResponse { body, ..response })
}

/// Writes a request (the client half), flushing at the end. Without
/// `keep_alive` it asks the server to close the connection after its
/// answer (`Connection: close`).
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: mule-serve\r\n{connection}Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    fn parse_bytes(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    /// Buffer capacities the read path is checked under: byte at a time,
    /// an odd small size, and `BufReader`'s default.
    const CAPACITIES: [Option<usize>; 3] = [Some(1), Some(7), None];

    fn reader(bytes: &[u8], capacity: Option<usize>) -> BufReader<&[u8]> {
        match capacity {
            Some(capacity) => BufReader::with_capacity(capacity, bytes),
            None => BufReader::new(bytes),
        }
    }

    #[test]
    fn a_full_post_request_parses() {
        let raw = b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = parse_bytes(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn bare_lf_lines_and_connection_close_are_honoured() {
        let raw = b"GET /healthz HTTP/1.1\nConnection: CLOSE\n\n";
        let req = parse_bytes(raw).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none_and_truncation_is_closed() {
        for capacity in CAPACITIES {
            let parse = |bytes: &[u8]| read_request(&mut reader(bytes, capacity));
            assert!(parse(b"").unwrap().is_none());
            assert!(matches!(
                parse(b"GET / HTTP/1.1\r\nHost"),
                Err(HttpError::Closed)
            ));
            assert!(matches!(
                parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
                Err(HttpError::Closed)
            ));
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            parse_bytes(b"GARBAGE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn oversized_heads_and_bodies_are_bounded() {
        let mut huge = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(
            parse_bytes(&huge),
            Err(HttpError::TooLarge("request head"))
        ));
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_bytes(big_body.as_bytes()),
            Err(HttpError::TooLarge("request body"))
        ));
    }

    #[test]
    fn responses_roundtrip_through_the_client_reader() {
        let responses = [
            Response::json(200, "{\"ok\":true}")
                .with_header("X-Cache", "hit")
                .with_header("Retry-After", "1"),
            Response::json(200, vec![b'x'; 5000]).with_header("X-Cache", "miss"),
            Response::text(200, "text/plain", "metrics\n"),
            Response::error(431, "request head too large"),
        ];
        let mut wire = Vec::new();
        for response in &responses {
            response.write_to(&mut wire, true).unwrap();
        }
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));

        for capacity in CAPACITIES {
            let mut stream = reader(&wire, capacity);
            for response in &responses {
                let back = read_response(&mut stream).unwrap();
                assert_eq!(back.status, response.status);
                assert_eq!(back.body, *response.body);
                for (name, value) in &response.headers {
                    assert_eq!(
                        back.header(&name.to_ascii_lowercase()),
                        Some(value.as_str())
                    );
                }
            }
            assert!(stream.fill_buf().unwrap().is_empty(), "{capacity:?}");
        }
        let first = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(first.body_text(), "{\"ok\":true}");
    }

    #[test]
    fn error_responses_carry_a_json_document() {
        let response = Response::error(422, "no mules");
        assert_eq!(response.status, 422);
        let text = String::from_utf8(response.body.to_vec()).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("error").and_then(crate::json::JsonValue::as_str),
            Some("no mules")
        );
        assert_eq!(
            doc.get("status").and_then(crate::json::JsonValue::as_u64),
            Some(422)
        );
    }

    #[test]
    fn request_writer_produces_parseable_requests() {
        for keep_alive in [true, false] {
            let mut wire = Vec::new();
            write_request(
                &mut wire,
                "POST",
                "/v1/plan",
                b"{\"targets\":5}",
                keep_alive,
            )
            .unwrap();
            let req = parse_bytes(&wire).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/plan");
            assert_eq!(req.body, b"{\"targets\":5}");
            assert_eq!(req.keep_alive(), keep_alive);
        }
    }

    /// A writer that takes at most 7 bytes per call, keeps `Write`'s
    /// default `write_vectored` (first non-empty slice only) and fails
    /// its first call with `Interrupted`.
    struct Trickle {
        wire: Vec<u8>,
        interrupted: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(7);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer that takes everything in one call and counts the calls.
    #[derive(Default)]
    struct Gulp {
        wire: Vec<u8>,
        calls: usize,
    }

    impl Write for Gulp {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            for buf in bufs {
                self.wire.extend_from_slice(buf);
            }
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_and_interrupted_writes_produce_the_exact_wire_image() {
        let cases: [(Response, bool, &str); 4] = [
            (
                Response::json(200, "{\"ok\":true}")
                    .with_header("X-Cache", "hit")
                    .with_header("X-Fingerprint", "00000000000000ff"),
                true,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 11\r\nConnection: keep-alive\r\nX-Cache: hit\r\n\
                 X-Fingerprint: 00000000000000ff\r\n\r\n{\"ok\":true}",
            ),
            (
                Response::text(200, "text/plain; version=0.0.4", "up 1\n"),
                false,
                "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\
                 Content-Type: text/plain; version=0.0.4\r\n\r\nup 1\n",
            ),
            (
                Response::error(503, "busy").with_header("Retry-After", "1"),
                false,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 39\r\nConnection: close\r\nRetry-After: 1\r\n\r\n\
                 {\n  \"error\": \"busy\",\n  \"status\": 503\n}\n",
            ),
            (
                Response::json(404, ""),
                true,
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
                 Content-Length: 0\r\nConnection: keep-alive\r\n\r\n",
            ),
        ];
        for (response, keep_alive, expected) in cases {
            let mut trickle = Trickle {
                wire: Vec::new(),
                interrupted: false,
            };
            response.write_to(&mut trickle, keep_alive).unwrap();
            assert_eq!(String::from_utf8(trickle.wire).unwrap(), expected);

            let mut gulp = Gulp::default();
            response.write_to(&mut gulp, keep_alive).unwrap();
            assert_eq!(
                gulp.calls, 1,
                "one vectored write when the writer takes it all"
            );
            assert_eq!(String::from_utf8(gulp.wire).unwrap(), expected);
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_fails_with_write_zero() {
        struct Stuck(usize);
        impl Write for Stuck {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut stuck = Stuck(0);
        let err = Response::json(200, "{}")
            .write_to(&mut stuck, true)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!(stuck.0, 1, "no retry after a zero-byte write");
    }

    #[test]
    fn the_head_budget_trips_on_exactly_one_byte_past_the_limit() {
        let head_of = |len: usize| {
            let mut head = Vec::from(&b"GET / HTTP/1.1\r\nX-Pad: "[..]);
            head.resize(len - 4, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        };
        let fits = head_of(MAX_HEAD_BYTES);
        let over = head_of(MAX_HEAD_BYTES + 1);
        assert_eq!(fits.len(), MAX_HEAD_BYTES);
        for capacity in CAPACITIES {
            let request = read_request(&mut reader(&fits, capacity)).unwrap().unwrap();
            assert_eq!(
                request.header("x-pad").map(str::len),
                Some(MAX_HEAD_BYTES - 27)
            );
            assert!(
                matches!(
                    read_request(&mut reader(&over, capacity)),
                    Err(HttpError::TooLarge("request head"))
                ),
                "{capacity:?}"
            );
        }
    }

    #[test]
    fn a_crlf_split_across_refills_ends_one_line() {
        // `Chain` hands each part to one refill, so the `\r` ends the
        // first buffer and the `\n` starts the second.
        let mut split = BufReader::new(Read::chain(&b"GET / HTTP/1.1\r"[..], &b"\nnext\n"[..]));
        let mut budget = MAX_HEAD_BYTES;
        assert_eq!(
            read_line(&mut split, &mut budget).unwrap().as_deref(),
            Some("GET / HTTP/1.1")
        );
        assert_eq!(
            read_line(&mut split, &mut budget).unwrap().as_deref(),
            Some("next")
        );
        assert_eq!(budget, MAX_HEAD_BYTES - 21);
        assert!(read_line(&mut split, &mut budget).unwrap().is_none());
    }

    #[test]
    fn status_reasons_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 411, 413, 422, 431, 500, 503, 504] {
            assert_ne!(status_reason(code), "Unknown", "{code}");
        }
        assert_eq!(status_reason(599), "Unknown");
    }
}
