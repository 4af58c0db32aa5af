//! A deliberately small HTTP/1.1 implementation — just enough protocol
//! for a JSON API: request-line + headers + `Content-Length` bodies in,
//! status + headers + body out (plus chunked transfer encoding for
//! streaming responses).
//!
//! Input is the *push-based* [`RequestParser`]: a state machine fed
//! raw bytes ([`RequestParser::feed`]) that yields complete requests
//! ([`RequestParser::try_next`]) without ever touching a socket — the
//! shape a readiness-based event loop needs, where bytes arrive
//! whenever the kernel says so, in whatever fragments the network
//! produced. Output is rendered into byte buffers
//! ([`render_response`], [`render_stream_head`], [`chunk`]) that the
//! event loop writes when the socket has room.
//!
//! Limits are enforced while parsing (header block ≤ 16 KiB, body ≤
//! 4 MiB) so a misbehaving client can't balloon the buffer, and
//! `Expect: 100-continue` is honoured because stock `curl` sends it for
//! larger bodies. HTTP/1.1 requests keep the connection alive by
//! default, `Connection: close` (and HTTP/1.0) closes it, and bytes
//! over-read past one request's body are kept as the start of the next.

/// Header block size limit.
const MAX_HEAD: usize = 16 * 1024;
/// Body size limit.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path with the query string stripped.
    pub path: String,
    /// The raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open: an
    /// explicit `Connection` header wins, otherwise the HTTP/1.1
    /// default is keep-alive and the HTTP/1.0 default is close.
    pub keep_alive: bool,
    /// The `Authorization` header value, verbatim, when present
    /// (bearer-token auth checks it before routing).
    pub authorization: Option<String>,
}

impl Request {
    /// The first value of query parameter `name` (`?id=7&x` →
    /// `query_param("id") == Some("7")`, `query_param("x") ==
    /// Some("")`). No percent-decoding — the API's parameters are
    /// plain numbers and keywords.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name).then_some(value)
        })
    }
}

/// A malformed or over-limit request, mapped to a status + message.
#[derive(Debug)]
pub struct HttpError {
    /// Response status to send.
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Find the end of the header block in `buf`: the index just past the
/// blank line, if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// A parsed header block: everything known before the body arrives.
#[derive(Debug, Clone)]
struct Head {
    method: String,
    path: String,
    query: String,
    keep_alive: bool,
    content_length: usize,
    expects_continue: bool,
    authorization: Option<String>,
}

/// Parse a complete header block (request line + headers, the bytes up
/// to and including the blank line).
fn parse_head(bytes: Vec<u8>) -> Result<Head, HttpError> {
    let head = String::from_utf8(bytes).map_err(|_| HttpError::new(400, "non-UTF-8 header"))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, format!("unsupported {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut expects_continue = false;
    let mut authorization = None;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::new(400, "bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::new(501, "chunked bodies not supported"));
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expects_continue = true;
        } else if name.eq_ignore_ascii_case("authorization") {
            authorization = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::new(413, "body too large"));
    }
    Ok(Head {
        method,
        path,
        query,
        keep_alive,
        content_length,
        expects_continue,
        authorization,
    })
}

/// Which part of a request the parser is inside.
#[derive(Debug)]
enum Phase {
    /// Accumulating the header block (or idle between requests when
    /// the buffer is empty).
    Head,
    /// Header block parsed; waiting for `content_length` body bytes.
    Body(Head),
}

/// Incremental HTTP/1.1 request parser: feed it bytes as they arrive,
/// pull complete requests out. Never blocks, never touches I/O — the
/// event loop owns the socket, the parser owns the protocol.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    phase: Phase,
    /// Set when a parsed head carried `Expect: 100-continue` and its
    /// body had not fully arrived — the driver should write the interim
    /// response; cleared by [`RequestParser::take_continue`].
    needs_continue: bool,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A fresh parser (start of a connection).
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            phase: Phase::Head,
            needs_continue: false,
        }
    }

    /// Append bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the buffer holds a largest-possible request's worth of
    /// bytes (`MAX_HEAD + MAX_BODY`): the event loop stops feeding it until
    /// requests drain it, so pipelined bytes wait in the socket.
    pub fn is_full(&self) -> bool {
        self.buf.len() >= MAX_HEAD + MAX_BODY
    }

    /// Whether any unconsumed bytes are buffered (a pipelined next
    /// request, or a partial one).
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty() || matches!(self.phase, Phase::Body(_))
    }

    /// Whether the parser is *inside* a request — a partial header
    /// block or an incomplete body. Distinguishes "client idle between
    /// requests" (a clean close) from "client stopped mid-request" (an
    /// error / hostile client) on EOF or timeout.
    pub fn mid_request(&self) -> bool {
        match self.phase {
            Phase::Head => !self.buf.is_empty(),
            Phase::Body(_) => true,
        }
    }

    /// Whether the parser is waiting for body bytes (the header block
    /// is already parsed) — the event loop's reading-body state.
    pub fn in_body(&self) -> bool {
        matches!(self.phase, Phase::Body(_))
    }

    /// True exactly once after a head with `Expect: 100-continue`
    /// parsed while its body was still outstanding; the caller writes
    /// the `100 Continue` interim response.
    pub fn take_continue(&mut self) -> bool {
        std::mem::take(&mut self.needs_continue)
    }

    /// Try to produce the next complete request from the buffered
    /// bytes. `Ok(None)` means more bytes are needed; errors poison the
    /// connection's framing (the caller answers and closes).
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        if matches!(self.phase, Phase::Head) {
            let Some(end) = head_end(&self.buf) else {
                if self.buf.len() >= MAX_HEAD {
                    return Err(HttpError::new(431, "header block too large"));
                }
                return Ok(None);
            };
            let rest = self.buf.split_off(end);
            let head_bytes = std::mem::replace(&mut self.buf, rest);
            let head = parse_head(head_bytes)?;
            if head.expects_continue && self.buf.len() < head.content_length {
                self.needs_continue = true;
            }
            self.phase = Phase::Body(head);
        }
        let Phase::Body(head) = &self.phase else {
            unreachable!("phase advanced above");
        };
        if self.buf.len() < head.content_length {
            return Ok(None);
        }
        let Phase::Body(head) = std::mem::replace(&mut self.phase, Phase::Head) else {
            unreachable!("checked above");
        };
        let rest = self.buf.split_off(head.content_length);
        let body = std::mem::replace(&mut self.buf, rest);
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
            keep_alive: head.keep_alive,
            authorization: head.authorization,
        }))
    }
}

/// Canonical reason phrase for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// `Content-Type` of JSON responses (every endpoint except `/metrics`
/// and streaming sweeps).
pub const CONTENT_TYPE_JSON: &str = "application/json";

/// `Content-Type` of the Prometheus text exposition format.
pub const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4";

/// Content type of plain-text answers (`/debug/profile`'s collapsed
/// stacks).
pub const CONTENT_TYPE_TEXT: &str = "text/plain; charset=utf-8";

/// `Content-Type` of streaming NDJSON sweep responses.
pub const CONTENT_TYPE_NDJSON: &str = "application/x-ndjson";

/// Render a complete response into one contiguous buffer — the event
/// loop writes responses as single buffers (one `write` syscall when
/// the socket has room, and no Nagle/delayed-ACK stalls from
/// fragmented segments).
pub fn render_response(
    status: u16,
    body: &str,
    content_type: &str,
    close: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Render the head of a chunked streaming response (no
/// `Content-Length`; the body arrives as chunks, see [`chunk`]).
pub fn render_stream_head(status: u16, content_type: &str, close: bool) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        reason(status),
        if close { "close" } else { "keep-alive" },
    )
    .into_bytes()
}

/// Encode one chunk of a chunked transfer-encoded body.
pub fn chunk(data: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating chunk of a chunked body.
pub const CHUNKED_END: &[u8] = b"0\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `segments` to a fresh parser one at a time — the way a
    /// socket delivers data, in arbitrary packets — and return the
    /// parser with the first request it completes.
    fn parse(segments: &[&str]) -> Result<(Request, RequestParser), HttpError> {
        let mut p = RequestParser::new();
        for segment in segments {
            p.feed(segment.as_bytes());
            if let Some(r) = p.try_next()? {
                return Ok((r, p));
            }
        }
        panic!("no complete request in {segments:?}");
    }

    /// The request in `wire`, delivered as one segment.
    fn parse_one(wire: &str) -> Result<Request, HttpError> {
        parse(&[wire]).map(|(r, _)| r)
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse_one("GET /healthz?probe=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz", "query string stripped");
        assert_eq!(r.query, "probe=1", "query string kept separately");
        assert_eq!(r.query_param("probe"), Some("1"));
        assert_eq!(r.query_param("absent"), None);
        assert!(r.body.is_empty());
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.authorization.is_none());
    }

    #[test]
    fn parses_post_with_content_length() {
        let r = parse_one(
            "POST /v1/estimate HTTP/1.1\r\nContent-Type: application/json\r\ncontent-length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn captures_the_authorization_header() {
        let r = parse_one("GET /v1/cache/stats HTTP/1.1\r\nAuthorization: Bearer s3cr3t\r\n\r\n")
            .unwrap();
        assert_eq!(r.authorization.as_deref(), Some("Bearer s3cr3t"));
    }

    #[test]
    fn connection_header_and_version_control_keep_alive() {
        let keep_alive = |wire| parse_one(wire).unwrap().keep_alive;
        assert!(!keep_alive("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep_alive("GET / HTTP/1.0\r\n\r\n"), "1.0 default");
        assert!(
            keep_alive("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            "explicit wins"
        );
    }

    #[test]
    fn incremental_parser_handles_byte_meal_delivery() {
        // The event-loop shape: bytes arrive one at a time, the parser
        // only yields once the request is complete.
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let mut p = RequestParser::new();
        for (i, b) in wire.iter().enumerate() {
            p.feed(std::slice::from_ref(b));
            let parsed = p.try_next().unwrap();
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "yielded early at byte {i}");
            } else {
                let r = parsed.expect("complete at the last byte");
                assert_eq!(r.body, b"abc");
            }
        }
        assert!(!p.has_buffered(), "nothing left over");
    }

    #[test]
    fn incremental_parser_reports_request_phases() {
        let mut p = RequestParser::new();
        assert!(!p.mid_request(), "fresh parser is idle");
        p.feed(b"POST /x HTTP/1.1\r\nCont");
        assert!(p.try_next().unwrap().is_none());
        assert!(p.mid_request() && !p.in_body(), "partial header");
        p.feed(b"ent-Length: 3\r\n\r\na");
        assert!(p.try_next().unwrap().is_none());
        assert!(p.in_body(), "header parsed, body outstanding");
        p.feed(b"bc");
        assert!(p.try_next().unwrap().is_some());
        assert!(!p.mid_request(), "idle again between requests");
    }

    #[test]
    fn two_requests_on_one_connection_with_carryover() {
        // Both requests (and the second's body) arrive in one packet:
        // the bytes past the first body must carry over, not be
        // dropped.
        let (a, mut p) = parse(&[
            "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nonePOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo",
        ])
        .unwrap();
        assert_eq!(
            (a.path.as_str(), a.body.as_slice()),
            ("/a", b"one".as_slice())
        );
        let b = p.try_next().unwrap().expect("second request buffered");
        assert_eq!(
            (b.path.as_str(), b.body.as_slice()),
            ("/b", b"two".as_slice())
        );
        assert!(p.try_next().unwrap().is_none());
    }

    #[test]
    fn parser_is_idle_between_requests() {
        // After a complete request nothing is buffered, so a hangup here
        // is a clean end of the connection, not a truncated request.
        let (_, mut p) = parse(&["GET / HTTP/1.1\r\n\r\n"]).unwrap();
        assert!(p.try_next().unwrap().is_none());
        assert!(!p.has_buffered() && !p.mid_request());
    }

    #[test]
    fn expect_continue_is_signalled_once_while_the_body_is_outstanding() {
        // A real Expect client holds the body back until the interim
        // response arrives, so head and body come in separate segments.
        let mut p = RequestParser::new();
        p.feed(b"POST /v1/scenario HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n");
        assert!(p.try_next().unwrap().is_none());
        assert!(p.take_continue(), "head parsed, body outstanding");
        assert!(!p.take_continue(), "signalled exactly once");
        p.feed(b"{}");
        assert_eq!(p.try_next().unwrap().expect("body arrived").body, b"{}");
        assert!(!p.take_continue());

        // A client that sends the body along with the head needs no
        // interim response.
        let (r, mut p) = parse(&[
            "POST /v1/scenario HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}",
        ])
        .unwrap();
        assert_eq!(r.body, b"{}");
        assert!(!p.take_continue(), "no spurious 100 Continue");
    }

    #[test]
    fn body_split_across_segments_and_overread_both_work() {
        // Body delivered byte-meal after the header segment.
        let (r, _) = parse(&[
            "POST /x HTTP/1.1\r\nContent-Length: 7\r\n\r\n",
            "{\"a\"",
            ":1}",
        ])
        .unwrap();
        assert_eq!(r.body, b"{\"a\":1}");
        // Body over-read together with the headers; the trailing bytes
        // past Content-Length stay buffered.
        let (r, p) =
            parse(&["POST /x HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}junk"]).unwrap();
        assert_eq!(r.body, b"{\"a\":1}");
        assert!(p.has_buffered(), "trailing bytes kept");
    }

    #[test]
    fn rejects_oversized_and_malformed() {
        let status = |wire| parse_one(wire).unwrap_err().status;
        assert_eq!(
            status("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            413
        );
        assert_eq!(
            status("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            400
        );
        assert_eq!(status("GARBAGE\r\n\r\n"), 400);
        assert_eq!(status("GET / SPDY/9\r\n\r\n"), 505);
        assert_eq!(
            status("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501
        );
    }

    #[test]
    fn oversized_header_block_fails_without_the_terminator() {
        // A slow-loris that drips an endless header block hits the
        // size limit even though the blank line never arrives.
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'x'; MAX_HEAD];
        p.feed(&filler);
        assert_eq!(p.try_next().unwrap_err().status, 431);
    }

    #[test]
    fn response_carries_length_connection_and_extra_headers() {
        let render = |status, body, content_type, close, extra: &[(&str, &str)]| {
            String::from_utf8(render_response(status, body, content_type, close, extra)).unwrap()
        };
        let text = render(200, "{\"ok\":true}", CONTENT_TYPE_JSON, true, &[]);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let text = render(200, "{}", CONTENT_TYPE_METRICS, false, &[]);
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));

        // Extra headers (a 503's Retry-After) close out the head.
        let text = render(503, "{}", CONTENT_TYPE_JSON, true, &[("Retry-After", "1")]);
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.ends_with("Retry-After: 1\r\n\r\n{}"));
    }

    #[test]
    fn chunked_encoding_round_trips() {
        let head = String::from_utf8(render_stream_head(200, CONTENT_TYPE_NDJSON, false)).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("Transfer-Encoding: chunked\r\n"));
        assert!(head.contains("Content-Type: application/x-ndjson\r\n"));
        assert!(!head.contains("Content-Length"), "chunked replaces length");

        assert_eq!(chunk(b"{\"i\":0}\n"), b"8\r\n{\"i\":0}\n\r\n");
        assert_eq!(chunk(&[b'x'; 26]), {
            let mut v = b"1a\r\n".to_vec();
            v.extend_from_slice(&[b'x'; 26]);
            v.extend_from_slice(b"\r\n");
            v
        });
        assert_eq!(CHUNKED_END, b"0\r\n\r\n");
    }
}
