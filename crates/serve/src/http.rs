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
//! Pipelined requests come off a consumed-prefix cursor, so taking one
//! copies only its own bytes, not everything buffered behind it.

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

/// Find the end of the header block in `buf`, the index just past its
/// first blank line, searching from `from`. Lines end in LF with an
/// optional CR before it (RFC 9112 §2.2), so a blank line is an LF, an
/// optional CR and an LF. `Err(resume)` means no blank line ends in `buf`
/// yet, and none can start before `resume`: search from there once more
/// bytes arrive.
fn head_end(buf: &[u8], from: usize) -> Result<usize, usize> {
    let mut i = from;
    while let Some(k) = buf[i..].iter().position(|&b| b == b'\n') {
        let lf = i + k;
        match (buf.get(lf + 1), buf.get(lf + 2)) {
            (Some(b'\n'), _) => return Ok(lf + 2),
            (Some(b'\r'), Some(b'\n')) => return Ok(lf + 3),
            (None, _) | (Some(b'\r'), None) => return Err(lf),
            _ => i = lf + 1,
        }
    }
    Err(buf.len())
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
fn parse_head(bytes: &[u8]) -> Result<Head, HttpError> {
    let head = std::str::from_utf8(bytes).map_err(|_| HttpError::new(400, "non-UTF-8 header"))?;
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
///
/// `buf[pos..]` are the unconsumed bytes. A request that ends the buffer
/// (one request per read, the common case) takes the buffer itself as
/// its body; one with bytes behind it copies out its body and advances
/// `pos`, and the consumed prefix is dropped once it passes half the
/// buffer. A head's search for its blank line resumes where the last
/// one stopped. Either way k pipelined requests cost O(total bytes), not
/// O(k × buffered bytes).
///
/// A head longer than 16 KiB is refused (431) whether or not its blank
/// line has arrived, so a complete request never needs more than
/// `MAX_HEAD + MAX_BODY` buffered bytes: a full parser always yields a
/// request or an error.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    pos: usize,
    /// How far past `pos` the head's blank-line search got.
    scanned: usize,
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
            pos: 0,
            scanned: 0,
            phase: Phase::Head,
            needs_continue: false,
        }
    }

    /// Append bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The buffered bytes not yet taken by a request.
    fn unconsumed(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Whether the buffer holds a largest-possible request's worth of
    /// unconsumed bytes (`MAX_HEAD + MAX_BODY`): the event loop stops
    /// feeding it until requests drain it, so pipelined bytes wait in the
    /// socket.
    pub fn is_full(&self) -> bool {
        self.unconsumed().len() >= MAX_HEAD + MAX_BODY
    }

    /// Whether any unconsumed bytes are buffered (a pipelined next
    /// request, or a partial one).
    pub fn has_buffered(&self) -> bool {
        !self.unconsumed().is_empty() || matches!(self.phase, Phase::Body(_))
    }

    /// Whether the parser is *inside* a request — a partial header
    /// block or an incomplete body. Distinguishes "client idle between
    /// requests" (a clean close) from "client stopped mid-request" (an
    /// error / hostile client) on EOF or timeout.
    pub fn mid_request(&self) -> bool {
        match self.phase {
            Phase::Head => !self.unconsumed().is_empty(),
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
            let end = match head_end(self.unconsumed(), self.scanned) {
                Ok(end) if end <= MAX_HEAD => end,
                Err(resume) if self.unconsumed().len() < MAX_HEAD => {
                    self.scanned = resume;
                    return Ok(None);
                }
                _ => return Err(HttpError::new(431, "header block too large")),
            };
            let head = parse_head(&self.unconsumed()[..end])?;
            self.pos += end;
            self.scanned = 0;
            if head.expects_continue && self.unconsumed().len() < head.content_length {
                self.needs_continue = true;
            }
            self.phase = Phase::Body(head);
        }
        let Phase::Body(head) = &self.phase else {
            unreachable!("phase advanced above");
        };
        if self.unconsumed().len() < head.content_length {
            return Ok(None);
        }
        let Phase::Body(head) = std::mem::replace(&mut self.phase, Phase::Head) else {
            unreachable!("checked above");
        };
        let end = self.pos + head.content_length;
        let body = if end == self.buf.len() {
            // Nothing behind this request: the buffer becomes the body.
            let mut body = std::mem::take(&mut self.buf);
            body.drain(..self.pos);
            self.pos = 0;
            body
        } else {
            let body = self.buf[self.pos..end].to_vec();
            self.pos = end;
            if self.pos > self.buf.len() / 2 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            body
        };
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
    fn a_bare_lf_head_ends_at_its_own_blank_line() {
        // The CRLF blank line behind the first head belongs to the
        // second request, not to the first.
        let (a, mut p) = parse(&["GET /a HTTP/1.1\n\nGET /b HTTP/1.1\r\n\r\n"]).unwrap();
        assert_eq!(a.path, "/a");
        let b = p.try_next().unwrap().expect("second request buffered");
        assert_eq!(b.path, "/b");
        assert!(p.try_next().unwrap().is_none());
        assert!(!p.has_buffered());
    }

    /// What the one-shot reference framer makes of a whole stream: the
    /// requests it frames in order, then the error that ends the stream
    /// (`None` if it ends waiting for bytes).
    type Framed = (Vec<(String, String, Vec<u8>)>, Option<u16>);

    /// Frame a whole byte stream at once, line by line: a head ends after
    /// its first empty line (a line is the bytes before an LF, less one
    /// trailing CR) and must fit `MAX_HEAD`; its body is the next
    /// `Content-Length` bytes.
    fn reference_frame(mut rest: &[u8]) -> Framed {
        let mut requests = Vec::new();
        loop {
            let mut end = None;
            let mut line_start = 0;
            for (i, &b) in rest.iter().enumerate() {
                if b == b'\n' {
                    let line = &rest[line_start..i];
                    // A blank line ends the head only after a first line.
                    if (line.is_empty() || line == b"\r") && line_start > 0 {
                        end = Some(i + 1);
                        break;
                    }
                    line_start = i + 1;
                }
            }
            let end = match end {
                Some(end) if end <= MAX_HEAD => end,
                None if rest.len() < MAX_HEAD => return (requests, None),
                _ => return (requests, Some(431)),
            };
            let head = match parse_head(&rest[..end]) {
                Ok(head) => head,
                Err(e) => return (requests, Some(e.status)),
            };
            if rest.len() - end < head.content_length {
                return (requests, None);
            }
            let body = rest[end..end + head.content_length].to_vec();
            requests.push((head.method, head.path, body));
            rest = &rest[end + head.content_length..];
        }
    }

    #[test]
    fn reference_framer_frames_the_examples() {
        let (requests, error) = reference_frame(b"GET /a HTTP/1.1\n\nGET /b HTTP/1.1\r\n\r\n");
        let paths: Vec<&str> = requests.iter().map(|r| r.1.as_str()).collect();
        assert_eq!((paths, error), (vec!["/a", "/b"], None));
        let (requests, error) =
            reference_frame(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\nhiGET /y");
        assert_eq!(requests, [("POST".into(), "/x".into(), b"hi".to_vec())]);
        assert_eq!(error, None);
    }

    #[test]
    fn chunked_streams_frame_as_the_reference_does() {
        // Seeded streams of pipelined requests whose heads end lines in
        // CRLF, bare LF or a mix of both, with and without bodies and
        // `Expect: 100-continue`, some ending in an oversize head, a bad
        // or oversize `Content-Length`, or arbitrary bytes. Every 25th
        // stream opens with a largest request: a head just under or just
        // over `MAX_HEAD` and a `MAX_BODY` body. Each stream is fed the
        // way the event loop feeds a connection: reads of at most 16 KiB
        // while the parser is not full, and a drain after a few reads,
        // or only once the parser is full (a worker held the connection).
        let mut state = 0x6c07_8965_2f0b_9a4d_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        const READ: usize = 16 * 1024;
        let (mut requests_checked, mut errors, mut full) = (0, 0, 0);
        for stream in 0..400 {
            let mut wire = Vec::new();
            if stream % 25 == 0 {
                let head = format!(
                    "POST /big/{stream} HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\nX-Filler: "
                );
                let filler = MAX_HEAD + next(64) - 32 - head.len() - 4;
                wire.extend_from_slice(head.as_bytes());
                wire.extend(std::iter::repeat_n(b'f', filler));
                wire.extend_from_slice(b"\r\n\r\n");
                wire.extend((0..MAX_BODY).map(|i| b'a' + (i % 26) as u8));
            }
            for k in 0..1 + next(12) {
                let eol = |next: &mut dyn FnMut(usize) -> usize, style: usize| -> &'static [u8] {
                    match style {
                        0 => b"\r\n",
                        1 => b"\n",
                        _ if next(2) == 0 => b"\r\n",
                        _ => b"\n",
                    }
                };
                let style = next(3);
                let len = match next(10) {
                    0..=3 => 0,
                    4 => 30_000 + next(40_000),
                    _ => next(300),
                };
                let method = if len == 0 && next(2) == 0 {
                    "GET"
                } else {
                    "POST"
                };
                wire.extend_from_slice(format!("{method} /s/{stream}/{k} HTTP/1.1").as_bytes());
                wire.extend_from_slice(eol(&mut next, style));
                wire.extend_from_slice(b"Host: x");
                wire.extend_from_slice(eol(&mut next, style));
                if next(4) == 0 {
                    wire.extend_from_slice(b"Expect: 100-continue");
                    wire.extend_from_slice(eol(&mut next, style));
                }
                if next(40) == 0 {
                    // An oversize head, by a little or a lot.
                    let filler = MAX_HEAD - 40 + next(200);
                    wire.extend_from_slice(b"X-Filler: ");
                    wire.extend(std::iter::repeat_n(b'f', filler));
                    wire.extend_from_slice(eol(&mut next, style));
                }
                if method == "POST" {
                    let value = match next(40) {
                        0 => "nope".to_string(),
                        1 => (MAX_BODY + 1).to_string(),
                        _ => len.to_string(),
                    };
                    wire.extend_from_slice(format!("Content-Length: {value}").as_bytes());
                    wire.extend_from_slice(eol(&mut next, style));
                }
                wire.extend_from_slice(eol(&mut next, style));
                wire.extend((0..len).map(|i| b"ab\r\ncd\n"[(i + k) % 7]));
            }
            if next(5) == 0 {
                // A tail of arbitrary bytes, rich in CR and LF.
                wire.extend((0..next(600)).map(|_| b"\r\n\nG T/:xy\xff"[next(11)]));
            }
            let (want, want_error) = reference_frame(&wire);

            let mut p = RequestParser::new();
            let (mut fed, mut got, mut error) = (0, Vec::new(), None);
            while error.is_none() {
                let reads = if next(4) == 0 {
                    usize::MAX
                } else {
                    1 + next(3)
                };
                for _ in 0..reads {
                    if fed == wire.len() || p.is_full() {
                        break;
                    }
                    let most = if next(3) == 0 { 8 } else { READ };
                    let n = (1 + next(most)).min(wire.len() - fed);
                    p.feed(&wire[fed..fed + n]);
                    fed += n;
                    assert!(
                        p.unconsumed().len() < MAX_HEAD + MAX_BODY + READ,
                        "stream {stream}: the parser took bytes while full"
                    );
                }
                full += usize::from(p.is_full());
                let was_full = p.is_full();
                let mut progressed = false;
                loop {
                    match p.try_next() {
                        Ok(Some(r)) => {
                            got.push((r.method, r.path, r.body));
                            progressed = true;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            error = Some(e.status);
                            progressed = true;
                            break;
                        }
                    }
                }
                assert!(
                    !was_full || progressed,
                    "stream {stream}: a full parser yielded nothing"
                );
                if fed == wire.len() && error.is_none() {
                    break;
                }
            }
            assert_eq!(got.len(), want.len(), "stream {stream}: request count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(g == w, "stream {stream}: request {i} differs");
            }
            assert_eq!(error, want_error, "stream {stream}: how the stream ends");
            requests_checked += got.len();
            errors += usize::from(error.is_some());
        }
        println!(
            "{requests_checked} requests, {errors} streams ended in an error, {full} full reads"
        );
        assert!(requests_checked > 1000 && errors > 40 && full > 0);
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
    fn pipelined_requests_come_out_whole_and_in_order() {
        // 5000 requests of mixed body sizes (none, small, a few tens of
        // KiB), about 5.6 MiB in all: fed whole, then in random-sized
        // chunks. After every step the flags match a model of what the
        // parser holds: `fed` bytes in, the requests taken so far, and
        // whether the next request's head is already parsed.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next_rand = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut wire = Vec::new();
        let mut want = Vec::new(); // (method, path, body, head length)
        for k in 0..5000usize {
            let len = match next_rand(50) {
                0 => 20_000 + next_rand(20_000),
                1..=12 => 0,
                _ => next_rand(2_000),
            };
            let body: Vec<u8> = (0..len).map(|i| b'a' + ((i * 7 + k) % 26) as u8).collect();
            let (method, head) = if len == 0 && k % 2 == 0 {
                ("GET", format!("GET /r/{k} HTTP/1.1\r\nHost: x\r\n\r\n"))
            } else {
                let head = format!("POST /r/{k}?q={k} HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
                ("POST", head)
            };
            wire.extend_from_slice(head.as_bytes());
            wire.extend_from_slice(&body);
            want.push((method, format!("/r/{k}"), body, head.len()));
        }
        assert!(
            wire.len() > MAX_HEAD + MAX_BODY,
            "fed whole, the parser fills"
        );

        let check = |p: &RequestParser, fed: usize, taken: usize, consumed: usize, step: &str| {
            let head_parsed = p.in_body();
            let next_head = want.get(taken).map_or(0, |w| w.3);
            let unconsumed = fed - consumed - if head_parsed { next_head } else { 0 };
            assert!(!head_parsed || fed - consumed >= next_head, "{step}");
            assert_eq!(p.has_buffered(), unconsumed > 0 || head_parsed, "{step}");
            assert_eq!(p.mid_request(), unconsumed > 0 || head_parsed, "{step}");
            assert_eq!(p.is_full(), unconsumed >= MAX_HEAD + MAX_BODY, "{step}");
        };
        let (mut whole, mut chunked) = (false, false);
        for chunks in [false, true] {
            let mut p = RequestParser::new();
            let (mut fed, mut taken, mut consumed) = (0, 0, 0);
            while taken < want.len() {
                let n = if chunks {
                    1 + next_rand(9_000)
                } else {
                    wire.len()
                };
                let n = n.min(wire.len() - fed);
                p.feed(&wire[fed..fed + n]);
                fed += n;
                check(&p, fed, taken, consumed, &format!("fed {fed}"));
                whole |= p.is_full();
                while let Some(r) = p.try_next().unwrap() {
                    let (method, path, body, head) = &want[taken];
                    assert_eq!(
                        (r.method.as_str(), &r.path),
                        (*method, path),
                        "request {taken}"
                    );
                    assert!(r.body == *body, "request {taken}: body differs");
                    taken += 1;
                    consumed += head + body.len();
                    check(&p, fed, taken, consumed, &format!("took {taken}"));
                }
                check(&p, fed, taken, consumed, &format!("drained at {fed}"));
                chunked |= chunks && p.in_body();
            }
            assert_eq!(fed, wire.len());
            assert!(!p.has_buffered() && !p.mid_request());
        }
        assert!(
            whole && chunked,
            "full while fed whole, mid-body while chunked"
        );
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
