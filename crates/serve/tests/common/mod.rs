//! Helpers shared by the service's TCP test binaries: framing one
//! request and one response by hand over a real socket, the test server
//! configuration, and reading one series off a `/metrics` body.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use mr2_serve::ServeConfig;

/// Send one request on an open connection without closing it.
pub fn send_request(conn: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
}

/// Read exactly one response off the connection (framed by
/// `Content-Length`, so the socket can stay open); returns
/// (status, body, connection-header value).
pub fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed reply: {status_line:?}"));
    let mut content_length = 0usize;
    let mut connection = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_string();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        String::from_utf8(body).expect("utf-8 body"),
        connection,
    )
}

/// One HTTP/1.1 request over a fresh connection (`Connection: close`);
/// returns (status, body).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    send_request(&mut conn, method, path, body, true);
    let mut reader = BufReader::new(conn);
    let (status, payload, connection) = read_response(&mut reader);
    assert_eq!(connection, "close", "the service honors Connection: close");
    // And the server actually closes: the stream drains to EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "no bytes past the framed response");
    (status, payload)
}

/// A service on an ephemeral loopback port with six workers and no
/// access log.
pub fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 6,
        access_log: false,
        ..ServeConfig::default()
    }
}

/// Value of the first sample line starting with `series` (family name
/// plus any labels, exactly as rendered) in a `/metrics` body; 0 when
/// the series is absent.
pub fn metric_value(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}
