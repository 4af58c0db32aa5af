//! Helpers shared by the service's TCP test binaries that read streamed
//! sweeps: a chunked reply's head and chunks, and the span trees of a
//! retained trace.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;

use mr2_serve::Json;

/// Read one chunk of a `Transfer-Encoding: chunked` body; empty vec on
/// the terminating zero-size chunk.
pub fn read_chunk(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut size_line = String::new();
    reader.read_line(&mut size_line).expect("chunk size line");
    let size = usize::from_str_radix(size_line.trim(), 16)
        .unwrap_or_else(|_| panic!("malformed chunk size: {size_line:?}"));
    let mut data = vec![0u8; size + 2]; // payload + trailing CRLF
    reader.read_exact(&mut data).expect("chunk payload");
    assert_eq!(&data[size..], b"\r\n", "chunk payload ends with CRLF");
    data.truncate(size);
    data
}

/// Read a chunked-response head; returns (status, header lines).
pub fn read_stream_head(reader: &mut BufReader<TcpStream>) -> (u16, Vec<String>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed reply: {status_line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers.push(line.to_string());
    }
    (status, headers)
}

/// Find a span named `name` anywhere in a span forest.
pub fn find_span<'a>(spans: &'a [Json], name: &str) -> Option<&'a Json> {
    for s in spans {
        if s.get("name").and_then(Json::as_str) == Some(name) {
            return Some(s);
        }
        if let Some(children) = s.get("children").and_then(Json::as_arr) {
            if let Some(hit) = find_span(children, name) {
                return Some(hit);
            }
        }
    }
    None
}
