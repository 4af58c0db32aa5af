//! The open-connections gauge releases a slot when a client vanishes
//! mid-request.
//!
//! `mr2_serve_open_connections` is process-wide, so this test runs alone
//! in its own binary: any other test in the process opens and holds
//! connections of its own (kept-alive sockets idle for seconds, a slow
//! client) and would move the gauge under the baseline comparison.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mr2_serve::serve;

mod common;
use common::{metric_value, request, test_config};

#[test]
fn mid_body_disconnect_frees_the_connection_slot() {
    let handle = serve(test_config()).unwrap();
    let scrape = |label: &str| {
        let (status, body) = request(handle.addr, "GET", "/metrics", "");
        assert_eq!(status, 200, "{label}");
        metric_value(&body, "mr2_serve_open_connections")
    };
    let baseline = scrape("baseline");
    assert!(baseline >= 1.0, "the scrape's own connection is counted");

    let mut doomed = TcpStream::connect(handle.addr).expect("connect");
    doomed
        .write_all(
            b"POST /v1/estimate HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n{\"nodes\"",
        )
        .expect("partial body");
    // Observe it registered, then vanish mid-body.
    let deadline = Instant::now() + Duration::from_secs(5);
    while scrape("while open") < baseline + 1.0 {
        assert!(Instant::now() < deadline, "connection never registered");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(doomed);

    // The loop notices the hangup and releases the slot without waiting
    // for any timeout.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if scrape("after disconnect") <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "mid-body disconnect leaked a connection slot"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}
