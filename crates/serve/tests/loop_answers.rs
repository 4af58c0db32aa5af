//! The event loop answers a `/v1/estimate` whose records are all in the
//! result cache itself, with no worker: the counters say so exactly.
//!
//! `mr2_cache_*_total` and `mr2_serve_queue_wait_seconds` are
//! process-wide, so this test runs alone in its own binary: any other
//! test in the process evaluates through the pool and would move them
//! under the before/after comparisons.

mod common;
use common::{metric_value, request, test_config};

use mr2_serve::serve;

/// The series this test reads off `/metrics`.
const SERIES: [&str; 5] = [
    "mr2_cache_hits_total",
    "mr2_cache_misses_total",
    "mr2_serve_queue_wait_seconds_count",
    "mr2_points_evaluated_total",
    "mr2_http_requests_total{method=\"POST\",path=\"/v1/estimate\",status=\"200\"}",
];

#[test]
fn cache_hits_are_answered_on_the_loop_and_misses_by_the_pool() {
    let handle = serve(test_config()).unwrap();
    let scrape = || -> [f64; 5] {
        let (status, body) = request(handle.addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        SERIES.map(|s| metric_value(&body, s))
    };
    let delta = |before: [f64; 5], after: [f64; 5]| -> [f64; 5] {
        std::array::from_fn(|i| after[i] - before[i])
    };
    // Four records: the simulator's, one profile per mix entry, and the
    // model's.
    let body = r#"{"nodes":2,"mix":[{"job":"grep","input_bytes":268435456},
        {"job":"wordcount","input_bytes":268435456}],
        "backends":{"analytic":true,"profile_calibration":true,"simulator":1}}"#;
    let (status, first) = request(handle.addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200, "{first}");

    // N repeats: N × 4 hits, no miss, no queue wait.
    let before = scrape();
    for _ in 0..5 {
        let (status, reply) = request(handle.addr, "POST", "/v1/estimate", body);
        assert_eq!(status, 200, "{reply}");
        assert_eq!(reply, first, "a hit's reply is byte-identical");
    }
    assert_eq!(delta(before, scrape()), [20.0, 0.0, 0.0, 5.0, 5.0]);

    // A miss goes to the pool: one miss, no hit, one queue wait.
    let before = scrape();
    let (status, reply) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":3,"input_bytes":268435456}"#,
    );
    assert_eq!(status, 200, "{reply}");
    assert_eq!(delta(before, scrape()), [0.0, 1.0, 1.0, 1.0, 1.0]);

    // A body over the loop's decode bound goes to the pool undecoded,
    // and the pool answers it from the cache with the same bytes.
    let padded = format!("{body}{}", " ".repeat(16 * 1024));
    let before = scrape();
    let (status, reply) = request(handle.addr, "POST", "/v1/estimate", &padded);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply, first);
    assert_eq!(delta(before, scrape()), [4.0, 0.0, 1.0, 1.0, 1.0]);
    handle.shutdown();
}
