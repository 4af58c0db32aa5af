//! The full observability walk over real TCP: a slow sweep is visible
//! in `/v1/jobs`, reconstructable from `/v1/trace/recent` and attributed
//! in `/debug/profile`.
//!
//! This test runs alone in its own binary. It samples every request
//! (`trace_sample_one_in: 1`), and the sampling knobs are process-wide:
//! beside it, other tests' traffic, such as cache hits the event loop
//! answers, is sampled too. That traffic can fill the 256-trace recent
//! ring and the slowest-8 list and evict the sweep's trace before the
//! test looks for it.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use mr2_serve::{serve, Json, ServeConfig};

#[allow(dead_code)] // the walk reads no `/metrics` series
mod common;
use common::{request, test_config};
mod stream;
use stream::{find_span, read_chunk, read_stream_head};

/// The full observability walk over real TCP: a heavy `/v1/scenario`
/// stream is visible mid-flight in `/v1/jobs`, its trace is retained
/// in `/v1/trace/recent` as a multi-level span tree whose root
/// durations sum to at most the wall time, a debug estimate's
/// `trace_url` fetches the same trace back, and the work is attributed
/// in `/debug/profile` (collapsed stacks and the JSON call tree).
#[test]
fn slow_request_is_reconstructable_from_trace_jobs_and_profile() {
    let cfg = ServeConfig {
        trace_sample_one_in: 1,
        trace_slow: Duration::ZERO,
        ..test_config()
    };
    let handle = serve(cfg).unwrap();

    // Phase 1: a two-point streaming sweep, its second point
    // deliberately heavy (four jobs, multi-rep simulation) so it is
    // still running when /v1/jobs is polled from a second connection. The odd input
    // sizes keep the process-wide solver memo from short-circuiting it.
    let scenario = r#"{"name":"obs-e2e","sweep":"zip","input_bytes":[268435457,2147483649],"n_jobs":[1,4],"backends":{"analytic":true,"simulator":3},"stream":true}"#;
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    conn.set_nodelay(true).ok();
    write!(
        conn,
        "POST /v1/scenario HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{scenario}",
        scenario.len()
    )
    .expect("send");
    let mut reader = BufReader::new(conn);
    let (status, _) = read_stream_head(&mut reader);
    assert_eq!(status, 200);

    // First point is on the wire; the heavy second point is still
    // evaluating. The sweep must be visible in /v1/jobs now — and
    // because finished jobs linger on a recently-done list, the
    // assertion cannot race the sweep's completion.
    let first = String::from_utf8(read_chunk(&mut reader)).expect("utf-8 line");
    assert!(Json::parse(first.trim()).is_ok());
    let (status, body) = request(handle.addr, "GET", "/v1/jobs", "");
    assert_eq!(status, 200, "{body}");
    let jobs = Json::parse(&body).unwrap();
    let jobs = jobs.get("jobs").unwrap().as_arr().unwrap();
    let sweep_job = jobs
        .iter()
        .find(|j| j.get("name").unwrap().as_str() == Some("obs-e2e"))
        .unwrap_or_else(|| panic!("sweep registered in /v1/jobs: {body}"));
    assert_eq!(sweep_job.get("streaming").unwrap().as_bool(), Some(true));
    assert_eq!(sweep_job.get("points_total").unwrap().as_u64(), Some(2));
    let state = sweep_job.get("state").unwrap().as_str().unwrap();
    assert!(state == "running" || state == "done", "{state}");
    let breakdown = sweep_job.get("per_estimator").expect("estimator breakdown");
    assert!(breakdown.get("fork_join").is_some(), "{body}");

    // Drain the stream, then confirm the finished job reports full
    // progress.
    loop {
        if read_chunk(&mut reader).is_empty() {
            break;
        }
    }
    let (_, body) = request(handle.addr, "GET", "/v1/jobs", "");
    let jobs = Json::parse(&body).unwrap();
    let done_job = jobs
        .get("jobs")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|j| {
            j.get("name").unwrap().as_str() == Some("obs-e2e")
                && j.get("state").unwrap().as_str() == Some("done")
        })
        .cloned()
        .unwrap_or_else(|| panic!("finished sweep lingers in /v1/jobs: {body}"));
    assert_eq!(done_job.get("points_done").unwrap().as_u64(), Some(2));
    assert!(done_job.get("elapsed_ms").unwrap().as_f64().unwrap() > 0.0);

    // Phase 2: the sweep's trace was retained (sample 1-in-1, and it
    // is slow besides) — find it by label and check the tree nests.
    let (status, body) = request(handle.addr, "GET", "/v1/trace/recent", "");
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert!(v.get("sampling").unwrap().get("one_in").is_some());
    let recent = v.get("recent").unwrap().as_arr().unwrap();
    let slowest = v.get("slowest").unwrap().as_arr().unwrap();
    let sweep_trace = recent
        .iter()
        .chain(slowest)
        .find(|t| {
            t.get("label").unwrap().as_str() == Some("/v1/scenario")
                && find_span(t.get("spans").unwrap().as_arr().unwrap(), "scenario.run").is_some()
        })
        .unwrap_or_else(|| panic!("sweep trace retained: {body}"));
    let roots = sweep_trace.get("spans").unwrap().as_arr().unwrap();
    let root = find_span(roots, "serve.request").expect("root span");
    assert!(
        find_span(
            root.get("children").unwrap().as_arr().unwrap(),
            "scenario.run"
        )
        .is_some(),
        "scenario.run nests under serve.request"
    );
    let wall = sweep_trace.get("wall_ms").unwrap().as_f64().unwrap();
    let root_sum: f64 = roots
        .iter()
        .map(|s| s.get("duration_ms").unwrap().as_f64().unwrap())
        .sum();
    assert!(root_sum <= wall + 1e-6, "{root_sum} <= {wall}");

    // Phase 3: a debug estimate's trace_url round-trips to the same
    // trace, now as a deeper tree (model and simulator phases nest
    // under serve.request on the evaluating thread). The sampling
    // knobs are process-global and another test's serve() may reset
    // them mid-test, so retry — with fresh input sizes each attempt,
    // since a cache-served point skips the inner phase spans — until
    // a head sample lands (sampling keeps at least one per N).
    let mut retained = None;
    for attempt in 0..64u64 {
        let estimate = format!(
            r#"{{"nodes":3,"input_bytes":{},"debug":true,
                "backends":{{"analytic":true,"simulator":2}}}}"#,
            268_435_459 + attempt
        );
        let (status, body) = request(handle.addr, "POST", "/v1/estimate", &estimate);
        assert_eq!(status, 200, "{body}");
        let reply = Json::parse(&body).unwrap();
        let trace_url = reply
            .get("debug")
            .unwrap()
            .get("trace_url")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let (status, body) = request(handle.addr, "GET", &trace_url, "");
        assert_eq!(status, 200, "{body}");
        let fetched = Json::parse(&body).unwrap();
        if !fetched.get("traces").unwrap().as_arr().unwrap().is_empty() {
            retained = Some(fetched);
            break;
        }
    }
    let fetched = retained.expect("a debug estimate's trace retained within 64 attempts");
    let traces = fetched.get("traces").unwrap().as_arr().unwrap();
    let spans = traces[0].get("spans").unwrap().as_arr().unwrap();
    let root = find_span(spans, "serve.request").expect("root span");
    let children = root.get("children").unwrap().as_arr().unwrap();
    for phase in ["point.model", "point.sim", "response.encode"] {
        assert!(
            find_span(children, phase).is_some(),
            "{phase} under serve.request: {body}"
        );
    }
    assert!(
        find_span(children, "sim.rep").is_some(),
        "repetition spans nest below the point phases: {body}"
    );

    // Phase 4: the profiler attributed the work. Collapsed stacks are
    // semicolon-joined paths with self-times; the JSON tree mirrors
    // them; reset clears the aggregate.
    let (status, profile) = request(handle.addr, "GET", "/debug/profile", "");
    assert_eq!(status, 200);
    assert!(
        profile
            .lines()
            .any(|l| l.starts_with("serve.request;point.model")),
        "model phase attributed under the request root:\n{profile}"
    );
    assert!(
        profile.lines().any(|l| l.contains(";sim.rep ")),
        "simulation reps attributed:\n{profile}"
    );
    let (status, body) = request(handle.addr, "GET", "/debug/profile?format=json", "");
    assert_eq!(status, 200);
    let tree = Json::parse(&body).unwrap();
    let forest = tree.get("profile").unwrap().as_arr().unwrap();
    let request_node = forest
        .iter()
        .find(|n| n.get("name").unwrap().as_str() == Some("serve.request"))
        .expect("request root in the profile tree");
    assert!(request_node.get("count").unwrap().as_u64().unwrap() >= 1);

    let (status, body) = request(handle.addr, "GET", "/debug/profile?reset=1", "");
    assert_eq!(status, 200);
    assert_eq!(body, "profile reset\n");
    handle.shutdown();
}
