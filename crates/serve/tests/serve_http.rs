//! End-to-end tests of the capacity-planning service over real TCP:
//! round-trips for every endpoint (including heterogeneous workload
//! mixes), HTTP keep-alive, error statuses, cache persistence across
//! restarts, the coalescing guarantee — concurrent identical scenario
//! queries cost exactly one underlying evaluation — and observability:
//! the `/metrics` exposition spans every instrumented layer and
//! `"debug": true` replies carry a span breakdown bounded by wall time.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mr2_serve::{serve, Json, ServeConfig};

mod common;
use common::{metric_value, read_response, request, send_request, test_config};
mod stream;
use stream::{find_span, read_chunk, read_stream_head};

#[test]
fn healthz_and_stats_round_trip() {
    let handle = serve(test_config()).unwrap();
    let (status, body) = request(handle.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let v = Json::parse(&body).expect("health body is JSON");
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert!(v.get("uptime_secs").unwrap().as_f64().unwrap() >= 0.0);
    assert!(
        v.get("requests_total").unwrap().as_u64().is_some(),
        "health reply carries the served-request aggregate"
    );

    let (status, body) = request(handle.addr, "GET", "/v1/cache/stats", "");
    assert_eq!(status, 200);
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("entries").unwrap().as_u64(), Some(0));
    assert_eq!(
        v.get("schema_version").unwrap().as_u64(),
        Some(mr2_scenario::schema_version())
    );
    assert_eq!(
        v.get("hit_ratio").unwrap().as_f64(),
        Some(0.0),
        "no lookups yet: the derived ratio is 0, not NaN"
    );
    handle.shutdown();
}

#[test]
fn estimate_round_trip_matches_direct_evaluation() {
    let handle = serve(test_config()).unwrap();
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":4,"input_bytes":268435456,"n_jobs":2}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    let served = v
        .get("model")
        .unwrap()
        .get("fork_join")
        .unwrap()
        .as_f64()
        .unwrap();

    // The same point evaluated directly through the engine.
    let req = r#"{"nodes":4,"input_bytes":268435456,"n_jobs":2}"#;
    let parsed = mr2_serve::api::parse_estimate_request(req).unwrap();
    let direct = mr2_scenario::evaluate_point(
        &parsed.point,
        &parsed.backends,
        &mr2_scenario::ResultCache::new(),
    );
    assert_eq!(
        served.to_bits(),
        direct.model.unwrap().fork_join.to_bits(),
        "served estimate is bit-identical to a direct evaluation"
    );
    assert_eq!(v.get("sim"), Some(&Json::Null), "simulator is opt-in");
    assert!(v.get("estimate").unwrap().as_f64().unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn scenario_round_trip_reports_points_and_bands() {
    let handle = serve(test_config()).unwrap();
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/scenario",
        r#"{"name":"grow","nodes":[2,3],"input_bytes":[268435456],
            "backends":{"analytic":true,"simulator":1}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("num_points").unwrap().as_u64(), Some(2));
    let points = v.get("points").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(points[0].get("nodes").unwrap().as_u64(), Some(2));
    assert_eq!(points[1].get("nodes").unwrap().as_u64(), Some(3));
    for p in points {
        assert!(p.get("estimate").unwrap().as_f64().unwrap() > 0.0);
        assert!(p.get("measured").unwrap().as_f64().unwrap() > 0.0);
    }
    assert!(
        !v.get("error_bands").unwrap().as_arr().unwrap().is_empty(),
        "both backends ran, so bands are present"
    );
    handle.shutdown();
}

#[test]
fn am_deadlocked_simulation_answers_an_error_and_the_service_recovers() {
    let handle = serve(test_config()).unwrap();
    // Four batch jobs on one node of four containers: every container
    // goes to an application master, so no task can ever start. The
    // outcome is known before the run, so decoding refuses the point
    // and names the bound; one job fewer runs.
    let wedged = r#"{"nodes":1,"n_jobs":4,"input_bytes":268435456,
        "backends":{"analytic":false,"simulator":1}}"#;
    let (status, reply) = request(handle.addr, "POST", "/v1/estimate", wedged);
    assert_eq!(status, 422, "{reply}");
    let error = Json::parse(&reply).unwrap().get("error").unwrap().clone();
    assert_eq!(error.get("code").unwrap().as_str(), Some("validation"));
    let message = error.get("message").unwrap().as_str().unwrap();
    assert!(message.contains("the bound is 3 jobs"), "{message}");
    let (status, reply) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        &wedged.replace("\"n_jobs\":4", "\"n_jobs\":3"),
    );
    assert_eq!(status, 200, "{reply}");
    // A sweep is refused when any of its points would deadlock.
    let sweep = r#"{"nodes":[2,1],"n_jobs":[4],"input_bytes":[268435456],
        "backends":{"analytic":false,"simulator":1}}"#;
    let (status, reply) = request(handle.addr, "POST", "/v1/scenario", sweep);
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("on 1 node(s)"), "{reply}");

    // A zero stagger submits every job at once too, and is refused the
    // same way.
    let at_once = wedged.replace(
        "\"n_jobs\":4",
        "\"n_jobs\":4,\"arrivals\":{\"staggered_ms\":0}",
    );
    let (status, reply) = request(handle.addr, "POST", "/v1/estimate", &at_once);
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("the bound is 3 jobs"), "{reply}");

    // Arrivals spread over time are not checked: a 1 ms stagger still
    // lets every AM in before any task, and the simulator detects the
    // deadlock instead of re-arming heartbeats forever. Twice: the
    // identical second request must not wait on a flight the first
    // abandoned.
    let staggered = wedged.replace(
        "\"n_jobs\":4",
        "\"n_jobs\":4,\"arrivals\":{\"staggered_ms\":1}",
    );
    for attempt in 0..2 {
        let mut conn = TcpStream::connect(handle.addr).expect("connect");
        // A hang must fail the test, not stall it.
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        send_request(&mut conn, "POST", "/v1/estimate", &staggered, true);
        let (status, reply, _) = read_response(&mut BufReader::new(conn));
        assert_eq!(status, 500, "attempt {attempt}: {reply}");
        let v = Json::parse(&reply).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("internal"),
            "attempt {attempt}: {reply}"
        );
    }
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":4,"input_bytes":268435456,"n_jobs":2}"#,
    );
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn arrivals_round_trip_reports_makespans_while_old_requests_decode_unchanged() {
    let handle = serve(test_config()).unwrap();
    // An arrivals-bearing estimate: two staggered jobs, both backends.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"input_bytes":268435456,"n_jobs":2,
            "arrivals":{"staggered_ms":60000},
            "backends":{"analytic":true,"simulator":1}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(
        v.get("arrivals")
            .unwrap()
            .get("staggered_ms")
            .unwrap()
            .as_u64(),
        Some(60000),
        "the reply echoes the schedule"
    );
    let response = v.get("measured").unwrap().as_f64().unwrap();
    let makespan = v
        .get("sim")
        .unwrap()
        .get("makespan")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        makespan > response && makespan > 60.0,
        "staggered arrivals split makespan from response: {makespan} vs {response}"
    );
    assert!(
        v.get("model")
            .unwrap()
            .get("makespan")
            .unwrap()
            .as_f64()
            .unwrap()
            > 60.0
    );

    // An arrivals-free request (the PR 3 client shape) still decodes —
    // absent field means batch.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"input_bytes":268435456,"n_jobs":2}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("arrivals").unwrap().as_str(), Some("batch"));
    assert!(v.get("estimate").unwrap().as_f64().unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn keep_alive_serves_two_requests_on_one_socket() {
    let handle = serve(test_config()).unwrap();
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    send_request(&mut conn, "GET", "/healthz", "", false);
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let (status, body, connection) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert_eq!(connection, "keep-alive");

    // Second request on the very same socket.
    send_request(
        &mut conn,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"input_bytes":134217728}"#,
        false,
    );
    let (status, body, connection) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert_eq!(connection, "keep-alive");
    assert!(Json::parse(&body).unwrap().get("estimate").is_some());

    // A final Connection: close request ends the connection.
    send_request(&mut conn, "GET", "/healthz", "", true);
    let (status, _, connection) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "close");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn keep_alive_request_cap_closes_the_connection() {
    let handle = serve(ServeConfig {
        keep_alive_requests: 2,
        ..test_config()
    })
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    send_request(&mut conn, "GET", "/healthz", "", false);
    let (_, _, connection) = read_response(&mut reader);
    assert_eq!(connection, "keep-alive", "first request under the cap");
    send_request(&mut conn, "GET", "/healthz", "", false);
    let (_, _, connection) = read_response(&mut reader);
    assert_eq!(connection, "close", "cap reached: the service closes");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "socket is closed after the cap");
    handle.shutdown();
}

#[test]
fn metrics_scrape_spans_all_layers_and_counts_keep_alive_requests() {
    let handle = serve(test_config()).unwrap();
    // Drive every instrumented layer: a scenario through both backends
    // (analytic solver + simulator + runner + a cache miss), then the
    // identical body again for a cache hit.
    let body = r#"{"name":"obs","nodes":[2],"input_bytes":[268435456],
        "backends":{"analytic":true,"simulator":1}}"#;
    let (status, reply) = request(handle.addr, "POST", "/v1/scenario", body);
    assert_eq!(status, 200, "{reply}");
    let (status, _) = request(handle.addr, "POST", "/v1/scenario", body);
    assert_eq!(status, 200);

    // Two scrapes on ONE kept-alive socket.
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    send_request(&mut conn, "GET", "/metrics", "", false);
    let (status, first, connection) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");
    send_request(&mut conn, "GET", "/metrics", "", true);
    let (status, second, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    // Exposition shape: HELP/TYPE preambles and a healthy family count.
    assert!(first.starts_with("# HELP "), "{first}");
    let families = first.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(families >= 8, "only {families} families:\n{first}");

    // All four instrumented layers are represented.
    for family in [
        "mr2_http_requests_total",     // serve: per-route counters
        "mr2_http_request_seconds",    // serve: latency histogram
        "mr2_serve_queue_depth",       // serve: worker backlog gauge
        "mr2_points_evaluated_total",  // runner
        "mr2_cache_hits_total",        // result cache
        "mr2_cache_misses_total",      // result cache
        "mr2_solver_iterations_total", // analytic solver
        "mr2_sim_events_total",        // simulator
        "mr2_sim_event_heap_depth",    // simulator
        "mr2_span_seconds",            // phase timings
    ] {
        assert!(
            first.contains(&format!("# TYPE {family} ")),
            "family {family} missing:\n{first}"
        );
    }
    // The repeated scenario body was answered from the cache.
    assert!(metric_value(&first, "mr2_cache_hits_total") >= 1.0);

    // The metrics route counts itself: a request is recorded after its
    // response is built, so the second scrape on the same socket sees
    // the first one (the registry is process-wide and other tests race
    // it, hence monotonic `>=`, not equality).
    let series = "mr2_http_requests_total{method=\"GET\",path=\"/metrics\",status=\"200\"}";
    let (v1, v2) = (metric_value(&first, series), metric_value(&second, series));
    assert!(
        v2 >= v1 + 1.0,
        "second scrape counts the first: {v1} -> {v2}\n{second}"
    );
    handle.shutdown();
}

/// Collect every span name in a span forest, depth first, asserting
/// each node's timings are sane along the way.
fn collect_span_names(spans: &[Json], names: &mut Vec<String>) {
    for s in spans {
        names.push(s.get("name").unwrap().as_str().unwrap().to_string());
        let start = s.get("start_ms").unwrap().as_f64().unwrap();
        let duration = s.get("duration_ms").unwrap().as_f64().unwrap();
        assert!(start >= 0.0 && duration >= 0.0);
        if let Some(children) = s.get("children") {
            collect_span_names(children.as_arr().unwrap(), names);
        }
    }
}

/// Assert the shape of a `"debug"` breakdown: a request id, a
/// `trace_url` correlation hint, a span *tree* containing
/// `expect_span` and the encode phase somewhere, and root durations
/// summing to at most the measured wall time (roots are sequential;
/// children overlap their parents by construction).
fn assert_debug_breakdown(v: &Json, expect_span: &str) {
    let debug = v.get("debug").expect("debug object attached");
    let request_id = debug.get("request_id").unwrap().as_u64().unwrap();
    assert!(request_id >= 1);
    assert_eq!(
        debug.get("trace_url").unwrap().as_str().unwrap(),
        format!("/v1/trace/recent?id={request_id}")
    );
    let wall = debug.get("wall_ms").unwrap().as_f64().unwrap();
    let roots = debug.get("spans").unwrap().as_arr().unwrap();
    assert!(!roots.is_empty(), "breakdown has spans");
    let root_sum: f64 = roots
        .iter()
        .map(|s| s.get("duration_ms").unwrap().as_f64().unwrap())
        .sum();
    let mut names = Vec::new();
    collect_span_names(roots, &mut names);
    assert!(names.iter().any(|n| n == expect_span), "{names:?}");
    assert!(names.iter().any(|n| n == "response.encode"), "{names:?}");
    assert!(
        root_sum <= wall + 1e-6,
        "root span sum {root_sum}ms bounded by wall {wall}ms: {names:?}"
    );
}

#[test]
fn debug_flag_attaches_span_breakdown_bounded_by_wall_time() {
    let handle = serve(test_config()).unwrap();
    // /v1/estimate with both backends: the runner's phase spans land in
    // the trace alongside the encode span.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"input_bytes":268435456,"debug":true,
            "backends":{"analytic":true,"simulator":1}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_debug_breakdown(&v, "point.model");

    // /v1/scenario: the sweep runs as one traced phase on this thread
    // (the evaluation pool's own spans deliberately stay out).
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/scenario",
        r#"{"name":"dbg","nodes":[2,3],"input_bytes":[268435456],"debug":true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_debug_breakdown(&v, "scenario.run");

    // Off by default: no debug key in the reply.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"input_bytes":268435456}"#,
    );
    assert_eq!(status, 200);
    assert!(Json::parse(&body).unwrap().get("debug").is_none());

    // A non-boolean value is refused, not silently ignored.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"debug":"yes"}"#,
    );
    assert_eq!(status, 422, "{body}");
    handle.shutdown();
}

#[test]
fn mix_round_trip_reports_per_class_estimates() {
    let handle = serve(test_config()).unwrap();
    // A heterogeneous mix through /v1/scenario, both backends.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/scenario",
        r#"{"name":"mixed","nodes":[2],
            "mixes":[[{"job":"wordcount","input_bytes":268435456,"count":2},
                      {"job":"grep","input_bytes":268435456}]],
            "backends":{"analytic":true,"simulator":1}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    let pt = &v.get("points").unwrap().as_arr().unwrap()[0];
    assert_eq!(pt.get("total_jobs").unwrap().as_u64(), Some(3));
    let per_class = pt
        .get("model")
        .unwrap()
        .get("per_class")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(per_class.len(), 2, "per-class estimates in the reply");
    assert!(per_class[0].get("fork_join").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        pt.get("sim")
            .unwrap()
            .get("per_class_median")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        2
    );
    assert!(
        !v.get("class_error_bands")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty(),
        "per-class bands present when both backends ran"
    );

    // The old single-job request shape still decodes on /v1/estimate.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"job":"grep","input_bytes":268435456,"n_jobs":2}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    let mix = v.get("mix").unwrap().as_arr().unwrap();
    assert_eq!(mix.len(), 1, "decoded as a 1-entry mix");
    assert_eq!(mix[0].get("job").unwrap().as_str(), Some("grep"));
    assert_eq!(mix[0].get("count").unwrap().as_u64(), Some(2));
    handle.shutdown();
}

#[test]
fn error_statuses_are_mapped_through_the_unified_envelope() {
    let handle = serve(ServeConfig {
        max_points: 8,
        ..test_config()
    })
    .unwrap();
    // (method, path, body, status, envelope code): transport/JSON
    // damage is 400 "malformed", a well-formed body that fails
    // validation is 422 "validation", routing misses keep 404/405.
    let cases = [
        ("GET", "/nope", "", 404, "not_found"),
        ("DELETE", "/healthz", "", 405, "method_not_allowed"),
        ("POST", "/healthz", "", 405, "method_not_allowed"),
        ("GET", "/v1/estimate", "", 405, "method_not_allowed"),
        ("POST", "/v1/estimate", "{not json", 400, "malformed"),
        ("POST", "/v1/estimate", r#"{"nodes":0}"#, 422, "validation"),
        ("POST", "/v1/scenario", r#"{"nodes":[]}"#, 422, "validation"),
        // Expanding past the service bound must be refused, not run.
        (
            "POST",
            "/v1/scenario",
            r#"{"nodes":[2,3,4],"n_jobs":[1,2,3]}"#,
            422,
            "validation",
        ),
        // A streamed sweep is refused the same way, before its chunked
        // head: a plain (Content-Length framed) reply.
        (
            "POST",
            "/v1/scenario",
            r#"{"nodes":[2,3,4],"n_jobs":[1,2,3],"stream":true}"#,
            422,
            "validation",
        ),
        // A single point carrying an absurd job total must be refused
        // before any per-job state is allocated — `max_points` can't
        // see it, the per-point jobs bound must.
        (
            "POST",
            "/v1/estimate",
            r#"{"mix":[{"job":"grep","count":1000000000000}]}"#,
            422,
            "validation",
        ),
        (
            "POST",
            "/v1/scenario",
            r#"{"nodes":[2],"n_jobs":[1000000]}"#,
            422,
            "validation",
        ),
        // /v1/plan speaks the same envelope.
        ("POST", "/v1/plan", "{not json", 400, "malformed"),
        ("POST", "/v1/plan", r#"{"slo":{}}"#, 422, "validation"),
        (
            "POST",
            "/v1/plan",
            r#"{"arrival_rate":0.1,"slo":{"metric":"response","threshold":-5}}"#,
            422,
            "validation",
        ),
    ];
    for (method, path, body, expected, code) in cases {
        let (status, reply) = request(handle.addr, method, path, body);
        assert_eq!(status, expected, "{method} {path}: {reply}");
        let v = Json::parse(&reply).unwrap();
        assert_eq!(
            v.get("api_version").unwrap().as_str(),
            Some("v1"),
            "errors are versioned too: {reply}"
        );
        let error = v.get("error").unwrap_or_else(|| {
            panic!("errors carry the envelope: {reply}");
        });
        assert_eq!(
            error.get("code").unwrap().as_str(),
            Some(code),
            "{method} {path}: {reply}"
        );
        assert!(
            !error
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .trim()
                .is_empty(),
            "messages are human-readable: {reply}"
        );
    }

    // Validation failures that concern one field name it in the
    // envelope, so clients can highlight the offending input.
    let (status, reply) = request(handle.addr, "POST", "/v1/estimate", r#"{"nodes":0}"#);
    assert_eq!(status, 422);
    let v = Json::parse(&reply).unwrap();
    assert_eq!(
        v.get("error").unwrap().get("field").unwrap().as_str(),
        Some("nodes"),
        "{reply}"
    );
    handle.shutdown();
}

#[test]
fn concurrent_identical_scenarios_cost_one_evaluation() {
    // The acceptance criterion: ≥4 concurrent clients posting the same
    // scenario must trigger exactly one underlying evaluation. The
    // shared cache coalesces in-flight requests, so whatever the
    // interleaving — all four racing, or any of them arriving after the
    // record is ready — the miss counter (one per executed compute
    // closure) ends at exactly the number of distinct records: here 1
    // (a single analytic solve, no profiling, no simulator).
    const CLIENTS: usize = 6;
    let handle = serve(test_config()).unwrap();
    let body = r#"{"name":"herd","nodes":[6],"input_bytes":[1073741824],"n_jobs":[4],
        "backends":{"analytic":true,"profile_calibration":false,"simulator":null}}"#;

    let barrier = Barrier::new(CLIENTS);
    let replies: Vec<(u16, String)> = std::thread::scope(|s| {
        (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    request(handle.addr, "POST", "/v1/scenario", body)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    for (status, reply) in &replies {
        assert_eq!(*status, 200, "{reply}");
        assert_eq!(
            reply, &replies[0].1,
            "every client sees the identical answer"
        );
    }

    let stats = handle.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "exactly one evaluation under {CLIENTS} concurrent clients: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.coalesced,
        (CLIENTS - 1) as u64,
        "everyone else was served the shared record: {stats:?}"
    );

    // And the stats endpoint reports the same numbers.
    let (_, body) = request(handle.addr, "GET", "/v1/cache/stats", "");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("entries").unwrap().as_u64(), Some(1));
    handle.shutdown();
}

#[test]
fn open_arrival_estimate_reports_the_saturation_knee() {
    let handle = serve(test_config()).unwrap();
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":4,"input_bytes":268435456,"arrival_rate":0.002}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("arrival_rate").unwrap().as_f64(), Some(0.002));
    let open = v.get("model").unwrap().get("open").unwrap();
    let util = open
        .get("bottleneck_utilization")
        .unwrap()
        .as_f64()
        .unwrap();
    let knee = open.get("knee_rate").unwrap().as_f64().unwrap();
    let sat = open.get("saturation_rate").unwrap().as_f64().unwrap();
    assert!(util > 0.0 && util < 1.0, "{body}");
    assert!(sat > knee && knee > 0.002, "{body}");

    // A closed (batch) request keeps the old shape: open stays null.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":4,"input_bytes":268435456}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("model").unwrap().get("open"), Some(&Json::Null));
    handle.shutdown();
}

#[test]
fn plan_round_trip_returns_the_cheapest_satisfying_configuration() {
    let handle = serve(test_config()).unwrap();
    // Reference: the open response at 6 nodes. A threshold just above
    // it makes some node count ≤ 6 the cheapest satisfying choice.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":6,"input_bytes":1073741824,"arrival_rate":0.002}"#,
    );
    assert_eq!(status, 200, "{body}");
    let reference = Json::parse(&body)
        .unwrap()
        .get("estimate")
        .unwrap()
        .as_f64()
        .unwrap();

    let plan_body = format!(
        r#"{{"mix":[{{"job":"wordcount","input_bytes":1073741824}}],
            "arrival_rate":0.002,
            "slo":{{"metric":"response","threshold":{}}},
            "search":{{"min_nodes":1,"max_nodes":16}}}}"#,
        reference * 1.001
    );
    let (status, body) = request(handle.addr, "POST", "/v1/plan", &plan_body);
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("api_version").unwrap().as_str(), Some("v1"));
    assert_eq!(v.get("feasible").unwrap().as_bool(), Some(true), "{body}");
    let nodes = v.get("nodes").unwrap().as_u64().unwrap();
    assert!((1..=6).contains(&nodes), "threshold is met by 6: {body}");
    let predicted = v.get("predicted").unwrap().as_f64().unwrap();
    assert!(predicted <= reference * 1.001, "{body}");

    // The chosen point carries the full model, open tail included.
    let open = v.get("model").unwrap().get("open").unwrap();
    assert!(open.get("saturation_rate").unwrap().as_f64().unwrap() > 0.002);

    // The probe trail shows the bisection: every probe in range, the
    // chosen count present, and — the cheapest-config evidence — one
    // node fewer either fails the SLO or sits outside the range.
    let probes = v.get("probes").unwrap().as_arr().unwrap();
    assert!(!probes.is_empty() && probes.len() <= 6, "{body}");
    assert!(probes
        .iter()
        .any(|p| p.get("nodes").unwrap().as_u64() == Some(nodes)));
    if let Some(below) = probes
        .iter()
        .find(|p| p.get("nodes").unwrap().as_u64() == Some(nodes - 1))
    {
        assert_eq!(below.get("satisfies").unwrap().as_bool(), Some(false));
    }

    // An unsatisfiable SLO is an answer, not an error: feasible=false
    // with the best-effort top-of-range point.
    let (status, body) = request(
        handle.addr,
        "POST",
        "/v1/plan",
        r#"{"mix":[{"job":"wordcount","input_bytes":1073741824}],
            "arrival_rate":0.002,
            "slo":{"metric":"response","threshold":1e-6},
            "search":{"min_nodes":1,"max_nodes":8}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("feasible").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("nodes").unwrap().as_u64(), Some(8));
    handle.shutdown();
}

#[test]
fn replanning_is_cache_served() {
    let handle = serve(test_config()).unwrap();
    let body = r#"{"mix":[{"job":"grep","input_bytes":268435456}],
        "arrival_rate":0.005,
        "slo":{"metric":"utilization","threshold":0.5},
        "search":{"min_nodes":1,"max_nodes":32}}"#;
    let (status, first) = request(handle.addr, "POST", "/v1/plan", body);
    assert_eq!(status, 200, "{first}");
    let (_, stats) = request(handle.addr, "GET", "/v1/cache/stats", "");
    let before = Json::parse(&stats).unwrap();
    let misses_before = before.get("misses").unwrap().as_u64().unwrap();
    assert!(misses_before >= 1, "the first plan evaluated something");

    let (status, second) = request(handle.addr, "POST", "/v1/plan", body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "re-planning is deterministic");
    let (_, stats) = request(handle.addr, "GET", "/v1/cache/stats", "");
    let after = Json::parse(&stats).unwrap();
    assert_eq!(
        after.get("misses").unwrap().as_u64(),
        Some(misses_before),
        "the repeat plan is 100% cache-served (≥90% required): {stats}"
    );
    assert!(after.get("hits").unwrap().as_u64().unwrap() >= misses_before);
    handle.shutdown();
}

#[test]
fn replies_are_versioned_and_legacy_fields_draw_deprecations() {
    let handle = serve(test_config()).unwrap();
    // Every success reply carries the version stamp…
    for (method, path, body) in [
        ("GET", "/healthz", ""),
        ("GET", "/v1/cache/stats", ""),
        (
            "POST",
            "/v1/estimate",
            r#"{"nodes":2,"mix":[{"job":"grep","input_bytes":268435456}]}"#,
        ),
        (
            "POST",
            "/v1/scenario",
            r#"{"name":"v","nodes":[2],"input_bytes":[268435456]}"#,
        ),
    ] {
        let (status, reply) = request(handle.addr, method, path, body);
        assert_eq!(status, 200, "{method} {path}: {reply}");
        let v = Json::parse(&reply).unwrap();
        assert_eq!(
            v.get("api_version").unwrap().as_str(),
            Some("v1"),
            "{method} {path}: {reply}"
        );
        assert!(
            v.get("deprecations").is_none(),
            "mix-shaped requests are not warned: {reply}"
        );
    }

    // …and the legacy single-job shape still decodes byte-for-byte the
    // same answer, with the reply naming the deprecated fields.
    let (status, reply) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"job":"grep","input_bytes":268435456,"n_jobs":1}"#,
    );
    assert_eq!(status, 200, "{reply}");
    let legacy = Json::parse(&reply).unwrap();
    let warnings = legacy.get("deprecations").unwrap().as_arr().unwrap();
    let text: Vec<&str> = warnings.iter().filter_map(Json::as_str).collect();
    assert!(
        text.iter().any(|w| w.contains("`job`")) && text.iter().any(|w| w.contains("`mix`")),
        "deprecations name the field and its replacement: {reply}"
    );

    let (_, mix_reply) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"mix":[{"job":"grep","input_bytes":268435456}]}"#,
    );
    let modern = Json::parse(&mix_reply).unwrap();
    assert_eq!(
        legacy.get("estimate"),
        modern.get("estimate"),
        "legacy and mix shapes answer identically"
    );
    handle.shutdown();
}

#[test]
fn full_accept_queue_sheds_load_with_503_and_retry_after() {
    // max_queue 0: the acceptor rejects every connection before it
    // reaches a worker, with the envelope and an explicit retry hint.
    let handle = serve(ServeConfig {
        max_queue: 0,
        ..test_config()
    })
    .unwrap();
    // The rejection happens at accept, before any bytes are read —
    // sending nothing avoids the RST a close-with-unread-data causes.
    let conn = TcpStream::connect(handle.addr).expect("connect");
    let mut raw = String::new();
    BufReader::new(conn).read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("Retry-After: 1"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("body");
    let v = Json::parse(body).expect("envelope body");
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("backpressure"),
        "{raw}"
    );
    handle.shutdown();
}

#[test]
fn cache_snapshot_survives_restart() {
    let dir = std::env::temp_dir().join(format!("mr2-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("serve-cache.txt");

    let cfg = ServeConfig {
        cache_file: Some(cache_file.clone()),
        ..test_config()
    };
    let handle = serve(cfg.clone()).unwrap();
    let body = r#"{"nodes":3,"input_bytes":268435456}"#;
    let (status, first) = request(handle.addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200);
    handle.shutdown(); // final snapshot happens here
    assert!(cache_file.exists(), "shutdown persisted the cache");

    // A fresh process-equivalent: same snapshot file, new server.
    let handle = serve(cfg).unwrap();
    assert_eq!(
        handle.cache_stats().entries,
        1,
        "restart warmed the cache from disk"
    );
    let (status, second) = request(handle.addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "warm answer is bit-identical");
    let stats = handle.cache_stats();
    assert_eq!(stats.misses, 0, "no re-evaluation after restart");
    assert_eq!(stats.hits, 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Event-loop transport: streaming sweeps, hostile clients, auth, shutdown.
// ---------------------------------------------------------------------------

fn header_value<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers.iter().find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn streaming_scenario_delivers_points_before_the_sweep_completes() {
    // The second point is deliberately heavy (10 GiB input, 8
    // concurrent jobs, 5 simulator reps): whether the points run one
    // after the other on the worker or side by side on a runner helper,
    // when the first NDJSON line is on the wire the second has not
    // finished — the cache still lacks its records.
    let handle = serve(test_config()).unwrap();
    let scenario = r#"{"name":"stream-test","sweep":"zip","input_bytes":[268435456,10737418240],"n_jobs":[1,8],"backends":{"analytic":true,"simulator":5},"stream":true}"#;

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
    let (status, headers) = read_stream_head(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(
        header_value(&headers, "transfer-encoding"),
        Some("chunked"),
        "streaming replies are chunked: {headers:?}"
    );
    assert_eq!(
        header_value(&headers, "content-type"),
        Some("application/x-ndjson")
    );
    assert!(
        header_value(&headers, "content-length").is_none(),
        "no Content-Length on a stream"
    );

    let first = String::from_utf8(read_chunk(&mut reader)).expect("utf-8 line");
    let first_point = Json::parse(first.trim()).expect("first line is JSON");
    assert!(
        first_point.get("index").is_some() && first_point.get("estimate").is_some(),
        "point lines carry index + estimate: {first}"
    );
    // The acceptance check: a point line arrived while the sweep was
    // still running. Each completed point deposits two cache records
    // (simulator + analytic); the full two-point sweep deposits four.
    let entries_mid = handle.cache_stats().entries;
    assert!(
        entries_mid < 4,
        "first line arrived before the sweep completed (cache entries: {entries_mid})"
    );

    let mut lines = vec![first];
    loop {
        let chunk = read_chunk(&mut reader);
        if chunk.is_empty() {
            break;
        }
        lines.push(String::from_utf8(chunk).expect("utf-8 line"));
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "connection closes after the terminator");

    // 2 point lines + 1 summary tail.
    assert_eq!(lines.len(), 3, "lines: {lines:?}");
    let tail = Json::parse(lines[2].trim()).expect("tail is JSON");
    assert_eq!(tail.get("done").unwrap().as_bool(), Some(true));
    assert_eq!(tail.get("num_points").unwrap().as_u64(), Some(2));
    assert!(tail.get("error_bands").is_some(), "tail carries the bands");
    assert!(tail.get("api_version").is_some());

    let mut points: Vec<Json> = lines[..2]
        .iter()
        .map(|l| Json::parse(l.trim()).expect("point line"))
        .collect();
    points.sort_by_key(|p| p.get("index").unwrap().as_u64().unwrap());
    assert_eq!(points[0].get("index").unwrap().as_u64(), Some(0));
    assert_eq!(points[1].get("index").unwrap().as_u64(), Some(1));

    // Parity: the non-streaming reply (now fully cached) reports the
    // same per-point estimates and the same bands.
    let plain = scenario.replace(",\"stream\":true", "");
    let (status, body) = request(handle.addr, "POST", "/v1/scenario", &plain);
    assert_eq!(status, 200);
    let sweep = Json::parse(&body).unwrap();
    let sweep_points = sweep.get("points").unwrap().as_arr().unwrap();
    assert_eq!(sweep_points.len(), 2);
    for (streamed, batch) in points.iter().zip(sweep_points) {
        assert_eq!(
            streamed.get("estimate").unwrap().get("total_ms"),
            batch.get("estimate").unwrap().get("total_ms"),
            "streamed and batch estimates agree"
        );
    }
    assert_eq!(
        tail.get("error_bands"),
        sweep.get("error_bands"),
        "streamed tail bands match the batch reply"
    );
    handle.shutdown();
}

#[test]
fn slow_loris_partial_header_times_out_without_pinning_a_worker() {
    // One worker thread: if the loris pinned it, the probe request
    // could never be answered.
    let cfg = ServeConfig {
        threads: 1,
        request_timeout: Duration::from_millis(300),
        ..test_config()
    };
    let handle = serve(cfg).unwrap();

    let mut loris = TcpStream::connect(handle.addr).expect("connect");
    loris
        .write_all(b"POST /v1/estimate HTTP/1.1\r\nHost: te")
        .expect("partial header");

    // The single worker still answers other connections.
    let (status, _) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        r#"{"nodes":2,"input_bytes":268435456}"#,
    );
    assert_eq!(status, 200, "loris did not pin the worker");

    // The loris connection is reaped by the inactivity deadline: EOF,
    // no response bytes, well before the keep-alive idle window.
    loris
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let started = Instant::now();
    let mut buf = Vec::new();
    loris.read_to_end(&mut buf).expect("read until close");
    assert!(buf.is_empty(), "no reply to an unfinished request");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "closed by the request deadline, not the idle timer"
    );
    handle.shutdown();
}

#[test]
fn expect_continue_gets_the_interim_reply_before_the_body() {
    let handle = serve(test_config()).unwrap();
    let body = r#"{"nodes":2,"input_bytes":268435456}"#;
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    // A missing interim reply must fail the test, not hang it.
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Like curl, send the head alone and hold the body back until the
    // server invites it.
    write!(
        conn,
        "POST /v1/estimate HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Expect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("send head");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut interim = String::new();
    for _ in 0..2 {
        reader
            .read_line(&mut interim)
            .expect("interim reply before the read timeout");
    }
    assert_eq!(interim, "HTTP/1.1 100 Continue\r\n\r\n");

    conn.write_all(body.as_bytes()).expect("send body");
    let (status, reply, connection) = read_response(&mut reader);
    assert_eq!(status, 200, "{reply}");
    assert!(
        Json::parse(&reply).unwrap().get("estimate").is_some(),
        "the final reply is the estimate: {reply}"
    );
    assert_eq!(connection, "close");
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = serve(test_config()).unwrap();
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    let estimate = r#"{"nodes":2,"input_bytes":268435456}"#;
    // Three requests in one write: inline route, worker-pool route,
    // inline route. The middle one parks the connection until its
    // worker finishes; the third must not be answered early.
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n\
         POST /v1/estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{estimate}\
         GET /v1/cache/stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        estimate.len()
    )
    .expect("pipelined write");

    let mut reader = BufReader::new(conn);
    let (status, body, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&body).unwrap().get("status").unwrap().as_str(),
        Some("ok"),
        "first reply is the health check"
    );
    let (status, body, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        Json::parse(&body).unwrap().get("estimate").is_some(),
        "second reply is the estimate"
    );
    let (status, body, connection) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        Json::parse(&body).unwrap().get("entries").is_some(),
        "third reply is the cache stats"
    );
    assert_eq!(connection, "close");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn bearer_token_guards_v1_routes_but_not_probes() {
    let cfg = ServeConfig {
        token: Some("s3cret".into()),
        ..test_config()
    };
    let handle = serve(cfg).unwrap();

    // Probe, scrape, and profiler endpoints stay open.
    let (status, _) = request(handle.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = request(handle.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let (status, _) = request(handle.addr, "GET", "/debug/profile", "");
    assert_eq!(status, 200, "/debug/profile is not under /v1/");

    // The introspection GETs under /v1/ are guarded like the rest.
    for path in ["/v1/jobs", "/v1/trace/recent"] {
        let (status, _) = request(handle.addr, "GET", path, "");
        assert_eq!(status, 401, "{path} requires the bearer token");
    }

    // /v1/* without (or with a wrong) token: the standard error
    // envelope, and the connection survives to try again.
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    let authed = |conn: &mut TcpStream, auth: Option<&str>, close: bool| {
        let connection = if close { "close" } else { "keep-alive" };
        let auth_line = auth
            .map(|a| format!("Authorization: {a}\r\n"))
            .unwrap_or_default();
        write!(
            conn,
            "GET /v1/cache/stats HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\
             {auth_line}Content-Length: 0\r\n\r\n"
        )
        .expect("send");
    };
    authed(&mut conn, None, false);
    let mut reader = BufReader::new(conn);
    let (status, body, _) = read_response(&mut reader);
    assert_eq!(status, 401);
    let v = Json::parse(&body).unwrap();
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("unauthorized")
    );
    assert!(v.get("api_version").is_some(), "errors keep the envelope");

    authed(reader.get_mut(), Some("Bearer wrong"), false);
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 401, "a wrong token is rejected");

    authed(reader.get_mut(), Some("bearer s3cret"), true);
    let (status, body, _) = read_response(&mut reader);
    assert_eq!(status, 200, "scheme is case-insensitive, token matches");
    assert!(Json::parse(&body).unwrap().get("entries").is_some());

    // POST routes are guarded too.
    let estimate = r#"{"nodes":2,"input_bytes":268435456}"#;
    let (status, _) = request(handle.addr, "POST", "/v1/estimate", estimate);
    assert_eq!(status, 401, "worker-pool routes reject before dispatch");
    handle.shutdown();
}

#[test]
fn shutdown_is_prompt_with_an_idle_connection_open() {
    let handle = serve(test_config()).unwrap();
    // Park a kept-alive connection in the idle state.
    let mut conn = TcpStream::connect(handle.addr).expect("connect");
    send_request(&mut conn, "GET", "/healthz", "", false);
    let mut reader = BufReader::new(conn);
    let (status, _, connection) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");

    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown wakes the event loop instead of waiting out a poll"
    );
    // The parked connection was closed by teardown.
    reader
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "no stray bytes at teardown");
}

#[test]
fn connection_state_metrics_are_exposed() {
    let handle = serve(test_config()).unwrap();
    // Generate a little traffic first so the histogram has samples.
    let (status, _) = request(handle.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let (status, body) = request(handle.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metric_value(&body, "mr2_serve_open_connections") >= 1.0,
        "the scraping connection itself is visible"
    );
    // Every state series is pre-registered so scrapes always see the
    // full family; the scraping connection is mid-request right now.
    for state in [
        "read_head",
        "read_body",
        "waiting",
        "writing",
        "streaming",
        "idle",
    ] {
        assert!(
            body.contains(&format!("mr2_serve_connection_states{{state=\"{state}\"}}")),
            "missing state series {state}"
        );
    }
    assert!(
        metric_value(&body, "mr2_serve_connection_states{state=\"read_head\"}") >= 1.0,
        "the scrape is counted in read_head while routing runs"
    );
    assert!(
        body.contains("mr2_serve_connection_state_seconds"),
        "state-duration histogram is exported"
    );
    handle.shutdown();
}

/// A sweep whose points share one configuration is evaluated by the
/// worker that took it: its point spans nest under the request's
/// `serve.request → scenario.run`, both in the retained trace and in
/// `/debug/profile`, instead of surfacing as orphan profile roots.
#[test]
fn one_configuration_sweep_traces_its_points_under_the_request() {
    let handle = serve(ServeConfig {
        trace_sample_one_in: 1,
        trace_slow: Duration::ZERO,
        ..test_config()
    })
    .unwrap();
    // The sampling knobs and the profiler are process-global: another
    // test's serve() may reset the sampling and another may reset the
    // profile mid-test, so retry with a fresh sweep name until both
    // show this sweep.
    for attempt in 0..64 {
        let name = format!("one-config-{attempt}");
        let scenario = format!(
            r#"{{"name":"{name}","nodes":[2],"input_bytes":[268435456],
                "estimators":["fork_join","tripathi","aria","herodotou"],
                "backends":{{"analytic":true,"simulator":1}},"stream":true}}"#
        );
        let mut conn = TcpStream::connect(handle.addr).expect("connect");
        send_request(&mut conn, "POST", "/v1/scenario", &scenario, true);
        let mut reader = BufReader::new(conn);
        let (status, _) = read_stream_head(&mut reader);
        assert_eq!(status, 200);
        let mut lines = 0;
        while !read_chunk(&mut reader).is_empty() {
            lines += 1;
        }
        assert_eq!(lines, 5, "four points and the tail");

        let (_, body) = request(handle.addr, "GET", "/v1/jobs", "");
        let jobs = Json::parse(&body).unwrap();
        let request_id = jobs
            .get("jobs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|j| j.get("name").unwrap().as_str() == Some(name.as_str()))
            .and_then(|j| j.get("request_id")?.as_u64())
            .unwrap_or_else(|| panic!("sweep listed in /v1/jobs: {body}"));
        let (_, body) = request(
            handle.addr,
            "GET",
            &format!("/v1/trace/recent?id={request_id}"),
            "",
        );
        let fetched = Json::parse(&body).unwrap();
        let (_, profile) = request(handle.addr, "GET", "/debug/profile", "");
        let profiled = profile
            .lines()
            .any(|l| l.starts_with("serve.request;scenario.run;point."));
        let Some(trace) = fetched.get("traces").unwrap().as_arr().unwrap().first() else {
            continue;
        };
        if !profiled {
            continue;
        }
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        let root = find_span(spans, "serve.request").expect("root span");
        let run = find_span(
            root.get("children").unwrap().as_arr().unwrap(),
            "scenario.run",
        )
        .unwrap_or_else(|| panic!("scenario.run under serve.request: {body}"));
        let points = run.get("children").unwrap().as_arr().unwrap();
        for phase in ["point.model", "point.sim"] {
            assert!(
                find_span(points, phase).is_some(),
                "{phase} under scenario.run: {body}"
            );
        }
        handle.shutdown();
        return;
    }
    panic!("no retained trace and profile of the sweep within 64 attempts");
}

/// A connection whose request a worker holds stops being read once its
/// parser holds a largest-possible request: a client pipelining behind
/// it meets TCP flow control instead of growing the server's memory,
/// and the held request's reply still arrives whole.
#[test]
fn pipelined_bytes_behind_a_busy_worker_meet_flow_control() {
    let handle = serve(ServeConfig {
        threads: 1,
        ..test_config()
    })
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr).unwrap();
    // Simulator repetitions holding the only worker for about a second.
    let reps = if cfg!(debug_assertions) { 120 } else { 800 };
    let slow = format!(
        r#"{{"nodes":4,"n_jobs":4,"input_bytes":4294967296,
            "backends":{{"analytic":false,"simulator":{reps}}}}}"#
    );
    send_request(&mut conn, "POST", "/v1/estimate", &slow, false);

    // Behind it, well-formed requests with the largest body allowed,
    // written until 256 MiB went out or the socket stopped taking bytes
    // for 200 ms.
    let body = format!(
        "{{\"nodes\":0}}{}",
        " ".repeat(mr2_serve::http::MAX_BODY - 12)
    );
    let mut next = format!(
        "POST /v1/estimate HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    next.extend_from_slice(body.as_bytes());
    conn.set_nonblocking(true).unwrap();
    let (mut written, mut at) = (0usize, 0usize);
    let mut stalled_since = None;
    let mut blocked = false;
    while written < 256 << 20 {
        match conn.write(&next[at..]) {
            Ok(n) => {
                written += n;
                at = (at + n) % next.len();
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_millis(200) {
                    blocked = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("pipelining failed after {written} bytes: {e}"),
        }
    }
    assert!(
        blocked && written < 64 << 20,
        "the server took {written} bytes behind a busy worker"
    );

    conn.set_nonblocking(false).unwrap();
    let mut reader = BufReader::new(conn);
    let (status, body, _) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).expect("the held reply arrives whole");
    assert_eq!(
        v.get("sim").unwrap().get("reps").unwrap().as_u64(),
        Some(reps)
    );
    drop(reader);
    handle.shutdown();
}

/// `mr2_http_requests_total` keeps the route table's methods as labels
/// and folds every other method into `other`, so unknown methods can't
/// grow the registry.
#[test]
fn unknown_methods_share_one_metric_series() {
    let handle = serve(test_config()).unwrap();
    let other = "mr2_http_requests_total{method=\"other\",path=\"/v1/jobs\",status=\"405\"}";
    let (_, before) = request(handle.addr, "GET", "/metrics", "");
    for i in 0..50 {
        let (status, body) = request(handle.addr, &format!("FOO{i}"), "/v1/jobs", "");
        assert_eq!(status, 405, "{body}");
    }
    let (_, after) = request(handle.addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&after, other) - metric_value(&before, other),
        50.0
    );
    let series: Vec<&str> = after
        .lines()
        .filter(|l| l.starts_with("mr2_http_requests_total{") && l.contains("/v1/jobs"))
        .collect();
    assert!(
        series
            .iter()
            .all(|l| l.contains("method=\"GET\"") || l.starts_with(other)),
        "{series:?}"
    );
    assert!(
        !after.contains("method=\"FOO"),
        "no series per unknown method"
    );
    handle.shutdown();
}

/// Whether the service sheds a new connection at accept, which it does
/// once its job queue is at `max_queue`: the shed reply arrives unasked.
fn accept_sheds(addr: std::net::SocketAddr) -> bool {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut head = [0u8; 12];
    matches!((&conn).read(&mut head), Ok(n) if head[..n].starts_with(b"HTTP/1.1 503"))
}

/// A `/v1/estimate` the cache can answer takes no queue slot: with the
/// only worker busy and the queue at `max_queue`, a repeated estimate
/// is answered byte for byte, while a new one is shed at dispatch and a
/// new connection at accept.
#[test]
fn cache_hits_are_answered_while_the_queue_is_full() {
    let handle = serve(ServeConfig {
        threads: 1,
        max_queue: 1,
        ..test_config()
    })
    .unwrap();
    let warm = r#"{"nodes":4,"input_bytes":268435456,"n_jobs":2}"#;
    let (status, first) = request(handle.addr, "POST", "/v1/estimate", warm);
    assert_eq!(status, 200, "{first}");
    // Connections opened before the queue fills are not shed at accept.
    let mut for_miss = TcpStream::connect(handle.addr).unwrap();
    let mut for_hit = TcpStream::connect(handle.addr).unwrap();

    // Simulator repetitions holding the only worker for about a second,
    // then a second such estimate waiting in the queue.
    let reps = if cfg!(debug_assertions) { 120 } else { 800 };
    let slow = |seed: u32| {
        format!(
            r#"{{"nodes":4,"n_jobs":4,"input_bytes":4294967296,"seed":{seed},
                "backends":{{"analytic":false,"simulator":{reps}}}}}"#
        )
    };
    let mut running = TcpStream::connect(handle.addr).unwrap();
    let misses = handle.cache_stats().misses;
    send_request(&mut running, "POST", "/v1/estimate", &slow(1), false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.cache_stats().misses == misses {
        assert!(Instant::now() < deadline, "the worker never took the job");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut queued = TcpStream::connect(handle.addr).unwrap();
    send_request(&mut queued, "POST", "/v1/estimate", &slow(2), false);
    while !accept_sheds(handle.addr) {
        assert!(
            Instant::now() < deadline,
            "the second estimate never queued"
        );
    }

    send_request(
        &mut for_miss,
        "POST",
        "/v1/estimate",
        r#"{"nodes":5,"input_bytes":268435456,"n_jobs":2}"#,
        false,
    );
    let (status, reply, _) = read_response(&mut BufReader::new(for_miss));
    assert_eq!(status, 503, "a miss needs a queue slot: {reply}");
    send_request(&mut for_hit, "POST", "/v1/estimate", warm, false);
    let (status, reply, _) = read_response(&mut BufReader::new(for_hit));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply, first, "the hit's reply is byte-identical");

    for conn in [running, queued] {
        let (status, reply, _) = read_response(&mut BufReader::new(conn));
        assert_eq!(status, 200, "{reply}");
    }
    handle.shutdown();
}

/// The loop's lookup is all or nothing: a calibrated point whose model
/// record was evicted while its profile record stayed goes to the pool,
/// which counts the profile hit and the model miss as it always did,
/// and answers with the first reply's bytes.
#[test]
fn a_point_missing_one_record_is_evaluated_by_the_pool() {
    let handle = serve(ServeConfig {
        cache_capacity: 2,
        ..test_config()
    })
    .unwrap();
    let calibrated = |n_jobs: u32| {
        format!(
            r#"{{"nodes":2,"input_bytes":268435456,"n_jobs":{n_jobs},
                "backends":{{"analytic":true,"profile_calibration":true}}}}"#
        )
    };
    let (status, first) = request(handle.addr, "POST", "/v1/estimate", &calibrated(1));
    assert_eq!(status, 200, "{first}");
    // The same class at two jobs shares the profile record and evicts
    // the one-job point's model record, the least recently used.
    let (status, reply) = request(handle.addr, "POST", "/v1/estimate", &calibrated(2));
    assert_eq!(status, 200, "{reply}");
    let before = handle.cache_stats();
    assert_eq!((before.entries, before.evictions), (2, 1));

    let (status, again) = request(handle.addr, "POST", "/v1/estimate", &calibrated(1));
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, first);
    let after = handle.cache_stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 1),
        "the pool's profile hit and model miss, and nothing from the loop"
    );
    handle.shutdown();
}

/// A debug estimate answered from the cache on the event loop traces
/// like one evaluated by a worker: `point.model` under `serve.request`.
#[test]
fn debug_cache_hit_traces_its_point_under_the_request() {
    let handle = serve(test_config()).unwrap();
    let body = r#"{"nodes":3,"input_bytes":268435456,"n_jobs":2}"#;
    let (status, _) = request(handle.addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200);
    let before = handle.cache_stats();
    let (status, reply) = request(
        handle.addr,
        "POST",
        "/v1/estimate",
        &body.replace('}', r#","debug":true}"#),
    );
    assert_eq!(status, 200, "{reply}");
    let after = handle.cache_stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0)
    );
    let v = Json::parse(&reply).unwrap();
    assert_debug_breakdown(&v, "point.model");
    let roots = v
        .get("debug")
        .unwrap()
        .get("spans")
        .unwrap()
        .as_arr()
        .unwrap();
    let root = find_span(roots, "serve.request").expect("serve.request span");
    let children = root.get("children").and_then(Json::as_arr).unwrap();
    assert!(
        find_span(children, "point.model").is_some(),
        "point.model under serve.request: {reply}"
    );
    handle.shutdown();
}

/// A client pipelining estimates the loop answers from the cache,
/// without reading the replies, meets TCP flow control: the loop stops
/// answering while the connection holds a megabyte of unsent replies,
/// instead of buffering a reply for every request it can read, and
/// goes on as the client reads.
#[test]
fn pipelined_cache_hits_wait_for_their_replies_to_be_read() {
    let handle = serve(ServeConfig {
        keep_alive_requests: usize::MAX,
        ..test_config()
    })
    .unwrap();
    let body = r#"{"nodes":4,"input_bytes":268435456,"n_jobs":2}"#;
    let (status, first) = request(handle.addr, "POST", "/v1/estimate", body);
    assert_eq!(status, 200, "{first}");
    let n = 20_000;
    let requests = format!(
        "POST /v1/estimate HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .repeat(n);
    let conn = TcpStream::connect(handle.addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(requests.as_bytes()));

    // Answered requests, counted as cache hits, until the count stays
    // put for three polls in a row.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut answered, mut still) = (0, 0);
    while still < 3 {
        assert!(Instant::now() < deadline, "the loop never settled");
        std::thread::sleep(Duration::from_millis(100));
        let now = handle.cache_stats().hits;
        still = if now == answered { still + 1 } else { 0 };
        answered = now;
    }
    assert!(
        answered < n as u64 / 2,
        "the loop answered {answered} of {n} pipelined requests with no reply read"
    );

    let mut reader = BufReader::new(conn);
    for i in 0..n {
        let (status, reply, _) = read_response(&mut reader);
        assert_eq!((status, reply.as_str()), (200, first.as_str()), "reply {i}");
    }
    sender.join().unwrap().expect("every request was taken");
    handle.shutdown();
}
