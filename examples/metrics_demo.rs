//! The observability registry end to end: run one scenario sweep
//! through both backends, then read what the process recorded — cache
//! and runner counters, solver and simulator totals, span timings —
//! as the same Prometheus text exposition `mr2-serve` answers on
//! `GET /metrics`. A second act drives a traced mixed workload and
//! prints what `GET /v1/trace/recent` and `GET /debug/profile` would
//! serve: the slowest retained span tree and the profiler's call tree.
//!
//! ```text
//! cargo run --release --example metrics_demo
//! ```

use std::time::Duration;

use hadoop2_perf::obs;
use hadoop2_perf::scenario::{run_scenario, Backends, ResultCache, Scenario};

fn main() {
    // Instrumented code can also mint its own metrics: handles are
    // cheap to clone and safe to call from any thread.
    let demo_runs = obs::counter("demo_sweeps_total", "Sweeps run by this example.");

    // Trace every request (sample 1-in-1) and retain everything in the
    // slow ring (threshold zero), so the mixed workload below is fully
    // reconstructable afterwards.
    obs::configure_tracing(1, Duration::ZERO);
    obs::profile::reset();

    // One sweep through both backends touches every instrumented
    // layer: the runner (points, cache), the analytic solver
    // (fixed-point iterations), and the simulator (events, heap depth).
    let scenario = Scenario::new("metrics-demo")
        .axis_nodes([2usize, 4])
        .axis_input_bytes([256 * 1024 * 1024])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: false,
            simulator: Some(1),
        });
    let cache = ResultCache::new();
    {
        obs::begin_trace(obs::next_request_id(), "demo.sweep.cold");
        let _sweep_timer = obs::span("demo.sweep"); // RAII: records on drop
        let sweep = run_scenario(&scenario, &cache);
        println!("swept {} points (cold)", sweep.points.len());
    }
    let _ = obs::finish_trace();
    demo_runs.inc();

    // The identical question again costs nothing — the result cache
    // answers, and the hit counters show it.
    {
        obs::begin_trace(obs::next_request_id(), "demo.sweep.warm");
        let _sweep_timer = obs::span("demo.sweep");
        run_scenario(&scenario, &cache);
        println!("swept again (warm: served from the result cache)");
    }
    let _ = obs::finish_trace();
    demo_runs.inc();

    // The whole subsystem is one flag: with recording disabled, every
    // counter add and histogram observe is a single relaxed load.
    obs::set_enabled(false);
    demo_runs.inc(); // not recorded
    obs::set_enabled(true);

    // The continuous profiler folded every finished span into a call
    // tree keyed by span path — the same data `GET /debug/profile`
    // renders as collapsed flamegraph lines.
    println!("\n--- profiler call tree (what /debug/profile serves) ---\n");
    print_profile(&obs::profile::tree(), 0);

    // Both sweeps were traced and slower than the (zero) threshold, so
    // the tail-keep ring retained them; the slowest one reconstructs
    // the run as a span tree, like `GET /v1/trace/recent` does.
    if let Some(slowest) = obs::slowest_traces().into_iter().max_by_key(|t| t.wall) {
        println!(
            "--- slowest retained trace: {} (request {} — {:.1} ms) ---\n",
            slowest.label,
            slowest.request_id,
            slowest.wall.as_secs_f64() * 1e3,
        );
        for root in slowest.roots() {
            print_trace_span(&slowest, root, 0);
        }
        println!();
    }

    println!("--- registry exposition (what /metrics serves) ---\n");
    print!("{}", obs::render());
}

fn print_profile(forest: &[obs::profile::ProfileNode], depth: usize) {
    for node in forest {
        println!(
            "{:indent$}{}  self={:.2}ms total={:.2}ms count={}",
            "",
            node.name,
            node.self_time.as_secs_f64() * 1e3,
            node.total_time.as_secs_f64() * 1e3,
            node.count,
            indent = depth * 2,
        );
        print_profile(&node.children, depth + 1);
    }
    if depth == 0 {
        println!();
    }
}

fn print_trace_span(trace: &obs::Trace, span: &obs::TraceSpan, depth: usize) {
    println!(
        "{:indent$}{}  +{:.2}ms for {:.2}ms",
        "",
        span.name,
        span.start.as_secs_f64() * 1e3,
        span.duration.as_secs_f64() * 1e3,
        indent = depth * 2,
    );
    for child in trace.children(span.id) {
        print_trace_span(trace, child, depth + 1);
    }
}
