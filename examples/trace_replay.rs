//! Trace replay: parse a Hadoop job-history (Rumen-style JSON-lines)
//! trace and sweep cluster size with the *replayed* production mix —
//! every job arrives at its recorded submission offset instead of the
//! synthetic all-at-t=0 batch.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use std::path::Path;

use hadoop2_perf::scenario::{
    class_error_bands, run_scenario, Backends, JobTrace, ResultCache, Scenario,
};

fn main() {
    let path = Path::new("results/traces/sample_mix.jsonl");
    let trace = JobTrace::load(path).expect("committed sample trace parses");
    println!(
        "replaying `{}`: {} jobs over {:.0}s of recorded arrivals\n",
        path.display(),
        trace.len(),
        trace.span_ms() as f64 / 1000.0
    );
    for j in &trace.jobs {
        println!(
            "  t+{:>4.0}s  {:<22} {:>5} MB",
            j.submit_offset_ms as f64 / 1000.0,
            j.id,
            j.input_bytes / (1024 * 1024),
        );
    }

    // The trace becomes one workload mix whose entries carry the
    // recorded offsets; the cluster-size axis asks the what-if question
    // "how would this exact morning have gone on more nodes?".
    let scenario = Scenario::new("trace-replay")
        .axis_nodes([4usize, 6, 8])
        .axis_mixes([trace.to_mix()])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(2),
        });
    let sweep = run_scenario(&scenario, &ResultCache::new());

    println!("\n| nodes | mean response (s) |  model (s) | makespan meas/est (s) |");
    println!("|---|---|---|---|");
    for p in &sweep.points {
        println!(
            "| {} | {:>8.1} | {:>8.1} | {:>6.1} / {:>6.1} |",
            p.point.nodes,
            p.measured().unwrap(),
            p.estimate().unwrap(),
            p.measured_makespan().unwrap(),
            p.estimate_makespan().unwrap(),
        );
    }

    // Response time and makespan genuinely diverge under trace
    // arrivals: the mix occupies the cluster from the first submission
    // to well past the last one, while each job's own response stays
    // short.
    let p = &sweep.points[0];
    println!(
        "\nat 4 nodes the replay spans {:.0}s of makespan but the mean job \
         responds in {:.0}s — staggered arrivals keep the cluster busy \
         without the all-at-once contention a batch submission would show.",
        p.measured_makespan().unwrap(),
        p.measured().unwrap(),
    );

    println!("\nper-class error bands (model vs simulator, all points):");
    for b in class_error_bands(&sweep) {
        println!(
            "  {:<18} {:<10} {}",
            b.class,
            b.estimator.name(),
            b.band.as_percent_range()
        );
    }
}
