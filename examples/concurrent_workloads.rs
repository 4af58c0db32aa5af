//! Concurrent-workload analysis through the scenario engine's mix
//! axis: how does the average job response time degrade as more
//! identical WordCount jobs share the cluster (the paper's Figure 14
//! scenario), and what happens when a Grep interloper joins the queue?
//!
//! ```text
//! cargo run --release --example concurrent_workloads
//! ```

use hadoop2_perf::scenario::{
    run_scenario, Backends, JobKind, MixEntry, ResultCache, Scenario, WorkloadMix,
};
use hadoop2_perf::sim::GB;

fn main() {
    // The multiprogramming ramp (1–4 identical jobs) as four 1-entry
    // mixes, plus a heterogeneous point: 3 WordCounts joined by a Grep.
    let mut mixes: Vec<WorkloadMix> = (1..=4)
        .map(|n| WorkloadMix::single(JobKind::WordCount, 2 * GB, n))
        .collect();
    mixes.push(WorkloadMix::new([
        MixEntry::new(JobKind::WordCount, 2 * GB, 3),
        MixEntry::new(JobKind::Grep, 2 * GB, 1),
    ]));

    let scenario = Scenario::new("concurrent-workloads")
        .axis_mixes(mixes)
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(3),
        });
    let cache = ResultCache::new();
    let sweep = run_scenario(&scenario, &cache);

    println!("2 GB jobs on 4 nodes (FIFO queue):\n");
    println!("| mix | measured avg (s) | fork/join (s) | err | per-class estimates |");
    println!("|---|---|---|---|---|");
    for p in &sweep.points {
        let measured = p.measured().expect("simulator ran");
        let est = p.estimate().expect("model ran");
        let per_class: Vec<String> = p
            .model
            .as_ref()
            .expect("model ran")
            .per_class
            .iter()
            .zip(&p.point.mix.entries)
            .map(|(c, e)| format!("{} {:.0}", e.label(), c.fork_join))
            .collect();
        println!(
            "| {} | {measured:.1} | {est:.1} | {:+.1}% | {} |",
            p.point.mix.name(),
            hadoop2_perf::model::relative_error(est, measured) * 100.0,
            per_class.join(", ")
        );
    }
    println!(
        "\nLater jobs in the FIFO queue wait for earlier ones, so the average \
         grows superlinearly with N — and in the mixed point the cheap Grep \
         class rides the same contention the model resolves per class."
    );
}
