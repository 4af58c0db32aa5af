//! Heterogeneous workload mix through the scenario engine: WordCount
//! (CPU + shuffle heavy), TeraSort (I/O heavy) and Grep (map heavy)
//! share one 4-node cluster *concurrently* — one `WorkloadMix` point —
//! and the multi-class model is compared per class against the
//! simulator.
//!
//! ```text
//! cargo run --release --example workload_mix
//! ```

use hadoop2_perf::scenario::{
    class_error_bands, run_scenario, Backends, JobKind, MixEntry, ResultCache, Scenario,
    WorkloadMix,
};
use hadoop2_perf::sim::GB;

fn main() {
    let mix = WorkloadMix::new([
        MixEntry::new(JobKind::WordCount, GB, 2),
        MixEntry::new(JobKind::TeraSort, GB, 1),
        MixEntry::new(JobKind::Grep, GB, 1),
    ]);
    println!("mix `{}` on 4 nodes — model vs simulator:\n", mix.name());
    let scenario = Scenario::new("workload-mix")
        .axis_mixes([mix])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(3),
        });
    let sweep = run_scenario(&scenario, &ResultCache::new());
    let p = &sweep.points[0];
    let model = p.model.as_ref().expect("analytic backend ran");
    let sim = p.sim.as_ref().expect("simulator backend ran");

    println!("| class | measured (s) | fork/join (s) | err |");
    println!("|---|---|---|---|");
    for (i, e) in p.point.mix.entries.iter().enumerate() {
        let measured = sim.per_class_median[i];
        let est = model.per_class[i].fork_join;
        println!(
            "| {}x {} | {measured:.1} | {est:.1} | {:+.1}% |",
            e.count,
            e.label(),
            hadoop2_perf::model::relative_error(est, measured) * 100.0,
        );
    }
    println!(
        "| aggregate | {:.1} | {:.1} | {:+.1}% |",
        sim.median_response,
        model.fork_join,
        hadoop2_perf::model::relative_error(model.fork_join, sim.median_response) * 100.0,
    );

    println!("\nper-class error bands (all four series):");
    for b in class_error_bands(&sweep) {
        println!(
            "  {:<18} {:<10} {}",
            b.class,
            b.estimator.name(),
            b.band.as_percent_range()
        );
    }
    println!(
        "\nGrep's reduce side is negligible; TeraSort's merge dominates; \
         WordCount splits between map CPU and the shuffle — three different \
         bottlenecks contending on identical hardware, and the multi-class \
         queueing model tracks each one separately."
    );
}
