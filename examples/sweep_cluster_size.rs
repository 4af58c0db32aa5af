//! A three-axis what-if sweep — cluster size × multiprogramming level ×
//! estimator — through the scenario engine's batch runner,
//! run twice to demonstrate the content-hashed result cache.
//!
//! ```text
//! cargo run --release --example sweep_cluster_size
//! ```

use hadoop2_perf::scenario::{
    render_report, run_scenario, Backends, EstimatorKind, ResultCache, Scenario,
};
use hadoop2_perf::sim::GB;
use std::time::Instant;

fn main() {
    // "How does mean response time move if we grow the cluster, pile on
    // concurrent jobs, or trust a different estimator?" — one spec.
    let scenario = Scenario::new("sweep-cluster-size")
        .axis_nodes([2usize, 4, 6, 8])
        .axis_n_jobs([1usize, 2, 4])
        .axis_estimators([EstimatorKind::ForkJoin, EstimatorKind::Tripathi])
        .axis_input_bytes([GB])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(3),
        });
    println!(
        "scenario `{}` expands to {} points\n",
        scenario.name,
        scenario.num_points()
    );

    let cache = ResultCache::new();

    let t = Instant::now();
    let sweep = run_scenario(&scenario, &cache);
    let cold = t.elapsed();
    println!("{}", render_report(&sweep));
    let s = cache.stats();
    println!(
        "first run : {cold:?} — cache {} hits / {} misses / {} entries",
        s.hits, s.misses, s.entries
    );

    // Same spec again: every point is answered from the cache.
    let t = Instant::now();
    let again = run_scenario(&scenario, &cache);
    let warm = t.elapsed();
    let s = cache.stats();
    println!(
        "second run: {warm:?} — cache {} hits / {} misses / {} entries",
        s.hits, s.misses, s.entries
    );
    assert_eq!(
        sweep.points, again.points,
        "cache returns identical results"
    );
}
