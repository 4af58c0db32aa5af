//! Model-vs-simulator validation as a scenario: sweep input size and
//! scheduler policy, join the analytic estimates against simulated
//! ground truth, and print per-estimator error bands (the paper's §5.2
//! statistic) plus a CSV for downstream tooling.
//!
//! ```text
//! cargo run --release --example model_vs_sim
//! ```

use hadoop2_perf::scenario::{
    error_bands, render_report, run_scenario, to_csv, Backends, EstimatorKind, JobKind,
    ResultCache, Scenario,
};
use hadoop2_perf::sim::{SchedulerPolicy, GB, MB};

fn main() {
    let scenario = Scenario::new("model-vs-sim")
        .axis_input_bytes([512 * MB, GB, 2 * GB])
        .axis_schedulers([SchedulerPolicy::CapacityFifo, SchedulerPolicy::Fair])
        .axis_jobs([JobKind::WordCount])
        .axis_n_jobs([2usize])
        .axis_estimators(EstimatorKind::ALL)
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(3),
        });

    let cache = ResultCache::new();
    let sweep = run_scenario(&scenario, &cache);

    println!("{}", render_report(&sweep));

    for band in error_bands(&sweep) {
        println!(
            "{:<10} abs. relative error {} over {} points",
            band.estimator.name(),
            band.band.as_percent_range(),
            band.band.count
        );
    }

    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("model_vs_sim.csv");
        if std::fs::write(&path, to_csv(&sweep)).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }
}
