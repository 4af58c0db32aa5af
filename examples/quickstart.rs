//! Quickstart: estimate a WordCount job's response time on a 4-node
//! Hadoop 2.x cluster and check the estimate against the simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hadoop2_perf::model::{estimate_mix, relative_error, Calibration, MixClass, ModelOptions};
use hadoop2_perf::sim::profile::profile_job;
use hadoop2_perf::sim::workload::wordcount_1gb;
use hadoop2_perf::sim::{eval_mix, SimConfig};

fn main() {
    // A cluster like the paper's testbed: 4 nodes, 1 SATA disk and GbE
    // per node, 4 task containers per node, Hadoop 2.x defaults.
    let cfg = SimConfig::paper_testbed(4);

    // WordCount over 1 GB of input (8 × 128 MB splits), 4 reducers.
    let job = wordcount_1gb(4);

    // "Measured": the DES cluster simulator, median of 5 seeded runs —
    // the stand-in for a physical Hadoop deployment.
    let measured = eval_mix(&cfg, &[(job.clone(), 1)], &[], 5).median_response;

    // Profile one run to refine task-duration CVs (the paper's job
    // profile history), then query the analytic model.
    let (profile, _) = profile_job(&job, &cfg);
    // A workload is a mix of concurrent job classes; here, one class
    // of one job.
    let est = estimate_mix(
        &cfg,
        &[MixClass {
            spec: job,
            count: 1,
            profile: Some(profile),
        }],
        &[],
        &ModelOptions::default(),
        &Calibration::default(),
    );

    println!("WordCount 1 GB on 4 nodes, 1 job:");
    println!("  measured (simulator median) : {measured:8.1} s");
    for (name, v) in [
        ("fork/join model", est.fork_join),
        ("Tripathi model", est.tripathi),
        ("ARIA baseline", est.aria),
        ("Herodotou baseline", est.herodotou),
    ] {
        println!(
            "  {name:28}: {v:8.1} s   ({:+.1}%)",
            relative_error(v, measured) * 100.0
        );
    }
    println!(
        "\nmodel solve took {} MVA iterations; tree depth {}",
        est.fork_join_detail.iterations, est.fork_join_detail.tree_depths[0]
    );
}
