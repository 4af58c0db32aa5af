//! Capacity planning with the analytic model — the use case the paper's
//! introduction motivates ("critical decision making in workload
//! management and resource capacity planning").
//!
//! Question: how many nodes does a 5 GB WordCount need to finish within a
//! deadline, and how much cheaper is answering that with the model than
//! with experiments?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use hadoop2_perf::model::{estimate_mix, Calibration, MixClass, ModelOptions};
use hadoop2_perf::sim::workload::wordcount_5gb;
use hadoop2_perf::sim::SimConfig;
use std::time::Instant;

fn main() {
    let deadline = 200.0; // seconds
    println!("Find the smallest cluster that runs 5 GB WordCount in ≤ {deadline} s\n");
    println!("| nodes | fork/join est (s) | tripathi est (s) | meets deadline |");
    println!("|---|---|---|---|");

    let t0 = Instant::now();
    let mut chosen = None;
    for nodes in 2..=16usize {
        let cfg = SimConfig::paper_testbed(nodes);
        let job = wordcount_5gb(nodes as u32);
        let est = estimate_mix(
            &cfg,
            &[MixClass {
                spec: job,
                count: 1,
                profile: None,
            }],
            &[],
            &ModelOptions::default(),
            &Calibration::default(),
        );
        let ok = est.fork_join <= deadline;
        println!(
            "| {nodes} | {:.1} | {:.1} | {} |",
            est.fork_join,
            est.tripathi,
            if ok { "yes" } else { "no" }
        );
        if ok && chosen.is_none() {
            chosen = Some(nodes);
        }
    }
    let model_cost = t0.elapsed();

    match chosen {
        Some(n) => println!("\n→ provision {n} nodes (fork/join estimate)."),
        None => println!("\n→ no cluster size up to 16 nodes meets the deadline."),
    }
    println!(
        "Answering with the analytic model took {:.2?} for 15 cluster sizes — \
         the paper's point about estimates 'at significantly lower cost than \
         simulation and experimental evaluation'.",
        model_cost
    );
}
