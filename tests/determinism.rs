//! Reproducibility: identical seeds produce identical simulations, and
//! the analytic model is seed-free.

use hadoop2_perf::model::{estimate_mix, Calibration, MixClass, ModelOptions};
use hadoop2_perf::sim::workload::wordcount;
use hadoop2_perf::sim::{ClusterSim, SimConfig, MB};

#[test]
fn simulator_is_bit_reproducible() {
    let run = || {
        let mut sim = ClusterSim::new(SimConfig {
            seed: 1234,
            ..SimConfig::paper_testbed(3)
        });
        for _ in 0..2 {
            sim.add_job(wordcount(512 * MB, 3), 0.0);
        }
        sim.run()
            .iter()
            .map(|r| (r.response_time(), r.finished_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn simulator_events_are_reproducible() {
    let events = |seed| {
        let mut sim = ClusterSim::new(SimConfig {
            seed,
            ..SimConfig::paper_testbed(2)
        });
        sim.add_job(wordcount(256 * MB, 2), 0.0);
        sim.run();
        sim.events_processed()
    };
    assert_eq!(events(7), events(7));
}

#[test]
fn model_is_deterministic() {
    let est = || {
        let cfg = SimConfig::paper_testbed(4);
        let spec = wordcount(MB * 1024, 4);
        let e = estimate_mix(
            &cfg,
            &[MixClass {
                spec,
                count: 2,
                profile: None,
            }],
            &[],
            &ModelOptions::default(),
            &Calibration::default(),
        );
        (e.fork_join, e.tripathi, e.aria, e.herodotou)
    };
    assert_eq!(est(), est());
}
