//! Cross-crate pipeline tests: HDFS → YARN → MapReduce simulator →
//! profile → calibration → model, exercised through the public facade.

use hadoop2_perf::hdfs::{splits_for_file, Namespace, Topology};
use hadoop2_perf::model::timeline::{build_timeline, ShuffleSpec, TimelineConfig, TimelineJob};
use hadoop2_perf::model::tree::build_tree;
use hadoop2_perf::model::{job_inputs, model_input, solve, Calibration, ModelOptions};
use hadoop2_perf::sim::profile::{profile_job, MeasuredProfile};
use hadoop2_perf::sim::workload::wordcount;
use hadoop2_perf::sim::{ClusterSim, SimConfig, GB, MB};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn hdfs_splits_feed_the_map_count() {
    let topo = Topology::single_rack(4);
    let mut ns = Namespace::new(3);
    let mut rng = SmallRng::seed_from_u64(1);
    let file = ns.create_file(&topo, "/in", GB, 128 * MB, None, &mut rng);
    let splits = splits_for_file(file);
    assert_eq!(splits.len(), 8);

    let spec = wordcount(GB, 4);
    let cfg = SimConfig::paper_testbed(4);
    let inputs = job_inputs(&cfg, &spec, &Calibration::default(), None);
    assert_eq!(inputs.num_maps as usize, splits.len());
}

#[test]
fn simulator_profile_feeds_the_model() {
    let cfg = SimConfig::paper_testbed(2);
    let spec = wordcount(512 * MB, 2);
    let (profile, result) = profile_job(&spec, &cfg);
    assert_eq!(profile.num_maps, 4);
    assert!(profile.response_time > 0.0);

    let input = model_input(
        &cfg,
        &spec,
        1,
        ModelOptions::default(),
        &Calibration::default(),
        Some(&profile),
    );
    // The measured map CV flows into the model (floored by calibration).
    assert!(input.jobs[0].cv[0] >= Calibration::default().cv[0]);
    let solved = solve(&input);
    assert!(solved.converged);
    // The model estimate lands in the same order of magnitude as the run.
    let ratio = solved.avg_response / result.response_time();
    assert!(
        (0.5..2.5).contains(&ratio),
        "model {:.1} vs run {:.1}",
        solved.avg_response,
        result.response_time()
    );
}

#[test]
fn profile_from_any_result_is_consistent() {
    let cfg = SimConfig::paper_testbed(2);
    let spec = wordcount(256 * MB, 1);
    let mut sim = ClusterSim::new(cfg);
    sim.add_job(spec, 0.0);
    let results = sim.run();
    let p = MeasuredProfile::from_result(&results[0]);
    assert_eq!(p.num_maps, 2);
    assert_eq!(p.num_reduces, 1);
    assert!(p.map.mean > 0.0);
    assert!((p.response_time - results[0].response_time()).abs() < 1e-12);
}

#[test]
fn model_timeline_matches_simulator_in_contention_free_case() {
    // One map, one node, no jitter: the simulator's map duration should be
    // close to the model's unloaded map demand + overheads.
    let mut cfg = SimConfig::paper_testbed(1);
    cfg.jitter_cv = 0.0;
    let spec = wordcount(128 * MB, 0);
    let (profile, _) = profile_job(&spec, &cfg);
    let inputs = job_inputs(&cfg, &spec, &Calibration::default(), None);
    let unloaded: f64 = inputs.demands[0].iter().sum();
    let rel = (profile.map.mean - unloaded).abs() / unloaded;
    assert!(
        rel < 0.10,
        "sim map {:.1}s vs unloaded model demand {:.1}s",
        profile.map.mean,
        unloaded
    );
}

#[test]
fn running_example_tree_is_reproducible_through_the_facade() {
    let tl = build_timeline(
        &TimelineConfig {
            capacities: vec![1; 3],
            slow_start: true,
        },
        &[TimelineJob {
            num_maps: 4,
            num_reduces: 1,
            map_duration: 10.0,
            merge_duration: 6.0,
            shuffle: ShuffleSpec::PerRemoteMap { sd: 2.0, base: 1.0 },
        }],
    );
    let tree = build_tree(&tl, None, true).unwrap();
    assert_eq!(tree.num_leaves(), 6);
    assert_eq!(tl.makespan(), 23.0);
}
