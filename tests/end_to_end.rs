//! End-to-end validation: the analytic model against the simulated
//! cluster, on configurations small enough for CI.

use hadoop2_perf::model::{estimate_mix, relative_error, Calibration, MixClass, ModelOptions};
use hadoop2_perf::sim::profile::profile_job;
use hadoop2_perf::sim::workload::wordcount;
use hadoop2_perf::sim::{eval_mix, SimConfig, GB, MB};

fn point(nodes: usize, input: u64, jobs: usize) -> (f64, f64, f64) {
    let cfg = SimConfig::paper_testbed(nodes);
    let spec = wordcount(input, nodes as u32);
    let measured = eval_mix(&cfg, &[(spec.clone(), jobs)], &[], 3).median_response;
    let (profile, _) = profile_job(&spec, &cfg);
    let est = estimate_mix(
        &cfg,
        &[MixClass {
            spec,
            count: jobs,
            profile: Some(profile),
        }],
        &[],
        &ModelOptions::default(),
        &Calibration::default(),
    );
    (measured, est.fork_join, est.tripathi)
}

#[test]
fn model_tracks_simulator_within_reason() {
    let (measured, fj, tr) = point(4, GB, 1);
    let fj_err = relative_error(fj, measured);
    let tr_err = relative_error(tr, measured);
    // The paper's qualitative claims: both estimators overestimate, and
    // stay within a moderate band of the measurement.
    assert!(
        fj_err > -0.05,
        "fork/join should not underestimate: {fj_err:.2}"
    );
    assert!(
        tr_err > -0.05,
        "tripathi should not underestimate: {tr_err:.2}"
    );
    assert!(fj_err < 0.40, "fork/join error too large: {fj_err:.2}");
    assert!(tr_err < 0.50, "tripathi error too large: {tr_err:.2}");
}

#[test]
fn node_scaling_shape_holds() {
    // Fig. 12's shape: more nodes → lower response, in both the
    // measurement and the model.
    let (m4, f4, _) = point(4, 2 * GB, 1);
    let (m8, f8, _) = point(8, 2 * GB, 1);
    assert!(
        m8 < m4,
        "measured should drop with nodes: {m4:.1} → {m8:.1}"
    );
    assert!(
        f8 < f4,
        "estimate should drop with nodes: {f4:.1} → {f8:.1}"
    );
}

#[test]
fn job_scaling_shape_holds() {
    // Fig. 14's shape: more concurrent jobs → higher average response.
    let (m1, f1, _) = point(4, GB, 1);
    let (m3, f3, _) = point(4, GB, 3);
    assert!(m3 > 1.2 * m1, "measured contention: {m1:.1} → {m3:.1}");
    assert!(f3 > 1.3 * f1, "modeled contention: {f1:.1} → {f3:.1}");
}

#[test]
fn more_maps_do_not_break_the_model() {
    // Fig. 15's configuration idea: halving the block size doubles the
    // maps; the model must still converge and stay in band.
    let cfg = {
        let mut c = SimConfig::paper_testbed(4);
        c.block_size = 64 * MB;
        c
    };
    let spec = wordcount(GB, 4); // 16 maps at 64 MB
    let measured = eval_mix(&cfg, &[(spec.clone(), 1)], &[], 3).median_response;
    let (profile, _) = profile_job(&spec, &cfg);
    let est = estimate_mix(
        &cfg,
        &[MixClass {
            spec,
            count: 1,
            profile: Some(profile),
        }],
        &[],
        &ModelOptions::default(),
        &Calibration::default(),
    );
    assert!(est.fork_join_detail.converged);
    let err = relative_error(est.fork_join, measured);
    assert!(err.abs() < 0.45, "64 MB-block error out of band: {err:.2}");
}

#[test]
fn baselines_are_worse_than_the_model_on_average() {
    // Herodotou's static sum ignores queueing entirely; across a node
    // sweep its error should exceed fork/join's.
    let mut fj_total = 0.0;
    let mut hero_total = 0.0;
    for (nodes, input) in [(4usize, GB), (8, GB), (4, 5 * GB)] {
        let cfg = SimConfig::paper_testbed(nodes);
        let spec = wordcount(input, nodes as u32);
        let measured = eval_mix(&cfg, &[(spec.clone(), 1)], &[], 3).median_response;
        let est = estimate_mix(
            &cfg,
            &[MixClass {
                spec,
                count: 1,
                profile: None,
            }],
            &[],
            &ModelOptions::default(),
            &Calibration::default(),
        );
        fj_total += relative_error(est.fork_join, measured).abs();
        hero_total += relative_error(est.herodotou, measured).abs();
    }
    assert!(
        fj_total < hero_total,
        "fork/join ({:.2}) should beat the static baseline ({:.2})",
        fj_total / 3.0,
        hero_total / 3.0
    );
}
