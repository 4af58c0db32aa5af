//! End-to-end mix throughput: a heterogeneous workload mix under
//! staggered arrivals, evaluated by the simulator across seeded
//! repetitions (each rep a fresh `ClusterSim`) and by the analytic
//! model across a sweep of schedules (memoized endpoint solves).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapreduce_sim::workload::{grep, terasort, wordcount};
use mapreduce_sim::{JobSpec, SimConfig, GB, MB};
use mr2_model::{estimate_mix, Calibration, MixClass, ModelOptions};
use std::hint::black_box;

fn mix(nodes: u32) -> Vec<(JobSpec, usize)> {
    vec![
        (wordcount(GB, nodes), 2),
        (terasort(GB, nodes), 1),
        (grep(512 * MB), 1),
    ]
}

/// Staggered submission offsets (seconds), one per job of the mix.
const SUBMITS: [f64; 4] = [0.0, 45.0, 90.0, 150.0];

/// A small sweep of staggered schedules: the analytic bench evaluates
/// all of them per iteration (a realistic λ-sweep shape, and enough
/// work per iteration for a stable median at memo-hit speeds).
fn schedules() -> Vec<[f64; 4]> {
    (0..8)
        .map(|i| {
            let stretch = 1.0 + i as f64 * 0.25;
            [0.0, 45.0 * stretch, 90.0 * stretch, 150.0 * stretch]
        })
        .collect()
}

fn bench_mix_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("mix_throughput");

    // Simulator ground truth: the mix under staggered arrivals, one
    // fresh simulator per repetition.
    for (name, nodes, reps) in [("sim_4n_3reps", 4usize, 3usize), ("sim_8n_5reps", 8, 5)] {
        let cfg = SimConfig::paper_testbed(nodes);
        let classes = mix(nodes as u32);
        g.bench_with_input(BenchmarkId::new("run", name), &(), |b, _| {
            b.iter(|| black_box(mapreduce_sim::eval_mix(&cfg, &classes, &SUBMITS, reps)))
        });
    }

    // Analytic estimates of the same mix across a sweep of staggered
    // schedules: every schedule shares the class endpoint solves, so
    // the sweep pays for each distinct solve once via the solve memo.
    let cfg = SimConfig::paper_testbed(4);
    let classes: Vec<MixClass> = mix(4)
        .into_iter()
        .map(|(spec, count)| MixClass {
            spec,
            count,
            profile: None,
        })
        .collect();
    let opts = ModelOptions::default();
    let cal = Calibration::default();
    let sweep = schedules();
    g.bench_with_input(
        BenchmarkId::new("run", "model_4n_staggered"),
        &(),
        |b, _| {
            b.iter(|| {
                for submits in &sweep {
                    black_box(estimate_mix(&cfg, &classes, submits, &opts, &cal));
                }
            })
        },
    );

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_mix_throughput
}
criterion_main!(benches);
