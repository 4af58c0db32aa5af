//! Full A1–A6 solver cost for the paper's experiment configurations —
//! each estimator alone, and both from the joint loop (`solver/Both`)
//! that every estimate runs — plus the observability guard: the same
//! solve with metrics recording on and off. Both cases sit in the
//! committed baseline, so the ≤25% regression gate holds the
//! registry's hot-path cost to the noise floor — instrumentation must
//! stay effectively free.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapreduce_sim::workload::wordcount;
use mapreduce_sim::{SimConfig, GB};
use mr2_model::input::Estimator;
use mr2_model::{model_input, solve, solve_both, Calibration, ModelOptions};
use std::hint::black_box;

fn bench_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver");
    let cases = [
        ("fig10_1gb_1job_4n", 4usize, GB, 1usize),
        ("fig12_5gb_1job_4n", 4, 5 * GB, 1),
        ("fig13_5gb_4jobs_8n", 8, 5 * GB, 4),
    ];
    for (name, nodes, input, jobs) in cases {
        let cfg = SimConfig::paper_testbed(nodes);
        let spec = wordcount(input, nodes as u32);
        for est in [Estimator::ForkJoin, Estimator::Tripathi] {
            let inp = model_input(
                &cfg,
                &spec,
                jobs,
                ModelOptions {
                    estimator: est,
                    ..ModelOptions::default()
                },
                &Calibration::default(),
                None,
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{est:?}"), name),
                &inp,
                |b, inp| b.iter(|| solve(black_box(inp))),
            );
        }
        // Both estimators from one joint loop, as every estimate does.
        let inp = model_input(
            &cfg,
            &spec,
            jobs,
            ModelOptions::default(),
            &Calibration::default(),
            None,
        );
        g.bench_with_input(BenchmarkId::new("Both", name), &inp, |b, inp| {
            b.iter(|| solve_both(black_box(inp)))
        });
    }
    g.finish();
}

fn bench_registry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("registry");
    let cfg = SimConfig::paper_testbed(4);
    let spec = wordcount(GB, 4);
    let inp = model_input(
        &cfg,
        &spec,
        1,
        ModelOptions::default(),
        &Calibration::default(),
        None,
    );
    // Recording on is the process default; the disabled case turns the
    // solver's counter adds into single relaxed loads. Near-identical
    // medians for the pair are the evidence that instrumentation costs
    // nothing on the solve path.
    g.bench_with_input(
        BenchmarkId::new("recording_on", "fig10_1gb_1job_4n"),
        &inp,
        |b, inp| {
            mr2_obs::set_enabled(true);
            b.iter(|| solve(black_box(inp)))
        },
    );
    g.bench_with_input(
        BenchmarkId::new("recording_off", "fig10_1gb_1job_4n"),
        &inp,
        |b, inp| {
            mr2_obs::set_enabled(false);
            b.iter(|| solve(black_box(inp)));
            mr2_obs::set_enabled(true);
        },
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solver, bench_registry_overhead
}
criterion_main!(benches);
