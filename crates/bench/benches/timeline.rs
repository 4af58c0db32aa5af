//! Timeline-construction cost — the paper's §4.3 claim that building the
//! timeline is `O(C × T)` for `C` tasks and `T` containers, and therefore
//! never dominates the MVA. Each input is timed twice: a fresh
//! `build_timeline`, and a rebuild by one kept `TimelineBuilder`, as the
//! solver's A2 runs it on every iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr2_model::timeline::{
    build_timeline, ShuffleSpec, TimelineBuilder, TimelineConfig, TimelineJob,
};
use std::hint::black_box;

fn job(maps: u32, reduces: u32) -> TimelineJob {
    TimelineJob {
        num_maps: maps,
        num_reduces: reduces,
        map_duration: 40.0,
        merge_duration: 20.0,
        shuffle: ShuffleSpec::Fixed(5.0),
    }
}

fn bench_tasks(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline_tasks");
    for maps in [8u32, 40, 80, 320, 1280] {
        let cfg = TimelineConfig::homogeneous(8, 4);
        let jobs = [job(maps, 8)];
        g.bench_with_input(BenchmarkId::new("maps", maps), &maps, |b, _| {
            b.iter(|| build_timeline(black_box(&cfg), black_box(&jobs)))
        });
        g.bench_with_input(BenchmarkId::new("maps_reused", maps), &maps, |b, _| {
            let mut builder = TimelineBuilder::default();
            b.iter(|| builder.build(black_box(&cfg), black_box(&jobs)).makespan())
        });
    }
    g.finish();
}

fn bench_containers(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline_containers");
    for nodes in [4usize, 16, 64] {
        let cfg = TimelineConfig::homogeneous(nodes, 4);
        let jobs = [job(320, 8)];
        g.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, _| {
            b.iter(|| build_timeline(black_box(&cfg), black_box(&jobs)))
        });
        g.bench_with_input(BenchmarkId::new("nodes_reused", nodes), &nodes, |b, _| {
            let mut builder = TimelineBuilder::default();
            b.iter(|| builder.build(black_box(&cfg), black_box(&jobs)).makespan())
        });
    }
    g.finish();
}

fn bench_multi_job(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline_jobs");
    for n_jobs in [1usize, 4, 16] {
        let cfg = TimelineConfig::homogeneous(8, 4);
        let jobs: Vec<TimelineJob> = (0..n_jobs).map(|_| job(40, 8)).collect();
        g.bench_with_input(BenchmarkId::new("jobs", n_jobs), &n_jobs, |b, _| {
            b.iter(|| build_timeline(black_box(&cfg), black_box(&jobs)))
        });
        g.bench_with_input(BenchmarkId::new("jobs_reused", n_jobs), &n_jobs, |b, _| {
            let mut builder = TimelineBuilder::default();
            b.iter(|| builder.build(black_box(&cfg), black_box(&jobs)).makespan())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_tasks, bench_containers, bench_multi_job
}
criterion_main!(benches);
