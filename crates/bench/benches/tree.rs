//! Precedence-tree construction and balancing cost (§4.2.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr2_model::timeline::{build_timeline, ShuffleSpec, Timeline, TimelineConfig, TimelineJob};
use mr2_model::tree::{build_tree, waves, Waves};
use std::hint::black_box;

fn timeline(maps: u32) -> Timeline {
    build_timeline(
        &TimelineConfig::homogeneous(8, 4),
        &[TimelineJob {
            num_maps: maps,
            num_reduces: 8,
            map_duration: 40.0,
            merge_duration: 20.0,
            shuffle: ShuffleSpec::Fixed(5.0),
        }],
    )
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_build");
    for maps in [8u32, 80, 320] {
        let tl = timeline(maps);
        g.bench_with_input(BenchmarkId::new("balanced", maps), &maps, |b, _| {
            b.iter(|| build_tree(black_box(&tl), None, true))
        });
        g.bench_with_input(BenchmarkId::new("chain", maps), &maps, |b, _| {
            b.iter(|| build_tree(black_box(&tl), None, false))
        });
    }
    g.finish();
}

fn bench_waves(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_waves");
    for maps in [80u32, 1280] {
        let tl = timeline(maps);
        let idx: Vec<usize> = (0..tl.segments.len()).collect();
        g.bench_with_input(BenchmarkId::new("segments", maps), &maps, |b, _| {
            b.iter(|| waves(black_box(&tl), black_box(idx.clone())))
        });
        // The solver's form: one kept flat buffer, regrouped in place.
        g.bench_with_input(BenchmarkId::new("flat_reused", maps), &maps, |b, _| {
            let mut ws = Waves::default();
            b.iter(|| {
                ws.rebuild(black_box(&tl), 1);
                ws.job_start(0)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_build, bench_waves
}
criterion_main!(benches);
