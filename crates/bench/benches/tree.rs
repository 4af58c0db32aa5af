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

/// Heap offsets and stack depths a tree build rotates through.
/// `build_tree` allocates as it goes, and where its heap and stack data
/// land is fixed by whatever ran before: by the process's earlier
/// allocations, and by its environment's size. That alone moved
/// `balanced/80` by 40%, and `chain/320` between 39 and 62 µs, with the
/// code unchanged. A pad of a different size held across each build,
/// and a different number of frames below it, move both, so a median
/// averages placements (at the cost of one allocation and a few calls
/// per build). The periods are coprime, so the two rotations cross.
const PADS: usize = 16;
const DEPTHS: usize = 13;

/// Run `f` `depth` stack frames of at least 320 bytes deeper.
#[inline(never)]
fn deeper<R>(depth: usize, f: &mut dyn FnMut() -> R) -> R {
    let frame = black_box([0u8; 320]);
    let r = if depth == 0 {
        f()
    } else {
        deeper(depth - 1, f)
    };
    black_box(frame);
    r
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_build");
    for maps in [8u32, 80, 320] {
        let tl = timeline(maps);
        for (name, balance) in [("balanced", true), ("chain", false)] {
            let mut n = 0usize;
            g.bench_with_input(BenchmarkId::new(name, maps), &maps, |b, _| {
                b.iter(|| {
                    n = n.wrapping_add(1);
                    let pad = Vec::<u8>::with_capacity(1 + 1024 * (n % PADS));
                    let mut build = || build_tree(black_box(&tl), None, balance);
                    let tree = deeper(n % DEPTHS, &mut build);
                    drop(black_box(pad));
                    tree
                })
            });
        }
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
