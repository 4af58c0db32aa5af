//! The serve layer's own CPU work on a cache-hit estimate: decoding the
//! request body and encoding the reply, on fixed inputs.
//!
//! `reply_encode/tree/*` builds the `BTreeMap` reply tree and renders it
//! (`point_json` + `stamp_reply` + `render`); `reply_encode/writer/*` is
//! the ordered writer the server sends (`estimate_reply`). Both encode
//! the same evaluated points, and the bench checks that they agree byte
//! for byte before timing them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr2_scenario::{evaluate_point, ResultCache};
use mr2_serve::api;
use std::hint::black_box;

/// One estimate body per reply shape: a single class, a three-class
/// mix, and an open-arrival point (whose model carries `open`).
const BODIES: [(&str, &str); 3] = [
    (
        "single",
        r#"{"nodes":8,"mix":[{"job":"terasort","input_bytes":2147483648,"count":2}]}"#,
    ),
    (
        "mix",
        r#"{"nodes":8,"arrivals":{"staggered_ms":30000},"mix":[
            {"job":"wordcount","input_bytes":1073741824,"count":2},
            {"job":"terasort","input_bytes":2147483648},
            {"job":"grep","input_bytes":4294967296,"count":4}]}"#,
    ),
    (
        "open",
        r#"{"nodes":8,"arrival_rate":0.00005,
            "mix":[{"job":"wordcount","input_bytes":2147483648}]}"#,
    ),
];

fn tree_reply(p: &mr2_scenario::PointResult) -> String {
    let mut tree = api::point_json(p);
    api::stamp_reply(&mut tree, &[]);
    tree.render()
}

fn bench_encode(c: &mut Criterion) {
    let cache = ResultCache::new();
    let mut g = c.benchmark_group("reply_encode");
    for (name, body) in BODIES {
        let r = api::parse_estimate_request(body).expect("bench body decodes");
        let point = evaluate_point(&r.point, &r.backends, &cache);
        assert_eq!(api::estimate_reply(&point, &[]).body, tree_reply(&point));
        g.bench_with_input(BenchmarkId::new("tree", name), &point, |b, p| {
            b.iter(|| tree_reply(black_box(p)))
        });
        g.bench_with_input(BenchmarkId::new("writer", name), &point, |b, p| {
            b.iter(|| api::estimate_reply(black_box(p), &[]).body)
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("request_decode");
    for (name, body) in &BODIES[..2] {
        g.bench_with_input(BenchmarkId::from_parameter(name), body, |b, body| {
            b.iter(|| api::parse_estimate_request(black_box(body)).expect("bench body decodes"))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_encode, bench_decode
}
criterion_main!(benches);
