//! Discrete-event simulator throughput: wall time and events processed
//! per full job execution. The 32-node cases are the largest corner of
//! perfbench's `sweep_sim` grid, once per scheduler policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mapreduce_sim::workload::wordcount;
use mapreduce_sim::SchedulerPolicy::{self, CapacityFifo, Fair};
use mapreduce_sim::{ClusterSim, SimConfig, GB};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    let cases: [(&str, usize, u64, usize, SchedulerPolicy); 5] = [
        ("1gb_1job_4n", 4, GB, 1, CapacityFifo),
        ("5gb_1job_4n", 4, 5 * GB, 1, CapacityFifo),
        ("5gb_4jobs_8n", 8, 5 * GB, 4, CapacityFifo),
        ("8gb_4jobs_32n", 32, 8 * GB, 4, CapacityFifo),
        ("8gb_4jobs_32n_fair", 32, 8 * GB, 4, Fair),
    ];
    for (name, nodes, input, jobs, scheduler) in cases {
        g.bench_with_input(BenchmarkId::new("run", name), &(), |b, _| {
            b.iter(|| {
                let mut sim = ClusterSim::new(SimConfig {
                    scheduler,
                    ..SimConfig::paper_testbed(nodes)
                });
                for _ in 0..jobs {
                    sim.add_job(wordcount(input, nodes as u32), 0.0);
                }
                black_box(sim.run())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator
}
criterion_main!(benches);
