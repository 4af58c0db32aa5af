//! Container conservation, read from the simulator's task records: a
//! seeded sweep over both scheduler policies, cluster sizes, job mixes
//! and arrival patterns, checking that no node ever runs more tasks
//! than it has containers, that the cluster's busy time fits in its
//! capacity over the makespan, and that every record's timestamps run
//! forward.

use mapreduce_sim::workload::{grep, terasort, wordcount};
use mapreduce_sim::{ClusterSim, JobResult, JobSpec, SchedulerPolicy, SimConfig, MB};

/// Job `k` of a configuration seeded `seed`: the three workloads in
/// rotation, 256 MB to 1 GB of input.
fn job(k: usize, seed: u64, nodes: usize) -> JobSpec {
    let i = k + seed as usize;
    let input = 256 * MB * (1 + i as u64 % 4);
    match i % 3 {
        0 => wordcount(input, nodes as u32),
        1 => terasort(input, nodes as u32),
        _ => grep(input),
    }
}

/// Panics unless the run's records conserve containers and time;
/// returns the cluster's busy time over its capacity × makespan.
fn check(cfg: &SimConfig, results: &[JobResult], label: &str) -> f64 {
    for r in results {
        assert!(
            r.submitted_at <= r.am_started_at && r.am_started_at <= r.finished_at,
            "{label}: job {} runs backwards: submitted {}, AM started {}, finished {}",
            r.job,
            r.submitted_at,
            r.am_started_at,
            r.finished_at
        );
        for t in &r.tasks {
            let stamps = [
                t.scheduled_at,
                t.assigned_at,
                t.started_at,
                t.io_done_at,
                t.cpu_done_at,
                t.finished_at,
            ];
            assert!(
                stamps.windows(2).all(|w| w[0] <= w[1]),
                "{label}: job {} {:?} timestamps decrease: {stamps:?}",
                r.job,
                t.task
            );
        }
    }

    // Each task holds its container over [assigned_at, finished_at).
    let per_node = cfg.containers_per_node() as usize;
    for node in 0..cfg.nodes {
        let mut edges: Vec<(f64, i32)> = results
            .iter()
            .flat_map(|r| &r.tasks)
            .filter(|t| t.node.0 as usize == node)
            .flat_map(|t| [(t.assigned_at, 1), (t.finished_at, -1)])
            .collect();
        // Releases sort before grants at the same instant.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut held = 0;
        for (at, delta) in edges {
            held += delta;
            assert!(
                held as usize <= per_node,
                "{label}: node {node} runs {held} tasks at {at}s on {per_node} containers"
            );
        }
    }

    let start = results
        .iter()
        .map(|r| r.submitted_at)
        .fold(f64::INFINITY, f64::min);
    let end = results.iter().map(|r| r.finished_at).fold(0.0, f64::max);
    let busy: f64 = results
        .iter()
        .flat_map(|r| &r.tasks)
        .map(|t| t.finished_at - t.assigned_at)
        .sum();
    let capacity = cfg.total_containers() as f64 * (end - start);
    assert!(
        busy <= capacity,
        "{label}: {busy}s of task time exceeds {capacity}s of container capacity"
    );
    busy / capacity
}

#[test]
fn task_records_conserve_containers_under_both_policies() {
    let (mut runs, mut records, mut worst) = (0, 0, 0.0f64);
    for scheduler in [SchedulerPolicy::CapacityFifo, SchedulerPolicy::Fair] {
        for nodes in [1, 2, 3, 5, 8] {
            for jobs in 1..=3 {
                for seed in 1..=4 {
                    for stagger in [0.0, 30.0] {
                        let cfg = SimConfig {
                            scheduler,
                            seed,
                            ..SimConfig::paper_testbed(nodes)
                        };
                        // As many batch jobs as containers deadlock: every
                        // container goes to an application master.
                        if jobs >= cfg.total_containers() as usize {
                            continue;
                        }
                        let mut sim = ClusterSim::new(cfg.clone());
                        for k in 0..jobs {
                            sim.add_job(job(k, seed, nodes), k as f64 * stagger);
                        }
                        let results = sim.run();
                        let label =
                            format!("{scheduler:?} {nodes}n {jobs} jobs seed {seed} +{stagger}s");
                        worst = worst.max(check(&cfg, &results, &label));
                        runs += 1;
                        records += results.iter().map(|r| r.tasks.len()).sum::<usize>();
                    }
                }
            }
        }
    }
    println!("{runs} runs, {records} task records, worst busy/capacity {worst:.2}");
    assert_eq!(runs, 240);
}
