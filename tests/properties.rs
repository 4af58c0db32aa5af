//! Property-based tests (proptest) over the model's core invariants.

use hadoop2_perf::model::input::TaskClass;
use hadoop2_perf::model::timeline::{build_timeline, ShuffleSpec, TimelineConfig, TimelineJob};
use hadoop2_perf::model::tree::{build_tree, waves};
use hadoop2_perf::model::{solve, ClusterInputs, JobClassInputs, ModelInput, ModelOptions};
use proptest::prelude::*;

fn arb_timeline_job() -> impl Strategy<Value = TimelineJob> {
    (1u32..20, 0u32..6, 1.0f64..100.0, 0.5f64..50.0, 0.0f64..30.0).prop_map(
        |(m, r, map_d, merge_d, ss_d)| TimelineJob {
            num_maps: m,
            num_reduces: r,
            map_duration: map_d,
            merge_duration: merge_d,
            shuffle: ShuffleSpec::Fixed(ss_d),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No node ever runs more concurrent segments than it has containers.
    #[test]
    fn timeline_respects_container_capacity(
        jobs in prop::collection::vec(arb_timeline_job(), 1..4),
        nodes in 1usize..6,
        cap in 1u32..5,
        slow_start in any::<bool>(),
    ) {
        let cfg = TimelineConfig { capacities: vec![cap; nodes], slow_start };
        let tl = build_timeline(&cfg, &jobs);
        // Sweep events per node. Reduce segments (shuffle-sort + merge)
        // share one container, so count by (job, class-group, index).
        let mut events: Vec<(f64, i32, u32)> = Vec::new();
        for s in &tl.segments {
            // Merge shares the shuffle-sort container; only count the
            // shuffle-sort start and the merge end for reduces.
            match s.class {
                TaskClass::Map => {
                    events.push((s.start, 1, s.node));
                    events.push((s.end, -1, s.node));
                }
                TaskClass::ShuffleSort => events.push((s.start, 1, s.node)),
                TaskClass::Merge => events.push((s.end, -1, s.node)),
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut per_node = vec![0i32; nodes];
        for (_, delta, node) in events {
            per_node[node as usize] += delta;
            prop_assert!(
                per_node[node as usize] <= cap as i32,
                "node {node} exceeded {cap} containers"
            );
            prop_assert!(per_node[node as usize] >= 0);
        }
    }

    /// FIFO: a later job's first task never starts before an earlier
    /// job's first task.
    #[test]
    fn timeline_is_fifo(
        jobs in prop::collection::vec(arb_timeline_job(), 2..4),
        nodes in 1usize..4,
    ) {
        let cfg = TimelineConfig { capacities: vec![2; nodes], slow_start: true };
        let tl = build_timeline(&cfg, &jobs);
        let first_start = |j| {
            tl.segments
                .iter()
                .filter(|s| s.job == j)
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min)
        };
        for j in 1..jobs.len() as u32 {
            prop_assert!(first_start(j) >= first_start(j - 1) - 1e-9);
        }
    }

    /// Waves partition the segments, preserve start-time ordering across
    /// waves, and the wave tree has exactly one leaf per segment.
    #[test]
    fn waves_partition_and_tree_covers(
        job in arb_timeline_job(),
        nodes in 1usize..5,
        cap in 1u32..4,
    ) {
        let cfg = TimelineConfig { capacities: vec![cap; nodes], slow_start: true };
        let tl = build_timeline(&cfg, &[job]);
        let idx: Vec<usize> = (0..tl.segments.len()).collect();
        let ws = waves(&tl, idx.clone());
        let flat: Vec<usize> = ws.iter().flatten().copied().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, idx.clone(), "waves must partition the segments");
        for w in ws.windows(2) {
            let max_start_prev = w[0].iter().map(|&i| tl.segments[i].start).fold(f64::MIN, f64::max);
            let min_start_next = w[1].iter().map(|&i| tl.segments[i].start).fold(f64::MAX, f64::min);
            prop_assert!(min_start_next >= max_start_prev - 1e-9);
        }
        let tree = build_tree(&tl, None, true).unwrap();
        prop_assert_eq!(tree.num_leaves(), tl.segments.len());
        let chain = build_tree(&tl, None, false).unwrap();
        prop_assert!(tree.depth() <= chain.depth());
    }

    /// The solver always terminates with a positive, finite estimate, and
    /// the estimate never falls below the longest single class duration.
    #[test]
    fn solver_output_is_sane(
        m in 1u32..24,
        r in 0u32..6,
        nodes in 1usize..6,
        cpu_demand in 1.0f64..60.0,
        disk_demand in 0.1f64..10.0,
    ) {
        let job = JobClassInputs {
            num_maps: m,
            num_reduces: r,
            demands: [
                [cpu_demand, disk_demand, 0.1],
                [0.0, 0.2, 1.0],
                [0.5, 2.0, 0.3],
            ],
            initial_response: [cpu_demand + disk_demand, 1.5, 3.0],
            cv: [0.3, 0.5, 0.3],
            shuffle_per_map: 0.2,
            overhead: [1.0, 1.0, 0.0],
        };
        let input = ModelInput {
            cluster: ClusterInputs {
                num_nodes: nodes,
                cpu_per_node: 4,
                disk_per_node: 1,
                max_maps_per_node: 3,
                max_reduce_per_node: 3,
                reserved_containers: 1,
            },
            jobs: vec![job],
            options: ModelOptions::default(),
        };
        let out = solve(&input);
        prop_assert!(out.avg_response.is_finite());
        prop_assert!(out.avg_response > 0.0);
        prop_assert!(out.iterations >= 1);
        // Response at least covers one map's contention-adjusted duration.
        prop_assert!(out.avg_response >= out.durations[0][0] * 0.99);
    }
}
