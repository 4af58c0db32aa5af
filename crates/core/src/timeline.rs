//! Timeline construction — the paper's Algorithm 1, extended to multiple
//! concurrent jobs.
//!
//! The timeline places every task of every job on a node, honoring YARN's
//! allocation rules as the paper models them (§4.2.2):
//!
//! * map containers are granted before reduce containers (priorities);
//! * each task goes to the node with the lowest occupancy rate —
//!   `min(TL)` in Algorithm 1 — implemented as the node whose container
//!   pool frees earliest (ties: fewer tasks, then lower id), kept at the
//!   root of a heap of nodes;
//! * with *slow start*, the shuffle of a reduce may begin at the end of
//!   the **first** map (`border := TL[min(TL)].et`); without it, at the
//!   end of the **last** map (`border := TL[max(TL)].et`);
//! * a reduce's shuffle duration grows by `m.sd/|R|` for every map placed
//!   on a *different* node (Algorithm 1 lines 14–18) — or is taken as a
//!   fixed class-level duration on later solver iterations, once the MVA
//!   has produced contention-adjusted class response times;
//! * jobs are served in FIFO order (single root Capacity-scheduler queue).
//!
//! Reduces are split into their **shuffle-sort** and **merge** segments so
//! the tree and the overlap factors see the paper's three task classes.

use crate::input::TaskClass;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// How a reduce's shuffle-sort duration is determined.
#[derive(Debug, Clone, Copy)]
pub enum ShuffleSpec {
    /// Algorithm 1 verbatim: `base + Σ_{m.an ≠ r.an} sd/|R|`.
    PerRemoteMap {
        /// `m.sd`: seconds to transfer one map's full output.
        sd: f64,
        /// Local (non-network) part of the shuffle-sort subtask.
        base: f64,
    },
    /// Fixed class-level duration (used once the MVA loop produces
    /// contention-adjusted response times).
    Fixed(f64),
}

/// Timeline-level description of one job.
#[derive(Debug, Clone)]
pub struct TimelineJob {
    /// Number of map tasks.
    pub num_maps: u32,
    /// Number of reduce tasks.
    pub num_reduces: u32,
    /// Duration of one map task.
    pub map_duration: f64,
    /// Duration of the merge subtask of one reduce.
    pub merge_duration: f64,
    /// Shuffle-sort duration rule.
    pub shuffle: ShuffleSpec,
}

/// Placement configuration.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Container-pool size per node (index = node id). The paper's
    /// `T = n × max(pMaxMapsPerNode, pMaxReducePerNode)` total.
    pub capacities: Vec<u32>,
    /// Whether reduces slow-start at the first map's end.
    pub slow_start: bool,
}

impl TimelineConfig {
    /// Homogeneous pools: `nodes` nodes with `per_node` containers each.
    pub fn homogeneous(nodes: usize, per_node: u32) -> Self {
        assert!(nodes > 0 && per_node > 0);
        TimelineConfig {
            capacities: vec![per_node; nodes],
            slow_start: true,
        }
    }
}

/// One placed task segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Owning job (workload index).
    pub job: u32,
    /// Task class of this segment.
    pub class: TaskClass,
    /// Task index within its class.
    pub index: u32,
    /// Node the segment runs on.
    pub node: u32,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

impl Segment {
    /// Segment duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The constructed timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All task segments, in placement order.
    pub segments: Vec<Segment>,
    /// Number of nodes used for placement.
    pub num_nodes: usize,
}

impl Timeline {
    /// Latest end time over all segments (0 when empty).
    pub fn makespan(&self) -> f64 {
        self.segments.iter().map(|s| s.end).fold(0.0, f64::max)
    }
}

/// Total-ordered f64 wrapper for the heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The node pools Algorithm 1 places tasks on.
#[derive(Debug, Default)]
struct Pools {
    /// Per node, a min-heap of its containers' free times.
    free_at: Vec<BinaryHeap<Reverse<OrdF64>>>,
    /// `min(TL)` at the root: nodes keyed by (earliest free time, tasks
    /// assigned, id) — the node with the lowest occupancy rate, ties
    /// broken by assignment count then id.
    order: BinaryHeap<Reverse<(OrdF64, u32, u32)>>,
}

impl Pools {
    /// Every container of every node free at time 0.
    fn reset(&mut self, capacities: &[u32]) {
        self.free_at.resize_with(capacities.len(), BinaryHeap::new);
        self.order.clear();
        for (id, (pool, &cap)) in self.free_at.iter_mut().zip(capacities).enumerate() {
            pool.clear();
            pool.extend((0..cap).map(|_| Reverse(OrdF64(0.0))));
            self.order.push(Reverse((OrdF64(0.0), 0, id as u32)));
        }
    }

    /// `min(TL)` and the time its earliest container frees.
    fn min(&self) -> (u32, f64) {
        let Reverse((free, _, node)) = *self.order.peek().expect("at least one node");
        (node, free.0)
    }

    /// Hold `min(TL)`'s earliest-free container until `end`.
    fn hold_until(&mut self, end: f64) {
        let mut root = self.order.peek_mut().expect("at least one node");
        let Reverse((_, assigned, node)) = *root;
        let pool = &mut self.free_at[node as usize];
        *pool.peek_mut().expect("pool is never empty") = Reverse(OrdF64(end));
        let earliest = pool.peek().expect("pool is never empty").0;
        *root = Reverse((earliest, assigned + 1, node));
    }
}

/// Builds timelines into storage it keeps, so that a caller rebuilding
/// one many times (the solver's A2, once per iteration) refills the node
/// pools and segments instead of allocating them. Each build equals
/// [`build_timeline`] on the same input, bit for bit.
#[derive(Debug, Default)]
pub struct TimelineBuilder {
    pools: Pools,
    /// The current job's maps placed on each node.
    maps_on: Vec<u32>,
    timeline: Timeline,
}

impl TimelineBuilder {
    /// Build the timeline for `jobs` (in FIFO submission order) on `cfg`,
    /// in place of the previous one.
    pub fn build(&mut self, cfg: &TimelineConfig, jobs: &[TimelineJob]) -> &Timeline {
        assert!(!cfg.capacities.is_empty());
        assert!(
            cfg.capacities.iter().all(|&c| c > 0),
            "empty container pool"
        );
        let TimelineBuilder {
            pools,
            maps_on,
            timeline,
        } = self;
        pools.reset(&cfg.capacities);
        maps_on.resize(cfg.capacities.len(), 0);
        timeline.num_nodes = cfg.capacities.len();
        let segments = &mut timeline.segments;
        segments.clear();

        for (jid, job) in jobs.iter().enumerate() {
            let jid = jid as u32;
            // Lines 4–6: place maps on the least-occupied nodes.
            maps_on.fill(0);
            let (mut first_end, mut last_end) = (f64::INFINITY, 0.0f64);
            for i in 0..job.num_maps {
                let (node, st) = pools.min();
                let et = st + job.map_duration;
                pools.hold_until(et);
                maps_on[node as usize] += 1;
                segments.push(Segment {
                    job: jid,
                    class: TaskClass::Map,
                    index: i,
                    node,
                    start: st,
                    end: et,
                });
                first_end = first_end.min(et);
                last_end = last_end.max(et);
            }

            // Lines 7–11: the slow-start border.
            let border = if job.num_maps == 0 {
                0.0
            } else if cfg.slow_start {
                first_end
            } else {
                last_end
            };

            // Lines 12–21: place reduces.
            for i in 0..job.num_reduces {
                let (node, free) = pools.min();
                let st = free.max(border);
                let shuffle_d = match job.shuffle {
                    ShuffleSpec::Fixed(d) => d,
                    ShuffleSpec::PerRemoteMap { sd, base } => {
                        let remote = job.num_maps - maps_on[node as usize];
                        base + remote as f64 * sd / job.num_reduces.max(1) as f64
                    }
                };
                let ss_end = st + shuffle_d;
                let et = ss_end + job.merge_duration;
                pools.hold_until(et);
                segments.push(Segment {
                    job: jid,
                    class: TaskClass::ShuffleSort,
                    index: i,
                    node,
                    start: st,
                    end: ss_end,
                });
                segments.push(Segment {
                    job: jid,
                    class: TaskClass::Merge,
                    index: i,
                    node,
                    start: ss_end,
                    end: et,
                });
            }
        }
        timeline
    }
}

/// Build the timeline for `jobs` (in FIFO submission order) on `cfg`.
pub fn build_timeline(cfg: &TimelineConfig, jobs: &[TimelineJob]) -> Timeline {
    let mut builder = TimelineBuilder::default();
    builder.build(cfg, jobs);
    builder.timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example (§3.1, Figures 6–7): n = 3 nodes with
    /// one container each, m = 4 maps, r = 1 reduce.
    fn running_example(slow_start: bool) -> Timeline {
        let cfg = TimelineConfig {
            capacities: vec![1; 3],
            slow_start,
        };
        let jobs = [TimelineJob {
            num_maps: 4,
            num_reduces: 1,
            map_duration: 10.0,
            merge_duration: 6.0,
            shuffle: ShuffleSpec::PerRemoteMap { sd: 2.0, base: 1.0 },
        }];
        build_timeline(&cfg, &jobs)
    }

    #[test]
    fn running_example_layout() {
        let tl = running_example(true);
        let maps: Vec<&Segment> = tl
            .segments
            .iter()
            .filter(|s| s.class == TaskClass::Map)
            .collect();
        assert_eq!(maps.len(), 4);
        // Three maps start at 0 on distinct nodes; the fourth queues.
        assert_eq!(maps[0].start, 0.0);
        assert_eq!(maps[1].start, 0.0);
        assert_eq!(maps[2].start, 0.0);
        assert_eq!(maps[3].start, 10.0);
        let first_three_nodes: Vec<u32> = maps[..3].iter().map(|m| m.node).collect();
        let mut sorted = first_three_nodes.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2]);

        // The reduce starts at the first map's end (slow start).
        let ss = tl
            .segments
            .iter()
            .find(|s| s.class == TaskClass::ShuffleSort)
            .unwrap();
        assert_eq!(ss.start, 10.0);
        // It shares no node with 3 of the 4 maps (m4 went to the reused
        // node, so exactly 3 maps are remote): 1 + 3·2/1 = 7.
        assert!((ss.duration() - 7.0).abs() < 1e-12);
        let merge = tl
            .segments
            .iter()
            .find(|s| s.class == TaskClass::Merge)
            .unwrap();
        assert_eq!(merge.start, ss.end);
        assert!((merge.duration() - 6.0).abs() < 1e-12);
        assert!((tl.makespan() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn no_slow_start_delays_shuffle() {
        let tl = running_example(false);
        let ss = tl
            .segments
            .iter()
            .find(|s| s.class == TaskClass::ShuffleSort)
            .unwrap();
        // Border = end of the last map (m4 at t=20).
        assert_eq!(ss.start, 20.0);
    }

    #[test]
    fn containers_are_respected() {
        // 1 node × 2 containers, 6 maps of 5s → 3 waves: starts 0,0,5,5,10,10.
        let cfg = TimelineConfig {
            capacities: vec![2],
            slow_start: true,
        };
        let jobs = [TimelineJob {
            num_maps: 6,
            num_reduces: 0,
            map_duration: 5.0,
            merge_duration: 0.0,
            shuffle: ShuffleSpec::Fixed(0.0),
        }];
        let tl = build_timeline(&cfg, &jobs);
        let mut starts: Vec<f64> = tl.segments.iter().map(|s| s.start).collect();
        starts.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(starts, vec![0.0, 0.0, 5.0, 5.0, 10.0, 10.0]);
        assert_eq!(tl.makespan(), 15.0);
    }

    #[test]
    fn fifo_places_second_job_after_first() {
        let cfg = TimelineConfig {
            capacities: vec![1; 2],
            slow_start: true,
        };
        let job = TimelineJob {
            num_maps: 2,
            num_reduces: 0,
            map_duration: 10.0,
            merge_duration: 0.0,
            shuffle: ShuffleSpec::Fixed(0.0),
        };
        let tl = build_timeline(&cfg, &[job.clone(), job]);
        let first_start = |j| {
            tl.segments
                .iter()
                .filter(|s| s.job == j)
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min)
        };
        assert_eq!(first_start(0), 0.0);
        assert_eq!(first_start(1), 10.0);
    }

    #[test]
    fn fixed_shuffle_duration() {
        let cfg = TimelineConfig {
            capacities: vec![2; 2],
            slow_start: true,
        };
        let jobs = [TimelineJob {
            num_maps: 2,
            num_reduces: 2,
            map_duration: 4.0,
            merge_duration: 3.0,
            shuffle: ShuffleSpec::Fixed(5.0),
        }];
        let tl = build_timeline(&cfg, &jobs);
        for ss in tl
            .segments
            .iter()
            .filter(|s| s.class == TaskClass::ShuffleSort)
        {
            assert!((ss.duration() - 5.0).abs() < 1e-12);
            assert_eq!(ss.start, 4.0); // border = first map end
        }
        assert_eq!(tl.makespan(), 12.0);
    }

    #[test]
    fn map_only_multi_node_balance() {
        let cfg = TimelineConfig::homogeneous(4, 2);
        let jobs = [TimelineJob {
            num_maps: 8,
            num_reduces: 0,
            map_duration: 1.0,
            merge_duration: 0.0,
            shuffle: ShuffleSpec::Fixed(0.0),
        }];
        let tl = build_timeline(&cfg, &jobs);
        // 8 maps on 8 containers: all start at 0, spread 2 per node.
        assert!(tl.segments.iter().all(|s| s.start == 0.0));
        for n in 0..4u32 {
            assert_eq!(tl.segments.iter().filter(|s| s.node == n).count(), 2);
        }
    }
}
