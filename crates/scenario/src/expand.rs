//! Sweep expansion: [`Scenario`] → concrete [`EvalPoint`]s.
//!
//! Expansion order is deterministic and documented: cartesian sweeps
//! enumerate axes with the *rightmost axis fastest* in the order
//! `nodes → block_mb → container_mb → schedulers → workload →
//! arrivals → arrival_rate → map_failure_prob → slow_node_factor →
//! estimators`, where
//! a `Grid` workload contributes its three lists in the order
//! `jobs → input_bytes → n_jobs` and a `Mixes` workload contributes one
//! list; zip sweeps walk all axes in lock-step with length-1 axes
//! broadcast. The `index` of every point is its position in that order,
//! so serial and parallel runs agree on numbering.

use crate::spec::{EvalPoint, Scenario, SweepMode};

/// Expand a scenario into its evaluation points.
///
/// Panics (via [`Scenario::validate`]) on empty axes, zip-length
/// mismatches, out-of-range failure probabilities, or invalid reduce
/// counts.
pub fn expand(s: &Scenario) -> Vec<EvalPoint> {
    s.validate();
    match s.sweep {
        SweepMode::Cartesian => expand_cartesian(s),
        SweepMode::Zip => expand_zip(s),
    }
}

fn expand_cartesian(s: &Scenario) -> Vec<EvalPoint> {
    let mixes = s.workload_values();
    let mut out = Vec::with_capacity(s.num_points());
    let mut index = 0;
    for &nodes in &s.nodes {
        for &block_mb in &s.block_mb {
            for &container_mb in &s.container_mb {
                for &scheduler in &s.schedulers {
                    for mix in &mixes {
                        for arrivals in &s.arrivals {
                            for &arrival_rate in &s.arrival_rate {
                                for &map_failure_prob in &s.map_failure_prob {
                                    for &slow_node_factor in &s.slow_node_factor {
                                        for &estimator in &s.estimators {
                                            out.push(EvalPoint {
                                                index,
                                                nodes,
                                                block_mb,
                                                container_mb,
                                                scheduler,
                                                mix: mix.resolve(nodes),
                                                arrivals: arrivals.clone(),
                                                arrival_rate,
                                                map_failure_prob,
                                                slow_node_factor,
                                                estimator,
                                                seed: s.seed,
                                            });
                                            index += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn expand_zip(s: &Scenario) -> Vec<EvalPoint> {
    let n = s.num_points();
    // Length-1 axes broadcast across the whole sweep. The workload's
    // mix at zip position `i` comes from `Scenario::zip_workload_at`
    // (a `Grid` zips its three lists independently, an explicit mix
    // list zips as one axis).
    let pick = |i: usize, len: usize| if len == 1 { 0 } else { i };
    (0..n)
        .map(|i| {
            let nodes = s.nodes[pick(i, s.nodes.len())];
            EvalPoint {
                index: i,
                nodes,
                block_mb: s.block_mb[pick(i, s.block_mb.len())],
                container_mb: s.container_mb[pick(i, s.container_mb.len())],
                scheduler: s.schedulers[pick(i, s.schedulers.len())],
                mix: s.zip_workload_at(i).resolve(nodes),
                arrivals: s.arrivals[pick(i, s.arrivals.len())].clone(),
                arrival_rate: s.arrival_rate[pick(i, s.arrival_rate.len())],
                map_failure_prob: s.map_failure_prob[pick(i, s.map_failure_prob.len())],
                slow_node_factor: s.slow_node_factor[pick(i, s.slow_node_factor.len())],
                estimator: s.estimators[pick(i, s.estimators.len())],
                seed: s.seed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EstimatorKind, JobKind, MixEntry, ReducePolicy, WorkloadMix};
    use mapreduce_sim::GB;

    #[test]
    fn cartesian_grid_is_exact() {
        let s = Scenario::new("grid")
            .axis_nodes([4usize, 8])
            .axis_n_jobs([1usize, 2, 3])
            .axis_estimators([EstimatorKind::ForkJoin, EstimatorKind::Tripathi]);
        let pts = expand(&s);
        assert_eq!(pts.len(), 2 * 3 * 2);
        // Every combination appears exactly once.
        for (ni, &nodes) in [4usize, 8].iter().enumerate() {
            for (ji, &n_jobs) in [1usize, 2, 3].iter().enumerate() {
                for (ei, &est) in [EstimatorKind::ForkJoin, EstimatorKind::Tripathi]
                    .iter()
                    .enumerate()
                {
                    let expected_index = ni * 6 + ji * 2 + ei;
                    let matching: Vec<_> = pts
                        .iter()
                        .filter(|p| {
                            p.nodes == nodes && p.total_jobs() == n_jobs && p.estimator == est
                        })
                        .collect();
                    assert_eq!(matching.len(), 1, "{nodes}/{n_jobs}/{est:?}");
                    assert_eq!(matching[0].index, expected_index, "rightmost-fastest order");
                }
            }
        }
        // Indices are the positions.
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn cartesian_mix_axis_is_exact() {
        let mixes = [
            WorkloadMix::single(JobKind::WordCount, GB, 1),
            WorkloadMix::new([
                MixEntry::new(JobKind::WordCount, GB, 1),
                MixEntry::new(JobKind::TeraSort, GB, 1),
            ]),
            WorkloadMix::new([
                MixEntry::new(JobKind::WordCount, GB, 2),
                MixEntry::new(JobKind::TeraSort, GB, 1),
                MixEntry::new(JobKind::Grep, GB, 1),
            ]),
        ];
        let s = Scenario::new("mixgrid")
            .axis_nodes([2usize, 4])
            .axis_mixes(mixes.to_vec())
            .axis_map_failure_prob([0.0, 0.2])
            .axis_estimators([EstimatorKind::ForkJoin, EstimatorKind::Tripathi]);
        assert_eq!(s.num_points(), 2 * 3 * 2 * 2);
        let pts = expand(&s);
        assert_eq!(pts.len(), 24, "mix axis participates in the product");
        // The mix axis sits between schedulers and map_failure_prob:
        // rightmost fastest means estimator, then failure, then mix.
        assert_eq!(pts[0].mix.entries.len(), 1);
        assert_eq!(pts[0].map_failure_prob, 0.0);
        assert_eq!(pts[1].estimator, EstimatorKind::Tripathi);
        assert_eq!(pts[2].map_failure_prob, 0.2);
        assert_eq!(pts[4].mix.entries.len(), 2);
        assert_eq!(pts[8].mix.entries.len(), 3);
        assert_eq!(pts[8].mix.total_jobs(), 4);
        assert_eq!(pts[12].nodes, 4);
        // Reduce policies resolve against each point's node count.
        assert_eq!(pts[0].mix.entries[0].reduces, 2);
        assert_eq!(pts[12].mix.entries[0].reduces, 4);
    }

    #[test]
    fn zip_walks_in_lockstep_with_broadcast() {
        let s = Scenario::new("zip")
            .sweep_mode(SweepMode::Zip)
            .axis_nodes([4usize, 6, 8])
            .axis_input_bytes([GB, 2 * GB, 5 * GB])
            .axis_n_jobs([2usize]); // broadcast
        let pts = expand(&s);
        assert_eq!(pts.len(), 3);
        for (i, (nodes, input)) in [(4, GB), (6, 2 * GB), (8, 5 * GB)].iter().enumerate() {
            assert_eq!(pts[i].nodes, *nodes);
            assert_eq!(pts[i].mix.entries[0].input_bytes, *input);
            assert_eq!(pts[i].total_jobs(), 2);
        }

        // A wire-level zip sweep sends separate `input_bytes` and
        // `n_jobs` lists of one length. The grid workload's lists zip
        // independently, position by position: 3 points, not the 9 a
        // crossed list of 1-entry mixes would give.
        let s = Scenario::new("zip-lists")
            .sweep_mode(SweepMode::Zip)
            .axis_nodes([4usize, 6, 8])
            .axis_input_bytes([GB, 2 * GB, 5 * GB])
            .axis_n_jobs([1usize, 2, 3]);
        let pts = expand(&s);
        assert_eq!(pts.len(), 3);
        for (i, (input, n_jobs)) in [(GB, 1), (2 * GB, 2), (5 * GB, 3)].iter().enumerate() {
            assert_eq!(pts[i].mix.entries.len(), 1);
            assert_eq!(pts[i].mix.entries[0].input_bytes, *input);
            assert_eq!(pts[i].total_jobs(), *n_jobs);
        }
    }

    #[test]
    fn zip_mix_axis_is_one_axis() {
        let s = Scenario::new("zipmix")
            .sweep_mode(SweepMode::Zip)
            .axis_nodes([2usize, 4])
            .axis_mixes([
                WorkloadMix::single(JobKind::Grep, GB, 1),
                WorkloadMix::new([
                    MixEntry::new(JobKind::WordCount, GB, 1),
                    MixEntry::new(JobKind::TeraSort, GB, 1),
                ]),
            ]);
        let pts = expand(&s);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].mix.entries[0].job, JobKind::Grep);
        assert_eq!(pts[1].mix.entries.len(), 2);
        assert_eq!(pts[1].mix.entries[0].reduces, 4, "resolved at 4 nodes");
    }

    #[test]
    fn reduce_policy_follows_node_axis() {
        let s = Scenario::new("r")
            .axis_nodes([4usize, 8])
            .reduce_policy(ReducePolicy::PerNode);
        let pts = expand(&s);
        assert_eq!(pts[0].mix.entries[0].reduces, 4);
        assert_eq!(pts[1].mix.entries[0].reduces, 8);
        let s = s.reduce_policy(ReducePolicy::Fixed(2));
        let pts = expand(&s);
        assert!(pts.iter().all(|p| p.mix.entries[0].reduces == 2));
    }

    #[test]
    fn all_job_kinds_expand() {
        let s =
            Scenario::new("jobs").axis_jobs([JobKind::WordCount, JobKind::TeraSort, JobKind::Grep]);
        let pts = expand(&s);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            for spec in p.job_specs() {
                spec.validate();
            }
        }
    }
}
