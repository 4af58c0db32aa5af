//! Model inputs — the paper's Table 2 plus solver options.

/// The paper's task classes (§4.1): map, shuffle-sort (shuffle + partial
/// sorts), merge (final sort + reduce function + write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Map tasks.
    Map,
    /// Shuffle-sort subtask of a reduce.
    ShuffleSort,
    /// Merge subtask of a reduce.
    Merge,
}

impl TaskClass {
    /// The three classes in canonical order.
    pub const ALL: [TaskClass; 3] = [TaskClass::Map, TaskClass::ShuffleSort, TaskClass::Merge];

    /// Canonical index (0, 1, 2).
    pub fn index(self) -> usize {
        match self {
            TaskClass::Map => 0,
            TaskClass::ShuffleSort => 1,
            TaskClass::Merge => 2,
        }
    }
}

/// The paper's service-center types (§4.1): "We consider 2 types of
/// service centers (resources): CPU&Memory and Network" — we additionally
/// carry the disk, which the configuration parameters (`diskPerNode`,
/// Table 2) imply and which Herodotou's phase costs require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Center {
    /// CPU & memory of a node.
    CpuMem,
    /// Disk(s) of a node.
    Disk,
    /// The cluster network.
    Network,
}

impl Center {
    /// The center types in canonical order.
    pub const ALL: [Center; 3] = [Center::CpuMem, Center::Disk, Center::Network];
}

/// Per-class workload statistics of one job (Table 2's workload
/// parameters, plus CVs for the Tripathi estimator).
#[derive(Debug, Clone)]
pub struct JobClassInputs {
    /// `m`: number of map tasks.
    pub num_maps: u32,
    /// `r`: number of reduce tasks.
    pub num_reduces: u32,
    /// `S_{i,k}`: unloaded residence time (service demand) of one class-i
    /// task at each center type, seconds: `[class][center]`.
    pub demands: [[f64; 3]; 3],
    /// Initial average response time per class (from a profile or the
    /// Herodotou bootstrap — §4.2.1).
    pub initial_response: [f64; 3],
    /// Duration coefficient of variation per class.
    pub cv: [f64; 3],
    /// Per-map shuffle transfer time `sd` (seconds to move one map's
    /// output partition for *all* reduces) — Algorithm 1's `m.sd`.
    pub shuffle_per_map: f64,
    /// Fixed scheduling/launch overhead per class (container localization,
    /// JVM start, heartbeat latency), modeled as a delay center so the MVA
    /// never queues it.
    pub overhead: [f64; 3],
}

/// Cluster-side inputs (Table 2's configuration parameters).
#[derive(Debug, Clone)]
pub struct ClusterInputs {
    /// `numNodes`.
    pub num_nodes: usize,
    /// `cpuPerNode`: CPU servers (cores) per node.
    pub cpu_per_node: u32,
    /// `diskPerNode`: disks per node.
    pub disk_per_node: u32,
    /// `MaxMapPerNode`: max map containers per node.
    pub max_maps_per_node: u32,
    /// `MaxReducePerNode`: max reduce containers per node.
    pub max_reduce_per_node: u32,
    /// Containers reserved cluster-wide (e.g. one AM container per
    /// concurrent job); spread round-robin over nodes when building
    /// timeline pools.
    pub reserved_containers: u32,
}

impl ClusterInputs {
    /// Total containers in execution `T = n × max(maps, reduces)` (§4.3).
    pub fn total_containers(&self) -> u32 {
        self.num_nodes as u32 * self.max_maps_per_node.max(self.max_reduce_per_node)
    }
}

/// Which tree estimator to use (§4.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Fork/join-based: `R = H_k · max(children)` \[10, 12\].
    ForkJoin,
    /// Tripathi-based: Erlang/hyperexponential distribution algebra \[4\].
    Tripathi,
}

/// Solver options.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Tree estimator.
    pub estimator: Estimator,
    /// Whether reduces slow-start at the first finished map (Algorithm 1
    /// lines 7–11). `false` = reduces start after the last map.
    pub slow_start: bool,
    /// Balance P-subtrees to cut tree depth (§4.2.2). The paper's §5.2
    /// shows disabling this increases error with many maps.
    pub balance_tree: bool,
    /// Iteration cap for the A2–A6 loop.
    pub max_iterations: usize,
    /// Apply the Mak–Lundstrom overlap factors in the MVA (§4.2.3).
    /// `false` degrades to plain Bard–Schweitzer (every class sees every
    /// queue) — the ablation showing why the factors matter.
    pub use_overlap_factors: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            estimator: Estimator::ForkJoin,
            slow_start: true,
            balance_tree: true,
            max_iterations: 200,
            use_overlap_factors: true,
        }
    }
}

/// The full model input: a cluster plus `N` concurrent jobs.
#[derive(Debug, Clone)]
pub struct ModelInput {
    /// Cluster configuration.
    pub cluster: ClusterInputs,
    /// One entry per concurrent job.
    pub jobs: Vec<JobClassInputs>,
    /// Options.
    pub options: ModelOptions,
}

impl ModelInput {
    /// Validate consistency; panics with a description otherwise.
    pub fn validate(&self) {
        assert!(self.cluster.num_nodes > 0);
        assert!(self.cluster.max_maps_per_node > 0);
        assert!(!self.jobs.is_empty(), "need at least one job");
        for (i, j) in self.jobs.iter().enumerate() {
            assert!(j.num_maps > 0, "job {i} has no maps");
            for c in 0..3 {
                assert!(
                    j.initial_response[c] >= 0.0 && j.cv[c] >= 0.0,
                    "job {i} class {c}: bad stats"
                );
                for k in 0..3 {
                    assert!(j.demands[c][k] >= 0.0, "job {i}: negative demand");
                }
            }
        }
        assert!(self.options.max_iterations > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_job() -> JobClassInputs {
        JobClassInputs {
            num_maps: 4,
            num_reduces: 1,
            demands: [[10.0, 2.0, 0.0], [0.0, 0.5, 3.0], [1.0, 2.0, 0.5]],
            initial_response: [12.0, 3.5, 3.5],
            cv: [0.1, 0.3, 0.2],
            shuffle_per_map: 0.5,
            overhead: [2.0, 0.0, 2.0],
        }
    }

    #[test]
    fn validate_accepts_sane_input() {
        let input = ModelInput {
            cluster: ClusterInputs {
                num_nodes: 3,
                cpu_per_node: 12,
                disk_per_node: 1,
                max_maps_per_node: 1,
                max_reduce_per_node: 1,
                reserved_containers: 0,
            },
            jobs: vec![tiny_job()],
            options: ModelOptions::default(),
        };
        input.validate();
        assert_eq!(input.cluster.total_containers(), 3);
    }

    #[test]
    #[should_panic(expected = "no maps")]
    fn validate_rejects_zero_maps() {
        let mut j = tiny_job();
        j.num_maps = 0;
        ModelInput {
            cluster: ClusterInputs {
                num_nodes: 1,
                cpu_per_node: 1,
                disk_per_node: 1,
                max_maps_per_node: 1,
                max_reduce_per_node: 1,
                reserved_containers: 0,
            },
            jobs: vec![j],
            options: ModelOptions::default(),
        }
        .validate();
    }

    #[test]
    fn class_indices() {
        for (i, c) in TaskClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
