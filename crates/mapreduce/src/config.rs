//! Cluster and simulator configuration.
//!
//! Defaults mirror the paper's testbed (§5.1): nodes with 2× Xeon E5-2630L
//! v2 (12 physical cores), 128 GB RAM, one SATA disk, gigabit Ethernet —
//! and stock Hadoop 2.x settings (8 containers of 1 GB / 1 vcore per node,
//! 5% reduce slow start, 1 s AM heartbeat).

use yarn_sim::ResourceVector;

/// Which RM scheduler the simulated cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Capacity scheduler with a single root queue — FIFO across
    /// applications; the paper's assumed configuration.
    #[default]
    CapacityFifo,
    /// Max–min fair sharing across applications.
    Fair,
}

/// Everything the simulator needs to know about the cluster and Hadoop
/// configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Worker node count (the paper sweeps 4, 6, 8).
    pub nodes: usize,
    /// Resources each NodeManager advertises. Calibrated to 4 task
    /// containers per node so that measured multi-job contention matches
    /// the paper's reported slowdowns (see EXPERIMENTS.md).
    pub node_capacity: ResourceVector,
    /// Task container size (stock: 1024 MB / 1 vcore).
    pub container_size: ResourceVector,
    /// MRAppMaster container size.
    pub am_container_size: ResourceVector,
    /// Whether the AM occupies a container (true on a real cluster; turning
    /// it off matches the analytic model's simplification).
    pub include_am_container: bool,
    /// Physical cores per node backing the CPU fair-share resource.
    pub cpu_cores: f64,
    /// Aggregate disk bandwidth per node, bytes/s.
    pub disk_bw: f64,
    /// NIC bandwidth per node, bytes/s.
    pub nic_bw: f64,
    /// HDFS replication factor.
    pub replication: usize,
    /// HDFS block size in bytes (also the input split size).
    pub block_size: u64,
    /// AM ↔ RM heartbeat period, seconds.
    pub heartbeat: f64,
    /// Container localization + JVM start latency, seconds.
    pub container_launch_delay: f64,
    /// Time from application submission to the AM's first ask, seconds.
    pub am_startup_delay: f64,
    /// Fraction of maps that must complete before reduces are requested
    /// (`mapreduce.job.reduce.slowstart.completedmaps`, default 0.05).
    pub slowstart: f64,
    /// Coefficient of variation of per-phase work jitter (0 = deterministic).
    pub jitter_cv: f64,
    /// Probability that a map attempt fails mid-read and is re-executed
    /// (YARN re-requests a container for the retry).
    pub map_failure_prob: f64,
    /// Straggler injection: node 0's CPU, disk, and NIC run this factor
    /// *slower* than the rest of the cluster (1.0 = homogeneous, the
    /// default). Tasks placed there straggle, extending job tails the
    /// way one degraded machine does on a real cluster; the analytic
    /// model assumes homogeneous nodes and ignores it.
    pub slow_node_factor: f64,
    /// RM scheduler policy.
    pub scheduler: SchedulerPolicy,
    /// RNG seed; two runs with equal config and seed are identical.
    pub seed: u64,
}

/// Mebibyte, in bytes.
pub const MB: u64 = 1024 * 1024;
/// Gibibyte, in bytes.
pub const GB: u64 = 1024 * MB;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 4,
            node_capacity: ResourceVector::new(4096, 4),
            container_size: ResourceVector::new(1024, 1),
            am_container_size: ResourceVector::new(1024, 1),
            include_am_container: true,
            cpu_cores: 12.0,
            disk_bw: 120.0e6,
            nic_bw: 125.0e6,
            replication: 3,
            block_size: 128 * MB,
            heartbeat: 1.0,
            container_launch_delay: 2.0,
            am_startup_delay: 3.0,
            slowstart: 0.05,
            jitter_cv: 0.28,
            map_failure_prob: 0.0,
            slow_node_factor: 1.0,
            scheduler: SchedulerPolicy::default(),
            seed: 1,
        }
    }
}

impl SimConfig {
    /// Config matching the paper's testbed with `nodes` workers.
    pub fn paper_testbed(nodes: usize) -> Self {
        SimConfig {
            nodes,
            ..SimConfig::default()
        }
    }

    /// Max task containers that fit on one node (the paper's
    /// `pMaxMapsPerNode`).
    pub fn containers_per_node(&self) -> u32 {
        self.node_capacity.count_fitting(&self.container_size)
    }

    /// Total task containers in the cluster (ignoring AM overhead).
    pub fn total_containers(&self) -> u32 {
        self.containers_per_node() * self.nodes as u32
    }

    /// Sanity-check invariants; panics with a description on nonsense.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "need at least one node");
        assert!(
            self.containers_per_node() > 0,
            "containers must fit on nodes"
        );
        assert!(self.cpu_cores > 0.0 && self.disk_bw > 0.0 && self.nic_bw > 0.0);
        assert!((0.0..=1.0).contains(&self.slowstart), "slowstart in [0,1]");
        assert!(self.replication >= 1);
        assert!(self.block_size > 0);
        assert!(self.jitter_cv >= 0.0);
        assert!(
            (0.0..1.0).contains(&self.map_failure_prob),
            "failure prob in [0,1)"
        );
        assert!(
            self.slow_node_factor.is_finite() && self.slow_node_factor >= 1.0,
            "slow node factor must be a finite slowdown >= 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        c.validate();
        assert_eq!(c.containers_per_node(), 4);
        assert_eq!(c.total_containers(), 16);
    }

    #[test]
    fn containers_per_node_binds_on_min_dimension() {
        let mut c = SimConfig {
            node_capacity: ResourceVector::new(16384, 4),
            ..SimConfig::default()
        };
        assert_eq!(c.containers_per_node(), 4); // vcore-bound
        c.container_size = ResourceVector::new(4096, 1);
        assert_eq!(c.containers_per_node(), 4); // memory-bound
    }

    #[test]
    #[should_panic(expected = "slow node factor")]
    fn validate_rejects_speedup_slow_node_factor() {
        let c = SimConfig {
            slow_node_factor: 0.5,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "slowstart")]
    fn validate_rejects_bad_slowstart() {
        let c = SimConfig {
            slowstart: 1.5,
            ..SimConfig::default()
        };
        c.validate();
    }
}
