//! Job specifications: the dataflow statistics of one MapReduce job.

use crate::config::MB;

/// Index of a job within a simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// A task within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskId {
    /// The `i`-th map task.
    Map(u32),
    /// The `i`-th reduce task.
    Reduce(u32),
}

/// Dataflow description of a MapReduce job — the "job profile" statistics
/// the paper's model consumes, expressed per byte of input so they hold for
/// any input size.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Total input bytes (split into blocks by the cluster config).
    pub input_bytes: u64,
    /// Number of reduce tasks (user parameter in Hadoop; 0 = map-only).
    pub reduces: u32,
    /// Map function CPU cost, seconds per MB of input.
    pub map_cpu_s_per_mb: f64,
    /// Reduce function CPU cost, seconds per MB of reduce input.
    pub reduce_cpu_s_per_mb: f64,
    /// Map output bytes per input byte (after combiner, if any).
    pub map_output_ratio: f64,
    /// Disk bytes written per map-output byte during collect/spill/merge.
    pub spill_io_factor: f64,
    /// Disk bytes moved per shuffled byte during the reduce-side sort.
    pub sort_io_factor: f64,
    /// Job output bytes per reduce-input byte.
    pub reduce_output_ratio: f64,
}

impl JobSpec {
    /// Number of map tasks for a given block size (= input splits).
    pub fn num_maps(&self, block_size: u64) -> u32 {
        self.input_bytes.div_ceil(block_size) as u32
    }

    /// Bytes of map output produced by a map over `split_bytes` of input.
    pub fn map_output_bytes(&self, split_bytes: u64) -> u64 {
        (split_bytes as f64 * self.map_output_ratio).round() as u64
    }

    /// Total intermediate bytes for the whole job.
    pub fn total_shuffle_bytes(&self) -> u64 {
        (self.input_bytes as f64 * self.map_output_ratio).round() as u64
    }

    /// Validate ranges; panics with a description on nonsense.
    pub fn validate(&self) {
        assert!(self.input_bytes > 0, "empty input");
        assert!(self.map_cpu_s_per_mb >= 0.0 && self.reduce_cpu_s_per_mb >= 0.0);
        assert!(self.map_output_ratio >= 0.0);
        assert!(self.spill_io_factor >= 0.0 && self.sort_io_factor >= 0.0);
        assert!(self.reduce_output_ratio >= 0.0);
    }
}

/// Seconds of CPU work for `bytes` at `s_per_mb`.
pub fn cpu_seconds(bytes: u64, s_per_mb: f64) -> f64 {
    bytes as f64 / MB as f64 * s_per_mb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GB;

    fn spec() -> JobSpec {
        JobSpec {
            name: "t".into(),
            input_bytes: GB,
            reduces: 4,
            map_cpu_s_per_mb: 0.5,
            reduce_cpu_s_per_mb: 0.1,
            map_output_ratio: 0.5,
            spill_io_factor: 1.0,
            sort_io_factor: 2.0,
            reduce_output_ratio: 0.5,
        }
    }

    #[test]
    fn derived_quantities() {
        let s = spec();
        assert_eq!(s.num_maps(128 * MB), 8);
        assert_eq!(s.num_maps(64 * MB), 16);
        assert_eq!(s.map_output_bytes(128 * MB), 64 * MB);
        assert_eq!(s.total_shuffle_bytes(), GB / 2);
        s.validate();
    }

    #[test]
    fn cpu_seconds_scale() {
        assert!((cpu_seconds(128 * MB, 0.5) - 64.0).abs() < 1e-9);
    }
}
