//! Measurement records produced by a simulation run.
//!
//! These play the role of the paper's "measurements in a real Hadoop 2.x
//! setup": per-task phase boundaries and per-job response times, from which
//! job profiles (means, CVs, per-resource demands) are extracted.

use crate::job::TaskId;
use hdfs_sim::NodeId;

/// Phase boundaries of one executed task (absolute simulation seconds).
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Which task.
    pub task: TaskId,
    /// Node its container ran on.
    pub node: NodeId,
    /// When the AM put the request on the wire (scheduled, §3.4 vocabulary).
    pub scheduled_at: f64,
    /// When a container was assigned.
    pub assigned_at: f64,
    /// When the container finished launching and work began.
    pub started_at: f64,
    /// Map: end of input read. Reduce: end of shuffle (last fetch done).
    pub io_done_at: f64,
    /// Map: end of map-function CPU. Reduce: end of sort+reduce CPU.
    pub cpu_done_at: f64,
    /// Task fully complete (spill / output write done).
    pub finished_at: f64,
}

impl TaskRecord {
    /// Wall-clock duration of the task body (excludes container wait).
    pub fn duration(&self) -> f64 {
        self.finished_at - self.started_at
    }

    /// For reduce tasks: the shuffle-sort subtask duration in the paper's
    /// decomposition (launch → shuffle complete). For maps: read phase.
    pub fn io_phase(&self) -> f64 {
        self.io_done_at - self.started_at
    }

    /// Remaining (merge / cpu+write) portion.
    pub fn tail_phase(&self) -> f64 {
        self.finished_at - self.io_done_at
    }
}

/// Outcome of one job in one simulation run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job in the workload.
    pub job: u32,
    /// Submission time.
    pub submitted_at: f64,
    /// When the AM container started.
    pub am_started_at: f64,
    /// When the last reduce (or map, for map-only jobs) finished.
    pub finished_at: f64,
    /// Per-task records, maps first.
    pub tasks: Vec<TaskRecord>,
}

impl JobResult {
    /// The paper's target metric: job response time (submission → done).
    pub fn response_time(&self) -> f64 {
        self.finished_at - self.submitted_at
    }

    /// Records of map tasks.
    pub fn map_records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks
            .iter()
            .filter(|t| matches!(t.task, TaskId::Map(_)))
    }

    /// Records of reduce tasks.
    pub fn reduce_records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks
            .iter()
            .filter(|t| matches!(t.task, TaskId::Reduce(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: TaskId, start: f64, end: f64) -> TaskRecord {
        TaskRecord {
            task,
            node: NodeId(0),
            scheduled_at: start - 1.0,
            assigned_at: start - 0.5,
            started_at: start,
            io_done_at: start + 1.0,
            cpu_done_at: end - 0.5,
            finished_at: end,
        }
    }

    #[test]
    fn durations_and_means() {
        let r = JobResult {
            job: 0,
            submitted_at: 0.0,
            am_started_at: 2.0,
            finished_at: 30.0,
            tasks: vec![
                rec(TaskId::Map(0), 5.0, 15.0),
                rec(TaskId::Map(1), 5.0, 25.0),
                rec(TaskId::Reduce(0), 16.0, 30.0),
            ],
        };
        assert_eq!(r.response_time(), 30.0);
        assert_eq!(r.map_records().count(), 2);
        let t = &r.tasks[0];
        assert!((t.io_phase() - 1.0).abs() < 1e-12);
    }
}
