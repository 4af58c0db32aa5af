//! # mapreduce-sim — MapReduce-on-YARN execution simulator
//!
//! The repo's substitute for the paper's physical Hadoop 2.x cluster. A
//! discrete-event simulation executes MapReduce jobs end to end: per-job
//! [`appmaster::MrAppMaster`]s negotiate containers with the
//! `yarn-sim` ResourceManager (map priority 20, reduce priority 10, 5%
//! reduce slow start, locality-aware late binding), and task phases consume
//! per-node CPU / disk / NIC fair-share resources so that contention and
//! synchronization delays emerge naturally.
//!
//! Outputs are per-task phase timelines and per-job response times
//! ([`metrics`]), from which `mr2-model` extracts job profiles and against
//! which it validates its estimates (paper §5).

pub mod appmaster;
pub mod config;
pub mod driver;
pub mod job;
pub mod metrics;
pub mod profile;
pub mod workload;

pub use appmaster::{GrantAction, MrAppMaster, TaskState};
pub use config::{SchedulerPolicy, SimConfig, GB, MB};
pub use driver::{batch_deadlock_jobs, ClusterSim};
pub use job::{JobId, JobSpec, TaskId};
pub use metrics::{JobResult, TaskRecord};
pub use profile::{eval_mix, SimPoint, SIM_SCHEMA_VERSION};
