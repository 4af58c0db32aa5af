//! # hadoop2-perf — MapReduce performance models for Hadoop 2.x
//!
//! Facade crate re-exporting the whole workspace: the analytic model
//! ([`model`]), the discrete-event cluster simulator ([`sim`]) and its
//! substrates ([`yarn`], [`hdfs`], [`des`]), the queueing-theory
//! toolkit ([`queueing`]), the declarative what-if scenario engine
//! ([`scenario`]), and the process-wide metrics registry ([`obs`])
//! every layer reports into.
//!
//! ```
//! use hadoop2_perf::model::{estimate_mix, Calibration, MixClass, ModelOptions};
//! use hadoop2_perf::sim::{workload::wordcount_1gb, SimConfig};
//!
//! let cfg = SimConfig::paper_testbed(4);
//! let job = MixClass { spec: wordcount_1gb(4), count: 1, profile: None };
//! let est = estimate_mix(
//!     &cfg, &[job], &[], &ModelOptions::default(), &Calibration::default(),
//! );
//! assert!(est.fork_join > 0.0 && est.tripathi > est.fork_join * 0.5);
//! ```
//!
//! Workloads are heterogeneous mixes end to end — the queueing network
//! is multi-class, so one point can run different jobs concurrently and
//! report per-class response times. Arrival schedules are a workload
//! dimension of their own: mix entries carry submit offsets (trace
//! replay via [`scenario::trace`]) and the `axis_arrivals` axis layers
//! batch/staggered/trace schedules on top:
//!
//! ```
//! use hadoop2_perf::scenario::{
//!     run_scenario, Backends, JobKind, MixEntry, ResultCache, Scenario,
//!     WorkloadMix,
//! };
//!
//! let mix = WorkloadMix::new([
//!     MixEntry::new(JobKind::WordCount, 256 * 1024 * 1024, 2),
//!     MixEntry::new(JobKind::Grep, 256 * 1024 * 1024, 1),
//! ]);
//! let scenario = Scenario::new("doc-mix")
//!     .axis_nodes([2usize])
//!     .axis_mixes([mix])
//!     .with_backends(Backends::analytic_only());
//! let sweep = run_scenario(&scenario, &ResultCache::new());
//! let per_class = &sweep.points[0].model.as_ref().unwrap().per_class;
//! assert_eq!(per_class.len(), 2);
//! assert!(per_class.iter().all(|c| c.fork_join > 0.0));
//! ```

/// The paper's analytic model (crate `mr2-model`).
pub use mr2_model as model;

/// The declarative what-if scenario engine (crate `mr2-scenario`).
pub use mr2_scenario as scenario;

/// The online capacity-planning service (crate `mr2-serve`).
pub use mr2_serve as serve;

/// The MapReduce-on-YARN execution simulator (crate `mapreduce-sim`).
pub use mapreduce_sim as sim;

/// The YARN resource-management substrate (crate `yarn-sim`).
pub use yarn_sim as yarn;

/// The HDFS substrate (crate `hdfs-sim`).
pub use hdfs_sim as hdfs;

/// The discrete-event simulation engine (crate `simcore`).
pub use simcore as des;

/// Closed queueing networks, MVA, phase-type distributions.
pub use queueing;

/// Counters, gauges, histograms, and span timers (crate `mr2-obs`).
pub use mr2_obs as obs;
