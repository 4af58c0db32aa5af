//! # mr2-scenario — declarative what-if scenario engine
//!
//! The paper's models answer what-if questions — "how does mean response
//! time change with N concurrent jobs, cluster size, or scheduler?" —
//! and this crate turns them into a batch evaluation service:
//!
//! * [`Scenario`] (module [`spec`]): a declarative sweep over cluster
//!   axes (nodes, block size, container size, scheduler), a first-class
//!   [`WorkloadMix`] axis (heterogeneous job mixes; the `axis_jobs` /
//!   `axis_input_bytes` / `axis_n_jobs` conveniences cross single-entry
//!   mixes for homogeneous sweeps), an arrival axis
//!   ([`ArrivalSchedule`]: batch, staggered, or explicit trace offsets
//!   — when jobs arrive is a workload dimension of its own), failure
//!   and straggler axes (`map_failure_prob`, `slow_node_factor`), and
//!   the estimator series, combined [`SweepMode::Cartesian`] or
//!   [`SweepMode::Zip`];
//! * [`JobTrace`] (module [`trace`]): Hadoop job-history / Rumen-style
//!   JSON-lines ingestion, so sweeps replay recorded production mixes
//!   (each replayed job keeps its submission offset) instead of
//!   synthetic presets;
//! * [`expand`]: deterministic expansion into [`EvalPoint`]s;
//! * [`run_scenario`] (module [`runner`]): a batch runner over the
//!   narrow `eval_mix` entry APIs of `mr2-model` (analytic, with the
//!   windowed staggered-arrival approximation) and `mapreduce-sim`
//!   (ground truth), per-class results and makespans included. The
//!   calling thread evaluates points itself, helped by one scoped
//!   thread per further CPU while distinct points remain;
//! * [`ResultCache`] (module [`cache`]): a content-hashed store so
//!   repeated sweeps, overlapping scenarios, and the estimator axis skip
//!   already-evaluated points; [`lookup_point`] answers a point from it
//!   alone when every record the point needs is ready;
//! * [`error_bands`] / [`class_error_bands`] / [`render_report`]
//!   (module [`report`]): the comparison layer joining estimates
//!   against simulation into aggregate and per-class
//!   `mr2_model::ErrorBand`s.
//!
//! ```
//! use mr2_scenario::{run_scenario, Backends, ResultCache, Scenario};
//!
//! let scenario = Scenario::new("doc")
//!     .axis_nodes([2usize, 4])
//!     .axis_n_jobs([1usize, 2])
//!     .axis_input_bytes([256 * 1024 * 1024])
//!     .with_backends(Backends::analytic_only());
//! let cache = ResultCache::new();
//! let sweep = run_scenario(&scenario, &cache);
//! assert_eq!(sweep.points.len(), 4);
//! // A second identical run answers entirely from the cache.
//! let again = run_scenario(&scenario, &cache);
//! assert_eq!(cache.stats().misses, 4);
//! assert_eq!(sweep.points, again.points);
//! ```

pub mod cache;
pub mod expand;
pub mod json;
pub mod plan;
pub mod report;
pub mod runner;
pub mod spec;
pub mod trace;

pub use cache::{schema_version, CacheStats, KeyHasher, ResultCache};
pub use expand::expand;
pub use plan::{
    plan, PlanProbe, PlanRequest, PlanResult, SearchSpace, SloMetric, SloSpec, MAX_SEARCH_NODES,
};
pub use report::{class_error_bands, error_bands, render_report, to_csv, ClassBand, SeriesBand};
pub use runner::{
    evaluate_point, lookup_point, run_scenario, run_scenario_streaming, select, select_class,
    CachedPoint, PointResult, SimResult, SweepResult,
};
pub use spec::{
    ArrivalSchedule, Backends, EstimatorKind, EvalPoint, JobKind, MixEntry, ReducePolicy,
    ResolvedEntry, ResolvedMix, Scenario, SweepMode, WorkloadAxis, WorkloadMix,
};
pub use trace::{JobTrace, TraceError, TraceJob};
