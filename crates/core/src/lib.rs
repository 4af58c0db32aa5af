//! # mr2-model — MapReduce performance models for Hadoop 2.x
//!
//! The paper's primary contribution (Glushkova, Jovanovic, Abelló, EDBT
//! 2017 workshops): an analytic model that predicts the average response
//! time of MapReduce jobs on YARN, for workloads of `N` concurrent jobs,
//! by combining
//!
//! * a **timeline construction** procedure (Algorithm 1) that models
//!   YARN's dynamic container allocation — [`timeline`];
//! * a binary **precedence tree** of serial/parallel-and operators with
//!   P-subtree balancing — [`tree`];
//! * **intra- and inter-job overlap factors** — [`overlap`];
//! * an **overlap-adjusted approximate MVA** over the cluster's service
//!   centers (in crate `queueing`), orchestrated by the A1–A6 loop of
//!   [`solver`];
//! * two tree estimators: **fork/join** (`H₂·max`) and **Tripathi**
//!   (Erlang/hyperexponential algebra);
//! * the **Herodotou static model** ([`herodotou`]) for initialization
//!   and as a baseline, and the **ARIA bounds model** ([`aria`]) as a
//!   second baseline.
//!
//! [`calibrate`] derives model inputs from a cluster/job description, and
//! [`estimate`] bundles everything into one call over a mix of concurrent
//! job classes ([`estimate_mix`]); `N` identical jobs are a one-class mix.

pub mod aria;
pub mod calibrate;
pub mod error;
pub mod estimate;
pub mod herodotou;
pub mod input;
pub mod memo;
pub mod open;
pub mod overlap;
pub mod solver;
pub mod timeline;
pub mod tree;

pub use calibrate::{
    herodotou_estimate, job_inputs, mix_model_input, model_input, Calibration, MixClass,
};
pub use error::{abs_relative_error, relative_error, ErrorBand};
pub use estimate::{
    estimate_mix, eval_mix, ClassPoint, MixEstimate, ModelPoint, OpenMetrics, MODEL_SCHEMA_VERSION,
};
pub use input::{
    Center, ClusterInputs, Estimator, JobClassInputs, ModelInput, ModelOptions, TaskClass,
};
pub use memo::cached_solve;
pub use open::{eval_open_mix, DEFAULT_KNEE_UTILIZATION};
pub use solver::{solve, solve_both, SolveResult};
pub use timeline::{build_timeline, Segment, ShuffleSpec, Timeline, TimelineConfig, TimelineJob};
pub use tree::{build_tree, waves, PrecTree};
