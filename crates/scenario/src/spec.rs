//! Declarative scenario specifications.
//!
//! A [`Scenario`] names a set of *axes* — cluster shape, workload shape,
//! and estimator — and how to combine them ([`SweepMode`]). Expansion
//! (module [`crate::expand`]) turns the spec into concrete
//! [`crate::EvalPoint`]s; it never runs anything itself, so specs are
//! cheap to build, inspect, and compare.
//!
//! The workload axis is a first-class [`WorkloadMix`]: an ordered list
//! of [`MixEntry`]s — `(job kind, input size, count, reduce policy,
//! submit offset)` — so one point can run WordCount, TeraSort, and Grep
//! concurrently on the same cluster. The `axis_jobs` /
//! `axis_input_bytes` / `axis_n_jobs` builders remain as thin
//! conveniences that cross three single-entry lists into 1-entry mixes,
//! so homogeneous sweeps read the way they always did.
//!
//! *When* the jobs arrive is its own dimension: every entry carries a
//! `submit_offset_ms` (trace replay assigns each replayed job its
//! recorded arrival), and the scenario-level [`ArrivalSchedule`] axis
//! layers batch, staggered, or explicit-trace offsets on top.

use crate::cache::KeyHasher;
use mapreduce_sim::{JobSpec, SchedulerPolicy, SimConfig, GB, MB};

/// Which workload preset a point runs (see `mapreduce_sim::workload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// WordCount: CPU-heavy maps, shuffle ≈ input.
    WordCount,
    /// TeraSort-like: I/O-heavy on both sides.
    TeraSort,
    /// Grep-like: map-heavy, tiny intermediate data.
    Grep,
}

impl JobKind {
    /// Stable name used in reports and cache keys.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::WordCount => "wordcount",
            JobKind::TeraSort => "terasort",
            JobKind::Grep => "grep",
        }
    }

    /// Build the concrete job spec for this kind. `reduces` is used as
    /// given for every kind; [`Scenario::check`] validates counts
    /// centrally, so no per-kind fix-ups happen here.
    pub fn spec(&self, input_bytes: u64, reduces: u32) -> JobSpec {
        match self {
            JobKind::WordCount => mapreduce_sim::workload::wordcount(input_bytes, reduces),
            JobKind::TeraSort => mapreduce_sim::workload::terasort(input_bytes, reduces),
            JobKind::Grep => {
                let mut s = mapreduce_sim::workload::grep(input_bytes);
                s.reduces = reduces;
                s
            }
        }
    }
}

/// How many reduce tasks a job gets at a given cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReducePolicy {
    /// One reduce per node — one reduce wave, the paper's sizing rule.
    PerNode,
    /// A fixed reduce count regardless of cluster size.
    Fixed(u32),
}

impl ReducePolicy {
    /// Reduce count for a cluster of `nodes` workers, rejecting counts
    /// that are zero or don't fit the simulator's 32-bit reduce field —
    /// the checked form [`Scenario::check`] applies to every
    /// `(nodes, entry)` combination before anything runs.
    pub fn try_reduces(&self, nodes: usize) -> Result<u32, String> {
        match *self {
            ReducePolicy::PerNode => u32::try_from(nodes)
                .ok()
                .filter(|&r| r > 0)
                .ok_or_else(|| format!("per-node reduce count invalid for {nodes} nodes")),
            ReducePolicy::Fixed(0) => Err("fixed reduce count must be positive".into()),
            ReducePolicy::Fixed(r) => Ok(r),
        }
    }

    /// Reduce count for a cluster of `nodes` workers. Panics on counts
    /// [`ReducePolicy::try_reduces`] rejects; expansion only calls this
    /// after [`Scenario::check`] has validated every combination.
    pub fn reduces(&self, nodes: usize) -> u32 {
        self.try_reduces(nodes)
            .expect("reduce counts validated by Scenario::check")
    }
}

/// One entry of a [`WorkloadMix`]: `count` copies of one job kind at
/// one input size, with its own reduce-sizing rule and submit offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MixEntry {
    /// Workload preset.
    pub job: JobKind,
    /// Input dataset size, bytes.
    pub input_bytes: u64,
    /// Concurrent copies of this job in the mix (≥ 1).
    pub count: usize,
    /// Reduce-count sizing rule for this entry.
    pub reduces: ReducePolicy,
    /// Submission offset of this entry's jobs, milliseconds after the
    /// point's t = 0 (all copies share it; an [`ArrivalSchedule`] layers
    /// additional per-job offsets on top). Milliseconds as integers —
    /// the native resolution of Hadoop job-history timestamps — keep
    /// the canonical hashed form exact.
    pub submit_offset_ms: u64,
}

impl MixEntry {
    /// An entry with the default per-node reduce sizing, submitted at
    /// t = 0.
    pub fn new(job: JobKind, input_bytes: u64, count: usize) -> MixEntry {
        MixEntry {
            job,
            input_bytes,
            count,
            reduces: ReducePolicy::PerNode,
            submit_offset_ms: 0,
        }
    }

    /// Override the reduce-sizing rule.
    pub fn with_reduces(mut self, reduces: ReducePolicy) -> MixEntry {
        self.reduces = reduces;
        self
    }

    /// Override the submission offset (milliseconds after t = 0).
    pub fn at_offset_ms(mut self, submit_offset_ms: u64) -> MixEntry {
        self.submit_offset_ms = submit_offset_ms;
        self
    }

    /// Stable class label (`wordcount@1024MB`) identifying this entry's
    /// job class across points in reports — `count` and submit offset
    /// are deliberately excluded so bands aggregate over the count axis
    /// and across arrival positions.
    pub fn label(&self) -> String {
        format!("{}@{}MB", self.job.name(), self.input_bytes / MB)
    }

    /// Stable display name (`2xwordcount@1024MB`, with `:r4` appended
    /// for a fixed reduce count and `+500ms` for a nonzero submit
    /// offset).
    pub fn name(&self) -> String {
        let reduces = match self.reduces {
            ReducePolicy::PerNode => String::new(),
            ReducePolicy::Fixed(r) => format!(":r{r}"),
        };
        format!(
            "{}x{}{}{}",
            self.count,
            self.label(),
            reduces,
            offset_suffix(self.submit_offset_ms)
        )
    }
}

/// The `+500ms` display suffix for a nonzero submit offset, shared by
/// the entry and resolved-mix names so the two forms can't diverge.
fn offset_suffix(submit_offset_ms: u64) -> String {
    if submit_offset_ms > 0 {
        format!("+{submit_offset_ms}ms")
    } else {
        String::new()
    }
}

/// A heterogeneous workload: an ordered, non-empty list of
/// [`MixEntry`]s submitted to one cluster, each at its own
/// `submit_offset_ms` (0 by default — the batch case).
///
/// The entry order is semantic — it is the submission order of the
/// simulator's job list, the class order of the solver's multi-class
/// input, and the index order of every per-class result — and it is
/// part of the canonical hashed form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadMix {
    /// The entries, in submission order.
    pub entries: Vec<MixEntry>,
}

impl WorkloadMix {
    /// A mix from a list of entries.
    pub fn new(entries: impl Into<Vec<MixEntry>>) -> WorkloadMix {
        WorkloadMix {
            entries: entries.into(),
        }
    }

    /// A 1-entry mix — `count` copies of one job (the shape the
    /// `axis_jobs`-style conveniences produce).
    pub fn single(job: JobKind, input_bytes: u64, count: usize) -> WorkloadMix {
        WorkloadMix {
            entries: vec![MixEntry::new(job, input_bytes, count)],
        }
    }

    /// Append an entry (builder style).
    pub fn and(mut self, entry: MixEntry) -> WorkloadMix {
        self.entries.push(entry);
        self
    }

    /// Total concurrent jobs across all entries.
    pub fn total_jobs(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Whether no entry carries a submit offset.
    fn offset_free(&self) -> bool {
        self.entries.iter().all(|e| e.submit_offset_ms == 0)
    }

    /// Stable display name: entry names joined with ` + `.
    pub fn name(&self) -> String {
        self.entries
            .iter()
            .map(MixEntry::name)
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Validate the mix against a scenario's node axis: entries present,
    /// counts positive, and every `(nodes, entry)` reduce count valid.
    pub fn check(&self, nodes_axis: &[usize]) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("workload mix has no entries".into());
        }
        for e in &self.entries {
            if e.count == 0 {
                return Err(format!("mix entry `{}` has count 0", e.label()));
            }
            for &nodes in nodes_axis {
                e.reduces
                    .try_reduces(nodes)
                    .map_err(|err| format!("mix entry `{}`: {err}", e.label()))?;
            }
        }
        Ok(())
    }

    /// Resolve the reduce policies at a concrete cluster size.
    pub fn resolve(&self, nodes: usize) -> ResolvedMix {
        ResolvedMix {
            entries: self
                .entries
                .iter()
                .map(|e| ResolvedEntry {
                    job: e.job,
                    input_bytes: e.input_bytes,
                    count: e.count,
                    reduces: e.reduces.reduces(nodes),
                    submit_offset_ms: e.submit_offset_ms,
                })
                .collect(),
        }
    }
}

/// A [`MixEntry`] with its reduce policy resolved to a concrete count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResolvedEntry {
    /// Workload preset.
    pub job: JobKind,
    /// Input dataset size, bytes.
    pub input_bytes: u64,
    /// Concurrent copies of this job in the mix.
    pub count: usize,
    /// Reduce tasks per job.
    pub reduces: u32,
    /// Submission offset, milliseconds after the point's t = 0.
    pub submit_offset_ms: u64,
}

impl ResolvedEntry {
    /// The concrete job spec of this class.
    pub fn spec(&self) -> JobSpec {
        self.job.spec(self.input_bytes, self.reduces)
    }

    /// Stable class label (`wordcount@1024MB`), matching
    /// [`MixEntry::label`].
    pub fn label(&self) -> String {
        format!("{}@{}MB", self.job.name(), self.input_bytes / MB)
    }
}

/// A [`WorkloadMix`] at a concrete cluster size — what an
/// [`EvalPoint`] carries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResolvedMix {
    /// The resolved entries, in submission order.
    pub entries: Vec<ResolvedEntry>,
}

impl ResolvedMix {
    /// Total concurrent jobs across all entries.
    pub fn total_jobs(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Stable display name (`2xwordcount@1024MB+1xgrep@1024MB`, with
    /// `+500ms` appended per entry for nonzero submit offsets).
    pub fn name(&self) -> String {
        self.entries
            .iter()
            .map(|e| {
                format!(
                    "{}x{}{}",
                    e.count,
                    e.label(),
                    offset_suffix(e.submit_offset_ms)
                )
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The full concurrent job list, `count` copies per entry in
    /// submission order.
    pub fn job_specs(&self) -> Vec<JobSpec> {
        let mut specs = Vec::with_capacity(self.total_jobs());
        for e in &self.entries {
            let spec = e.spec();
            for _ in 0..e.count {
                specs.push(spec.clone());
            }
        }
        specs
    }

    /// Mix the canonical form into a cache key: entry count, then per
    /// entry its job name, input size, copy count, resolved reduce
    /// count, and submit offset. Entry order is part of the form.
    pub fn hash_into(&self, h: KeyHasher) -> KeyHasher {
        let mut h = h.u64(self.entries.len() as u64);
        for e in &self.entries {
            h = h
                .str(e.job.name())
                .u64(e.input_bytes)
                .u64(e.count as u64)
                .u64(e.reduces as u64)
                .u64(e.submit_offset_ms);
        }
        h
    }
}

/// How a point's jobs arrive over time, layered on top of the per-entry
/// submit offsets — a first-class workload dimension
/// ([`Scenario::axis_arrivals`]).
///
/// Offsets are milliseconds as integers (the native resolution of
/// Hadoop job-history timestamps), so the canonical hashed form — and
/// therefore every cache key — is exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrivalSchedule {
    /// Every job at its entry's own offset (t = 0 by default) — the
    /// paper's assumption and the pre-arrival-schedule behaviour.
    Batch,
    /// Job `i` (flattened submission order) arrives `i × interval_ms`
    /// after its entry offset — a constant-rate open-loop approximation.
    Staggered {
        /// Gap between consecutive arrivals, milliseconds.
        interval_ms: u64,
    },
    /// Explicit per-job offsets in submission order; must carry exactly
    /// one offset per job of the mix it is paired with
    /// ([`ArrivalSchedule::check`]).
    Trace {
        /// Per-job offsets, milliseconds.
        offsets_ms: Vec<u64>,
    },
}

impl ArrivalSchedule {
    /// Stable display name used in reports and CSV (`batch`,
    /// `stagger@500ms`, `trace[12]`).
    pub fn name(&self) -> String {
        match self {
            ArrivalSchedule::Batch => "batch".into(),
            ArrivalSchedule::Staggered { interval_ms } => format!("stagger@{interval_ms}ms"),
            ArrivalSchedule::Trace { offsets_ms } => format!("trace[{}]", offsets_ms.len()),
        }
    }

    /// Mix the canonical form into a cache key (tag plus payload, so
    /// `Batch` and `Staggered(0)` stay distinct forms even though they
    /// evaluate identically).
    pub fn hash_into(&self, h: KeyHasher) -> KeyHasher {
        match self {
            ArrivalSchedule::Batch => h.str("batch"),
            ArrivalSchedule::Staggered { interval_ms } => h.str("stagger").u64(*interval_ms),
            ArrivalSchedule::Trace { offsets_ms } => {
                let mut h = h.str("trace").u64(offsets_ms.len() as u64);
                for &o in offsets_ms {
                    h = h.u64(o);
                }
                h
            }
        }
    }

    /// Whether the schedule adds no offset to any job: `Batch`, a zero
    /// stagger, or a trace of zeros. With offset-free entries and no
    /// open rate, every job is then submitted at t = 0.
    pub fn submits_at_once(&self) -> bool {
        match self {
            ArrivalSchedule::Batch => true,
            ArrivalSchedule::Staggered { interval_ms } => *interval_ms == 0,
            ArrivalSchedule::Trace { offsets_ms } => offsets_ms.iter().all(|&o| o == 0),
        }
    }

    /// Validate the schedule against a mix it would be paired with: a
    /// `Trace` must carry exactly one offset per job.
    pub fn check(&self, mix: &WorkloadMix) -> Result<(), String> {
        if let ArrivalSchedule::Trace { offsets_ms } = self {
            let jobs = mix.total_jobs();
            if offsets_ms.len() != jobs {
                return Err(format!(
                    "trace arrival schedule has {} offsets but mix `{}` has {jobs} jobs",
                    offsets_ms.len(),
                    mix.name()
                ));
            }
        }
        Ok(())
    }

    /// The additional offset (seconds) of job `j` in flattened
    /// submission order.
    fn offset_secs(&self, j: usize) -> f64 {
        let ms = match self {
            ArrivalSchedule::Batch => 0,
            ArrivalSchedule::Staggered { interval_ms } => (j as u64).saturating_mul(*interval_ms),
            ArrivalSchedule::Trace { offsets_ms } => offsets_ms[j],
        };
        ms as f64 / 1000.0
    }
}

/// Which series a point contributes to the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Fork/join-based modified MVA (the paper's best method).
    ForkJoin,
    /// Tripathi-based estimate.
    Tripathi,
    /// ARIA bounds baseline.
    Aria,
    /// Herodotou static baseline.
    Herodotou,
}

impl EstimatorKind {
    /// Every estimator series, in paper order.
    pub const ALL: [EstimatorKind; 4] = [
        EstimatorKind::ForkJoin,
        EstimatorKind::Tripathi,
        EstimatorKind::Aria,
        EstimatorKind::Herodotou,
    ];

    /// Stable name used in reports and cache keys.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::ForkJoin => "fork_join",
            EstimatorKind::Tripathi => "tripathi",
            EstimatorKind::Aria => "aria",
            EstimatorKind::Herodotou => "herodotou",
        }
    }
}

/// How the axes combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Full cross product of every axis (the default).
    #[default]
    Cartesian,
    /// Lock-step: point `i` takes the `i`-th value of every axis;
    /// length-1 axes broadcast. All longer axes must agree on a length.
    Zip,
}

/// Which evaluation backends run for every point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backends {
    /// Run the analytic model (fork/join + Tripathi + both baselines).
    pub analytic: bool,
    /// Calibrate the model from single-job profiling runs of the
    /// simulator (the paper's "job history"; §4.2.1) — one profile per
    /// mix entry. Only meaningful with `analytic`.
    pub profile_calibration: bool,
    /// Run the discrete-event simulator for ground truth: `Some(reps)`
    /// repeats each point `reps` times on consecutive seeds and reports
    /// the median (§5.1 methodology).
    pub simulator: Option<usize>,
}

impl Default for Backends {
    fn default() -> Self {
        Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(5),
        }
    }
}

impl Backends {
    /// Analytic model only — the fast path for large sweeps.
    pub fn analytic_only() -> Backends {
        Backends {
            analytic: true,
            profile_calibration: false,
            simulator: None,
        }
    }
}

/// The workload axis of a [`Scenario`].
///
/// Both shapes expand to a list of [`WorkloadMix`]es; `Grid` is the
/// convenience the `axis_jobs` / `axis_input_bytes` / `axis_n_jobs`
/// builders populate, crossing three single-entry lists exactly the
/// way the pre-mix triple of axes did (jobs outermost, N innermost; in
/// zip mode the three remain independent lock-step axes).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadAxis {
    /// Homogeneous points from three crossed single-value lists; every
    /// point runs `n_jobs` identical copies of one job, reduce counts
    /// from the scenario-level [`Scenario::reduces`] policy.
    Grid {
        /// Job presets.
        jobs: Vec<JobKind>,
        /// Input dataset sizes, bytes.
        input_bytes: Vec<u64>,
        /// Multiprogramming levels (concurrent identical jobs).
        n_jobs: Vec<usize>,
    },
    /// Explicit heterogeneous mixes; each value is one axis position.
    Mixes(Vec<WorkloadMix>),
}

impl WorkloadAxis {
    /// Per-axis lengths this workload contributes to the sweep, with
    /// names for error messages (`Grid` contributes three independent
    /// axes, `Mixes` one).
    fn lens(&self) -> Vec<(&'static str, usize)> {
        match self {
            WorkloadAxis::Grid {
                jobs,
                input_bytes,
                n_jobs,
            } => vec![
                ("jobs", jobs.len()),
                ("input_bytes", input_bytes.len()),
                ("n_jobs", n_jobs.len()),
            ],
            WorkloadAxis::Mixes(m) => vec![("mixes", m.len())],
        }
    }

    /// The concrete mix values of the axis in cartesian expansion order
    /// (`Grid`: jobs → input_bytes → n_jobs, rightmost fastest).
    fn values(&self, default_reduces: ReducePolicy) -> Vec<WorkloadMix> {
        match self {
            WorkloadAxis::Grid {
                jobs,
                input_bytes,
                n_jobs,
            } => {
                let mut out = Vec::with_capacity(jobs.len() * input_bytes.len() * n_jobs.len());
                for &job in jobs {
                    for &input in input_bytes {
                        for &n in n_jobs {
                            out.push(WorkloadMix {
                                entries: vec![
                                    MixEntry::new(job, input, n).with_reduces(default_reduces)
                                ],
                            });
                        }
                    }
                }
                out
            }
            WorkloadAxis::Mixes(m) => m.clone(),
        }
    }
}

/// A declarative what-if sweep over cluster, workload, and estimator
/// axes.
///
/// Build one with [`Scenario::new`] and the `axis_*` setters, expand it
/// with [`crate::expand`], run it with [`crate::run_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name; also part of every cache key's provenance
    /// (but *not* of the content hash — identical points in differently
    /// named scenarios share cache entries).
    pub name: String,
    /// How the axes combine.
    pub sweep: SweepMode,
    /// Cluster axis: worker node count.
    pub nodes: Vec<usize>,
    /// Cluster axis: HDFS block size (MiB).
    pub block_mb: Vec<u64>,
    /// Cluster axis: task container size (MiB of memory, 1 vcore).
    pub container_mb: Vec<u32>,
    /// Cluster axis: RM scheduler policy.
    pub schedulers: Vec<SchedulerPolicy>,
    /// Workload axis: homogeneous grid or explicit heterogeneous mixes.
    pub workload: WorkloadAxis,
    /// Arrival axis: how each point's jobs are spread over time, on top
    /// of the per-entry submit offsets. Both backends respond — the
    /// simulator submits at the scheduled times, the analytic model
    /// applies the windowed staggered-arrival approximation.
    pub arrivals: Vec<ArrivalSchedule>,
    /// Open-arrival axis: total Poisson rate λ (jobs/second) of the
    /// point's job stream; `None` is the closed (batch/scheduled) case.
    /// With a rate set, the analytic model switches to the open
    /// steady-state solve (`mr2_model::eval_open_mix` — responses,
    /// bottleneck utilization, and the saturation knee over λ) and the
    /// simulator samples arrival times from the Poisson process
    /// deterministically by seed. Only combinable with
    /// [`ArrivalSchedule::Batch`] — a rate *is* the schedule.
    pub arrival_rate: Vec<Option<f64>>,
    /// Failure axis: probability that a map attempt fails mid-read and
    /// is re-executed (`SimConfig::map_failure_prob`; the analytic
    /// model has no failure notion, so only the simulator and the
    /// profiling runs respond to it).
    pub map_failure_prob: Vec<f64>,
    /// Straggler axis: slowdown factor of node 0
    /// (`SimConfig::slow_node_factor`; 1.0 = homogeneous). Like the
    /// failure axis, only the simulator and the profiling runs respond
    /// — the analytic model assumes homogeneous nodes, and the error
    /// bands quantify where that breaks.
    pub slow_node_factor: Vec<f64>,
    /// Estimator axis: which model series each point reports.
    pub estimators: Vec<EstimatorKind>,
    /// Reduce-count sizing rule for `Grid` workloads (explicit mixes
    /// carry a policy per entry).
    pub reduces: ReducePolicy,
    /// Backends evaluated per point.
    pub backends: Backends,
    /// Base RNG seed for simulator replications.
    pub seed: u64,
}

impl Scenario {
    /// A single-point scenario (4 nodes, 1 GB WordCount, N = 1,
    /// fork/join) to grow from with the `axis_*` setters.
    pub fn new(name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            sweep: SweepMode::Cartesian,
            nodes: vec![4],
            block_mb: vec![128],
            container_mb: vec![1024],
            schedulers: vec![SchedulerPolicy::CapacityFifo],
            workload: WorkloadAxis::Grid {
                jobs: vec![JobKind::WordCount],
                input_bytes: vec![GB],
                n_jobs: vec![1],
            },
            arrivals: vec![ArrivalSchedule::Batch],
            arrival_rate: vec![None],
            map_failure_prob: vec![0.0],
            slow_node_factor: vec![1.0],
            estimators: vec![EstimatorKind::ForkJoin],
            reduces: ReducePolicy::PerNode,
            backends: Backends::default(),
            seed: 1,
        }
    }

    /// Set the node-count axis.
    pub fn axis_nodes(mut self, v: impl Into<Vec<usize>>) -> Self {
        self.nodes = v.into();
        self
    }

    /// Set the block-size axis (MiB).
    pub fn axis_block_mb(mut self, v: impl Into<Vec<u64>>) -> Self {
        self.block_mb = v.into();
        self
    }

    /// Set the container-size axis (MiB).
    pub fn axis_container_mb(mut self, v: impl Into<Vec<u32>>) -> Self {
        self.container_mb = v.into();
        self
    }

    /// Set the scheduler axis.
    pub fn axis_schedulers(mut self, v: impl Into<Vec<SchedulerPolicy>>) -> Self {
        self.schedulers = v.into();
        self
    }

    /// The three `Grid` lists, for the convenience setters. Panics when
    /// the workload axis holds explicit mixes — the two styles don't
    /// compose (which list would a lone `axis_jobs` refine?).
    fn grid_mut(&mut self, setter: &str) -> (&mut Vec<JobKind>, &mut Vec<u64>, &mut Vec<usize>) {
        match &mut self.workload {
            WorkloadAxis::Grid {
                jobs,
                input_bytes,
                n_jobs,
            } => (jobs, input_bytes, n_jobs),
            WorkloadAxis::Mixes(_) => panic!(
                "{setter}: the workload axis already holds explicit mixes; \
                 build the whole axis with axis_mixes instead"
            ),
        }
    }

    /// Set the job-preset list of the workload grid.
    pub fn axis_jobs(mut self, v: impl Into<Vec<JobKind>>) -> Self {
        *self.grid_mut("axis_jobs").0 = v.into();
        self
    }

    /// Set the input-size list of the workload grid (bytes).
    pub fn axis_input_bytes(mut self, v: impl Into<Vec<u64>>) -> Self {
        *self.grid_mut("axis_input_bytes").1 = v.into();
        self
    }

    /// Set the multiprogramming-level list of the workload grid.
    pub fn axis_n_jobs(mut self, v: impl Into<Vec<usize>>) -> Self {
        *self.grid_mut("axis_n_jobs").2 = v.into();
        self
    }

    /// Set the workload axis to an explicit list of heterogeneous
    /// mixes, replacing the grid conveniences.
    pub fn axis_mixes(mut self, v: impl Into<Vec<WorkloadMix>>) -> Self {
        self.workload = WorkloadAxis::Mixes(v.into());
        self
    }

    /// Set the arrival-schedule axis.
    pub fn axis_arrivals(mut self, v: impl Into<Vec<ArrivalSchedule>>) -> Self {
        self.arrivals = v.into();
        self
    }

    /// Set the open-arrival (Poisson λ, jobs/second) axis. Every value
    /// opens the point's job stream at that total rate; use
    /// [`Scenario::axis_arrival_rate_opt`] to mix open and closed
    /// points in one sweep.
    pub fn axis_arrival_rate(mut self, v: impl Into<Vec<f64>>) -> Self {
        self.arrival_rate = v.into().into_iter().map(Some).collect();
        self
    }

    /// Set the open-arrival axis with explicit closed (`None`) slots.
    pub fn axis_arrival_rate_opt(mut self, v: impl Into<Vec<Option<f64>>>) -> Self {
        self.arrival_rate = v.into();
        self
    }

    /// Set the map-failure-probability axis.
    pub fn axis_map_failure_prob(mut self, v: impl Into<Vec<f64>>) -> Self {
        self.map_failure_prob = v.into();
        self
    }

    /// Set the straggler (slow-node slowdown factor) axis.
    pub fn axis_slow_node_factor(mut self, v: impl Into<Vec<f64>>) -> Self {
        self.slow_node_factor = v.into();
        self
    }

    /// Set the estimator axis.
    pub fn axis_estimators(mut self, v: impl Into<Vec<EstimatorKind>>) -> Self {
        self.estimators = v.into();
        self
    }

    /// Set the sweep mode.
    pub fn sweep_mode(mut self, m: SweepMode) -> Self {
        self.sweep = m;
        self
    }

    /// Set the reduce-count rule for `Grid` workloads.
    pub fn reduce_policy(mut self, r: ReducePolicy) -> Self {
        self.reduces = r;
        self
    }

    /// Set the backends.
    pub fn with_backends(mut self, b: Backends) -> Self {
        self.backends = b;
        self
    }

    /// Panic with a description if the spec is invalid (see
    /// [`Scenario::check`]).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The non-panicking form of [`Scenario::validate`], for callers —
    /// like a serving layer — that must turn a bad spec into an error
    /// response rather than a crash. Checks axis presence, zip lengths,
    /// failure-probability ranges, and — centrally, before anything
    /// runs — every `(nodes, mix entry)` reduce-count resolution and,
    /// with the simulator on, that no batch point deadlocks it.
    pub fn check(&self) -> Result<(), String> {
        for (name, len) in self.axis_lens() {
            if len == 0 {
                return Err(format!("{name} axis is empty"));
            }
        }
        if !(self.backends.analytic || self.backends.simulator.is_some()) {
            return Err("at least one backend must be enabled".into());
        }
        for &p in &self.map_failure_prob {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("map_failure_prob {p} outside [0, 1)"));
            }
        }
        for &f in &self.slow_node_factor {
            if !(f.is_finite() && f >= 1.0) {
                return Err(format!(
                    "slow_node_factor {f} must be a finite slowdown >= 1"
                ));
            }
        }
        for r in self.arrival_rate.iter().flatten() {
            if !(r.is_finite() && *r > 0.0) {
                return Err(format!(
                    "arrival_rate {r} must be a positive finite rate (jobs/second)"
                ));
            }
        }
        // An open rate *is* the arrival process; layering a staggered or
        // trace schedule under it would double-schedule the same jobs.
        // The conservative any-pairing check applies to both sweep
        // modes.
        if self.arrival_rate.iter().any(Option::is_some)
            && self
                .arrivals
                .iter()
                .any(|a| !matches!(a, ArrivalSchedule::Batch))
        {
            return Err("arrival_rate combines only with batch arrivals \
                 (an open rate replaces the schedule)"
                .into());
        }
        match &self.workload {
            WorkloadAxis::Grid { n_jobs, .. } => {
                if let Some(n) = n_jobs.iter().find(|&&n| n == 0) {
                    return Err(format!("n_jobs value {n} must be positive"));
                }
                for &nodes in &self.nodes {
                    self.reduces.try_reduces(nodes)?;
                }
            }
            WorkloadAxis::Mixes(mixes) => {
                for m in mixes {
                    m.check(&self.nodes)?;
                }
            }
        }
        if self.sweep == SweepMode::Zip {
            let lens = self.axis_lens();
            let max = lens.iter().map(|&(_, l)| l).max().unwrap();
            for (name, len) in lens {
                if len != max && len != 1 {
                    return Err(format!(
                        "zip axis {name} has length {len}, expected {max} or 1"
                    ));
                }
            }
        }
        // Every (mix, arrival schedule) pairing the sweep will actually
        // evaluate must be consistent: a `Trace` schedule needs exactly
        // one offset per job. Cartesian pairs every mix with every
        // schedule; zip pairs position-wise (with length-1 broadcast).
        // Only `Trace` can fail, and only on a mix's job total, so the
        // cartesian walk compares totals and builds no mix but the first
        // one that fails. With the simulator on, no point whose jobs all
        // arrive at once may deadlock it (see
        // [`EvalPoint::check_batch_deadlock`]).
        let trace = self
            .arrivals
            .iter()
            .any(|a| matches!(a, ArrivalSchedule::Trace { .. }));
        let sim = self.backends.simulator.is_some();
        let batch = |a: &ArrivalSchedule, rate: &Option<f64>| a.submits_at_once() && rate.is_none();
        match self.sweep {
            SweepMode::Cartesian => {
                if trace {
                    let totals = self.workload_jobs();
                    for a in &self.arrivals {
                        let ArrivalSchedule::Trace { offsets_ms } = a else {
                            continue;
                        };
                        if let Some(i) = totals.iter().position(|&(j, _)| j != offsets_ms.len()) {
                            a.check(&self.first_workload_with_jobs_at(i))?;
                        }
                    }
                }
                // Every batch mix meets every cluster shape, and the
                // fewest nodes with the largest containers deadlock at
                // the fewest jobs.
                let batch_points = self
                    .arrivals
                    .iter()
                    .any(|a| self.arrival_rate.iter().any(|r| batch(a, r)));
                if sim && batch_points {
                    let most = self
                        .workload_jobs()
                        .into_iter()
                        .filter_map(|(jobs, offset_free)| offset_free.then_some(jobs))
                        .max();
                    if let Some(jobs) = most {
                        batch_deadlock(
                            *self.nodes.iter().min().expect("checked non-empty"),
                            *self.container_mb.iter().max().expect("checked non-empty"),
                            jobs,
                        )?;
                    }
                }
            }
            SweepMode::Zip if trace || sim => {
                let pick = |i: usize, len: usize| if len == 1 { 0 } else { i };
                for i in 0..self.num_points() {
                    let mix = self.zip_workload_at(i);
                    let arrivals = &self.arrivals[pick(i, self.arrivals.len())];
                    arrivals.check(&mix)?;
                    let rate = &self.arrival_rate[pick(i, self.arrival_rate.len())];
                    if sim && batch(arrivals, rate) && mix.offset_free() {
                        batch_deadlock(
                            self.nodes[pick(i, self.nodes.len())],
                            self.container_mb[pick(i, self.container_mb.len())],
                            mix.total_jobs(),
                        )?;
                    }
                }
            }
            SweepMode::Zip => {}
        }
        Ok(())
    }

    /// The workload mix at zip position `i`: a `Grid` zips its three
    /// lists independently (each broadcasting on its own), an explicit
    /// mix list zips as one axis. Shared by [`Scenario::check`] and the
    /// expander so validation covers exactly what runs.
    pub(crate) fn zip_workload_at(&self, i: usize) -> WorkloadMix {
        let pick = |i: usize, len: usize| if len == 1 { 0 } else { i };
        match &self.workload {
            WorkloadAxis::Grid {
                jobs,
                input_bytes,
                n_jobs,
            } => WorkloadMix::new([MixEntry::new(
                jobs[pick(i, jobs.len())],
                input_bytes[pick(i, input_bytes.len())],
                n_jobs[pick(i, n_jobs.len())],
            )
            .with_reduces(self.reduces)]),
            WorkloadAxis::Mixes(m) => m[pick(i, m.len())].clone(),
        }
    }

    /// Names and lengths of every axis, in expansion order. The
    /// workload axis contributes three entries in `Grid` shape and one
    /// in `Mixes` shape.
    pub fn axis_lens(&self) -> Vec<(&'static str, usize)> {
        let mut lens = vec![
            ("nodes", self.nodes.len()),
            ("block_mb", self.block_mb.len()),
            ("container_mb", self.container_mb.len()),
            ("schedulers", self.schedulers.len()),
        ];
        lens.extend(self.workload.lens());
        lens.push(("arrivals", self.arrivals.len()));
        lens.push(("arrival_rate", self.arrival_rate.len()));
        lens.push(("map_failure_prob", self.map_failure_prob.len()));
        lens.push(("slow_node_factor", self.slow_node_factor.len()));
        lens.push(("estimators", self.estimators.len()));
        lens
    }

    /// The workload axis as concrete mix values, in cartesian expansion
    /// order.
    pub fn workload_values(&self) -> Vec<WorkloadMix> {
        self.workload.values(self.reduces)
    }

    /// The first workload value, in cartesian expansion order, whose
    /// job total is entry `i` of [`Scenario::workload_jobs`]: a `Grid`
    /// meets each `n_jobs` value first with its first job and input.
    fn first_workload_with_jobs_at(&self, i: usize) -> WorkloadMix {
        match &self.workload {
            WorkloadAxis::Grid {
                jobs,
                input_bytes,
                n_jobs,
            } => WorkloadMix::new([
                MixEntry::new(jobs[0], input_bytes[0], n_jobs[i]).with_reduces(self.reduces)
            ]),
            WorkloadAxis::Mixes(m) => m[i].clone(),
        }
    }

    /// The job total of each workload value, with whether its mix is
    /// free of submit offsets, without building the mixes. A `Grid`
    /// crosses its `n_jobs` list with every (job, input) pair, so the
    /// list alone stands for the grid: its values in order are the
    /// totals the expansion meets first.
    pub fn workload_jobs(&self) -> Vec<(usize, bool)> {
        match &self.workload {
            WorkloadAxis::Grid { n_jobs, .. } => n_jobs.iter().map(|&n| (n, true)).collect(),
            WorkloadAxis::Mixes(mixes) => mixes
                .iter()
                .map(|m| (m.total_jobs(), m.offset_free()))
                .collect(),
        }
    }

    /// Number of points the scenario expands to.
    /// Saturates at `usize::MAX` instead of wrapping, so a size guard
    /// (`num_points() > limit`) stays sound for absurd axis products —
    /// a service must bounce those, not expand them.
    pub fn num_points(&self) -> usize {
        let lens = self.axis_lens();
        match self.sweep {
            SweepMode::Cartesian => lens
                .iter()
                .try_fold(1usize, |acc, &(_, len)| acc.checked_mul(len))
                .unwrap_or(usize::MAX),
            SweepMode::Zip => lens.into_iter().map(|(_, l)| l).max().unwrap_or(0),
        }
    }
}

/// One fully concrete configuration produced by expanding a
/// [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPoint {
    /// Position in the scenario's expansion order.
    pub index: usize,
    /// Worker node count.
    pub nodes: usize,
    /// HDFS block size, MiB.
    pub block_mb: u64,
    /// Task container memory, MiB.
    pub container_mb: u32,
    /// RM scheduler.
    pub scheduler: SchedulerPolicy,
    /// The workload mix, reduce counts resolved at `nodes`.
    pub mix: ResolvedMix,
    /// How the mix's jobs arrive over time.
    pub arrivals: ArrivalSchedule,
    /// Total Poisson arrival rate λ (jobs/second); `None` is the closed
    /// (batch/scheduled) case.
    pub arrival_rate: Option<f64>,
    /// Map-attempt failure probability (simulator backends only).
    pub map_failure_prob: f64,
    /// Node-0 slowdown factor — straggler injection (simulator backends
    /// only; 1.0 = homogeneous).
    pub slow_node_factor: f64,
    /// Reported estimator series.
    pub estimator: EstimatorKind,
    /// Base simulator seed.
    pub seed: u64,
}

/// Refuse `jobs` jobs submitted at once on `nodes` nodes with
/// `container_mb` MiB containers when their application masters would
/// leave no node room for a task container: the simulator would
/// deadlock ([`mapreduce_sim::batch_deadlock_jobs`]).
fn batch_deadlock(nodes: usize, container_mb: u32, jobs: usize) -> Result<(), String> {
    let cfg = SimConfig {
        container_size: yarn_sim::ResourceVector::new(container_mb.into(), 1),
        ..SimConfig::paper_testbed(nodes)
    };
    match mapreduce_sim::batch_deadlock_jobs(&cfg) {
        Some(bound) if jobs >= bound => Err(format!(
            "{jobs} batch-submitted jobs deadlock the simulator on {nodes} node(s) with \
             {container_mb} MB containers: their application masters leave no room for a \
             task container (the bound is {} jobs)",
            bound - 1
        )),
        _ => Ok(()),
    }
}

impl EvalPoint {
    /// The simulator/model cluster configuration for this point.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_testbed(self.nodes);
        cfg.block_size = self.block_mb * MB;
        cfg.container_size = yarn_sim::ResourceVector::new(self.container_mb.into(), 1);
        cfg.scheduler = self.scheduler;
        cfg.map_failure_prob = self.map_failure_prob;
        cfg.slow_node_factor = self.slow_node_factor;
        cfg.seed = self.seed;
        cfg
    }

    /// Total concurrent jobs at this point.
    pub fn total_jobs(&self) -> usize {
        self.mix.total_jobs()
    }

    /// Refuse a point whose jobs all arrive at once (a schedule that
    /// [submits them at once](ArrivalSchedule::submits_at_once), no open
    /// rate, no entry offsets) in a number that deadlocks the simulator.
    /// Points whose jobs arrive over time are not checked.
    pub fn check_batch_deadlock(&self) -> Result<(), String> {
        let batch = self.arrivals.submits_at_once()
            && self.arrival_rate.is_none()
            && self.mix.entries.iter().all(|e| e.submit_offset_ms == 0);
        if batch {
            batch_deadlock(self.nodes, self.container_mb, self.total_jobs())
        } else {
            Ok(())
        }
    }

    /// The full concurrent job list for this point, in submission
    /// order.
    pub fn job_specs(&self) -> Vec<JobSpec> {
        self.mix.job_specs()
    }

    /// Every job's submission time in seconds, in submission order:
    /// the entry's own offset plus the arrival schedule's per-job
    /// offset. All zeros under default (batch, offset-free) workloads.
    ///
    /// With an open [`EvalPoint::arrival_rate`], the offsets are
    /// instead one sampled Poisson-process realization — exponential
    /// interarrivals at rate λ, cumulated over the flattened submission
    /// order — drawn deterministically from the point's seed, so the
    /// simulator sees the arrival process the open model solves for
    /// and identical points stay content-addressable.
    pub fn submit_offsets(&self) -> Vec<f64> {
        let total = self.total_jobs();
        if let Some(rate) = self.arrival_rate {
            let mut rng = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x243f_6a88_85a3_08d3;
            let mut t = 0.0;
            return (0..total)
                .map(|_| {
                    // splitmix64 → uniform in (0, 1] → exponential.
                    rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = rng;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    let u = ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                    t += -u.ln() / rate;
                    t
                })
                .collect();
        }
        let mut out = Vec::with_capacity(total);
        let mut j = 0;
        for e in &self.mix.entries {
            for _ in 0..e.count {
                out.push(e.submit_offset_ms as f64 / 1000.0 + self.arrivals.offset_secs(j));
                j += 1;
            }
        }
        out
    }

    /// Display name of the point's arrival process: the schedule's own
    /// name, or `poisson@λ/s` for an open stream.
    pub fn arrivals_name(&self) -> String {
        match self.arrival_rate {
            Some(rate) => format!("poisson@{rate}/s"),
            None => self.arrivals.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counts() {
        let s = Scenario::new("t")
            .axis_nodes([4usize, 6, 8])
            .axis_n_jobs([1usize, 2])
            .axis_estimators(EstimatorKind::ALL);
        assert_eq!(s.num_points(), 3 * 2 * 4);
        s.validate();
    }

    #[test]
    fn mix_axis_counts_as_one_axis() {
        let s = Scenario::new("t").axis_nodes([4usize, 6]).axis_mixes([
            WorkloadMix::single(JobKind::WordCount, GB, 2),
            WorkloadMix::new([
                MixEntry::new(JobKind::WordCount, GB, 1),
                MixEntry::new(JobKind::TeraSort, 2 * GB, 1),
                MixEntry::new(JobKind::Grep, GB, 2),
            ]),
        ]);
        assert_eq!(s.num_points(), 2 * 2);
        s.validate();
        assert_eq!(s.workload_values().len(), 2);
        assert_eq!(s.workload_values()[1].total_jobs(), 4);
    }

    #[test]
    fn grid_conveniences_cross_into_single_entry_mixes() {
        let s = Scenario::new("t")
            .axis_jobs([JobKind::WordCount, JobKind::Grep])
            .axis_input_bytes([GB, 2 * GB])
            .axis_n_jobs([1usize, 3]);
        let mixes = s.workload_values();
        assert_eq!(mixes.len(), 8, "jobs × input_bytes × n_jobs");
        // Rightmost (N) fastest, jobs outermost — the pre-mix order.
        assert_eq!(mixes[0].entries[0].job, JobKind::WordCount);
        assert_eq!(mixes[0].entries[0].count, 1);
        assert_eq!(mixes[1].entries[0].count, 3);
        assert_eq!(mixes[2].entries[0].input_bytes, 2 * GB);
        assert_eq!(mixes[4].entries[0].job, JobKind::Grep);
        assert!(mixes.iter().all(|m| m.entries.len() == 1));
    }

    #[test]
    #[should_panic(expected = "axis_jobs: the workload axis already holds explicit mixes")]
    fn grid_setters_reject_an_explicit_mix_axis() {
        let _ = Scenario::new("t")
            .axis_mixes([WorkloadMix::single(JobKind::WordCount, GB, 1)])
            .axis_jobs([JobKind::Grep]);
    }

    #[test]
    fn zip_counts_take_longest_axis() {
        let s = Scenario::new("t")
            .sweep_mode(SweepMode::Zip)
            .axis_nodes([4usize, 6, 8])
            .axis_input_bytes([GB, 2 * GB, 5 * GB]);
        assert_eq!(s.num_points(), 3);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "zip axis")]
    fn zip_rejects_mismatched_lengths() {
        Scenario::new("t")
            .sweep_mode(SweepMode::Zip)
            .axis_nodes([4usize, 6, 8])
            .axis_n_jobs([1usize, 2])
            .validate();
    }

    #[test]
    #[should_panic(expected = "axis is empty")]
    fn empty_axis_rejected() {
        Scenario::new("t").axis_nodes(Vec::new()).validate();
    }

    #[test]
    fn num_points_saturates_instead_of_wrapping() {
        // 8 axes of 256 entries: 256^8 = 2^64 would wrap to 0 and slip
        // under any size guard; it must saturate instead.
        let axis: Vec<usize> = (1..=256).collect();
        let s = Scenario::new("huge")
            .axis_nodes(axis.clone())
            .axis_block_mb((1u64..=256).collect::<Vec<_>>())
            .axis_container_mb((1u32..=256).collect::<Vec<_>>())
            .axis_schedulers(vec![SchedulerPolicy::CapacityFifo; 256])
            .axis_jobs(vec![JobKind::WordCount; 256])
            .axis_input_bytes((1u64..=256).collect::<Vec<_>>())
            .axis_n_jobs(axis)
            .axis_estimators(vec![EstimatorKind::ForkJoin; 256]);
        assert_eq!(s.num_points(), usize::MAX);
    }

    #[test]
    fn check_reports_instead_of_panicking() {
        assert_eq!(Scenario::new("t").check(), Ok(()));
        let e = Scenario::new("t")
            .axis_jobs(Vec::new())
            .check()
            .unwrap_err();
        assert_eq!(e, "jobs axis is empty");
        let mut s = Scenario::new("t");
        s.backends = Backends {
            analytic: false,
            profile_calibration: false,
            simulator: None,
        };
        assert!(s.check().unwrap_err().contains("at least one backend"));
        assert!(Scenario::new("t")
            .axis_map_failure_prob([1.5])
            .check()
            .unwrap_err()
            .contains("outside [0, 1)"));
        assert!(Scenario::new("t")
            .axis_mixes(vec![WorkloadMix::new(Vec::new())])
            .check()
            .unwrap_err()
            .contains("no entries"));
    }

    #[test]
    fn check_refuses_batch_points_that_deadlock_the_simulator() {
        let sim = |s: Scenario| {
            s.with_backends(Backends {
                analytic: false,
                profile_calibration: false,
                simulator: Some(1),
            })
        };
        // Cartesian: the one-node point of four jobs deadlocks.
        let e = sim(Scenario::new("t")
            .axis_nodes([2usize, 1])
            .axis_n_jobs([4usize]))
        .check()
        .unwrap_err();
        assert!(
            e.contains("on 1 node(s)") && e.contains("the bound is 3 jobs"),
            "{e}"
        );
        // Larger containers crowd tasks out sooner: three 1 GB AMs
        // leave no room for a 2 GB task.
        let big = sim(Scenario::new("t")
            .axis_nodes([1usize])
            .axis_n_jobs([3usize]));
        assert_eq!(big.clone().check(), Ok(()));
        assert!(big.axis_container_mb([1024u32, 2048]).check().is_err());
        // The analytic model alone, arrivals spread over time and mixes
        // with submit offsets are not checked.
        let wedged = Scenario::new("t")
            .axis_nodes([1usize])
            .axis_n_jobs([4usize]);
        assert_eq!(
            wedged
                .clone()
                .with_backends(Backends::analytic_only())
                .check(),
            Ok(())
        );
        let staggered = |interval_ms| ArrivalSchedule::Staggered { interval_ms };
        let trace = |offset| ArrivalSchedule::Trace {
            offsets_ms: vec![0, 0, 0, offset],
        };
        for spread in [staggered(1), trace(1)] {
            assert_eq!(sim(wedged.clone()).axis_arrivals([spread]).check(), Ok(()));
        }
        // A zero stagger and a trace of zeros submit every job at once.
        for at_once in [staggered(0), trace(0)] {
            let e = sim(wedged.clone())
                .axis_arrivals([at_once])
                .check()
                .unwrap_err();
            assert!(e.contains("the bound is 3 jobs"), "{e}");
        }
        assert_eq!(
            sim(wedged.clone()).axis_arrival_rate([1e-3]).check(),
            Ok(())
        );
        let offset = WorkloadMix::new([MixEntry::new(JobKind::Grep, GB, 4).at_offset_ms(1)]);
        assert_eq!(sim(wedged.axis_mixes([offset])).check(), Ok(()));
        // Zip pairs position by position: four jobs on two nodes run.
        let zip = |nodes: [usize; 2], jobs: [usize; 2]| {
            sim(Scenario::new("t").sweep_mode(SweepMode::Zip))
                .axis_nodes(nodes)
                .axis_n_jobs(jobs)
                .check()
        };
        assert_eq!(zip([2, 1], [4, 3]), Ok(()));
        assert!(zip([2, 1], [3, 4]).unwrap_err().contains("on 1 node(s)"));
    }

    #[test]
    fn cartesian_trace_check_builds_only_the_first_failing_mix() {
        // The pairing walk the check replaces: every schedule against
        // every mix of the built grid.
        let walk = |s: &Scenario| -> Result<(), String> {
            let mixes = s.workload_values();
            for a in &s.arrivals {
                for m in &mixes {
                    a.check(m)?;
                }
            }
            Ok(())
        };
        let trace = |jobs: usize| ArrivalSchedule::Trace {
            offsets_ms: vec![0; jobs],
        };
        let kinds = [JobKind::Grep, JobKind::TeraSort, JobKind::WordCount];
        let grid = |width: usize, n_jobs: Vec<usize>| {
            Scenario::new("t")
                .axis_jobs(
                    kinds
                        .iter()
                        .copied()
                        .cycle()
                        .take(width)
                        .collect::<Vec<_>>(),
                )
                .axis_input_bytes((1..=width as u64).map(|i| i * GB).collect::<Vec<_>>())
                .axis_n_jobs(n_jobs)
        };
        for (arrivals, n_jobs) in [
            (vec![trace(3)], vec![3, 3, 5, 1]),
            (vec![ArrivalSchedule::Batch, trace(3), trace(5)], vec![3, 5]),
            (vec![trace(2)], vec![2]),
        ] {
            let s = grid(3, n_jobs).axis_arrivals(arrivals);
            assert_eq!(s.check(), walk(&s));
        }
        let mixes = WorkloadMix::new([MixEntry::new(JobKind::Grep, GB, 2)]);
        let s = Scenario::new("t")
            .axis_mixes([
                mixes.clone(),
                mixes.and(MixEntry::new(JobKind::Grep, GB, 1)),
            ])
            .axis_arrivals([trace(2)]);
        assert_eq!(s.check(), walk(&s));

        // 10^9 mixes: walking them would not finish; the check answers
        // with the same error as the grid's first column.
        let n_jobs: Vec<usize> = (1..=1000).collect();
        let huge = grid(1000, n_jobs.clone()).axis_arrivals([trace(3)]);
        let first = grid(1, n_jobs).axis_arrivals([trace(3)]);
        let e = huge.check().unwrap_err();
        assert_eq!(Err(e.clone()), walk(&first));
        assert!(e.contains("has 1 jobs"), "{e}");
    }

    #[test]
    fn check_validates_reduce_counts_centrally() {
        // A zero fixed reduce count is rejected for every job kind —
        // including the ones that used to silently clamp it.
        let e = Scenario::new("t")
            .reduce_policy(ReducePolicy::Fixed(0))
            .check()
            .unwrap_err();
        assert!(e.contains("must be positive"), "{e}");
        let e = Scenario::new("t")
            .axis_mixes([WorkloadMix::new([
                MixEntry::new(JobKind::Grep, GB, 1).with_reduces(ReducePolicy::Fixed(0))
            ])])
            .check()
            .unwrap_err();
        assert!(e.contains("grep@1024MB"), "names the entry: {e}");
        // A node count that can't be a u32 reduce count is rejected
        // instead of silently truncated.
        if usize::BITS > 32 {
            let e = Scenario::new("t")
                .axis_nodes([(u32::MAX as usize) + 1])
                .check()
                .unwrap_err();
            assert!(e.contains("per-node reduce count"), "{e}");
        }
        // Zero-count entries are rejected too.
        let e = Scenario::new("t")
            .axis_mixes([WorkloadMix::single(JobKind::WordCount, GB, 0)])
            .check()
            .unwrap_err();
        assert!(e.contains("count 0"), "{e}");
    }

    #[test]
    fn reduce_policy_resolution() {
        assert_eq!(ReducePolicy::PerNode.reduces(6), 6);
        assert_eq!(ReducePolicy::Fixed(3).reduces(6), 3);
        assert!(ReducePolicy::Fixed(0).try_reduces(6).is_err());
    }

    #[test]
    fn mix_naming_and_hashing_are_stable() {
        let mix = WorkloadMix::new([
            MixEntry::new(JobKind::WordCount, GB, 2),
            MixEntry::new(JobKind::TeraSort, 5 * GB, 1).with_reduces(ReducePolicy::Fixed(3)),
        ]);
        assert_eq!(mix.name(), "2xwordcount@1024MB + 1xterasort@5120MB:r3");
        assert_eq!(mix.total_jobs(), 3);
        let resolved = mix.resolve(4);
        assert_eq!(resolved.entries[0].reduces, 4);
        assert_eq!(resolved.entries[1].reduces, 3);
        assert_eq!(resolved.name(), "2xwordcount@1024MB+1xterasort@5120MB");
        assert_eq!(resolved.job_specs().len(), 3);

        let key = |m: &ResolvedMix| m.hash_into(KeyHasher::new()).finish();
        assert_eq!(key(&resolved), key(&mix.resolve(4)), "canonical form");
        assert_ne!(key(&resolved), key(&mix.resolve(6)), "reduces differ");
        // Entry order is semantic: a reordered mix is a different form.
        let swapped = WorkloadMix::new([mix.entries[1], mix.entries[0]]).resolve(4);
        assert_ne!(key(&resolved), key(&swapped));
        // And a policy-differing mix that resolves identically shares
        // the canonical form (evaluations would be identical).
        let fixed = WorkloadMix::new([
            MixEntry::new(JobKind::WordCount, GB, 2).with_reduces(ReducePolicy::Fixed(4)),
            mix.entries[1],
        ]);
        assert_eq!(key(&resolved), key(&fixed.resolve(4)));
    }

    #[test]
    fn grep_accepts_any_validated_reduce_count() {
        // The old Grep-only `.max(1)` clamp is gone: the kind uses the
        // validated count like every other preset.
        assert_eq!(JobKind::Grep.spec(GB, 3).reduces, 3);
        assert_eq!(JobKind::WordCount.spec(GB, 3).reduces, 3);
    }

    #[test]
    fn point_materializes_config_and_specs() {
        let p = EvalPoint {
            index: 0,
            nodes: 6,
            block_mb: 64,
            container_mb: 2048,
            scheduler: SchedulerPolicy::Fair,
            mix: WorkloadMix::new([
                MixEntry::new(JobKind::TeraSort, GB, 2),
                MixEntry::new(JobKind::Grep, GB, 1),
            ])
            .resolve(6),
            arrivals: ArrivalSchedule::Batch,
            arrival_rate: None,
            map_failure_prob: 0.1,
            slow_node_factor: 2.5,
            estimator: EstimatorKind::Tripathi,
            seed: 9,
        };
        let cfg = p.sim_config();
        assert_eq!(cfg.nodes, 6);
        assert_eq!(cfg.block_size, 64 * MB);
        assert_eq!(cfg.scheduler, SchedulerPolicy::Fair);
        assert_eq!(cfg.map_failure_prob, 0.1);
        assert_eq!(cfg.slow_node_factor, 2.5);
        assert_eq!(cfg.seed, 9);
        let specs = p.job_specs();
        assert_eq!(specs.len(), 3);
        assert_eq!(p.total_jobs(), 3);
        assert_eq!(specs[0].reduces, 6);
        assert_eq!(specs[2].reduces, 6, "grep takes the per-node count too");
        for s in &specs {
            s.validate();
        }
        assert_eq!(p.submit_offsets(), vec![0.0; 3], "batch is all-zero");
    }

    #[test]
    fn submit_offsets_layer_schedule_on_entry_offsets() {
        let mix = WorkloadMix::new([
            MixEntry::new(JobKind::WordCount, GB, 2).at_offset_ms(250),
            MixEntry::new(JobKind::Grep, GB, 1).at_offset_ms(4000),
        ]);
        let point = |arrivals: ArrivalSchedule| EvalPoint {
            index: 0,
            nodes: 4,
            block_mb: 128,
            container_mb: 1024,
            scheduler: SchedulerPolicy::CapacityFifo,
            mix: mix.resolve(4),
            arrivals,
            arrival_rate: None,
            map_failure_prob: 0.0,
            slow_node_factor: 1.0,
            estimator: EstimatorKind::ForkJoin,
            seed: 1,
        };
        // Batch: per-entry offsets only; copies of one entry share it.
        assert_eq!(
            point(ArrivalSchedule::Batch).submit_offsets(),
            vec![0.25, 0.25, 4.0]
        );
        // Staggered: job index × interval on top of the entry offsets.
        assert_eq!(
            point(ArrivalSchedule::Staggered { interval_ms: 1000 }).submit_offsets(),
            vec![0.25, 1.25, 6.0]
        );
        // Trace: explicit per-job offsets on top.
        assert_eq!(
            point(ArrivalSchedule::Trace {
                offsets_ms: vec![0, 500, 100]
            })
            .submit_offsets(),
            vec![0.25, 0.75, 4.1]
        );
    }

    #[test]
    fn arrival_schedule_names_hashes_and_checks() {
        assert_eq!(ArrivalSchedule::Batch.name(), "batch");
        assert_eq!(
            ArrivalSchedule::Staggered { interval_ms: 500 }.name(),
            "stagger@500ms"
        );
        let trace = ArrivalSchedule::Trace {
            offsets_ms: vec![0, 10, 20],
        };
        assert_eq!(trace.name(), "trace[3]");

        let key = |a: &ArrivalSchedule| a.hash_into(KeyHasher::new()).finish();
        assert_ne!(key(&ArrivalSchedule::Batch), key(&trace));
        // Batch and a zero stagger evaluate identically but are
        // distinct canonical forms.
        assert_ne!(
            key(&ArrivalSchedule::Batch),
            key(&ArrivalSchedule::Staggered { interval_ms: 0 })
        );
        assert_ne!(
            key(&trace),
            key(&ArrivalSchedule::Trace {
                offsets_ms: vec![0, 10, 30]
            })
        );

        // A trace schedule must cover every job of its mix.
        let mix = WorkloadMix::single(JobKind::WordCount, GB, 3);
        assert!(trace.check(&mix).is_ok());
        let short = ArrivalSchedule::Trace {
            offsets_ms: vec![0],
        };
        let e = short.check(&mix).unwrap_err();
        assert!(e.contains("1 offsets") && e.contains("3 jobs"), "{e}");
        assert!(ArrivalSchedule::Batch.check(&mix).is_ok());
    }

    #[test]
    fn arrivals_axis_participates_in_check_and_counts() {
        let s = Scenario::new("t").axis_n_jobs([2usize]).axis_arrivals([
            ArrivalSchedule::Batch,
            ArrivalSchedule::Staggered { interval_ms: 500 },
            ArrivalSchedule::Trace {
                offsets_ms: vec![0, 2000],
            },
        ]);
        assert_eq!(s.num_points(), 3);
        s.validate();

        // A trace that doesn't match a mix's job count is rejected
        // against every cartesian pairing.
        let e = Scenario::new("t")
            .axis_n_jobs([2usize, 3])
            .axis_arrivals([ArrivalSchedule::Trace {
                offsets_ms: vec![0, 2000],
            }])
            .check()
            .unwrap_err();
        assert!(e.contains("2 offsets"), "{e}");

        // In zip mode only position-wise pairings are validated.
        Scenario::new("t")
            .sweep_mode(SweepMode::Zip)
            .axis_n_jobs([2usize, 3])
            .axis_arrivals([
                ArrivalSchedule::Trace {
                    offsets_ms: vec![0, 2000],
                },
                ArrivalSchedule::Trace {
                    offsets_ms: vec![0, 1000, 2000],
                },
            ])
            .validate();
    }

    #[test]
    fn arrival_rate_axis_is_validated_and_counted() {
        let s = Scenario::new("t").axis_arrival_rate([0.01, 0.05, 0.1]);
        assert_eq!(s.num_points(), 3);
        s.validate();
        // Open and closed points can share a sweep.
        let s = Scenario::new("t").axis_arrival_rate_opt([None, Some(0.1)]);
        assert_eq!(s.num_points(), 2);
        s.validate();

        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let e = Scenario::new("t")
                .axis_arrival_rate([bad])
                .check()
                .unwrap_err();
            assert!(e.contains("arrival_rate"), "{bad} → {e}");
        }
        // A rate replaces the schedule; pairing it with a staggered or
        // trace schedule is rejected.
        let e = Scenario::new("t")
            .axis_arrival_rate([0.1])
            .axis_arrivals([ArrivalSchedule::Staggered { interval_ms: 500 }])
            .check()
            .unwrap_err();
        assert!(e.contains("batch arrivals"), "{e}");
    }

    #[test]
    fn poisson_offsets_are_deterministic_increasing_and_seeded() {
        let mk = |seed: u64, rate: Option<f64>| EvalPoint {
            index: 0,
            nodes: 4,
            block_mb: 128,
            container_mb: 1024,
            scheduler: SchedulerPolicy::CapacityFifo,
            mix: WorkloadMix::single(JobKind::WordCount, GB, 8).resolve(4),
            arrivals: ArrivalSchedule::Batch,
            arrival_rate: rate,
            map_failure_prob: 0.0,
            slow_node_factor: 1.0,
            estimator: EstimatorKind::ForkJoin,
            seed,
        };
        let a = mk(1, Some(0.1)).submit_offsets();
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert!(a[0] > 0.0 && a.iter().all(|t| t.is_finite()));
        assert_eq!(a, mk(1, Some(0.1)).submit_offsets(), "seed-deterministic");
        assert_ne!(a, mk(2, Some(0.1)).submit_offsets(), "seed-sensitive");
        // Mean interarrival ≈ 1/λ within a loose sampling band.
        let mean = a.last().unwrap() / 8.0;
        assert!(mean > 2.0 && mean < 50.0, "mean interarrival {mean}");
        // A faster stream compresses the same realization.
        let fast = mk(1, Some(1.0)).submit_offsets();
        assert!(fast.last().unwrap() < a.last().unwrap());
        // Closed points keep the schedule-driven (all-zero) offsets.
        assert_eq!(mk(1, None).submit_offsets(), vec![0.0; 8]);
        assert_eq!(mk(1, None).arrivals_name(), "batch");
        assert_eq!(mk(1, Some(0.1)).arrivals_name(), "poisson@0.1/s");
    }

    #[test]
    fn slow_node_factor_axis_is_validated() {
        let s = Scenario::new("t").axis_slow_node_factor([1.0, 2.0, 8.0]);
        assert_eq!(s.num_points(), 3);
        s.validate();
        for bad in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = Scenario::new("t")
                .axis_slow_node_factor([bad])
                .check()
                .unwrap_err();
            assert!(e.contains("slow_node_factor"), "{bad} → {e}");
        }
    }

    #[test]
    fn entry_offsets_enter_names_and_canonical_form() {
        let plain = WorkloadMix::single(JobKind::WordCount, GB, 1);
        let offset = WorkloadMix::new([MixEntry::new(JobKind::WordCount, GB, 1).at_offset_ms(750)]);
        assert_eq!(offset.entries[0].name(), "1xwordcount@1024MB+750ms");
        assert_eq!(
            offset.entries[0].label(),
            "wordcount@1024MB",
            "label ignores offsets"
        );
        assert_eq!(offset.resolve(4).name(), "1xwordcount@1024MB+750ms");
        let key = |m: &WorkloadMix| m.resolve(4).hash_into(KeyHasher::new()).finish();
        assert_ne!(key(&plain), key(&offset), "offset is an evaluation input");
    }
}
