//! The batch runner: evaluates every point of a scenario through the
//! content-hashed [`ResultCache`].
//!
//! Points claim themselves off a shared atomic counter, so load
//! balances itself the way a work-stealing deque would for this
//! one-level task graph. The calling thread runs the claim loop, helped
//! by `min(available_parallelism(), distinct points) − 1` scoped
//! threads: a sweep on one CPU, or of one distinct point, spawns no
//! thread, and its `point.*` spans nest under the caller's open spans.
//! Helper threads do not inherit the caller's trace context (see
//! `mr2_obs`). Every point's evaluation is a pure function of the point
//! (simulator seeds are per-point config, never thread state), so
//! results are bit-identical whichever thread evaluates them, and come
//! back in expansion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mapreduce_sim::profile::{profile_job, MeasuredProfile};
use mapreduce_sim::{JobSpec, SimPoint};
use mr2_model::{Calibration, ClassPoint, MixClass, ModelOptions, ModelPoint};

use crate::cache::{KeyHasher, ResultCache};
use crate::spec::{EstimatorKind, EvalPoint, ResolvedEntry, Scenario};

/// Ground truth of one evaluated point (simulator backend).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Median over repetitions of the per-rep mean response time, over
    /// all jobs of the mix (responses measured from each job's own
    /// submit time).
    pub median_response: f64,
    /// Mean over repetitions.
    pub mean_response: f64,
    /// Median over repetitions of the makespan (first submission →
    /// last completion). Diverges from response time under staggered
    /// or trace arrivals.
    pub makespan: f64,
    /// Per mix entry, in submission order: median over repetitions of
    /// that class's per-rep mean response.
    pub per_class_median: Vec<f64>,
    /// Repetitions used.
    pub reps: usize,
}

/// Everything the runner produced for one [`EvalPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The evaluated configuration.
    pub point: EvalPoint,
    /// Analytic estimates (when the analytic backend is enabled).
    pub model: Option<ModelPoint>,
    /// Simulator ground truth (when the simulator backend is enabled).
    pub sim: Option<SimResult>,
}

impl PointResult {
    /// The aggregate estimate of the point's selected estimator series.
    pub fn estimate(&self) -> Option<f64> {
        self.model.as_ref().map(|m| select(m, self.point.estimator))
    }

    /// The measured (simulated) response the estimate is judged against.
    pub fn measured(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| s.median_response)
    }

    /// The model's makespan estimate (fork/join-based — the paper's
    /// best estimator — regardless of the point's reporting series).
    pub fn estimate_makespan(&self) -> Option<f64> {
        self.model.as_ref().map(|m| m.makespan)
    }

    /// The measured (simulated) makespan.
    pub fn measured_makespan(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| s.makespan)
    }

    /// The selected series' estimate for mix entry `class`.
    pub fn class_estimate(&self, class: usize) -> Option<f64> {
        let m = self.model.as_ref()?;
        Some(select_class(m.per_class.get(class)?, self.point.estimator))
    }

    /// The measured response of mix entry `class`.
    pub fn class_measured(&self, class: usize) -> Option<f64> {
        self.sim.as_ref()?.per_class_median.get(class).copied()
    }
}

/// Pick one estimator series out of a full model solve's aggregate.
pub fn select(m: &ModelPoint, e: EstimatorKind) -> f64 {
    match e {
        EstimatorKind::ForkJoin => m.fork_join,
        EstimatorKind::Tripathi => m.tripathi,
        EstimatorKind::Aria => m.aria,
        EstimatorKind::Herodotou => m.herodotou,
    }
}

/// Pick one estimator series out of a per-class estimate.
pub fn select_class(c: &ClassPoint, e: EstimatorKind) -> f64 {
    match e {
        EstimatorKind::ForkJoin => c.fork_join,
        EstimatorKind::Tripathi => c.tripathi,
        EstimatorKind::Aria => c.aria,
        EstimatorKind::Herodotou => c.herodotou,
    }
}

/// A completed sweep: per-point results in expansion order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The scenario name.
    pub name: String,
    /// One result per expanded point, in expansion (index) order.
    pub points: Vec<PointResult>,
}

/// Expand `scenario` and evaluate every point through `cache`, on the
/// calling thread and its helpers (see the module docs). Results come
/// back in expansion order regardless of scheduling.
///
/// Points that share an evaluation signature (everything but `index`
/// and `estimator` — e.g. the whole estimator axis of one
/// configuration) are deduplicated *before* dispatch, so concurrent
/// threads never race to compute the same record and each distinct
/// configuration is evaluated exactly once per process.
pub fn run_scenario(scenario: &Scenario, cache: &ResultCache) -> SweepResult {
    run_scenario_streaming(scenario, cache, &|_| {})
}

/// [`run_scenario`] with a per-point completion observer: `on_point` is
/// called once per expanded point — including every deduplicated
/// dependent of a representative — as soon as its result exists, from
/// whichever thread produced it. Completion order across
/// configurations follows scheduling; points sharing one signature are
/// emitted back-to-back in index order. The full [`SweepResult`] is
/// still returned at the end, identical to the non-streaming run.
///
/// This is what lets a server stream a large sweep as NDJSON: the first
/// line leaves the process while later points are still computing,
/// instead of the whole grid gating the first byte.
pub fn run_scenario_streaming(
    scenario: &Scenario,
    cache: &ResultCache,
    on_point: &(dyn Fn(PointResult) + Sync),
) -> SweepResult {
    let points = crate::expand(scenario);

    // Map every point to the representative slot of its signature.
    let mut first_with_sig: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::new();
    let mut rep_of: Vec<usize> = Vec::with_capacity(points.len());
    let mut unique: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let sig = point_key(p).finish();
        let rep = *first_with_sig.entry(sig).or_insert_with(|| {
            unique.push(i);
            i
        });
        rep_of.push(rep);
    }

    // Inverse of `rep_of`: which indices each representative stands
    // for, in index order.
    let mut dependents = vec![Vec::new(); points.len()];
    for (i, &rep) in rep_of.iter().enumerate() {
        dependents[rep].push(i);
    }

    let next = AtomicUsize::new(0);
    // One write-once slot per point: each representative index is
    // claimed by exactly one thread, so publication is a single atomic
    // store.
    let slots: Vec<OnceLock<PointResult>> = points.iter().map(|_| OnceLock::new()).collect();
    let claim = || loop {
        let u = next.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = unique.get(u) else { break };
        let result = evaluate_point(&points[i], &scenario.backends, cache);
        slots[i]
            .set(result)
            .expect("each representative claimed by one thread");
        let rep = slots[i].get().expect("just set");
        for &j in &dependents[i] {
            on_point(PointResult {
                point: points[j].clone(),
                model: rep.model.clone(),
                sim: rep.sim.clone(),
            });
        }
    };
    // The caller is one of the evaluating threads; extra threads could
    // never claim work past the distinct points.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = cpus.min(unique.len()).saturating_sub(1);
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(claim);
        }
        claim();
    });

    let evaluated: Vec<Option<PointResult>> = slots.into_iter().map(|s| s.into_inner()).collect();
    SweepResult {
        name: scenario.name.clone(),
        points: points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let rep = evaluated[rep_of[i]]
                    .as_ref()
                    .expect("every representative evaluated");
                PointResult {
                    point: p.clone(),
                    model: rep.model.clone(),
                    sim: rep.sim.clone(),
                }
            })
            .collect(),
    }
}

/// Evaluate one point against the configured backends, via the cache.
pub fn evaluate_point(
    point: &EvalPoint,
    backends: &crate::spec::Backends,
    cache: &ResultCache,
) -> PointResult {
    let cfg = point.sim_config();
    let submits = point.submit_offsets();
    let keys = PointKeys::of(point, backends);

    let sim = keys.sim.map(|(key, reps)| {
        // Outer span: cache lookup + (on a miss) the simulation run;
        // the inner span times the run alone.
        let _phase = mr2_obs::span("point.sim");
        let rec = cache.get_or_compute(key, || {
            let _run = mr2_obs::span("sim.run");
            let classes: Vec<(JobSpec, usize)> = point
                .mix
                .entries
                .iter()
                .map(|e| (e.spec(), e.count))
                .collect();
            mapreduce_sim::eval_mix(&cfg, &classes, &submits, reps).to_record()
        });
        sim_result(&rec, reps)
    });

    let model = keys.model.map(|key| {
        let _phase = mr2_obs::span("point.model");
        let classes: Vec<MixClass> = point
            .mix
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let spec = e.spec();
                // A profiling run executes one job of the class alone,
                // so its key leaves out the copy count: every count of a
                // class on a configuration — and every other mix
                // containing it — shares one profile.
                let profile = keys.profiles.get(i).map(|&key| {
                    let rec = cache.get_or_compute(key, || {
                        let _run = mr2_obs::span("profile.run");
                        profile_job(&spec, &cfg).0.to_record()
                    });
                    MeasuredProfile::from_record(&rec).expect("cached profile record shape")
                });
                MixClass {
                    spec,
                    count: e.count,
                    profile,
                }
            })
            .collect();
        let rec = cache.get_or_compute(key, || {
            let _run = mr2_obs::span("model.eval");
            match point.arrival_rate {
                // Open arrivals: the steady-state Poisson solve replaces
                // the closed batch/schedule evaluation.
                Some(rate) => mr2_model::eval_open_mix(
                    &cfg,
                    &classes,
                    rate,
                    &ModelOptions::default(),
                    &Calibration::default(),
                ),
                None => mr2_model::eval_mix(
                    &cfg,
                    &classes,
                    &submits,
                    &ModelOptions::default(),
                    &Calibration::default(),
                ),
            }
            .to_record()
        });
        model_point(&rec)
    });

    point_result(point, model, sim)
}

/// A point every record of which was ready in the cache, taken by
/// [`lookup_point`]: [`CachedPoint::into_result`] decodes it into the
/// [`PointResult`] that [`evaluate_point`] returns for the point.
#[derive(Debug)]
pub struct CachedPoint {
    /// The simulator record and its repetition count.
    sim: Option<(Arc<Vec<f64>>, usize)>,
    /// The analytic record.
    model: Option<Arc<Vec<f64>>>,
}

/// Take every record [`evaluate_point`] reads for `point` from `cache`
/// at once ([`ResultCache::get_all`]), computing nothing. `None` when
/// any record is missing or in flight: then nothing was counted or
/// touched, and [`evaluate_point`] counts the lookups as it always does.
/// Opens no span, so a point passed on to [`evaluate_point`] leaves no
/// profile sample behind.
pub fn lookup_point(
    point: &EvalPoint,
    backends: &crate::spec::Backends,
    cache: &ResultCache,
) -> Option<CachedPoint> {
    let keys = PointKeys::of(point, backends);
    let mut records = cache.get_all(&keys.in_lookup_order())?.into_iter();
    let sim = keys
        .sim
        .map(|(_, reps)| (records.next().expect("a record per key"), reps));
    let model = keys
        .model
        .map(|_| records.next_back().expect("a record per key"));
    Some(CachedPoint { sim, model })
}

impl CachedPoint {
    /// Decode the records under the `point.sim` and `point.model` spans
    /// [`evaluate_point`] opens, and count the point evaluated.
    pub fn into_result(self, point: &EvalPoint) -> PointResult {
        let sim = self.sim.map(|(rec, reps)| {
            let _phase = mr2_obs::span("point.sim");
            sim_result(&rec, reps)
        });
        let model = self.model.map(|rec| {
            let _phase = mr2_obs::span("point.model");
            model_point(&rec)
        });
        point_result(point, model, sim)
    }
}

/// The cache keys of the records a point reads, as [`evaluate_point`]
/// and [`lookup_point`] both derive them.
struct PointKeys {
    /// The simulator record, with its repetition count.
    sim: Option<(u64, usize)>,
    /// One profiling record per mix entry, with profile calibration on.
    profiles: Vec<u64>,
    /// The analytic record.
    model: Option<u64>,
}

impl PointKeys {
    /// Hash the cluster once and the full point signature once; the
    /// backend keys and the per-entry profile keys continue from these
    /// prefixes (a `KeyHasher` clone is a register copy) instead of
    /// re-hashing the cluster/mix/arrivals per key.
    fn of(point: &EvalPoint, backends: &crate::spec::Backends) -> PointKeys {
        let cluster = cluster_key(point);
        let base = point_key_from(cluster.clone(), point);
        let calibrated = backends.analytic && backends.profile_calibration;
        PointKeys {
            sim: backends
                .simulator
                .map(|reps| (base.clone().str("sim").u64(reps as u64).finish(), reps)),
            profiles: if calibrated {
                point
                    .mix
                    .entries
                    .iter()
                    .map(|e| profile_key(&cluster, e))
                    .collect()
            } else {
                Vec::new()
            },
            model: backends.analytic.then(|| {
                base.str("model")
                    .bool(backends.profile_calibration)
                    .finish()
            }),
        }
    }

    /// Every key in the order [`evaluate_point`] looks them up: the
    /// simulator record, the profiles, then the analytic record.
    fn in_lookup_order(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.profiles.len() + 2);
        keys.extend(self.sim.map(|(key, _)| key));
        keys.extend(&self.profiles);
        keys.extend(self.model);
        keys
    }
}

/// Decode a cached simulator record.
fn sim_result(rec: &[f64], reps: usize) -> SimResult {
    let p = SimPoint::from_record(rec).expect("cached sim record shape");
    SimResult {
        median_response: p.median_response,
        mean_response: p.mean_response,
        makespan: p.makespan,
        per_class_median: p.per_class_median,
        reps,
    }
}

/// Decode a cached analytic record.
fn model_point(rec: &[f64]) -> ModelPoint {
    ModelPoint::from_record(rec).expect("cached model record shape")
}

/// The evaluated point, counted in `mr2_points_evaluated_total`.
fn point_result(
    point: &EvalPoint,
    model: Option<ModelPoint>,
    sim: Option<SimResult>,
) -> PointResult {
    points_evaluated().inc();
    PointResult {
        point: point.clone(),
        model,
        sim,
    }
}

/// Points evaluated by [`evaluate_point`] (cache hits included).
fn points_evaluated() -> &'static mr2_obs::Counter {
    static C: OnceLock<mr2_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        mr2_obs::counter(
            "mr2_points_evaluated_total",
            "Evaluation points processed by the scenario runner.",
        )
    })
}

/// Content key of a point's cluster configuration, on a
/// schema-versioned hasher ([`KeyHasher::versioned`]) so model or
/// simulator schema bumps invalidate every persisted result.
/// Deliberately excludes `index` (a position, not an input) and
/// `estimator` (a reporting selector: all four series come from the
/// same solve). The workload mix is appended separately (see
/// [`point_key`]) because profiling runs are keyed per class, not per
/// mix.
fn cluster_key(p: &EvalPoint) -> KeyHasher {
    KeyHasher::versioned()
        .u64(p.nodes as u64)
        .u64(p.block_mb)
        .u64(p.container_mb as u64)
        .str(match p.scheduler {
            mapreduce_sim::SchedulerPolicy::CapacityFifo => "capacity_fifo",
            mapreduce_sim::SchedulerPolicy::Fair => "fair",
        })
        .f64(p.map_failure_prob)
        .f64(p.slow_node_factor)
        .u64(p.seed)
}

/// Content key of a point's full evaluation signature: the cluster, the
/// canonical form of the resolved workload mix, the arrival schedule,
/// and — for open points — the Poisson arrival rate. Each backend
/// appends its tag and the remaining inputs it actually consumes. The
/// arrival schedule and rate deliberately do *not* enter
/// [`profile_key`]: profiling runs execute one job alone at t = 0
/// whatever the point's arrivals.
fn point_key(p: &EvalPoint) -> KeyHasher {
    point_key_from(cluster_key(p), p)
}

/// The point signature continued from an already-hashed cluster prefix
/// — lets [`evaluate_point`] hash the cluster once and fork it into the
/// point signature and the per-entry profile keys.
fn point_key_from(cluster: KeyHasher, p: &EvalPoint) -> KeyHasher {
    let h = p.arrivals.hash_into(p.mix.hash_into(cluster));
    match p.arrival_rate {
        Some(rate) => h.str("open").f64(rate),
        None => h,
    }
}

/// Content key of one class's profiling run: the cluster prefix (from
/// [`cluster_key`]) plus the class's own job/input/reduces — no copy
/// count, no sibling entries, so the profile is shared across every mix
/// and multiprogramming level that contains the class.
fn profile_key(cluster: &KeyHasher, e: &ResolvedEntry) -> u64 {
    cluster
        .clone()
        .str("profile")
        .str(e.job.name())
        .u64(e.input_bytes)
        .u64(e.reduces as u64)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Backends, JobKind, MixEntry, WorkloadMix};
    use mapreduce_sim::MB;

    fn tiny_scenario(name: &str) -> Scenario {
        Scenario::new(name)
            .axis_nodes([2usize])
            .axis_input_bytes([256 * MB])
            .axis_n_jobs([1usize, 2])
            .with_backends(Backends {
                analytic: true,
                profile_calibration: false,
                simulator: Some(1),
            })
    }

    #[test]
    fn runner_fills_every_slot_in_order() {
        let cache = ResultCache::new();
        let r = run_scenario(&tiny_scenario("t"), &cache);
        assert_eq!(r.points.len(), 2);
        for (i, p) in r.points.iter().enumerate() {
            assert_eq!(p.point.index, i);
            assert!(p.estimate().unwrap() > 0.0);
            assert!(p.measured().unwrap() > 0.0);
        }
    }

    #[test]
    fn streaming_observer_sees_every_point_and_matches_the_sweep() {
        let cache = ResultCache::new();
        // The estimator axis dedups to one underlying solve — the
        // observer must still fire once per *expanded* point.
        let s = tiny_scenario("t").axis_estimators(EstimatorKind::ALL);
        let streamed = std::sync::Mutex::new(Vec::new());
        let r = run_scenario_streaming(&s, &cache, &|p| {
            streamed.lock().unwrap().push(p);
        });
        let mut streamed = streamed.into_inner().unwrap();
        assert_eq!(streamed.len(), r.points.len());
        streamed.sort_by_key(|p| p.point.index);
        for (got, want) in streamed.iter().zip(&r.points) {
            assert_eq!(got.point.index, want.point.index);
            assert_eq!(got.estimate(), want.estimate());
            assert_eq!(got.measured(), want.measured());
        }
        // And the observed run returns the same sweep a plain run does.
        let plain = run_scenario(&s, &cache);
        for (a, b) in r.points.iter().zip(&plain.points) {
            assert_eq!(a.estimate(), b.estimate());
        }
    }

    #[test]
    fn estimator_axis_shares_the_underlying_solve() {
        let cache = ResultCache::new();
        let s = tiny_scenario("t")
            .axis_n_jobs([1usize])
            .axis_estimators(EstimatorKind::ALL);
        let r = run_scenario(&s, &cache);
        assert_eq!(r.points.len(), 4);
        // 4 points, one shared configuration: the runner dedupes before
        // dispatch, so exactly one sim + one model evaluation happen and
        // the repeat points never even consult the cache.
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "one sim + one model record");
        assert_eq!(stats.hits, 0, "repeat points are deduped pre-dispatch");
        // All four series come from the same solve and differ per kind.
        let m = r.points[0].model.clone().unwrap();
        for p in &r.points[1..] {
            assert_eq!(p.model.as_ref(), Some(&m));
        }
        assert_ne!(r.points[0].estimate(), r.points[1].estimate());
    }

    #[test]
    fn backend_and_options_change_the_cache_key() {
        let p = crate::expand(&tiny_scenario("t"))[0].clone();
        let with = point_key(&p).str("model").bool(true).finish();
        let without = point_key(&p).str("model").bool(false).finish();
        assert_ne!(with, without, "profile toggle must separate model keys");
        assert_ne!(
            point_key(&p).str("sim").finish(),
            point_key(&p).str("model").finish(),
            "backend tag must separate keys"
        );
    }

    #[test]
    fn failure_probability_axis_changes_the_cache_key() {
        let s = tiny_scenario("t")
            .axis_n_jobs([1usize])
            .axis_map_failure_prob([0.0, 0.2]);
        let pts = crate::expand(&s);
        assert_eq!(pts.len(), 2);
        assert_ne!(
            point_key(&pts[0]).finish(),
            point_key(&pts[1]).finish(),
            "failure probability is an evaluation input"
        );
    }

    #[test]
    fn profile_key_is_shared_across_counts_and_mixes() {
        let pts = crate::expand(&tiny_scenario("t")); // n_jobs axis: [1, 2]
        assert_eq!(
            profile_key(&cluster_key(&pts[0]), &pts[0].mix.entries[0]),
            profile_key(&cluster_key(&pts[1]), &pts[1].mix.entries[0]),
            "a profiling run executes one job alone; N must not split it"
        );
        let cache = ResultCache::new();
        let s = tiny_scenario("t").with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: None,
        });
        // In order on this thread, so the second point's profile lookup
        // is a hit rather than a coalesced wait on the first.
        for p in crate::expand(&s) {
            evaluate_point(&p, &s.backends, &cache);
        }
        // 2 N-points: 1 shared profile record + 2 model records.
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().hits, 1, "second point reuses the profile");

        // A heterogeneous mix containing the same class reuses that
        // class's profile record and only profiles the novel class.
        let het = Scenario::new("het")
            .axis_nodes([2usize])
            .axis_mixes([WorkloadMix::new([
                MixEntry::new(JobKind::WordCount, 256 * MB, 2),
                MixEntry::new(JobKind::Grep, 256 * MB, 1),
            ])])
            .with_backends(Backends {
                analytic: true,
                profile_calibration: true,
                simulator: None,
            });
        run_scenario(&het, &cache);
        // +1 grep profile, +1 mix model record; the wordcount profile
        // is a cache hit.
        assert_eq!(cache.stats().entries, 5);
    }

    /// A two-class point on every backend: four records (simulator, two
    /// profiles, model).
    fn every_backend_point() -> (EvalPoint, Backends) {
        let s = Scenario::new("all")
            .axis_nodes([2usize])
            .axis_mixes([WorkloadMix::new([
                MixEntry::new(JobKind::Grep, 128 * MB, 1),
                MixEntry::new(JobKind::WordCount, 128 * MB, 2),
            ])])
            .with_backends(Backends {
                analytic: true,
                profile_calibration: true,
                simulator: Some(1),
            });
        (crate::expand(&s).remove(0), s.backends)
    }

    #[test]
    fn lookup_point_answers_what_evaluate_point_does_once_every_record_is_ready() {
        let (p, backends) = every_backend_point();
        let cache = ResultCache::new();
        assert!(lookup_point(&p, &backends, &cache).is_none());
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.entries),
            (0, 0, 0),
            "a miss counts nothing"
        );

        let evaluated = evaluate_point(&p, &backends, &cache);
        let before = cache.stats();
        let cached = lookup_point(&p, &backends, &cache).expect("every record is ready");
        assert_eq!(cached.into_result(&p), evaluated);
        let after = cache.stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (4, 0),
            "one hit per record"
        );
        evaluate_point(&p, &backends, &cache);
        assert_eq!(
            cache.stats().hits - after.hits,
            4,
            "the hits evaluate_point counts"
        );
    }

    #[test]
    fn lookup_point_counts_nothing_when_one_record_is_missing() {
        let (p, backends) = every_backend_point();
        let cache = ResultCache::with_capacity(4);
        evaluate_point(&p, &backends, &cache);
        // A fifth record evicts the least recently used: the simulator's.
        cache.get_or_compute(0, || vec![0.0]);
        let before = cache.stats();
        assert_eq!(before.evictions, 1);
        assert!(lookup_point(&p, &backends, &cache).is_none());
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn arrival_rate_enters_the_point_key() {
        let s = tiny_scenario("t")
            .axis_n_jobs([1usize])
            .axis_arrival_rate_opt(vec![None, Some(1e-3), Some(2e-3)]);
        let pts = crate::expand(&s);
        assert_eq!(pts.len(), 3);
        let keys: Vec<u64> = pts.iter().map(|p| point_key(p).finish()).collect();
        assert_ne!(keys[0], keys[1], "open vs closed must not share a record");
        assert_ne!(keys[1], keys[2], "distinct rates must not share a record");
    }

    #[test]
    fn arrival_rate_axis_routes_to_the_open_model() {
        let cache = ResultCache::new();
        let s = Scenario::new("open")
            .axis_nodes([2usize])
            .axis_input_bytes([256 * MB])
            .axis_arrival_rate([1e-3, 2e-3])
            .with_backends(Backends {
                analytic: true,
                profile_calibration: false,
                simulator: None,
            });
        let r = run_scenario(&s, &cache);
        assert_eq!(r.points.len(), 2);
        let m0 = r.points[0].model.as_ref().unwrap();
        let m1 = r.points[1].model.as_ref().unwrap();
        let o0 = m0.open.expect("open points carry the open tail");
        assert!(o0.saturation_rate > o0.knee_rate && o0.knee_rate > 0.0);
        assert!(m1.fork_join > m0.fork_join, "response grows with λ");
        assert_eq!(cache.stats().misses, 2, "each rate is its own record");

        // A closed point of the same shape has no open tail.
        let closed = Scenario::new("closed")
            .axis_nodes([2usize])
            .axis_input_bytes([256 * MB])
            .with_backends(Backends {
                analytic: true,
                profile_calibration: false,
                simulator: None,
            });
        let r = run_scenario(&closed, &cache);
        assert!(r.points[0].model.as_ref().unwrap().open.is_none());
    }

    #[test]
    fn per_class_results_line_up_with_the_mix() {
        let cache = ResultCache::new();
        let s = Scenario::new("mix")
            .axis_nodes([2usize])
            .axis_mixes([WorkloadMix::new([
                MixEntry::new(JobKind::Grep, 128 * MB, 1),
                MixEntry::new(JobKind::TeraSort, 256 * MB, 2),
            ])])
            .with_backends(Backends {
                analytic: true,
                profile_calibration: false,
                simulator: Some(1),
            });
        let r = run_scenario(&s, &cache);
        let p = &r.points[0];
        let model = p.model.as_ref().unwrap();
        let sim = p.sim.as_ref().unwrap();
        assert_eq!(model.per_class.len(), 2);
        assert_eq!(sim.per_class_median.len(), 2);
        for c in 0..2 {
            assert!(p.class_estimate(c).unwrap() > 0.0);
            assert!(p.class_measured(c).unwrap() > 0.0);
        }
        assert!(p.class_estimate(2).is_none());
        // The small grep class must be faster than the terasort class
        // in both backends.
        assert!(sim.per_class_median[0] < sim.per_class_median[1]);
        assert!(model.per_class[0].fork_join < model.per_class[1].fork_join);
    }
}
