//! High-level estimation API: one call from a cluster and a mix of
//! concurrent job classes to the paper's model estimates plus the
//! related-work baselines, aggregate and per class. A workload of `N`
//! identical jobs is a one-class mix of count `N`.

use crate::aria::{aria_bounds, AriaProfile, StageStats};
use crate::calibrate::{herodotou_estimate, mix_model_input, Calibration, MixClass};
use crate::input::ModelOptions;
use crate::memo::cached_solve;
use crate::solver::SolveResult;
use mapreduce_sim::SimConfig;

/// All four estimate series of one job class (or, aggregated, of the
/// whole mix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPoint {
    /// Fork/join estimate.
    pub fork_join: f64,
    /// Tripathi estimate.
    pub tripathi: f64,
    /// ARIA baseline.
    pub aria: f64,
    /// Herodotou static baseline.
    pub herodotou: f64,
}

/// Estimates for a heterogeneous mix: job-count-weighted aggregates
/// plus one [`ClassPoint`] per mix class.
#[derive(Debug, Clone)]
pub struct MixEstimate {
    /// Aggregate fork/join estimate (mean over every job of the mix).
    pub fork_join: f64,
    /// Aggregate Tripathi estimate.
    pub tripathi: f64,
    /// Aggregate ARIA baseline.
    pub aria: f64,
    /// Aggregate Herodotou baseline.
    pub herodotou: f64,
    /// Estimated makespan (first submission → last completion), from
    /// the fork/join per-job responses and the arrival offsets. Equals
    /// the slowest job's response under batch arrivals.
    pub makespan: f64,
    /// Per-class estimates, in mix-entry order.
    pub per_class: Vec<ClassPoint>,
    /// Full fork/join solver output (per-job responses in mix order).
    pub fork_join_detail: SolveResult,
    /// Full Tripathi solver output.
    pub tripathi_detail: SolveResult,
}

/// Windowed staggered-arrival approximation: per-job responses under an
/// arrival schedule, interpolated between each job's *solo* response
/// (no contention) and its response in the *saturated* t = 0 solve
/// (every job concurrent).
///
/// The closed multi-class network the paper solves has no notion of
/// time — it assumes all `N` jobs are in the system from t = 0. With
/// staggered arrivals a job only contends while its execution window
/// `[sⱼ, sⱼ + Rⱼ)` overlaps other jobs' windows, so we weight the
/// contention penalty `fullⱼ − soloⱼ` by the mean pairwise window
/// overlap φⱼ ∈ [0, 1] and iterate to a fixed point (window lengths
/// depend on the responses and vice versa). Fully overlapping windows
/// recover the saturated solve; disjoint windows recover the solo
/// responses.
fn windowed_responses(submits: &[f64], solo: &[f64], full: &[f64]) -> Vec<f64> {
    let n = submits.len();
    debug_assert!(solo.len() == n && full.len() == n);
    if n <= 1 {
        // A single job never contends: its window overlaps nothing.
        return solo.to_vec();
    }
    let mut r = full.to_vec();
    for _ in 0..64 {
        let mut delta = 0.0f64;
        let next: Vec<f64> = (0..n)
            .map(|j| {
                let (sj, ej) = (submits[j], submits[j] + r[j]);
                let len = (ej - sj).max(1e-9);
                let overlap: f64 = (0..n)
                    .filter(|&k| k != j)
                    .map(|k| (ej.min(submits[k] + r[k]) - sj.max(submits[k])).max(0.0))
                    .sum();
                let phi = (overlap / (len * (n - 1) as f64)).clamp(0.0, 1.0);
                let v = solo[j] + phi * (full[j] - solo[j]);
                delta = delta.max((v - r[j]).abs());
                v
            })
            .collect();
        r = next;
        if delta < 1e-9 {
            break;
        }
    }
    r
}

/// Run both estimators and both baselines for a heterogeneous mix of
/// concurrent jobs — the paper's closed queueing network is inherently
/// multi-class, so the mix feeds the solver as one `ModelInput` with a
/// job entry per instance.
///
/// `submits` gives each job's submission offset in seconds, one per job
/// in mix order (`count` consecutive entries per class); an empty slice
/// — or any all-equal schedule — means batch arrivals, the paper's
/// t = 0 assumption, and produces the plain saturated solve
/// bit-for-bit. Under a genuinely staggered schedule the fork/join and
/// Tripathi per-job responses go through the windowed approximation
/// ([`windowed_responses`]); the ARIA and Herodotou baselines keep
/// their batch forms deliberately — they are the static t = 0 models
/// whose breakage under staggered arrivals the error bands quantify.
///
/// Both estimators come from one joint solve ([`crate::solve_both`]
/// behind the endpoint memo), so `options.estimator` is ignored.
///
/// Baselines generalize the single-class forms: ARIA scales the slot
/// pool by 1/total (FIFO averaging gives each of the concurrent jobs an
/// equal share) and is evaluated per class, aggregated by job count;
/// Herodotou serializes the whole mix, so every class sees the same
/// static total.
pub fn estimate_mix(
    cfg: &SimConfig,
    classes: &[MixClass],
    submits: &[f64],
    options: &ModelOptions,
    cal: &Calibration,
) -> MixEstimate {
    let input = mix_model_input(cfg, classes, options.clone(), cal);
    let (fj, tr) = cached_solve(&input);

    let total: usize = classes.iter().map(|c| c.count).sum();
    assert!(
        submits.is_empty() || submits.len() == total,
        "need one submit offset per job ({} != {total})",
        submits.len()
    );
    assert!(
        submits.iter().all(|t| t.is_finite() && *t >= 0.0),
        "submit offsets must be finite and non-negative"
    );
    let staggered = submits.iter().any(|&t| t != submits[0]);
    // ARIA baseline from the same initial statistics. The bounds model
    // has no notion of concurrent jobs; following its own usage we scale
    // the slot pool by 1/total (each concurrent job effectively receives
    // an equal share under FIFO averaging).
    let slots_total = input
        .cluster
        .total_containers()
        .saturating_sub(input.cluster.reserved_containers)
        .max(1);
    let slots = (slots_total as f64 / total as f64).max(1.0) as u32;
    let mk = |mean: f64, cv: f64| StageStats {
        avg: mean,
        max: mean * (1.0 + 2.0 * cv),
    };
    // Herodotou's static model serializes every job of the mix.
    let herodotou: f64 = classes
        .iter()
        .map(|c| herodotou_estimate(cfg, &c.spec) * c.count as f64)
        .sum();

    // Per-job responses of the two queueing estimators: the saturated
    // solve verbatim for batch arrivals (bit-identical to the pre-
    // arrival-schedule behaviour), the windowed solo↔saturated
    // interpolation for genuinely staggered schedules.
    let (fj_jobs, tr_jobs) = if staggered {
        let mut solo_fj = Vec::with_capacity(total);
        let mut solo_tr = Vec::with_capacity(total);
        for c in classes {
            let alone = [MixClass {
                spec: c.spec.clone(),
                count: 1,
                profile: c.profile.clone(),
            }];
            let (s_fj, s_tr) = cached_solve(&mix_model_input(cfg, &alone, options.clone(), cal));
            solo_fj.extend(std::iter::repeat_n(s_fj.avg_response, c.count));
            solo_tr.extend(std::iter::repeat_n(s_tr.avg_response, c.count));
        }
        (
            windowed_responses(submits, &solo_fj, &fj.per_job_response),
            windowed_responses(submits, &solo_tr, &tr.per_job_response),
        )
    } else {
        (fj.per_job_response.clone(), tr.per_job_response.clone())
    };

    let mean_of = |slice: &[f64]| slice.iter().sum::<f64>() / slice.len() as f64;
    let mut per_class = Vec::with_capacity(classes.len());
    let mut aria_weighted = 0.0;
    let mut offset = 0;
    for c in classes {
        let job = &input.jobs[offset];
        let profile = AriaProfile {
            num_maps: job.num_maps,
            num_reduces: job.num_reduces,
            map: mk(job.initial_response[0], job.cv[0]),
            shuffle_first: mk(job.initial_response[1], job.cv[1]),
            shuffle_typical: mk(job.initial_response[1], job.cv[1]),
            reduce: mk(job.initial_response[2], job.cv[2]),
        };
        let aria_class = aria_bounds(&profile, slots, slots).avg();
        aria_weighted += aria_class * c.count as f64;
        per_class.push(ClassPoint {
            fork_join: mean_of(&fj_jobs[offset..offset + c.count]),
            tripathi: mean_of(&tr_jobs[offset..offset + c.count]),
            aria: aria_class,
            herodotou,
        });
        offset += c.count;
    }
    // For one class the aggregate is the class value itself — dividing
    // the weighted sum back out could round differently.
    let aria = if classes.len() == 1 {
        per_class[0].aria
    } else {
        aria_weighted / total as f64
    };

    let submit_at = |j: usize| submits.get(j).copied().unwrap_or(0.0);
    let first = (0..total).map(submit_at).fold(f64::MAX, f64::min);
    let makespan = (0..total)
        .map(|j| submit_at(j) + fj_jobs[j])
        .fold(0.0, f64::max)
        - first;

    MixEstimate {
        // Keep the solver's own aggregate for batch arrivals — dividing
        // the per-job list back out could round differently.
        fork_join: if staggered {
            mean_of(&fj_jobs)
        } else {
            fj.avg_response
        },
        tripathi: if staggered {
            mean_of(&tr_jobs)
        } else {
            tr.avg_response
        },
        aria,
        herodotou,
        makespan,
        per_class,
        fork_join_detail: fj,
        tripathi_detail: tr,
    }
}

/// Schema version of the analytic model's inputs and outputs.
///
/// Bump whenever a change makes previously computed [`ModelPoint`]s
/// incomparable with fresh ones — a new estimator, a changed calibration
/// default, a different record layout. Cache layers (crate
/// `mr2-scenario`) bake this into their content hashes, so persisted
/// results from an older model silently miss instead of serving stale
/// numbers.
///
/// v2: [`ModelPoint`] grew per-class estimates for heterogeneous
/// workload mixes and its record gained a class-count field.
///
/// v3: [`estimate_mix`]/[`eval_mix`] take per-job submit offsets (the
/// windowed staggered-arrival approximation) and [`ModelPoint`] grew a
/// makespan estimate (its record a makespan field).
///
/// v4: open Poisson arrivals ([`crate::open::eval_open_mix`]) —
/// [`ModelPoint`] grew an optional [`OpenMetrics`] tail (bottleneck
/// utilization, knee rate, saturation rate) appended to its record.
///
/// v5: the Tripathi estimator rescales one per-solve shape for every
/// P-subtree over like leaves, so its values move by up to ~1e-14
/// relative; fork/join and every other field are unchanged.
///
/// v6: the A2–A6 loop moves its durations by Aitken's dynamic relaxation
/// instead of a fixed 0.5 damping, so it stops at a different iterate
/// near the same fixed point: with overlap factors on, estimates move by
/// up to ~5e-9 relative.
pub const MODEL_SCHEMA_VERSION: u32 = 6;

/// Steady-state saturation metrics of an open-arrival evaluation — the
/// tail of a [`ModelPoint`] produced by [`crate::open::eval_open_mix`]
/// (absent on closed/batch points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenMetrics {
    /// Utilization of the hottest resource pool at the evaluated λ.
    pub bottleneck_utilization: f64,
    /// Total arrival rate at which the bottleneck reaches the knee
    /// utilization ([`crate::open::DEFAULT_KNEE_UTILIZATION`]) — the
    /// practical capacity ceiling.
    pub knee_rate: f64,
    /// Total arrival rate at which the bottleneck saturates (ρ = 1);
    /// past it no steady state exists and responses are infinite.
    pub saturation_rate: f64,
}

/// The analytic estimates of one configuration point — the narrow entry
/// result batch evaluators (crate `mr2-scenario`) consume. A flat,
/// comparison-ready subset of [`MixEstimate`]: count-weighted aggregates
/// plus one [`ClassPoint`] per mix class.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPoint {
    /// Aggregate fork/join estimate.
    pub fork_join: f64,
    /// Aggregate Tripathi estimate.
    pub tripathi: f64,
    /// Aggregate ARIA baseline.
    pub aria: f64,
    /// Aggregate Herodotou static baseline.
    pub herodotou: f64,
    /// Estimated makespan (first submission → last completion), from
    /// the fork/join per-job responses and the arrival offsets.
    pub makespan: f64,
    /// Per-class estimates, in mix-entry order (one entry for a
    /// single-job point).
    pub per_class: Vec<ClassPoint>,
    /// Saturation metrics when the point was evaluated under open
    /// Poisson arrivals; `None` for closed/batch points.
    pub open: Option<OpenMetrics>,
}

impl ModelPoint {
    /// The stable serialized form: the four aggregates, the makespan,
    /// the class count, four values per class, then — only for
    /// open-arrival points — the three [`OpenMetrics`] values. The
    /// unit cache layers and services store and ship this.
    pub fn to_record(&self) -> Vec<f64> {
        let mut rec = Vec::with_capacity(6 + 4 * self.per_class.len() + 3);
        rec.extend([self.fork_join, self.tripathi, self.aria, self.herodotou]);
        rec.push(self.makespan);
        rec.push(self.per_class.len() as f64);
        for c in &self.per_class {
            rec.extend([c.fork_join, c.tripathi, c.aria, c.herodotou]);
        }
        if let Some(open) = &self.open {
            rec.extend([
                open.bottleneck_utilization,
                open.knee_rate,
                open.saturation_rate,
            ]);
        }
        rec
    }

    /// Decode a record written by [`ModelPoint::to_record`]; `None` if
    /// the shape doesn't match (a corrupt or foreign record).
    pub fn from_record(rec: &[f64]) -> Option<ModelPoint> {
        let (head, tail) = rec.split_at_checked(6)?;
        let n = head[5] as usize;
        // A point always carries at least one class; the tail is the
        // classes plus, for open-arrival points, exactly three
        // saturation values. Anything else is corrupt or foreign.
        let open = if n == 0 {
            return None;
        } else if tail.len() == 4 * n {
            None
        } else if tail.len() == 4 * n + 3 {
            Some(OpenMetrics {
                bottleneck_utilization: tail[4 * n],
                knee_rate: tail[4 * n + 1],
                saturation_rate: tail[4 * n + 2],
            })
        } else {
            return None;
        };
        Some(ModelPoint {
            fork_join: head[0],
            tripathi: head[1],
            aria: head[2],
            herodotou: head[3],
            makespan: head[4],
            per_class: tail[..4 * n]
                .chunks_exact(4)
                .map(|c| ClassPoint {
                    fork_join: c[0],
                    tripathi: c[1],
                    aria: c[2],
                    herodotou: c[3],
                })
                .collect(),
            open,
        })
    }
}

/// Narrow batch-evaluation entry point for a heterogeneous mix with an
/// arrival schedule: both estimators and both baselines, aggregate and
/// per class. `submits` holds one submission offset per job in mix
/// order; an empty slice means batch (t = 0) arrivals. Deterministic in
/// its inputs, which is what makes results content-addressable.
pub fn eval_mix(
    cfg: &SimConfig,
    classes: &[MixClass],
    submits: &[f64],
    options: &ModelOptions,
    cal: &Calibration,
) -> ModelPoint {
    let e = estimate_mix(cfg, classes, submits, options, cal);
    ModelPoint {
        fork_join: e.fork_join,
        tripathi: e.tripathi,
        aria: e.aria,
        herodotou: e.herodotou,
        makespan: e.makespan,
        per_class: e.per_class,
        open: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::workload::wordcount_1gb;

    /// `count` concurrent 1 GB WordCount jobs: a one-class mix.
    fn wordcount_jobs(count: usize) -> [MixClass; 1] {
        [MixClass {
            spec: wordcount_1gb(4),
            count,
            profile: None,
        }]
    }

    #[test]
    fn all_estimates_positive_and_finite() {
        let e = estimate_mix(
            &SimConfig::paper_testbed(4),
            &wordcount_jobs(1),
            &[],
            &ModelOptions::default(),
            &Calibration::default(),
        );
        for (name, v) in [
            ("fork_join", e.fork_join),
            ("tripathi", e.tripathi),
            ("aria", e.aria),
            ("herodotou", e.herodotou),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
        assert!(e.fork_join_detail.converged);
        assert!(e.tripathi_detail.converged);
    }

    #[test]
    fn model_point_record_roundtrip_is_bit_exact() {
        let class = ClassPoint {
            fork_join: 99.5,
            tripathi: 0.5,
            aria: 1.5,
            herodotou: 2.5,
        };
        let p = ModelPoint {
            fork_join: 0.1 + 0.2,
            tripathi: -0.0,
            aria: f64::from_bits(0x7ff0000000000001),
            herodotou: 1e300,
            makespan: 123.5,
            per_class: vec![class, class],
            open: None,
        };
        let rec = p.to_record();
        assert_eq!(rec.len(), 6 + 4 * 2);
        let q = ModelPoint::from_record(&rec).unwrap();
        assert_eq!(q.fork_join.to_bits(), p.fork_join.to_bits());
        assert_eq!(q.tripathi.to_bits(), p.tripathi.to_bits());
        assert_eq!(q.aria.to_bits(), p.aria.to_bits());
        assert_eq!(q.herodotou.to_bits(), p.herodotou.to_bits());
        assert_eq!(q.makespan.to_bits(), p.makespan.to_bits());
        assert_eq!(q.per_class, p.per_class);
        assert_eq!(q.open, None);
        assert_eq!(ModelPoint::from_record(&rec[..3]), None);
        // A class count that doesn't match the payload is corrupt.
        assert_eq!(ModelPoint::from_record(&[0.0; 6]), None);
        assert_eq!(ModelPoint::from_record(&rec[..10]), None);

        // An open-arrival point carries its three-value tail, with the
        // saturation rate's +∞ surviving the round trip bit-exactly.
        let open = ModelPoint {
            open: Some(OpenMetrics {
                bottleneck_utilization: 0.75,
                knee_rate: 0.09,
                saturation_rate: f64::INFINITY,
            }),
            ..p.clone()
        };
        let rec = open.to_record();
        assert_eq!(rec.len(), 6 + 4 * 2 + 3);
        let q = ModelPoint::from_record(&rec).unwrap();
        assert_eq!(q.open, open.open);
        assert_eq!(q.per_class, open.per_class);
        // A tail of any other length is corrupt.
        assert_eq!(ModelPoint::from_record(&rec[..rec.len() - 1]), None);
    }

    #[test]
    fn mix_estimate_reports_per_class_and_weighted_aggregates() {
        use mapreduce_sim::workload::{grep, terasort};
        use mapreduce_sim::GB;
        let cfg = SimConfig::paper_testbed(4);
        let classes = [
            MixClass {
                spec: wordcount_1gb(4),
                count: 2,
                profile: None,
            },
            MixClass {
                spec: terasort(GB, 4),
                count: 1,
                profile: None,
            },
            MixClass {
                spec: grep(GB),
                count: 1,
                profile: None,
            },
        ];
        let e = estimate_mix(
            &cfg,
            &classes,
            &[],
            &ModelOptions::default(),
            &Calibration::default(),
        );
        assert_eq!(e.per_class.len(), 3);
        assert_eq!(e.fork_join_detail.per_job_response.len(), 4);
        for c in &e.per_class {
            assert!(c.fork_join > 0.0 && c.fork_join.is_finite());
            assert!(c.tripathi > 0.0 && c.aria > 0.0 && c.herodotou > 0.0);
        }
        // The aggregate fork/join is the job-count-weighted mean of the
        // per-class means.
        let weighted =
            (2.0 * e.per_class[0].fork_join + e.per_class[1].fork_join + e.per_class[2].fork_join)
                / 4.0;
        assert!((e.fork_join - weighted).abs() < 1e-9);
        // Herodotou serializes the mix: every class sees the same total.
        assert_eq!(e.per_class[0].herodotou.to_bits(), e.herodotou.to_bits());
        assert_eq!(e.per_class[1].herodotou.to_bits(), e.herodotou.to_bits());
        // Grep's map-heavy class must respond faster than TeraSort's
        // I/O-heavy one under the same contention.
        assert!(e.per_class[2].fork_join < e.per_class[1].fork_join);
    }

    #[test]
    fn one_class_estimate_is_the_aggregate_bit_for_bit() {
        let p = eval_mix(
            &SimConfig::paper_testbed(4),
            &wordcount_jobs(3),
            &[],
            &ModelOptions::default(),
            &Calibration::default(),
        );
        assert_eq!(p.per_class.len(), 1);
        let c = p.per_class[0];
        for (name, class, aggregate) in [
            ("fork_join", c.fork_join, p.fork_join),
            ("tripathi", c.tripathi, p.tripathi),
            ("aria", c.aria, p.aria),
            ("herodotou", c.herodotou, p.herodotou),
        ] {
            assert_eq!(
                class.to_bits(),
                aggregate.to_bits(),
                "one class ⇒ the {name} class estimate is the aggregate"
            );
        }
    }

    #[test]
    fn equal_offset_schedules_match_batch_bit_for_bit() {
        let cfg = SimConfig::paper_testbed(4);
        let classes = wordcount_jobs(3);
        let opts = ModelOptions::default();
        let cal = Calibration::default();
        let batch = eval_mix(&cfg, &classes, &[], &opts, &cal);
        let zeros = eval_mix(&cfg, &classes, &[0.0; 3], &opts, &cal);
        // Any all-equal schedule is batch: the jobs fully overlap, so
        // the saturated t = 0 solve applies verbatim.
        let shifted = eval_mix(&cfg, &classes, &[60.0; 3], &opts, &cal);
        assert_eq!(batch, zeros);
        assert_eq!(batch.fork_join.to_bits(), shifted.fork_join.to_bits());
        assert_eq!(batch.per_class, shifted.per_class);
        // Batch makespan is the slowest job's fork/join response.
        let slowest = batch
            .per_class
            .iter()
            .map(|c| c.fork_join)
            .fold(0.0, f64::max);
        assert!(batch.makespan >= slowest * 0.999);
    }

    #[test]
    fn staggered_responses_sit_between_solo_and_saturated() {
        let cfg = SimConfig::paper_testbed(4);
        let classes = wordcount_jobs(3);
        let opts = ModelOptions::default();
        let cal = Calibration::default();
        let solo = eval_mix(&cfg, &wordcount_jobs(1), &[], &opts, &cal).fork_join;
        let batch = eval_mix(&cfg, &classes, &[], &opts, &cal);

        // A modest stagger: windows still overlap, so the estimate must
        // land strictly between running alone and full saturation.
        let dt = solo * 0.25;
        let staggered = eval_mix(&cfg, &classes, &[0.0, dt, 2.0 * dt], &opts, &cal);
        assert!(
            staggered.fork_join < batch.fork_join,
            "partial overlap must relieve contention: {} vs {}",
            staggered.fork_join,
            batch.fork_join
        );
        assert!(
            staggered.fork_join > solo,
            "overlapping windows still contend: {} vs solo {}",
            staggered.fork_join,
            solo
        );
        assert!(staggered.tripathi < batch.tripathi);
        // The makespan covers the last arrival plus its response.
        assert!(staggered.makespan > 2.0 * dt + solo * 0.999);

        // Arrivals spaced far beyond the solo response are disjoint:
        // every job effectively runs alone.
        let far = solo * 10.0;
        let disjoint = eval_mix(&cfg, &classes, &[0.0, far, 2.0 * far], &opts, &cal);
        assert!(
            (disjoint.fork_join - solo).abs() / solo < 1e-6,
            "disjoint windows must recover the solo response: {} vs {}",
            disjoint.fork_join,
            solo
        );
        assert!((disjoint.makespan - (2.0 * far + solo)).abs() / solo < 1e-6);
        // The static baselines deliberately keep their t = 0 forms.
        assert_eq!(disjoint.aria.to_bits(), batch.aria.to_bits());
        assert_eq!(disjoint.herodotou.to_bits(), batch.herodotou.to_bits());
    }

    #[test]
    fn windowed_responses_interpolate_by_overlap() {
        // Disjoint windows → solo; heavy overlap → close to full.
        let solo = [10.0, 10.0];
        let full = [30.0, 30.0];
        let disjoint = windowed_responses(&[0.0, 1000.0], &solo, &full);
        assert!((disjoint[0] - 10.0).abs() < 1e-6, "{disjoint:?}");
        assert!((disjoint[1] - 10.0).abs() < 1e-6);
        let partial = windowed_responses(&[0.0, 5.0], &solo, &full);
        for r in &partial {
            assert!(*r > 10.0 && *r < 30.0, "{partial:?}");
        }
        // A single job never contends: it gets its solo response.
        assert_eq!(windowed_responses(&[7.0], &[10.0], &[30.0]), vec![10.0]);
    }

    #[test]
    fn memoized_repeat_evaluations_are_byte_identical() {
        // The solve memo must be invisible in the results: evaluating a
        // point again — now served from memo hits — must produce a
        // byte-identical record under every arrival shape (batch,
        // staggered schedule, trace-style irregular offsets).
        let cfg = SimConfig::paper_testbed(4);
        let classes = wordcount_jobs(3);
        let opts = ModelOptions::default();
        let cal = Calibration::default();
        let schedules: [&[f64]; 3] = [&[], &[0.0, 60.0, 120.0], &[3.5, 40.25, 97.0]];
        for submits in schedules {
            let first = eval_mix(&cfg, &classes, submits, &opts, &cal);
            let second = eval_mix(&cfg, &classes, submits, &opts, &cal);
            let bits = |p: &ModelPoint| -> Vec<u64> {
                p.to_record().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(&first),
                bits(&second),
                "memo hits diverged under {submits:?}"
            );
        }
    }

    #[test]
    fn estimates_scale_with_job_count() {
        let estimate = |count| {
            estimate_mix(
                &SimConfig::paper_testbed(4),
                &wordcount_jobs(count),
                &[],
                &ModelOptions::default(),
                &Calibration::default(),
            )
        };
        let (one, four) = (estimate(1), estimate(4));
        assert!(four.fork_join > one.fork_join);
        assert!(four.tripathi > one.tripathi);
    }
}
