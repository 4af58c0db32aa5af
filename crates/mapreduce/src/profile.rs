//! Job profiles: per-class statistics extracted from executions.
//!
//! The paper's model takes as input the average residence/response times of
//! each task class "from the history of corresponding real Hadoop job
//! executions" (§4.2.1). Here the history comes from profiling runs of the
//! simulator. Classes follow the paper's decomposition (§4.1): **map**,
//! **shuffle-sort** (shuffle + partial sorts), and **merge** (final sort +
//! reduce function + write).

use crate::config::SimConfig;
use crate::driver::ClusterSim;
use crate::job::JobSpec;
use crate::metrics::JobResult;
use simcore::{median, Welford};

/// Schema version of the simulator's configuration and measurement
/// outputs.
///
/// Bump whenever a change makes previously simulated results
/// incomparable with fresh ones — a new `SimConfig` field that alters
/// behaviour, a changed RNG stream, a different record layout. Cache
/// layers (crate `mr2-scenario`) bake this into their content hashes,
/// so persisted results from an older simulator silently miss instead
/// of serving stale numbers.
///
/// v2: [`SimPoint`] grew per-class medians for heterogeneous workload
/// mixes and its record gained a class-count field.
///
/// v3: [`eval_mix`] takes per-job submit offsets (trace-driven arrival
/// schedules), [`SimPoint`] grew a makespan statistic (its record a
/// makespan field), and `SimConfig` grew straggler injection
/// (`slow_node_factor`).
pub const SIM_SCHEMA_VERSION: u32 = 3;

/// Duration statistics of one task class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// Mean duration, seconds.
    pub mean: f64,
    /// Coefficient of variation of the duration.
    pub cv: f64,
    /// Number of observations.
    pub count: u64,
}

impl ClassStats {
    fn from_welford(w: &Welford) -> ClassStats {
        ClassStats {
            mean: w.mean(),
            cv: w.cv(),
            count: w.count(),
        }
    }
}

/// Per-class profile of one job execution, in the paper's 3-class
/// decomposition.
#[derive(Debug, Clone)]
pub struct MeasuredProfile {
    /// Map task durations.
    pub map: ClassStats,
    /// Shuffle-sort subtask durations (reduce launch → shuffle complete).
    pub shuffle_sort: ClassStats,
    /// Merge subtask durations (shuffle complete → reduce done).
    pub merge: ClassStats,
    /// Whole-job response time.
    pub response_time: f64,
    /// Number of map tasks.
    pub num_maps: u32,
    /// Number of reduce tasks.
    pub num_reduces: u32,
}

impl MeasuredProfile {
    /// Flat-record length of [`MeasuredProfile::to_record`].
    pub const RECORD_LEN: usize = 12;

    /// The stable serialized form: a flat `f64` record with a fixed
    /// field order (three [`ClassStats`] triples, then response time and
    /// task counts), the unit cache layers and services store and ship.
    pub fn to_record(&self) -> Vec<f64> {
        vec![
            self.map.mean,
            self.map.cv,
            self.map.count as f64,
            self.shuffle_sort.mean,
            self.shuffle_sort.cv,
            self.shuffle_sort.count as f64,
            self.merge.mean,
            self.merge.cv,
            self.merge.count as f64,
            self.response_time,
            self.num_maps as f64,
            self.num_reduces as f64,
        ]
    }

    /// Decode a record written by [`MeasuredProfile::to_record`]; `None`
    /// if the length doesn't match (a corrupt or foreign record).
    pub fn from_record(rec: &[f64]) -> Option<MeasuredProfile> {
        if rec.len() != Self::RECORD_LEN {
            return None;
        }
        let stats = |i: usize| ClassStats {
            mean: rec[i],
            cv: rec[i + 1],
            count: rec[i + 2] as u64,
        };
        Some(MeasuredProfile {
            map: stats(0),
            shuffle_sort: stats(3),
            merge: stats(6),
            response_time: rec[9],
            num_maps: rec[10] as u32,
            num_reduces: rec[11] as u32,
        })
    }

    /// Extract the profile from one job's result.
    pub fn from_result(r: &JobResult) -> MeasuredProfile {
        let mut map = Welford::default();
        for t in r.map_records() {
            map.push(t.duration());
        }
        let mut shuffle = Welford::default();
        let mut merge = Welford::default();
        for t in r.reduce_records() {
            shuffle.push(t.io_phase());
            merge.push(t.tail_phase());
        }
        MeasuredProfile {
            map: ClassStats::from_welford(&map),
            shuffle_sort: ClassStats::from_welford(&shuffle),
            merge: ClassStats::from_welford(&merge),
            response_time: r.response_time(),
            num_maps: map.count() as u32,
            num_reduces: shuffle.count() as u32,
        }
    }
}

/// Run one job alone on a fresh cluster (a profiling run) and return its
/// profile and raw result.
pub fn profile_job(spec: &JobSpec, cfg: &SimConfig) -> (MeasuredProfile, JobResult) {
    let mut sim = ClusterSim::new(cfg.clone());
    sim.add_job(spec.clone(), 0.0);
    let mut results = sim.run();
    let r = results.remove(0);
    (MeasuredProfile::from_result(&r), r)
}

/// Ground-truth numbers of one simulated configuration point — the
/// narrow entry result batch evaluators (crate `mr2-scenario`) consume.
///
/// A point may carry a heterogeneous workload mix; every job class
/// (one per [`eval_mix`] entry, in submission order) gets its own
/// response-time series alongside the aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Median over repetitions of the per-repetition mean response (the
    /// paper's reported statistic), over *all* jobs of the mix.
    pub median_response: f64,
    /// Mean over repetitions of the per-repetition mean response.
    pub mean_response: f64,
    /// Median over repetitions of the per-repetition makespan: last
    /// finish minus first submission. Under batch arrivals this is the
    /// slowest job's response; under staggered or trace arrivals the two
    /// statistics diverge and both matter (per-job latency vs. how long
    /// the cluster is occupied).
    pub makespan: f64,
    /// Per class, in submission order: median over repetitions of the
    /// per-repetition mean response of that class's jobs. Responses are
    /// measured from each job's *own* submit time.
    pub per_class_median: Vec<f64>,
    /// Per-repetition mean job response times, in seed order.
    pub per_rep_mean: Vec<f64>,
}

impl SimPoint {
    /// The stable serialized form:
    /// `[median, mean, makespan, #classes, per-class medians…, per-rep
    /// means…]`, the unit cache layers and services store and ship.
    /// Variable length (one value per class plus one per repetition).
    pub fn to_record(&self) -> Vec<f64> {
        let mut rec = Vec::with_capacity(4 + self.per_class_median.len() + self.per_rep_mean.len());
        rec.push(self.median_response);
        rec.push(self.mean_response);
        rec.push(self.makespan);
        rec.push(self.per_class_median.len() as f64);
        rec.extend_from_slice(&self.per_class_median);
        rec.extend_from_slice(&self.per_rep_mean);
        rec
    }

    /// Decode a record written by [`SimPoint::to_record`]; `None` if the
    /// record is too short to carry the summary statistics or its class
    /// count doesn't fit (a corrupt or foreign record).
    pub fn from_record(rec: &[f64]) -> Option<SimPoint> {
        let (&median_response, rest) = rec.split_first()?;
        let (&mean_response, rest) = rest.split_first()?;
        let (&makespan, rest) = rest.split_first()?;
        let (&classes, rest) = rest.split_first()?;
        let classes = classes as usize;
        if classes > rest.len() {
            return None;
        }
        let (per_class, per_rep) = rest.split_at(classes);
        Some(SimPoint {
            median_response,
            mean_response,
            makespan,
            per_class_median: per_class.to_vec(),
            per_rep_mean: per_rep.to_vec(),
        })
    }
}

/// Narrow batch-evaluation entry point for a heterogeneous workload
/// mix with an arrival schedule: simulate every class's jobs (`count`
/// copies per `(spec, count)` entry, in entry order) on one cluster,
/// `reps` seeded repetitions (seeds `cfg.seed`, `cfg.seed + 1`, …), and
/// return aggregate plus per-class summary statistics — the paper's
/// methodology ("Each experiment we repeated 5 times and then took the
/// median of response time", §5.1). `N` identical jobs are the one-entry
/// mix `&[(spec, N)]`.
///
/// `submits` gives each job's submission time in seconds, one entry per
/// job in submission order (`submits.len() == Σ count`); an empty slice
/// means batch arrivals — every job at t = 0, the pre-arrival-schedule
/// behaviour, bit-identical to passing explicit zeros. Per-job response
/// times are measured from each job's own submit time; the makespan
/// spans first submission to last finish. Deterministic in
/// `(cfg, classes, submits, reps)` — including `cfg.seed` — which is
/// what makes results content-addressable.
pub fn eval_mix(
    cfg: &SimConfig,
    classes: &[(JobSpec, usize)],
    submits: &[f64],
    reps: usize,
) -> SimPoint {
    assert!(reps >= 1 && !classes.is_empty());
    assert!(classes.iter().all(|&(_, n)| n >= 1), "empty class");
    let total: usize = classes.iter().map(|&(_, n)| n).sum();
    assert!(
        submits.is_empty() || submits.len() == total,
        "need one submit offset per job ({} != {total})",
        submits.len()
    );
    assert!(
        submits.iter().all(|t| t.is_finite() && *t >= 0.0),
        "submit offsets must be finite and non-negative"
    );
    let submit_at = |j: usize| submits.get(j).copied().unwrap_or(0.0);
    let mut per_rep_mean = Vec::with_capacity(reps);
    let mut makespans = Vec::with_capacity(reps);
    let mut class_means: Vec<Vec<f64>> = classes.iter().map(|_| Vec::with_capacity(reps)).collect();
    for rep in 0..reps {
        let _rep = mr2_obs::span("sim.rep");
        let mut c = cfg.clone();
        c.seed = cfg.seed + rep as u64;
        let mut sim = ClusterSim::new(c);
        let mut j = 0;
        for (spec, n) in classes {
            for _ in 0..*n {
                sim.add_job(spec.clone(), submit_at(j));
                j += 1;
            }
        }
        let results = sim.run();
        let mean = results.iter().map(|r| r.response_time()).sum::<f64>() / total as f64;
        per_rep_mean.push(mean);
        let first_submit = results
            .iter()
            .map(|r| r.submitted_at)
            .fold(f64::MAX, f64::min);
        let last_finish = results.iter().map(|r| r.finished_at).fold(0.0, f64::max);
        makespans.push(last_finish - first_submit);
        let mut offset = 0;
        for (ci, &(_, n)) in classes.iter().enumerate() {
            let class = &results[offset..offset + n];
            class_means[ci].push(class.iter().map(|r| r.response_time()).sum::<f64>() / n as f64);
            offset += n;
        }
    }
    let mean_response = per_rep_mean.iter().sum::<f64>() / reps as f64;
    SimPoint {
        median_response: median(&per_rep_mean),
        mean_response,
        makespan: median(&makespans),
        per_class_median: class_means.iter().map(|m| median(m)).collect(),
        per_rep_mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GB, MB};
    use crate::workload::wordcount;

    fn cfg() -> SimConfig {
        SimConfig {
            nodes: 2,
            jitter_cv: 0.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn profile_extraction() {
        let spec = wordcount(512 * MB, 2);
        let (p, r) = profile_job(&spec, &cfg());
        assert_eq!(p.num_maps, 4);
        assert_eq!(p.num_reduces, 2);
        assert!(p.map.mean > 0.0);
        assert!(p.shuffle_sort.mean > 0.0);
        assert!(p.merge.mean > 0.0);
        assert!((p.response_time - r.response_time()).abs() < 1e-12);
        // Deterministic config → small map CV (only placement varies).
        assert!(p.map.cv < 0.5, "cv={}", p.map.cv);
    }

    #[test]
    fn reps_summarize_by_median_and_mean() {
        let spec = wordcount(256 * MB, 1);
        let p = eval_mix(&cfg(), &[(spec, 2)], &[], 3);
        assert_eq!(p.per_rep_mean.len(), 3);
        let mut sorted = p.per_rep_mean.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(p.median_response.to_bits(), sorted[1].to_bits());
        let mean = p.per_rep_mean.iter().sum::<f64>() / 3.0;
        assert_eq!(p.mean_response.to_bits(), mean.to_bits());
    }

    #[test]
    fn reps_match_fresh_sims_seeded_per_rep() {
        // Rep `r` of `eval_mix` is a fresh simulator seeded
        // `cfg.seed + r` with the jobs submitted in entry order, under
        // every arrival shape — batch, staggered schedule, irregular
        // trace offsets.
        let base = cfg();
        let classes = [
            (wordcount(128 * MB, 1), 2usize),
            (wordcount(256 * MB, 2), 1),
        ];
        let schedules: [&[f64]; 3] = [
            &[],                  // batch (t = 0)
            &[0.0, 30.0, 60.0],   // staggered schedule
            &[5.0, 17.0, 111.25], // trace-style irregular offsets
        ];
        for submits in schedules {
            let p = eval_mix(&base, &classes, submits, 3);
            for rep in 0..3usize {
                let mut c = base.clone();
                c.seed = base.seed + rep as u64;
                let mut sim = ClusterSim::new(c);
                let mut j = 0;
                for (spec, n) in &classes {
                    for _ in 0..*n {
                        sim.add_job(spec.clone(), submits.get(j).copied().unwrap_or(0.0));
                        j += 1;
                    }
                }
                let results = sim.run();
                let mean = results.iter().map(|r| r.response_time()).sum::<f64>() / 3.0;
                assert_eq!(
                    p.per_rep_mean[rep].to_bits(),
                    mean.to_bits(),
                    "rep {rep} under {submits:?} diverged from a fresh simulator"
                );
            }
        }
    }

    #[test]
    fn eval_mix_reports_per_class_medians_in_submission_order() {
        let light = wordcount(128 * MB, 1);
        let heavy = wordcount(512 * MB, 2);
        let p = eval_mix(&cfg(), &[(light.clone(), 2), (heavy.clone(), 1)], &[], 2);
        assert_eq!(p.per_class_median.len(), 2);
        assert_eq!(p.per_rep_mean.len(), 2);
        assert!(
            p.per_class_median[1] > p.per_class_median[0],
            "the 4× larger job class must respond slower: {:?}",
            p.per_class_median
        );
        // The aggregate mean sits between the class means.
        assert!(p.median_response > p.per_class_median[0]);
        assert!(p.median_response < p.per_class_median[1]);
        // Batch arrivals: the makespan is the slowest job's response.
        assert!(p.makespan >= p.per_class_median[1]);

        let one = eval_mix(&cfg(), &[(light, 2)], &[], 2);
        assert_eq!(one.per_class_median.len(), 1);
        assert_eq!(
            one.per_class_median[0].to_bits(),
            one.median_response.to_bits(),
            "one class ⇒ class median is the aggregate median"
        );
    }

    #[test]
    fn empty_submits_are_bit_identical_to_explicit_zeros() {
        let spec = wordcount(256 * MB, 1);
        let classes = [(spec.clone(), 2), (wordcount(128 * MB, 1), 1)];
        let a = eval_mix(&cfg(), &classes, &[], 2);
        let b = eval_mix(&cfg(), &classes, &[0.0, 0.0, 0.0], 2);
        assert_eq!(a, b, "batch arrivals are the all-zero offset schedule");
    }

    #[test]
    fn staggered_arrivals_cut_contention_and_stretch_the_makespan() {
        // Two identical jobs: submitted together they contend; submitted
        // far apart each effectively runs alone, so the mean response
        // drops while the makespan grows past the batch makespan.
        let spec = wordcount(512 * MB, 2);
        let classes = [(spec.clone(), 2)];
        let batch = eval_mix(&cfg(), &classes, &[], 1);
        let solo = eval_mix(&cfg(), &[(spec.clone(), 1)], &[], 1);
        let gap = solo.median_response * 3.0;
        let staggered = eval_mix(&cfg(), &classes, &[0.0, gap], 1);
        assert!(
            staggered.mean_response < batch.mean_response,
            "disjoint windows must relieve contention: staggered {} vs batch {}",
            staggered.mean_response,
            batch.mean_response
        );
        assert!(
            staggered.makespan > batch.makespan,
            "spreading arrivals occupies the cluster longer: {} vs {}",
            staggered.makespan,
            batch.makespan
        );
        // Responses are measured from each job's own submission, so the
        // second job's response is close to running alone.
        assert!(staggered.makespan >= gap + solo.median_response * 0.9);
    }

    #[test]
    fn slow_node_straggles_the_job() {
        // 2 nodes, one of them 4× slower: tasks placed on node 0 run
        // slower, extending the measured response.
        let spec = wordcount(GB, 2);
        let clean = eval_mix(&cfg(), &[(spec.clone(), 1)], &[], 2);
        let mut slow_cfg = cfg();
        slow_cfg.slow_node_factor = 4.0;
        let slow = eval_mix(&slow_cfg, &[(spec, 1)], &[], 2);
        assert!(
            slow.median_response > clean.median_response * 1.2,
            "a 4× slow node must straggle the job: {} vs {}",
            slow.median_response,
            clean.median_response
        );
    }

    #[test]
    #[should_panic(expected = "one submit offset per job")]
    fn eval_mix_rejects_mismatched_submit_lengths() {
        let spec = wordcount(128 * MB, 1);
        eval_mix(&cfg(), &[(spec, 2)], &[0.0], 1);
    }

    #[test]
    fn records_roundtrip_bit_exact() {
        let spec = wordcount(256 * MB, 1);
        let p = eval_mix(
            &cfg(),
            &[(spec.clone(), 1), (wordcount(128 * MB, 1), 1)],
            &[0.0, 2.5],
            2,
        );
        let q = SimPoint::from_record(&p.to_record()).unwrap();
        assert_eq!(q, p);
        assert_eq!(SimPoint::from_record(&[1.0]), None);
        // A class count larger than the payload is a corrupt record.
        assert_eq!(SimPoint::from_record(&[1.0, 1.0, 9.0, 9.0, 1.0]), None);

        let (profile, _) = profile_job(&spec, &cfg());
        let rec = profile.to_record();
        assert_eq!(rec.len(), MeasuredProfile::RECORD_LEN);
        let back = MeasuredProfile::from_record(&rec).unwrap();
        assert_eq!(back.map, profile.map);
        assert_eq!(back.shuffle_sort, profile.shuffle_sort);
        assert_eq!(back.merge, profile.merge);
        assert_eq!(
            back.response_time.to_bits(),
            profile.response_time.to_bits()
        );
        assert_eq!(back.num_maps, profile.num_maps);
        assert_eq!(back.num_reduces, profile.num_reduces);
        assert!(MeasuredProfile::from_record(&rec[..11]).is_none());
    }
}
