//! Calibration: derive [`ModelInput`] from a cluster configuration and a
//! job's dataflow statistics.
//!
//! This plays the role of the paper's *job profile* (§4.2.1): unloaded
//! service demands per class and center, plus initial response times from
//! the Herodotou bootstrap. Everything is computed from first principles
//! (bytes ÷ bandwidth, MB × CPU cost), so the model can run without ever
//! executing the simulator; measured CVs from a profiling run can refine
//! the defaults.

use crate::herodotou::{job_time, map_phases, reduce_phases, HerodotouParams};
use crate::input::{ClusterInputs, JobClassInputs, ModelInput, ModelOptions};
use mapreduce_sim::profile::MeasuredProfile;
use mapreduce_sim::{JobSpec, SimConfig, MB};

/// Calibration knobs that are not part of the cluster config. The AM
/// reservation is not one of them: the model always reserves one
/// container per concurrent job for its MRAppMaster, as every simulated
/// job's AM holds one (§3).
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Expected fraction of data-local map reads. Late binding plus
    /// replication keeps this high on small clusters.
    pub locality_fraction: f64,
    /// Per-class response-time CV floors `[map, shuffle-sort, merge]`.
    /// The Tripathi reference model \[4\] fits *response-time*
    /// distributions, whose variability under contention is close to the
    /// exponential family even when raw service times are stable; measured
    /// service CVs therefore only ever refine these floors upward.
    pub cv: [f64; 3],
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            locality_fraction: 0.95,
            cv: [0.40, 0.45, 0.40],
        }
    }
}

/// Map a `(SimConfig, JobSpec)` pair onto Herodotou's parameter set.
/// The job's AM holds one of the cluster's containers.
pub fn herodotou_params(cfg: &SimConfig, spec: &JobSpec) -> HerodotouParams {
    let n = cfg.nodes as f64;
    let total_slots = cfg.total_containers().saturating_sub(1);
    HerodotouParams {
        split_bytes: cfg.block_size.min(spec.input_bytes) as f64,
        num_maps: spec.num_maps(cfg.block_size),
        num_reduces: spec.reduces,
        map_slots: total_slots.max(1),
        reduce_slots: total_slots.max(1),
        read_bw: cfg.disk_bw,
        write_bw: cfg.disk_bw,
        network_bw: cfg.nic_bw,
        map_cpu_per_byte: spec.map_cpu_s_per_mb / MB as f64,
        reduce_cpu_per_byte: spec.reduce_cpu_s_per_mb / MB as f64,
        map_selectivity: spec.map_output_ratio,
        spill_factor: spec.spill_io_factor,
        map_merge_factor: 0.0,
        sort_factor: spec.sort_io_factor,
        reduce_selectivity: spec.reduce_output_ratio,
        remote_shuffle_fraction: (n - 1.0) / n,
    }
}

/// Unloaded per-class demands and initial responses for one job.
pub fn job_inputs(
    cfg: &SimConfig,
    spec: &JobSpec,
    cal: &Calibration,
    measured: Option<&MeasuredProfile>,
) -> JobClassInputs {
    let n = cfg.nodes as f64;
    let split = cfg.block_size.min(spec.input_bytes) as f64;
    let split_mb = split / MB as f64;
    let m = spec.num_maps(cfg.block_size);
    let r = spec.reduces;
    let p_local = cal.locality_fraction.clamp(0.0, 1.0);

    // Map class.
    let map_out = split * spec.map_output_ratio;
    let map_cpu = spec.map_cpu_s_per_mb * split_mb;
    let map_disk = (split * p_local + map_out * spec.spill_io_factor) / cfg.disk_bw;
    let map_net = split * (1.0 - p_local) / cfg.nic_bw;

    // Shuffle-sort class (per reduce).
    let (ss_cpu, ss_disk, ss_net, mg_cpu, mg_disk, mg_net);
    if r > 0 {
        let input = spec.total_shuffle_bytes() as f64 / r as f64;
        let remote_frac = (n - 1.0) / n;
        ss_cpu = 0.0;
        ss_net = input * remote_frac / cfg.nic_bw;
        ss_disk = input * (1.0 - remote_frac) / cfg.disk_bw;
        // Merge class.
        let out = input * spec.reduce_output_ratio;
        mg_cpu = spec.reduce_cpu_s_per_mb * input / MB as f64;
        mg_disk = (input * spec.sort_io_factor + out) / cfg.disk_bw;
        mg_net = out * (cfg.replication.saturating_sub(1)) as f64 / cfg.nic_bw;
    } else {
        ss_cpu = 0.0;
        ss_disk = 0.0;
        ss_net = 0.0;
        mg_cpu = 0.0;
        mg_disk = 0.0;
        mg_net = 0.0;
    }

    let demands = [
        [map_cpu, map_disk, map_net],
        [ss_cpu, ss_disk, ss_net],
        [mg_cpu, mg_disk, mg_net],
    ];
    // Container launch + half a heartbeat of allocation latency precede the
    // map body and the reduce (shuffle) body.
    let sched = cfg.container_launch_delay + 0.5 * cfg.heartbeat;
    let overhead = [sched, sched, 0.0];

    // Herodotou bootstrap for the initial responses (§4.2.1 approach 2).
    let hp = herodotou_params(cfg, spec);
    let mp = map_phases(&hp);
    let rp = reduce_phases(&hp);
    let initial_response = [
        mp.total() + overhead[0],
        rp.shuffle_sort() + overhead[1],
        rp.merge_subtask() + overhead[2],
    ];

    // Response-time variability under contention exceeds raw service-time
    // variability (queueing adds variance), so measured service CVs act as
    // refinements above the calibration floor, never below it.
    let cv = match measured {
        Some(p) => [
            if p.map.count >= 2 {
                p.map.cv.max(cal.cv[0])
            } else {
                cal.cv[0]
            },
            if p.shuffle_sort.count >= 2 {
                p.shuffle_sort.cv.max(cal.cv[1])
            } else {
                cal.cv[1]
            },
            if p.merge.count >= 2 {
                p.merge.cv.max(cal.cv[2])
            } else {
                cal.cv[2]
            },
        ],
        None => cal.cv,
    };

    JobClassInputs {
        num_maps: m,
        num_reduces: r,
        demands,
        initial_response,
        cv,
        shuffle_per_map: map_out / cfg.nic_bw,
        overhead,
    }
}

/// One class of a heterogeneous workload mix: a job specification, how
/// many concurrent copies of it run, and optionally a measured profile
/// from a profiling run of *that* class (per-class calibration).
#[derive(Debug, Clone)]
pub struct MixClass {
    /// The job this class runs.
    pub spec: JobSpec,
    /// Concurrent copies of it in the mix (≥ 1).
    pub count: usize,
    /// Measured per-class statistics refining the calibration CVs.
    pub profile: Option<MeasuredProfile>,
}

/// Full model input for a heterogeneous mix of concurrent jobs: one
/// [`JobClassInputs`] per job instance, classes in entry order with
/// `count` consecutive copies each (the order [`crate::eval_mix`]
/// reports per-class results in).
pub fn mix_model_input(
    cfg: &SimConfig,
    classes: &[MixClass],
    options: ModelOptions,
    cal: &Calibration,
) -> ModelInput {
    assert!(!classes.is_empty(), "need at least one mix class");
    assert!(classes.iter().all(|c| c.count >= 1), "empty mix class");
    let total: usize = classes.iter().map(|c| c.count).sum();
    let per_node = cfg.containers_per_node();
    let cluster = ClusterInputs {
        num_nodes: cfg.nodes,
        cpu_per_node: cfg.cpu_cores.round().max(1.0) as u32,
        disk_per_node: 1,
        max_maps_per_node: per_node,
        max_reduce_per_node: per_node,
        // One container per concurrent job for its AM. Saturate rather
        // than wrap: an absurd job total must not silently reserve
        // almost nothing.
        reserved_containers: u32::try_from(total).unwrap_or(u32::MAX),
    };
    let mut jobs = Vec::with_capacity(total);
    for c in classes {
        let job = job_inputs(cfg, &c.spec, cal, c.profile.as_ref());
        for _ in 0..c.count {
            jobs.push(job.clone());
        }
    }
    ModelInput {
        cluster,
        jobs,
        options,
    }
}

/// Full model input for `n_jobs` identical concurrent jobs — the
/// single-class convenience over [`mix_model_input`].
pub fn model_input(
    cfg: &SimConfig,
    spec: &JobSpec,
    n_jobs: usize,
    options: ModelOptions,
    cal: &Calibration,
    measured: Option<&MeasuredProfile>,
) -> ModelInput {
    assert!(n_jobs >= 1);
    mix_model_input(
        cfg,
        &[MixClass {
            spec: spec.clone(),
            count: n_jobs,
            profile: measured.cloned(),
        }],
        options,
        cal,
    )
}

/// The static Herodotou job-time estimate for the same configuration
/// (related-work baseline).
pub fn herodotou_estimate(cfg: &SimConfig, spec: &JobSpec) -> f64 {
    job_time(&herodotou_params(cfg, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_sim::workload::wordcount_1gb;

    #[test]
    fn demands_are_positive_and_sane() {
        let cfg = SimConfig::paper_testbed(4);
        let spec = wordcount_1gb(4);
        let j = job_inputs(&cfg, &spec, &Calibration::default(), None);
        assert_eq!(j.num_maps, 8);
        assert_eq!(j.num_reduces, 4);
        // Map CPU demand: 0.30 s/MB × 128 MB = 38.4 s.
        assert!((j.demands[0][0] - 38.4).abs() < 1e-9);
        // Map disk demand ≈ (128·0.95 + 128)/120 MB/s ≈ 2.08 s.
        assert!(j.demands[0][1] > 1.5 && j.demands[0][1] < 3.0);
        // Shuffle is network-dominated.
        assert!(j.demands[1][2] > j.demands[1][1]);
        // Initial responses are the Herodotou sums plus overheads.
        assert!(j.initial_response[0] > j.demands[0][0]);
        assert!(j.shuffle_per_map > 0.0);
    }

    #[test]
    fn map_only_zeroes_reduce_classes() {
        let cfg = SimConfig::paper_testbed(2);
        let mut spec = wordcount_1gb(0);
        spec.reduces = 0;
        let j = job_inputs(&cfg, &spec, &Calibration::default(), None);
        assert_eq!(j.demands[1], [0.0; 3]);
        assert_eq!(j.demands[2], [0.0; 3]);
    }

    #[test]
    fn model_input_reserves_am_containers() {
        let cfg = SimConfig::paper_testbed(4);
        let spec = wordcount_1gb(4);
        let inp = model_input(
            &cfg,
            &spec,
            3,
            ModelOptions::default(),
            &Calibration::default(),
            None,
        );
        assert_eq!(inp.jobs.len(), 3);
        assert_eq!(inp.cluster.reserved_containers, 3);
        inp.validate();
    }

    #[test]
    fn herodotou_baseline_positive() {
        let cfg = SimConfig::paper_testbed(4);
        let spec = wordcount_1gb(4);
        let t = herodotou_estimate(&cfg, &spec);
        assert!(t > 0.0);
    }
}
