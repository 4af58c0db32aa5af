//! Definitions of the paper's experiments (Figures 10–15, Table 1, the
//! §5.2 error bands), each expressed as a declarative `mr2-scenario`
//! sweep and executed by its batch runner. A process-wide
//! result cache deduplicates configurations shared between figures
//! (e.g. fig12's 4-node point and fig14's 1-job point are the same
//! evaluation), and persists under `results/` ([`load_cache`] /
//! [`save_cache`]) so re-running figures is incremental across
//! processes, not cold each time.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mapreduce_sim::{SimConfig, GB};
use mr2_model::error::ErrorBand;
use mr2_model::{Calibration, ModelOptions};
use mr2_scenario::{run_scenario, Backends, PointResult, ResultCache, Scenario};

/// Number of repetitions per configuration (paper §5.1: "Each experiment
/// we repeated 5 times and then took the median").
pub const REPS: usize = 5;

/// Process-wide evaluation cache shared by every experiment run.
fn cache() -> &'static ResultCache {
    static CACHE: OnceLock<ResultCache> = OnceLock::new();
    CACHE.get_or_init(ResultCache::new)
}

/// Where [`save_cache`] snapshots the process-wide cache inside the
/// output directory.
pub fn cache_path(out_dir: &Path) -> PathBuf {
    out_dir.join("cache.txt")
}

/// Warm the process-wide cache from an earlier run's snapshot in
/// `out_dir`. Returns the number of entries merged; a missing snapshot
/// is simply a cold start (`Ok(0)`), and a snapshot from a different
/// model/simulator schema version loads nothing by design.
pub fn load_cache(out_dir: &Path) -> std::io::Result<usize> {
    match cache().load(&cache_path(out_dir)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        other => other,
    }
}

/// Snapshot the process-wide cache into `out_dir` so the next process
/// skips every evaluation this one performed.
pub fn save_cache(out_dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = cache_path(out_dir);
    cache().save(&path)?;
    Ok(path)
}

/// The backends the paper's methodology prescribes: simulator ground
/// truth (median of [`REPS`] seeded runs) plus the profile-calibrated
/// analytic model.
fn paper_backends() -> Backends {
    Backends {
        analytic: true,
        profile_calibration: true,
        simulator: Some(REPS),
    }
}

/// One point of a sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Sweep coordinate (number of nodes, or number of jobs for fig14).
    pub x: f64,
    /// Measured median job response time (the "HadoopSetup" series).
    pub measured: f64,
    /// Fork/join model estimate.
    pub fork_join: f64,
    /// Tripathi model estimate.
    pub tripathi: f64,
    /// ARIA `T_avg` baseline.
    pub aria: f64,
    /// Herodotou static baseline.
    pub herodotou: f64,
}

/// A completed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Which experiment.
    pub id: ExperimentId,
    /// Human-readable title (matches the paper's caption).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// The sweep points.
    pub points: Vec<Point>,
}

/// The paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Fig. 10: 1 GB input, 1 job, nodes ∈ {4,6,8}.
    Fig10,
    /// Fig. 11: 1 GB input, 4 jobs, nodes ∈ {4,6,8}.
    Fig11,
    /// Fig. 12: 5 GB input, 1 job, nodes ∈ {4,6,8}.
    Fig12,
    /// Fig. 13: 5 GB input, 4 jobs, nodes ∈ {4,6,8}.
    Fig13,
    /// Fig. 14: 4 nodes, 5 GB, jobs ∈ {1,2,3,4}.
    Fig14,
    /// Fig. 15: 64 MB blocks, 5 GB, 1 job, nodes ∈ {4,6,8}.
    Fig15,
}

impl ExperimentId {
    /// All figure experiments in paper order.
    pub const ALL: [ExperimentId; 6] = [
        ExperimentId::Fig10,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Fig15,
    ];

    /// Parse a CLI name like "fig10".
    pub fn parse(s: &str) -> Option<ExperimentId> {
        Some(match s {
            "fig10" => ExperimentId::Fig10,
            "fig11" => ExperimentId::Fig11,
            "fig12" => ExperimentId::Fig12,
            "fig13" => ExperimentId::Fig13,
            "fig14" => ExperimentId::Fig14,
            "fig15" => ExperimentId::Fig15,
            _ => return None,
        })
    }

    /// The CLI/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
        }
    }
}

/// Which scenario axis a figure plots on its x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XAxis {
    Nodes,
    Jobs,
}

impl ExperimentId {
    /// The figure as a declarative sweep. Reducers follow the scenario
    /// default (`ReducePolicy::PerNode`): one reduce wave across the
    /// cluster, the common sizing rule and the paper's setup.
    pub fn scenario(&self) -> Scenario {
        let base = Scenario::new(self.name())
            .axis_nodes([4usize, 6, 8])
            .with_backends(paper_backends());
        match self {
            ExperimentId::Fig10 => base.axis_input_bytes([GB]),
            ExperimentId::Fig11 => base.axis_input_bytes([GB]).axis_n_jobs([4usize]),
            ExperimentId::Fig12 => base.axis_input_bytes([5 * GB]),
            ExperimentId::Fig13 => base.axis_input_bytes([5 * GB]).axis_n_jobs([4usize]),
            ExperimentId::Fig14 => base
                .axis_nodes([4usize])
                .axis_input_bytes([5 * GB])
                .axis_n_jobs([1usize, 2, 3, 4]),
            ExperimentId::Fig15 => base.axis_input_bytes([5 * GB]).axis_block_mb([64u64]),
        }
    }

    fn x_axis(&self) -> XAxis {
        match self {
            ExperimentId::Fig14 => XAxis::Jobs,
            _ => XAxis::Nodes,
        }
    }

    fn title(&self) -> &'static str {
        match self {
            ExperimentId::Fig10 => "Input: 1GB; #jobs: 1",
            ExperimentId::Fig11 => "Input: 1GB; #jobs: 4",
            ExperimentId::Fig12 => "Input: 5GB; #jobs: 1",
            ExperimentId::Fig13 => "Input: 5GB; #jobs: 4",
            ExperimentId::Fig14 => "#Nodes: 4; Input: 5GB",
            ExperimentId::Fig15 => "Block: 64MB; Input: 5GB; #jobs: 1",
        }
    }
}

/// Project one evaluated scenario point onto a figure's series.
fn to_point(r: &PointResult, x_axis: XAxis) -> Point {
    let model = r
        .model
        .as_ref()
        .expect("paper backends include the analytic model");
    Point {
        x: match x_axis {
            XAxis::Nodes => r.point.nodes as f64,
            XAxis::Jobs => r.point.total_jobs() as f64,
        },
        measured: r.measured().expect("paper backends include the simulator"),
        fork_join: model.fork_join,
        tripathi: model.tripathi,
        aria: model.aria,
        herodotou: model.herodotou,
    }
}

/// Run one of the paper's figure experiments through the scenario
/// engine's runner.
pub fn run_experiment(id: ExperimentId) -> ExperimentResult {
    let sweep = run_scenario(&id.scenario(), cache());
    let x_axis = id.x_axis();
    ExperimentResult {
        id,
        title: id.title().into(),
        x_label: match x_axis {
            XAxis::Nodes => "number of nodes".into(),
            XAxis::Jobs => "number of jobs".into(),
        },
        points: sweep.points.iter().map(|p| to_point(p, x_axis)).collect(),
    }
}

/// Error-band summary over a set of experiments — the §5.2 numbers
/// ("error between 11% and 13,5%" fork/join, "19% and 23%" Tripathi).
pub fn run_errors(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    let collect = |f: &dyn Fn(&Point) -> f64| -> Vec<(f64, f64)> {
        results
            .iter()
            .flat_map(|r| r.points.iter().map(|p| (f(p), p.measured)))
            .collect()
    };
    let fj = ErrorBand::over(&collect(&|p| p.fork_join));
    let tr = ErrorBand::over(&collect(&|p| p.tripathi));
    let ar = ErrorBand::over(&collect(&|p| p.aria));
    let he = ErrorBand::over(&collect(&|p| p.herodotou));
    out.push_str("| model | error band | mean | points |\n|---|---|---|---|\n");
    for (name, b) in [
        ("Fork/join", fj),
        ("Tripathi", tr),
        ("ARIA (baseline)", ar),
        ("Herodotou (baseline)", he),
    ] {
        out.push_str(&format!(
            "| {name} | {} | {:.1}% | {} |\n",
            b.as_percent_range(),
            b.mean * 100.0,
            b.count
        ));
    }
    out
}

/// The paper's running example (§3.1, Table 1, Figures 6–7): renders the
/// ResourceRequest table, the timeline, and the precedence tree.
pub fn running_example() -> String {
    use hdfs_sim::NodeId;
    use mr2_model::timeline::{build_timeline, ShuffleSpec, TimelineConfig, TimelineJob};
    use mr2_model::tree::build_tree;
    use yarn_sim::{render_table1, AskTable, Location, Priority, ResourceRequest, ResourceVector};

    let mut out = String::new();
    out.push_str("Running example: n = 3 nodes, m = 4 maps, r = 1 reduce\n\n");

    // Table 1: the ResourceRequest object.
    let mut ask = AskTable::new();
    let x = ResourceVector::new(1024, 1);
    for (loc, n, p) in [
        (Location::Node(NodeId(0)), 2, Priority::MAP),
        (Location::Node(NodeId(1)), 2, Priority::MAP),
        (Location::Any, 4, Priority::MAP),
        (Location::Any, 1, Priority::REDUCE),
    ] {
        ask.update(&ResourceRequest {
            num_containers: n,
            priority: p,
            capability: x,
            location: loc,
            relax_locality: true,
        });
    }
    out.push_str("Table 1 — ResourceRequest object:\n");
    out.push_str(&render_table1(&ask));

    // Figure 6: the timeline.
    let tl = build_timeline(
        &TimelineConfig {
            capacities: vec![1; 3],
            slow_start: true,
        },
        &[TimelineJob {
            num_maps: 4,
            num_reduces: 1,
            map_duration: 10.0,
            merge_duration: 6.0,
            shuffle: ShuffleSpec::PerRemoteMap { sd: 2.0, base: 1.0 },
        }],
    );
    out.push_str("\nFigure 6 — timeline (map 10s, sd 2s, merge 6s):\n");
    for s in &tl.segments {
        out.push_str(&format!(
            "  {:?}{} on n{}: [{:>5.1}, {:>5.1})\n",
            s.class,
            s.index + 1,
            s.node,
            s.start,
            s.end
        ));
    }

    // Figure 7: the precedence tree.
    let tree = build_tree(&tl, None, true).expect("non-empty timeline");
    out.push_str(&format!(
        "\nFigure 7 — precedence tree (balanced): {}\n  depth {}, {} leaves\n",
        tree.render(&tl),
        tree.depth(),
        tree.num_leaves()
    ));
    out
}

/// Print solver internals for the fig12@4-nodes point (calibration aid).
pub fn debug_point() {
    use mapreduce_sim::profile::{eval_mix, profile_job};
    use mapreduce_sim::workload::wordcount;
    use mr2_model::input::Estimator;
    use mr2_model::solve;
    let cfg = SimConfig::paper_testbed(4);
    let spec = wordcount(5 * GB, 4);
    let m = eval_mix(&cfg, &[(spec.clone(), 1)], &[], REPS);
    let (profile, result) = profile_job(&spec, &cfg);
    println!("measured median: {:.1}", m.median_response);
    println!(
        "sim profile: map {:.1}s cv {:.2} | ss {:.1}s cv {:.2} | merge {:.1}s cv {:.2}",
        profile.map.mean,
        profile.map.cv,
        profile.shuffle_sort.mean,
        profile.shuffle_sort.cv,
        profile.merge.mean,
        profile.merge.cv
    );
    let maps_start = result
        .map_records()
        .map(|t| t.started_at)
        .fold(f64::INFINITY, f64::min);
    let maps_end = result
        .map_records()
        .map(|t| t.finished_at)
        .fold(0.0f64, f64::max);
    println!(
        "sim: first map start {maps_start:.1}, last map end {maps_end:.1}, job end {:.1}",
        result.finished_at
    );
    for est in [Estimator::ForkJoin, Estimator::Tripathi] {
        let input = mr2_model::model_input(
            &cfg,
            &spec,
            1,
            ModelOptions {
                estimator: est,
                ..ModelOptions::default()
            },
            &Calibration::default(),
            Some(&profile),
        );
        println!(
            "model initial responses: {:?}",
            input.jobs[0].initial_response
        );
        println!("model cvs: {:?}", input.jobs[0].cv);
        let r = solve(&input);
        println!(
            "{est:?}: avg {:.1} | iters {} | converged {} | durations {:?} | makespan {:.1} | depth {:?}",
            r.avg_response, r.iterations, r.converged, r.durations[0], r.makespan, r.tree_depths
        );
    }
}

/// Design-choice ablations on the 5 GB / 1 job / 4 nodes point:
/// P-subtree balancing, slow start, and the overlap factors.
pub fn ablations() -> String {
    use mapreduce_sim::profile::{eval_mix, profile_job};
    use mapreduce_sim::workload::wordcount;
    use mr2_model::solve_both;

    let cfg = SimConfig::paper_testbed(4);
    let spec = wordcount(5 * GB, 4);
    let measured = eval_mix(&cfg, &[(spec.clone(), 1)], &[], REPS).median_response;
    let (profile, _) = profile_job(&spec, &cfg);
    let cal = Calibration::default();

    let mut out = String::new();
    out.push_str("## Ablations (5 GB, 1 job, 4 nodes)\n");
    out.push_str(&format!("measured (median of {REPS}): {measured:.1}s\n\n"));
    out.push_str("| variant | fork/join (s) | tripathi (s) | tree depth | iterations |\n|---|---|---|---|---|\n");

    let variants: [(&str, ModelOptions); 4] = [
        ("default", ModelOptions::default()),
        (
            "no P-balancing",
            ModelOptions {
                balance_tree: false,
                ..ModelOptions::default()
            },
        ),
        (
            "no slow start",
            ModelOptions {
                slow_start: false,
                ..ModelOptions::default()
            },
        ),
        (
            "no overlap factors",
            ModelOptions {
                use_overlap_factors: false,
                ..ModelOptions::default()
            },
        ),
    ];
    for (name, opts) in variants {
        let (fj, tr) = solve_both(&mr2_model::model_input(
            &cfg,
            &spec,
            1,
            opts,
            &cal,
            Some(&profile),
        ));
        out.push_str(&format!(
            "| {name} | {:.1} | {:.1} | {} | {} |\n",
            fj.avg_response, tr.avg_response, tr.tree_depths[0], fj.iterations
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("fig99"), None);
    }

    #[test]
    fn figure_scenarios_match_the_paper_grids() {
        for id in ExperimentId::ALL {
            let s = id.scenario();
            s.validate();
            match id {
                ExperimentId::Fig14 => assert_eq!(s.num_points(), 4, "jobs 1..=4"),
                _ => assert_eq!(s.num_points(), 3, "nodes 4,6,8"),
            }
            assert_eq!(s.backends.simulator, Some(REPS));
            assert!(s.backends.analytic && s.backends.profile_calibration);
        }
        assert_eq!(ExperimentId::Fig15.scenario().block_mb, vec![64]);
        let fig11 = ExperimentId::Fig11.scenario().workload_values();
        assert!(fig11.iter().all(|m| m.total_jobs() == 4));
    }

    #[test]
    fn fig12_and_fig14_expand_to_a_shared_configuration() {
        // fig12's 4-node point and fig14's 1-job point are the same
        // configuration field for field, so the process-wide cache can
        // serve one from the other (cross-scenario reuse itself is
        // asserted in mr2-scenario's integration tests).
        let mut pts = mr2_scenario::expand(&ExperimentId::Fig12.scenario());
        let p12 = pts.remove(0);
        let p14 = mr2_scenario::expand(&ExperimentId::Fig14.scenario()).remove(0);
        assert_eq!(p12.nodes, p14.nodes);
        assert_eq!(p12.block_mb, p14.block_mb);
        assert_eq!(p12.mix, p14.mix, "same resolved workload mix");
    }

    #[test]
    fn cache_snapshot_roundtrips_like_a_new_process() {
        // Plant a record in the process-wide cache, snapshot it, and
        // load the snapshot into a fresh cache standing in for the next
        // process: the record must come back bit-identical under the
        // same versioned key.
        let key = mr2_scenario::KeyHasher::versioned()
            .str("bench-snapshot-probe")
            .finish();
        cache().get_or_compute(key, || vec![0.1 + 0.2, 42.0]);
        let dir = std::env::temp_dir().join(format!("mr2bench-cache-{}", std::process::id()));
        let path = save_cache(&dir).unwrap();
        assert_eq!(path, cache_path(&dir));

        let fresh = ResultCache::new();
        assert!(fresh.load(&path).unwrap() >= 1);
        let rec = fresh.get_all(&[key]).expect("probe survived the snapshot");
        assert_eq!(rec[0][0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(rec[0][1], 42.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn running_example_renders_paper_artifacts() {
        let s = running_example();
        assert!(s.contains("Table 1"));
        assert!(s.contains("| 1 | 10 |"), "reduce row present:\n{s}");
        assert!(s.contains("Figure 7"));
        assert!(s.contains("S("));
    }
}
