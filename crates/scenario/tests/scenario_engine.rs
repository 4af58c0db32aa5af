//! Integration tests of the scenario engine against the real backends:
//! exact expansion, bit-identical cache hits, determinism of the
//! parallel runner, and heterogeneous workload mixes end to end.

use mapreduce_sim::MB;
use mr2_scenario::{
    class_error_bands, error_bands, evaluate_point, expand, run_scenario, schema_version,
    ArrivalSchedule, Backends, EstimatorKind, JobKind, JobTrace, KeyHasher, MixEntry, ResultCache,
    Scenario, SweepMode, WorkloadMix,
};

/// A 3-axis sweep (cluster size × N × estimator) small enough for CI but
/// exercising both backends end to end.
fn three_axis_scenario() -> Scenario {
    Scenario::new("it-3axis")
        .axis_nodes([2usize, 3])
        .axis_n_jobs([1usize, 2])
        .axis_estimators([EstimatorKind::ForkJoin, EstimatorKind::Tripathi])
        .axis_input_bytes([256 * MB])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(2),
        })
}

/// A heterogeneous sweep: two mixes × two cluster sizes, both backends.
fn mixed_scenario() -> Scenario {
    Scenario::new("it-mixed")
        .axis_nodes([2usize, 3])
        .axis_mixes([
            WorkloadMix::single(JobKind::WordCount, 256 * MB, 1),
            WorkloadMix::new([
                MixEntry::new(JobKind::WordCount, 256 * MB, 1),
                MixEntry::new(JobKind::TeraSort, 128 * MB, 1),
                MixEntry::new(JobKind::Grep, 256 * MB, 1),
            ]),
        ])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(2),
        })
}

#[test]
fn spec_expansion_produces_the_exact_cartesian_grid() {
    let s = three_axis_scenario();
    let pts = expand(&s);
    assert_eq!(pts.len(), 2 * 2 * 2);
    let mut expected = Vec::new();
    for &nodes in &[2usize, 3] {
        for &n in &[1usize, 2] {
            for &e in &[EstimatorKind::ForkJoin, EstimatorKind::Tripathi] {
                expected.push((nodes, n, e));
            }
        }
    }
    let actual: Vec<_> = pts
        .iter()
        .map(|p| (p.nodes, p.total_jobs(), p.estimator))
        .collect();
    assert_eq!(actual, expected, "grid content and rightmost-fastest order");
}

#[test]
fn mix_axis_expands_to_the_exact_grid() {
    let s = mixed_scenario().axis_estimators([EstimatorKind::ForkJoin, EstimatorKind::Tripathi]);
    assert_eq!(s.num_points(), 2 * 2 * 2, "nodes × mixes × estimators");
    let pts = expand(&s);
    assert_eq!(pts.len(), 8);
    // Rightmost fastest: estimator, then mix, then nodes.
    assert_eq!(pts[0].mix.entries.len(), 1);
    assert_eq!(pts[2].mix.entries.len(), 3);
    assert_eq!(pts[4].nodes, 3);
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(p.index, i);
        // Reduce counts resolve per point against its own node count.
        for e in &p.mix.entries {
            assert_eq!(e.reduces as usize, p.nodes);
        }
    }
}

#[test]
fn parallel_sweep_equals_serial_sweep_bit_for_bit() {
    // A heterogeneous sweep: determinism must hold when points carry
    // different mixes (and therefore very different evaluation costs).
    let s = mixed_scenario();
    // Fresh caches so both runs actually evaluate: one point after the
    // other on this thread, and the runner on its threads.
    let cache = ResultCache::new();
    let serial: Vec<_> = expand(&s)
        .iter()
        .map(|p| evaluate_point(p, &s.backends, &cache))
        .collect();
    let parallel = run_scenario(&s, &ResultCache::new());
    assert_eq!(serial.len(), parallel.points.len());
    for (a, b) in serial.iter().zip(&parallel.points) {
        assert_eq!(a.point, b.point, "order must match expansion order");
        let (ea, eb) = (a.estimate().unwrap(), b.estimate().unwrap());
        assert_eq!(ea.to_bits(), eb.to_bits(), "estimate must be bit-identical");
        let (ma, mb) = (a.measured().unwrap(), b.measured().unwrap());
        assert_eq!(
            ma.to_bits(),
            mb.to_bits(),
            "measurement must be bit-identical"
        );
        assert_eq!(a.model, b.model, "per-class estimates included");
        assert_eq!(a.sim, b.sim, "per-class measurements included");
    }
}

#[test]
fn second_identical_run_is_answered_from_the_cache() {
    let s = mixed_scenario();
    let cache = ResultCache::new();
    let first = run_scenario(&s, &cache);
    let misses_after_first = cache.stats().misses;
    assert!(misses_after_first > 0);

    let second = run_scenario(&s, &cache);
    let stats = cache.stats();
    assert_eq!(
        stats.misses, misses_after_first,
        "second run must not evaluate anything"
    );
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a, b, "cached results must be bit-identical");
    }
}

#[test]
fn estimator_axis_reuses_sim_and_model_evaluations() {
    let s = three_axis_scenario();
    let cache = ResultCache::new();
    run_scenario(&s, &cache);
    // 8 points, but only 2 nodes × 2 N = 4 distinct configurations, each
    // needing one sim + one model record — and the profiling run is
    // N-independent, so 2 node counts need only 2 profile records.
    assert_eq!(cache.stats().entries, 4 * 2 + 2);
}

#[test]
fn convenience_builders_equal_an_explicit_single_entry_mix() {
    // The acceptance criterion: a single-job scenario built via the
    // `axis_jobs`-style conveniences must produce bit-identical
    // `SweepResult`s to the equivalent explicit 1-entry mix.
    let backends = Backends {
        analytic: true,
        profile_calibration: true,
        simulator: Some(2),
    };
    let via_grid = Scenario::new("conv")
        .axis_nodes([2usize, 3])
        .axis_jobs([JobKind::TeraSort])
        .axis_input_bytes([128 * MB])
        .axis_n_jobs([2usize])
        .with_backends(backends);
    let via_mix = Scenario::new("conv")
        .axis_nodes([2usize, 3])
        .axis_mixes([WorkloadMix::single(JobKind::TeraSort, 128 * MB, 2)])
        .with_backends(backends);

    let a = run_scenario(&via_grid, &ResultCache::new());
    let b = run_scenario(&via_mix, &ResultCache::new());
    assert_eq!(a.points.len(), b.points.len());
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x, y, "bit-identical point results");
    }

    // And through a shared cache the second form is answered entirely
    // from the first form's evaluations.
    let cache = ResultCache::new();
    run_scenario(&via_grid, &cache);
    let misses = cache.stats().misses;
    run_scenario(&via_mix, &cache);
    assert_eq!(cache.stats().misses, misses, "same content keys");
}

#[test]
fn heterogeneous_mix_reports_per_class_and_aggregate_bands() {
    // The acceptance scenario: WordCount + TeraSort + Grep in one
    // point, through both backends, with per-class *and* aggregate
    // model-vs-sim error bands.
    let s = Scenario::new("acceptance")
        .axis_nodes([2usize])
        .axis_mixes([WorkloadMix::new([
            MixEntry::new(JobKind::WordCount, 256 * MB, 1),
            MixEntry::new(JobKind::TeraSort, 256 * MB, 1),
            MixEntry::new(JobKind::Grep, 256 * MB, 1),
        ])])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(2),
        });
    let sweep = run_scenario(&s, &ResultCache::new());
    assert_eq!(sweep.points.len(), 1);
    let p = &sweep.points[0];
    let model = p.model.as_ref().unwrap();
    let sim = p.sim.as_ref().unwrap();
    assert_eq!(model.per_class.len(), 3);
    assert_eq!(sim.per_class_median.len(), 3);
    for c in 0..3 {
        assert!(p.class_estimate(c).unwrap() > 0.0);
        assert!(p.class_measured(c).unwrap() > 0.0);
    }

    let aggregate = error_bands(&sweep);
    assert!(!aggregate.is_empty(), "aggregate bands present");
    let per_class = class_error_bands(&sweep);
    assert_eq!(per_class.len(), 3 * 4, "3 classes × 4 series");
    for label in ["wordcount@256MB", "terasort@256MB", "grep@256MB"] {
        assert!(
            per_class.iter().any(|b| b.class == label),
            "band for {label}"
        );
    }
    let report = mr2_scenario::render_report(&sweep);
    assert!(report.contains("per-class model vs simulator"));
}

#[test]
fn old_schema_snapshots_load_zero_entries() {
    // The acceptance criterion for the version bump: snapshots written
    // under previous combined schemas must load nothing into a current
    // cache. The PR-3-era snapshot (model v2 / sim v2) is a committed
    // fixture — the exact bytes that generation of builds persisted.
    let pr3_combined: u64 = (2 << 32) | 2;
    for old_combined in [(1u64 << 32) | 1, pr3_combined] {
        assert_ne!(
            schema_version(),
            old_combined,
            "this PR bumped both schema versions"
        );
    }
    assert_eq!(
        schema_version(),
        (u64::from(mr2_model::MODEL_SCHEMA_VERSION) << 32)
            | u64::from(mapreduce_sim::SIM_SCHEMA_VERSION)
    );

    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/pr3_cache_snapshot.txt");
    let body = std::fs::read_to_string(&fixture).unwrap();
    assert!(
        body.contains(&format!("schema {pr3_combined:016x}")),
        "fixture carries the PR-3 combined schema"
    );
    let cache = ResultCache::new();
    assert_eq!(
        cache.load(&fixture).unwrap(),
        0,
        "PR-3-era snapshot loads nothing"
    );
    assert_eq!(cache.stats().entries, 0);

    // And the same content hashed under the two versions lands on
    // different keys.
    assert_ne!(
        KeyHasher::with_schema_version(pr3_combined)
            .str("p")
            .finish(),
        KeyHasher::versioned().str("p").finish(),
    );
}

#[test]
fn batch_arrivals_are_bit_identical_to_the_pr3_shape() {
    // The acceptance criterion: a sweep that spells out batch arrivals
    // (the new axis) produces bit-identical `SweepResult`s to the same
    // scenario in PR 3's shape — no arrivals axis touched, offset-free
    // mixes.
    let backends = Backends {
        analytic: true,
        profile_calibration: true,
        simulator: Some(2),
    };
    let pr3_shape = Scenario::new("arr")
        .axis_nodes([2usize, 3])
        .axis_mixes([WorkloadMix::new([
            MixEntry::new(JobKind::WordCount, 256 * MB, 1),
            MixEntry::new(JobKind::Grep, 256 * MB, 1),
        ])])
        .with_backends(backends);
    let explicit = pr3_shape.clone().axis_arrivals([ArrivalSchedule::Batch]);

    let a = run_scenario(&pr3_shape, &ResultCache::new());
    let b = run_scenario(&explicit, &ResultCache::new());
    assert_eq!(a.points.len(), b.points.len());
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x, y, "bit-identical point results");
    }

    // And through a shared cache the explicit form is answered entirely
    // from the default form's evaluations — same content keys.
    let cache = ResultCache::new();
    run_scenario(&pr3_shape, &cache);
    let misses = cache.stats().misses;
    run_scenario(&explicit, &cache);
    assert_eq!(cache.stats().misses, misses, "same content keys");
}

#[test]
fn arrival_schedule_axis_changes_ground_truth_and_cache_keys() {
    let s = Scenario::new("arrivals")
        .axis_nodes([2usize])
        .axis_input_bytes([512 * MB])
        .axis_n_jobs([3usize])
        .axis_arrivals([
            ArrivalSchedule::Batch,
            ArrivalSchedule::Staggered {
                interval_ms: 120_000,
            },
        ])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: false,
            simulator: Some(2),
        });
    let cache = ResultCache::new();
    let sweep = run_scenario(&s, &cache);
    assert_eq!(sweep.points.len(), 2);
    assert_eq!(
        cache.stats().misses,
        4,
        "each schedule is its own evaluation (sim + model per schedule)"
    );
    let (batch, staggered) = (&sweep.points[0], &sweep.points[1]);
    // Staggering relieves contention (lower response) but occupies the
    // cluster longer (higher makespan) — in both backends.
    assert!(staggered.measured().unwrap() < batch.measured().unwrap());
    assert!(staggered.measured_makespan().unwrap() > batch.measured_makespan().unwrap());
    assert!(staggered.estimate().unwrap() < batch.estimate().unwrap());
    assert!(staggered.estimate_makespan().unwrap() > batch.estimate_makespan().unwrap());
    // Response and makespan now genuinely diverge in the report/CSV.
    let csv = mr2_scenario::to_csv(&sweep);
    assert!(csv.contains("stagger@120000ms"));
    assert!(csv.contains("measured_makespan"));
    let report = mr2_scenario::render_report(&sweep);
    assert!(report.contains("stagger@120000ms"));
}

#[test]
fn trace_replay_reports_per_class_error_bands() {
    // The acceptance criterion: replaying a trace through `Scenario`
    // yields per-class model-vs-sim error bands.
    let trace = JobTrace::parse(
        "{\"job_id\":\"j1\",\"job\":\"wordcount\",\"submit_time_ms\":0,\"input_bytes\":268435456}\n\
         {\"job_id\":\"j2\",\"job\":\"grep\",\"submit_time_ms\":45000,\"input_bytes\":268435456}\n\
         {\"job_id\":\"j3\",\"job\":\"terasort\",\"submit_time_ms\":90000,\"input_bytes\":134217728}",
    )
    .unwrap();
    let s = Scenario::new("replay")
        .axis_nodes([2usize])
        .axis_mixes([trace.to_mix()])
        .with_backends(Backends {
            analytic: true,
            profile_calibration: true,
            simulator: Some(2),
        });
    let sweep = run_scenario(&s, &ResultCache::new());
    let p = &sweep.points[0];
    assert_eq!(p.point.mix.entries.len(), 3, "one class per trace job");
    assert_eq!(p.point.submit_offsets(), vec![0.0, 45.0, 90.0]);
    let bands = class_error_bands(&sweep);
    assert_eq!(bands.len(), 3 * 4, "3 replayed classes × 4 series");
    for b in &bands {
        assert!(b.band.mean.is_finite());
    }
    assert!(!error_bands(&sweep).is_empty());
    // The replayed mix's makespan covers the last arrival.
    assert!(p.measured_makespan().unwrap() > 90.0);
    assert!(p.estimate_makespan().unwrap() > 90.0);
}

#[test]
fn straggler_axis_changes_ground_truth() {
    // Second half of the ROADMAP failure-injection item: a slow node
    // measurably slows the simulated workload, and the axis separates
    // cache keys.
    let s = Scenario::new("stragglers")
        .axis_nodes([2usize])
        .axis_input_bytes([512 * MB])
        .axis_slow_node_factor([1.0, 4.0])
        .with_backends(Backends {
            analytic: false,
            profile_calibration: false,
            simulator: Some(2),
        });
    let cache = ResultCache::new();
    let sweep = run_scenario(&s, &cache);
    assert_eq!(sweep.points.len(), 2);
    assert_eq!(cache.stats().misses, 2, "two distinct sim evaluations");
    let (clean, slow) = (sweep.points[0].measured(), sweep.points[1].measured());
    assert!(
        slow.unwrap() > clean.unwrap() * 1.1,
        "a 4x slow node must straggle the workload: {clean:?} vs {slow:?}"
    );
}

#[test]
fn map_failure_axis_changes_ground_truth() {
    let s = Scenario::new("failures")
        .axis_nodes([2usize])
        .axis_input_bytes([256 * MB])
        .axis_map_failure_prob([0.0, 0.4])
        .with_backends(Backends {
            analytic: false,
            profile_calibration: false,
            simulator: Some(1),
        });
    let cache = ResultCache::new();
    let sweep = run_scenario(&s, &cache);
    assert_eq!(sweep.points.len(), 2);
    assert_eq!(cache.stats().misses, 2, "two distinct sim evaluations");
    let (clean, failing) = (sweep.points[0].measured(), sweep.points[1].measured());
    assert!(
        failing.unwrap() > clean.unwrap(),
        "retried maps must slow the job: {clean:?} vs {failing:?}"
    );
}

#[test]
fn overlapping_scenarios_share_cache_entries_across_runs() {
    // Two differently named and differently shaped scenarios whose
    // grids overlap in one configuration (nodes=2, N=1): the second
    // sweep must reuse the first sweep's evaluations for it.
    let backends = Backends {
        analytic: true,
        profile_calibration: false,
        simulator: Some(1),
    };
    let a = Scenario::new("sweep-a")
        .axis_nodes([2usize, 3])
        .axis_input_bytes([128 * MB])
        .with_backends(backends);
    let b = Scenario::new("sweep-b")
        .axis_nodes([2usize])
        .axis_n_jobs([1usize, 2])
        .axis_input_bytes([128 * MB])
        .with_backends(backends);

    let cache = ResultCache::new();
    let ra = run_scenario(&a, &cache);
    let misses_after_a = cache.stats().misses;
    assert_eq!(misses_after_a, 2 * 2, "2 configs × (sim + model)");

    let rb = run_scenario(&b, &cache);
    let stats = cache.stats();
    assert_eq!(
        stats.misses,
        misses_after_a + 2,
        "only b's novel N=2 config evaluates; the shared config is served from cache"
    );
    // And the shared configuration's numbers are bit-identical.
    let shared_a = &ra.points[0];
    let shared_b = &rb.points[0];
    assert_eq!(shared_a.point.nodes, shared_b.point.nodes);
    assert_eq!(shared_a.model, shared_b.model);
    assert_eq!(shared_a.sim, shared_b.sim);
}

#[test]
fn comparison_layer_reports_error_bands_per_series() {
    let s = three_axis_scenario();
    let sweep = run_scenario(&s, &ResultCache::new());
    let bands = error_bands(&sweep);
    assert!(!bands.is_empty());
    let fj = bands
        .iter()
        .find(|b| b.estimator == EstimatorKind::ForkJoin)
        .expect("fork/join band present");
    // On-axis series are judged on their own 4 points.
    assert_eq!(fj.band.count, 4);
    assert!(fj.band.min <= fj.band.mean && fj.band.mean <= fj.band.max);
    assert!(fj.band.max.is_finite());
}

#[test]
fn zip_sweep_runs_end_to_end() {
    let s = Scenario::new("it-zip")
        .sweep_mode(SweepMode::Zip)
        .axis_nodes([2usize, 3])
        .axis_input_bytes([128 * MB, 256 * MB])
        .with_backends(Backends::analytic_only());
    let sweep = run_scenario(&s, &ResultCache::new());
    assert_eq!(sweep.points.len(), 2);
    assert_eq!(sweep.points[0].point.nodes, 2);
    assert_eq!(sweep.points[0].point.mix.entries[0].input_bytes, 128 * MB);
    assert_eq!(sweep.points[1].point.nodes, 3);
    assert_eq!(sweep.points[1].point.mix.entries[0].input_bytes, 256 * MB);
    assert!(sweep.points.iter().all(|p| p.sim.is_none()));
    assert!(sweep.points.iter().all(|p| p.estimate().unwrap() > 0.0));
}
