//! Pinned deterministic work counts for the `solver` and `simulator`
//! bench inputs, the former under each estimator alone and under the
//! joint `solve_both`.
//!
//! Wall-clock baselines are machine-specific, so they cannot gate a
//! regression on a shared runner. The work the solver does can: A2–A6
//! iterations, overlap-MVA iterations and the Tripathi estimator's
//! pairwise max evaluations are exact for a given input on any machine.
//! So are the simulator's event counts and finish times. A change that
//! makes the solver or simulator do more work, or moves a simulated
//! result by one bit, fails here; a change meant to move a count re-pins
//! it in the same diff, where review sees it.
//!
//! Only one `#[test]` may read registry counters: they are process-wide,
//! so no other test may run solves in this process while deltas are
//! read. The simulator pins read no counter.

use mapreduce_sim::workload::{grep, terasort, wordcount};
use mapreduce_sim::SchedulerPolicy::{self, CapacityFifo, Fair};
use mapreduce_sim::{ClusterSim, SimConfig, GB, MB};
use mr2_model::input::Estimator;
use mr2_model::{model_input, solve, solve_both, Calibration, ModelInput, ModelOptions};

/// `(bench case, estimator, A2–A6 iterations, MVA iterations, Tripathi max evaluations)`.
/// A memoized P-subtree's maxima count once per job estimate, and those
/// of a subtree over a run of like leaves once per solve.
const PINNED: [(&str, Estimator, usize, u64, u64); 6] = [
    ("fig10_1gb_1job_4n", Estimator::ForkJoin, 3, 33, 0),
    ("fig10_1gb_1job_4n", Estimator::Tripathi, 3, 33, 5),
    ("fig12_5gb_1job_4n", Estimator::ForkJoin, 8, 104, 0),
    ("fig12_5gb_1job_4n", Estimator::Tripathi, 8, 104, 38),
    ("fig13_5gb_4jobs_8n", Estimator::ForkJoin, 9, 126, 0),
    ("fig13_5gb_4jobs_8n", Estimator::Tripathi, 9, 126, 208),
];

/// `solve_both` on the bench inputs: `(case, fork/join iterations,
/// Tripathi iterations, A2–A6 iterations, MVA iterations, Tripathi max
/// evaluations)`. The joint loop runs until the later estimator stops,
/// so its MVA work is one solve's, not two. On the 8 GB two-job input
/// the estimators stop apart.
const JOINT_PINNED: [(&str, usize, usize, u64, u64, u64); 4] = [
    ("fig10_1gb_1job_4n", 3, 3, 3, 33, 5),
    ("fig12_5gb_1job_4n", 8, 8, 8, 104, 38),
    ("fig13_5gb_4jobs_8n", 9, 9, 9, 126, 208),
    ("wordcount_8gb_2jobs_8n", 9, 6, 9, 126, 76),
];

/// The model input of a pinned case: the `solver` bench inputs
/// (benches/solver.rs), plus one where the estimators stop apart.
fn case_input(case: &str, estimator: Estimator) -> ModelInput {
    let (nodes, input, jobs) = match case {
        "fig10_1gb_1job_4n" => (4, GB, 1),
        "fig12_5gb_1job_4n" => (4, 5 * GB, 1),
        "fig13_5gb_4jobs_8n" => (8, 5 * GB, 4),
        "wordcount_8gb_2jobs_8n" => (8, 8 * GB, 2),
        _ => unreachable!("unknown bench case {case}"),
    };
    model_input(
        &SimConfig::paper_testbed(nodes),
        &wordcount(input, nodes as u32),
        jobs,
        ModelOptions {
            estimator,
            ..ModelOptions::default()
        },
        &Calibration::default(),
        None,
    )
}

#[test]
fn solver_bench_inputs_do_pinned_work() {
    let solver = mr2_obs::counter(
        "mr2_solver_iterations_total",
        "A2-A6 iterations executed by the modified-MVA solver.",
    );
    let mva = mr2_obs::counter(
        "mr2_mva_iterations_total",
        "Fixed-point iterations executed by the overlap-MVA solver.",
    );
    let max_evals = mr2_obs::counter(
        "mr2_tripathi_max_evals_total",
        "Pairwise max evaluations run by the Tripathi estimator (a memoized P-subtree counts once per job estimate, a run of like leaves once per solve).",
    );
    let mut failures = Vec::new();
    for (case, estimator, iterations, mva_iterations, tripathi_max_evals) in PINNED {
        let inp = case_input(case, estimator);
        let (mva0, evals0) = (mva.value(), max_evals.value());
        let r = solve(&inp);
        let got = (r.iterations, mva.value() - mva0, max_evals.value() - evals0);
        let want = (iterations, mva_iterations, tripathi_max_evals);
        println!("{case} {estimator:?}: (iterations, mva, max evals) = {got:?}");
        if got != want {
            failures.push(format!(
                "{case} {estimator:?}: got {got:?}, pinned {want:?}"
            ));
        }
    }
    for (case, fj_iterations, tr_iterations, iterations, mva_iterations, tripathi_max_evals) in
        JOINT_PINNED
    {
        let inp = case_input(case, Estimator::ForkJoin);
        let (solver0, mva0, evals0) = (solver.value(), mva.value(), max_evals.value());
        let (fj, tr) = solve_both(&inp);
        let got = (
            fj.iterations,
            tr.iterations,
            solver.value() - solver0,
            mva.value() - mva0,
            max_evals.value() - evals0,
        );
        let want = (
            fj_iterations,
            tr_iterations,
            iterations,
            mva_iterations,
            tripathi_max_evals,
        );
        println!(
            "{case} Both: (fork/join iterations, Tripathi iterations, iterations, mva, max evals) = {got:?}"
        );
        if got != want {
            failures.push(format!("{case} Both: got {got:?}, pinned {want:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "work counts moved:\n{}",
        failures.join("\n")
    );
}

/// A simulator pin: `(bench case, scheduler, map failure probability,
/// nodes, input, jobs, events processed, bits of the last job's finish
/// time)`.
type SimPin = (
    &'static str,
    SchedulerPolicy,
    f64,
    usize,
    u64,
    usize,
    u64,
    u64,
);

/// Pins for the `simulator` bench inputs (benches/simulator.rs):
/// `wordcount`, batch arrivals. The 4-job input also runs under the Fair
/// policy, where the jobs' grants interleave; the 1-job inputs give the
/// same bits under both policies. The failure-injection rows cover the
/// retry path: a failed map attempt goes back to waiting for a
/// container, the one transition that raises the AM's waiting counts
/// again. The 32-node rows are the sweep grid's largest corner
/// (perfbench's `sweep_sim`: 8 GB × 4 jobs on 32 nodes), once per
/// policy.
#[rustfmt::skip]
const SIM_PINNED: [SimPin; 8] = [
    ("1gb_1job_4n", CapacityFifo, 0.0, 4, GB, 1, 184, 0x40579f261373dbc0),
    ("5gb_1job_4n", CapacityFifo, 0.0, 4, 5 * GB, 1, 530, 0x406e331b700c8b01),
    ("5gb_4jobs_8n", CapacityFifo, 0.0, 8, 5 * GB, 4, 2798, 0x40791a56f64c4270),
    ("5gb_4jobs_8n", Fair, 0.0, 8, 5 * GB, 4, 2598, 0x407688a253fb7b11),
    ("5gb_4jobs_8n", CapacityFifo, 0.05, 8, 5 * GB, 4, 2933, 0x407b8cf483b681a3),
    ("5gb_4jobs_8n", Fair, 0.05, 8, 5 * GB, 4, 2634, 0x407849ad4dec5fee),
    ("8gb_4jobs_32n", CapacityFifo, 0.0, 32, 8 * GB, 4, 7870, 0x4068b7f283ad801e),
    ("8gb_4jobs_32n", Fair, 0.05, 32, 8 * GB, 4, 5091, 0x40689f4a1bc326f3),
];

/// Bits of the `mix_throughput` bench's `sim_4n_3reps` per-rep mean
/// responses (benches/mix_throughput.rs).
const MIX_PINNED: [u64; 3] = [0x40511e61c8bc5772, 0x40519f0ae3dbe306, 0x404f064d75bc20e3];

#[test]
fn simulator_bench_inputs_are_pinned() {
    let mut failures = Vec::new();
    for (case, scheduler, map_failure_prob, nodes, input, jobs, events, last_finish) in SIM_PINNED {
        let mut sim = ClusterSim::new(SimConfig {
            scheduler,
            map_failure_prob,
            ..SimConfig::paper_testbed(nodes)
        });
        for _ in 0..jobs {
            sim.add_job(wordcount(input, nodes as u32), 0.0);
        }
        let results = sim.run();
        let got = (
            sim.events_processed(),
            results.last().unwrap().finished_at.to_bits(),
        );
        println!(
            "simulator {case} {scheduler:?} p_fail={map_failure_prob}: (events, last finish bits) = ({}, {:#x})",
            got.0, got.1
        );
        if got != (events, last_finish) {
            failures.push(format!(
                "simulator {case} {scheduler:?} p_fail={map_failure_prob}: got ({}, {:#x}), pinned ({events}, {last_finish:#x})",
                got.0, got.1
            ));
        }
    }

    // The same mix and staggered schedule as the bench's simulator case.
    let classes = [
        (wordcount(GB, 4), 2),
        (terasort(GB, 4), 1),
        (grep(512 * MB), 1),
    ];
    let p = mapreduce_sim::eval_mix(
        &SimConfig::paper_testbed(4),
        &classes,
        &[0.0, 45.0, 90.0, 150.0],
        3,
    );
    let got: Vec<u64> = p.per_rep_mean.iter().map(|m| m.to_bits()).collect();
    println!("mix sim_4n_3reps: per-rep mean bits = {got:#x?}");
    if got != MIX_PINNED {
        failures.push(format!(
            "mix sim_4n_3reps: got {got:#x?}, pinned {MIX_PINNED:#x?}"
        ));
    }
    assert!(
        failures.is_empty(),
        "simulator results moved:\n{}",
        failures.join("\n")
    );
}
