//! Pinned deterministic work counts for the `solver` and `simulator`
//! bench inputs.
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
use mapreduce_sim::{ClusterSim, SimConfig, GB, MB};
use mr2_model::input::Estimator;
use mr2_model::{model_input, solve, Calibration, ModelOptions};

/// `(bench case, estimator, A2–A6 iterations, MVA iterations, Tripathi max evaluations)`.
const PINNED: [(&str, Estimator, usize, u64, u64); 6] = [
    ("fig10_1gb_1job_4n", Estimator::ForkJoin, 26, 286, 0),
    ("fig10_1gb_1job_4n", Estimator::Tripathi, 26, 286, 182),
    ("fig12_5gb_1job_4n", Estimator::ForkJoin, 26, 338, 0),
    ("fig12_5gb_1job_4n", Estimator::Tripathi, 26, 338, 312),
    ("fig13_5gb_4jobs_8n", Estimator::ForkJoin, 28, 392, 0),
    ("fig13_5gb_4jobs_8n", Estimator::Tripathi, 28, 392, 1566),
];

#[test]
fn solver_bench_inputs_do_pinned_work() {
    let mva = mr2_obs::counter(
        "mr2_mva_iterations_total",
        "Fixed-point iterations executed by the overlap-MVA solver.",
    );
    let max_evals = mr2_obs::counter(
        "mr2_tripathi_max_evals_total",
        "Pairwise max evaluations run by the Tripathi estimator.",
    );
    let mut failures = Vec::new();
    for (case, estimator, iterations, mva_iterations, tripathi_max_evals) in PINNED {
        // The same inputs as the `solver` bench (benches/solver.rs).
        let (nodes, input, jobs) = match case {
            "fig10_1gb_1job_4n" => (4, GB, 1),
            "fig12_5gb_1job_4n" => (4, 5 * GB, 1),
            "fig13_5gb_4jobs_8n" => (8, 5 * GB, 4),
            _ => unreachable!("unknown bench case {case}"),
        };
        let inp = model_input(
            &SimConfig::paper_testbed(nodes),
            &wordcount(input, nodes as u32),
            jobs,
            ModelOptions {
                estimator,
                ..ModelOptions::default()
            },
            &Calibration::default(),
            None,
        );
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
    assert!(
        failures.is_empty(),
        "work counts moved:\n{}",
        failures.join("\n")
    );
}

/// `(bench case, nodes, input, jobs, events processed, bits of the last
/// job's finish time)` for the `simulator` bench inputs
/// (benches/simulator.rs): `wordcount`, batch arrivals.
const SIM_PINNED: [(&str, usize, u64, usize, u64, u64); 3] = [
    ("1gb_1job_4n", 4, GB, 1, 197, 0x40579f261373dbc0),
    ("5gb_1job_4n", 4, 5 * GB, 1, 664, 0x406e331b700c8b01),
    ("5gb_4jobs_8n", 8, 5 * GB, 4, 3615, 0x40791a56f64c4270),
];

/// Bits of the `mix_throughput` bench's `sim_4n_3reps` per-rep mean
/// responses (benches/mix_throughput.rs).
const MIX_PINNED: [u64; 3] = [0x40511e61c8bc5772, 0x40519f0ae3dbe306, 0x404f064d75bc20e3];

#[test]
fn simulator_bench_inputs_are_pinned() {
    let mut failures = Vec::new();
    for (case, nodes, input, jobs, events, last_finish) in SIM_PINNED {
        let mut sim = ClusterSim::new(SimConfig::paper_testbed(nodes));
        for _ in 0..jobs {
            sim.add_job(wordcount(input, nodes as u32), 0.0);
        }
        let results = sim.run();
        let got = (
            sim.events_processed(),
            results.last().unwrap().finished_at.to_bits(),
        );
        println!(
            "simulator {case}: (events, last finish bits) = ({}, {:#x})",
            got.0, got.1
        );
        if got != (events, last_finish) {
            failures.push(format!(
                "simulator {case}: got ({}, {:#x}), pinned ({events}, {last_finish:#x})",
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
