//! A small process-wide memo of endpoint solves.
//!
//! The windowed staggered-arrival approximation re-solves the *solo*
//! and *saturated* endpoints of each class on every call, and a
//! capacity plan's bisection re-derives the per-class solo solves at
//! every probed node count. Those solves are pure functions of the
//! [`ModelInput`], so a fixed-size cache in front of
//! [`crate::solver::solve_both`] makes a probe trail or a λ-sweep pay
//! for each *distinct* solve once. Every caller needs both estimators,
//! so one entry holds the (fork/join, Tripathi) pair and its key leaves
//! out `options.estimator`. Hits return a clone of the original pair —
//! bit-identical to re-solving, because the solver is deterministic.
//!
//! Keys are the full canonical encoding of the input (every field the
//! joint solve reads, f64s by bit pattern), not just a hash — a lookup
//! compares the encodings, so hash collisions cannot serve a wrong
//! result.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

use crate::input::ModelInput;
use crate::solver::{solve_both, SolveResult};

/// Entries kept before the oldest is evicted (FIFO). Sized for a λ-sweep
/// or plan bisection over a few dozen distinct configurations, while
/// bounding the memory of a long-lived service: 128 pairs hold as many
/// results as 256 single-estimator entries would.
const CAPACITY: usize = 128;

/// Memoized-solve lookups served from the cache.
fn memo_hits() -> &'static mr2_obs::Counter {
    static C: OnceLock<mr2_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        mr2_obs::counter(
            "mr2_endpoint_memo_hits_total",
            "Endpoint solves served from the process-wide solve memo.",
        )
    })
}

/// Memoized-solve lookups that had to run the solver.
fn memo_misses() -> &'static mr2_obs::Counter {
    static C: OnceLock<mr2_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        mr2_obs::counter(
            "mr2_endpoint_memo_misses_total",
            "Endpoint solves that missed the process-wide solve memo.",
        )
    })
}

/// A (fork/join, Tripathi) result pair.
type Pair = (SolveResult, SolveResult);

struct Memo {
    map: HashMap<Vec<u64>, Pair>,
    order: VecDeque<Vec<u64>>,
}

fn memo() -> &'static Mutex<Memo> {
    static M: OnceLock<Mutex<Memo>> = OnceLock::new();
    M.get_or_init(|| {
        Mutex::new(Memo {
            map: HashMap::with_capacity(CAPACITY),
            order: VecDeque::with_capacity(CAPACITY),
        })
    })
}

/// The canonical form of a [`ModelInput`]: every field the joint solve
/// reads, in a fixed order, f64s by bit pattern — all but
/// `options.estimator`. Two inputs with equal encodings produce
/// bit-identical [`solve_both`] pairs.
fn encode(input: &ModelInput) -> Vec<u64> {
    let c = &input.cluster;
    let o = &input.options;
    let mut k = Vec::with_capacity(9 + input.jobs.len() * 18);
    k.push(c.num_nodes as u64);
    k.push(c.cpu_per_node as u64);
    k.push(c.disk_per_node as u64);
    k.push(c.max_maps_per_node as u64);
    k.push(c.max_reduce_per_node as u64);
    k.push(c.reserved_containers as u64);
    k.push(
        o.slow_start as u64 | (o.balance_tree as u64) << 1 | (o.use_overlap_factors as u64) << 2,
    );
    k.push(o.max_iterations as u64);
    k.push(input.jobs.len() as u64);
    for j in &input.jobs {
        k.push(u64::from(j.num_maps) << 32 | u64::from(j.num_reduces));
        for row in &j.demands {
            for d in row {
                k.push(d.to_bits());
            }
        }
        for r in &j.initial_response {
            k.push(r.to_bits());
        }
        for cv in &j.cv {
            k.push(cv.to_bits());
        }
        k.push(j.shuffle_per_map.to_bits());
        for ov in &j.overhead {
            k.push(ov.to_bits());
        }
    }
    k
}

/// [`solve_both`] behind the process-wide memo: a hit clones the stored
/// `(fork/join, Tripathi)` pair, a miss solves and stores. Bit-identical
/// to calling the solver directly.
pub fn cached_solve(input: &ModelInput) -> Pair {
    let key = encode(input);
    if let Some(hit) = memo().lock().unwrap().map.get(&key) {
        memo_hits().inc();
        return hit.clone();
    }
    memo_misses().inc();
    // Only misses get a span: hits are a hash lookup and would bury
    // the profile in no-op frames, while each miss is a full MVA
    // endpoint solve worth attributing under model.eval.
    let result = {
        let _solve = mr2_obs::span("model.endpoint_solve");
        solve_both(input)
    };
    let mut m = memo().lock().unwrap();
    if !m.map.contains_key(&key) {
        if m.map.len() >= CAPACITY {
            if let Some(oldest) = m.order.pop_front() {
                m.map.remove(&oldest);
            }
        }
        m.order.push_back(key.clone());
        m.map.insert(key, result.clone());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{ClusterInputs, JobClassInputs, ModelOptions};

    fn input(nodes: usize, maps: u32) -> ModelInput {
        ModelInput {
            cluster: ClusterInputs {
                num_nodes: nodes,
                cpu_per_node: 12,
                disk_per_node: 1,
                max_maps_per_node: 4,
                max_reduce_per_node: 4,
                reserved_containers: 1,
            },
            jobs: vec![JobClassInputs {
                num_maps: maps,
                num_reduces: 4,
                demands: [[30.0, 2.0, 0.2], [0.1, 0.5, 4.0], [1.0, 5.0, 1.0]],
                initial_response: [34.2, 4.6, 7.0],
                cv: [0.15, 0.4, 0.25],
                shuffle_per_map: 1.0,
                overhead: [2.0, 2.0, 0.0],
            }],
            options: ModelOptions::default(),
        }
    }

    fn bits((fj, tr): &Pair) -> Vec<u64> {
        let mut b = Vec::new();
        for r in [fj, tr] {
            b.extend([r.avg_response.to_bits(), r.makespan.to_bits()]);
            b.extend(r.per_job_response.iter().map(|x| x.to_bits()));
            b.extend(r.durations.iter().flatten().map(|x| x.to_bits()));
            b.extend([r.iterations as u64, r.converged as u64]);
            b.extend(r.tree_depths.iter().map(|&d| d as u64));
        }
        b
    }

    #[test]
    fn hit_is_bit_identical_to_direct_solve() {
        let inp = input(4, 8);
        let direct = solve_both(&inp);
        let first = cached_solve(&inp);
        let second = cached_solve(&inp);
        assert_eq!(bits(&direct), bits(&first));
        assert_eq!(bits(&first), bits(&second));
    }

    #[test]
    fn inputs_differing_only_in_estimator_share_one_entry() {
        use crate::input::Estimator;
        let mut fj = input(6, 9);
        fj.options.estimator = Estimator::ForkJoin;
        let mut tr = fj.clone();
        tr.options.estimator = Estimator::Tripathi;
        assert_eq!(encode(&fj), encode(&tr));
        let first = cached_solve(&fj);
        // The Tripathi-tagged input finds the entry the fork/join one
        // stored, and gets the same pair back.
        assert!(memo().lock().unwrap().map.contains_key(&encode(&tr)));
        assert_eq!(bits(&first), bits(&cached_solve(&tr)));
    }

    #[test]
    fn memo_counts_hits_and_misses() {
        let (h0, m0) = (memo_hits().value(), memo_misses().value());
        // A fresh input (distinct map count) must miss once, then hit.
        let inp = input(5, 11);
        cached_solve(&inp);
        cached_solve(&inp);
        assert!(memo_misses().value() > m0, "first solve misses");
        assert!(memo_hits().value() > h0, "second solve hits");
    }

    #[test]
    fn distinct_inputs_get_distinct_entries() {
        let (a, _) = cached_solve(&input(4, 16));
        let (b, _) = cached_solve(&input(8, 16));
        assert_ne!(
            a.avg_response.to_bits(),
            b.avg_response.to_bits(),
            "different node counts must not collide"
        );
    }

    #[test]
    fn encoding_covers_every_field() {
        // Flipping any single field must change the canonical form.
        let base = encode(&input(4, 8));
        let mut tweaked = input(4, 8);
        tweaked.jobs[0].cv[2] += 1e-9;
        assert_ne!(base, encode(&tweaked));
        let mut tweaked = input(4, 8);
        tweaked.options.slow_start = false;
        assert_ne!(base, encode(&tweaked));
        let mut tweaked = input(4, 8);
        tweaked.cluster.reserved_containers = 2;
        assert_ne!(base, encode(&tweaked));
        let mut tweaked = input(4, 8);
        tweaked.jobs[0].overhead[1] = 3.0;
        assert_ne!(base, encode(&tweaked));
    }
}
