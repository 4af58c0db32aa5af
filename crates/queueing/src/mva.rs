//! Mean Value Analysis solvers for closed multi-class networks.
//!
//! * [`exact_mva`] — the Reiser–Lavenberg recursion \[7\], exact for
//!   product-form networks with integer populations. Cost grows with the
//!   product of populations, so it is the ground truth for small cases.
//! * [`approximate_mva`] — Bard–Schweitzer fixed point; accepts fractional
//!   populations and scales to the paper's workloads (at most O(C²K) per
//!   iteration).
//! * [`overlap_mva`] — the paper's modification (§4.2.3, after Mak &
//!   Lundstrom \[5\]): the queue a class-`i` task sees at station `k` is
//!   weighted by *overlap factors* `o_ij`, because tasks that never run
//!   concurrently never queue behind each other. With all factors 1 it
//!   reduces exactly to Bard–Schweitzer.
//!
//! The fixed point solves each group of identical stations once: stations
//! of one kind with bit-equal demand columns stay bit-equal at every
//! iteration, and a cluster's symmetric nodes make most of the stations
//! copies. Each class's response still sums every station's residence in
//! network order, so results are bit-identical to a per-station solve.
//! A Bard–Schweitzer iteration then costs O(C²G + CK) for `G` groups
//! instead of O(C²K). [`OverlapMva`] finds the groups once per network,
//! for callers that solve one network many times.

use std::sync::OnceLock;

use crate::network::{ClosedNetwork, MvaSolution, StationKind};

/// Iterations executed by the overlap-MVA fixed point
/// ([`OverlapMva::solve`]), batched into one atomic add per solve so the
/// loop body stays uninstrumented.
fn mva_iterations() -> &'static mr2_obs::Counter {
    static C: OnceLock<mr2_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        mr2_obs::counter(
            "mr2_mva_iterations_total",
            "Fixed-point iterations executed by the overlap-MVA solver.",
        )
    })
}

/// Solves that hit [`MAX_ITER`] without the response-time delta
/// dropping below [`EPSILON`].
fn mva_failures() -> &'static mr2_obs::Counter {
    static C: OnceLock<mr2_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        mr2_obs::counter(
            "mr2_mva_convergence_failures_total",
            "Overlap-MVA solves that exhausted the iteration budget before converging.",
        )
    })
}

/// Convergence threshold for the fixed-point solvers — the paper's ε
/// (§4.2.6): "We use ε = 10⁻⁷, which is the recommended value for MVA".
pub const EPSILON: f64 = 1e-7;

/// Maximum fixed-point iterations before declaring divergence.
pub const MAX_ITER: usize = 100_000;

/// Exact multi-class MVA. `populations[c]` must be non-negative integers.
///
/// Panics if the network fails validation. Multi-server stations must be
/// expanded first ([`ClosedNetwork::expand_multiserver`]).
pub fn exact_mva(net: &ClosedNetwork, populations: &[u32]) -> MvaSolution {
    net.validate();
    let c_n = net.num_classes();
    let k_n = net.num_stations();
    assert_eq!(populations.len(), c_n);
    assert!(
        net.stations
            .iter()
            .all(|s| s.kind == StationKind::Delay || s.servers == 1),
        "expand multi-server stations before exact MVA"
    );

    // Iterate over the population lattice in colexicographic order.
    let dims: Vec<usize> = populations.iter().map(|&n| n as usize + 1).collect();
    let total: usize = dims.iter().product();
    let stride: Vec<usize> = {
        let mut s = vec![1usize; c_n];
        for c in 1..c_n {
            s[c] = s[c - 1] * dims[c - 1];
        }
        s
    };
    // Q[k] indexed by lattice offset.
    let mut q = vec![vec![0.0f64; total]; k_n];
    let mut last = MvaSolution {
        residence: vec![vec![0.0; k_n]; c_n],
        response: vec![0.0; c_n],
        throughput: vec![0.0; c_n],
        queue: vec![vec![0.0; k_n]; c_n],
        utilization: vec![0.0; k_n],
    };

    let mut n_vec = vec![0usize; c_n];
    for offset in 1..total {
        // Decode the population vector at this offset.
        let mut rem = offset;
        for c in 0..c_n {
            n_vec[c] = rem % dims[c];
            rem /= dims[c];
        }
        let mut residence = vec![vec![0.0; k_n]; c_n];
        let mut throughput = vec![0.0; c_n];
        for c in 0..c_n {
            if n_vec[c] == 0 {
                continue;
            }
            let prev = offset - stride[c]; // N − e_c
            let mut r_total = 0.0;
            for k in 0..k_n {
                let d = net.demands[c][k];
                let r = match net.stations[k].kind {
                    StationKind::Delay => d,
                    StationKind::Queueing => d * (1.0 + q[k][prev]),
                };
                residence[c][k] = r;
                r_total += r;
            }
            throughput[c] = if r_total > 0.0 {
                n_vec[c] as f64 / r_total
            } else {
                0.0
            };
        }
        for k in 0..k_n {
            q[k][offset] = (0..c_n)
                .map(|c| throughput[c] * residence[c][k])
                .sum::<f64>();
        }
        if offset == total - 1 {
            let mut queue = vec![vec![0.0; k_n]; c_n];
            let mut utilization = vec![0.0; k_n];
            for k in 0..k_n {
                for (c, row) in residence.iter().enumerate() {
                    queue[c][k] = throughput[c] * row[k];
                    utilization[k] += throughput[c] * net.demands[c][k];
                }
            }
            last = MvaSolution {
                response: residence.iter().map(|row| row.iter().sum()).collect(),
                residence,
                throughput,
                queue,
                utilization,
            };
        }
    }
    // Population zero for every class: the degenerate empty solution.
    if total == 1 {
        return last;
    }
    last
}

/// Bard–Schweitzer approximate MVA with (possibly fractional) populations.
pub fn approximate_mva(net: &ClosedNetwork, populations: &[f64]) -> MvaSolution {
    overlap_mva(net, populations, &vec![1.0; populations.len().pow(2)])
}

/// Overlap-factor-adjusted approximate MVA (the paper's A4 step): one
/// [`OverlapMva`] solve, expanded into a full [`MvaSolution`].
///
/// `w` is the C×C factor matrix, flat and row-major: `w[i * C + j]`
/// scales how much of class `j`'s queue class `i` sees. The seen queue
/// of class `i` at station `k` is
///
/// ```text
/// seen_ik = Σ_j w_ij · Q_jk      with w_ii applying the Schweitzer
///                                (N_i−1)/N_i self-correction
/// ```
///
/// The model's solver fills `w` with the paper's α for pairs of classes
/// of one job and β for pairs across jobs (see `mr2-model::solver`).
pub fn overlap_mva(net: &ClosedNetwork, populations: &[f64], w: &[f64]) -> MvaSolution {
    let mut mva = OverlapMva::new(net);
    mva.solve(populations, w);
    mva.solution()
}

/// [`overlap_mva`] prepared for one network. Validation, the station
/// groups, each group's demands and the fixed point's buffers are set
/// up once, so a caller that solves one network for many populations
/// and factors (the model's A2–A6 loop) pays for them once. Every
/// [`OverlapMva::solve`] starts cold from `N_c / K`, so its result
/// depends only on its arguments.
pub struct OverlapMva<'a> {
    net: &'a ClosedNetwork,
    /// Each station's group (see [`station_groups`]).
    group_of: Vec<usize>,
    /// Whether each group's stations queue.
    queueing_g: Vec<bool>,
    /// Group demands, class-major: `demands_g[i * G + g]`.
    demands_g: Vec<f64>,
    /// Group queue lengths in group-major layout, so the per-class inner
    /// sum walks one contiguous row instead of striding across class rows.
    queue_g: Vec<f64>,
    /// Group residences, class-major: `residence_g[i * G + g]`.
    residence_g: Vec<f64>,
    response: Vec<f64>,
    throughput: Vec<f64>,
}

impl<'a> OverlapMva<'a> {
    /// Validate `net` and group its stations.
    pub fn new(net: &'a ClosedNetwork) -> Self {
        net.validate();
        let c_n = net.num_classes();
        // Solve each group of identical stations once (see the module docs).
        let (group_of, reps) = station_groups(net);
        let g_n = reps.len();
        let queueing_g = reps
            .iter()
            .map(|&k| net.stations[k].kind == StationKind::Queueing)
            .collect();
        let demands_g = net
            .demands
            .iter()
            .flat_map(|row| reps.iter().map(|&k| row[k]))
            .collect();
        OverlapMva {
            net,
            group_of,
            queueing_g,
            demands_g,
            queue_g: vec![0.0; g_n * c_n],
            residence_g: vec![0.0; c_n * g_n],
            response: vec![0.0; c_n],
            throughput: vec![0.0; c_n],
        }
    }

    /// Run the fixed point for `populations` and the factor matrix `w`
    /// (see [`overlap_mva`]), cold from `N_c / K`. Returns each class's
    /// response time.
    #[allow(clippy::needless_range_loop)] // station/class index pairs read clearer
    pub fn solve(&mut self, populations: &[f64], w: &[f64]) -> &[f64] {
        let c_n = self.net.num_classes();
        let k_n = self.net.num_stations();
        let g_n = self.queueing_g.len();
        assert_eq!(populations.len(), c_n);
        assert_eq!(w.len(), c_n * c_n);
        assert!(
            populations.iter().all(|&n| n >= 0.0 && n.is_finite()),
            "populations must be non-negative"
        );

        for g in 0..g_n {
            for c in 0..c_n {
                self.queue_g[g * c_n + c] = populations[c] / k_n as f64;
            }
        }
        // The first iteration's delta is measured from zero.
        self.response.fill(0.0);

        let mut iterations = 0u64;
        let mut converged = false;
        for _iter in 0..MAX_ITER {
            iterations += 1;
            let mut max_delta = 0.0f64;
            for i in 0..c_n {
                let w_row = &w[i * c_n..(i + 1) * c_n];
                let demands_i = &self.demands_g[i * g_n..(i + 1) * g_n];
                let n = populations[i];
                // Schweitzer self-correction factor (N_i−1), applied to the
                // diagonal term only; `* (n - 1.0) / n` keeps the original
                // expression's operation order bit-for-bit.
                let nm1 = n - 1.0;
                let residence_i = &mut self.residence_g[i * g_n..(i + 1) * g_n];
                for g in 0..g_n {
                    let d = demands_i[g];
                    residence_i[g] = if self.queueing_g[g] {
                        let q_row = &self.queue_g[g * c_n..(g + 1) * c_n];
                        let q_self = if n > 1.0 { q_row[i] * nm1 / n } else { 0.0 };
                        // Diagonal split keeps the summation order of a
                        // plain `for j in 0..c_n` loop exactly.
                        let mut seen = 0.0;
                        for j in 0..i {
                            seen += w_row[j] * q_row[j];
                        }
                        seen += w_row[i] * q_self;
                        for j in i + 1..c_n {
                            seen += w_row[j] * q_row[j];
                        }
                        d * (1.0 + seen)
                    } else {
                        d
                    };
                }
                // Sum over every station in network order, so the response
                // rounds exactly as a per-station solve's would.
                let mut r_total = 0.0;
                for &g in &self.group_of {
                    r_total += residence_i[g];
                }
                let x = if r_total > 0.0 {
                    populations[i] / r_total
                } else {
                    0.0
                };
                max_delta = max_delta.max((self.response[i] - r_total).abs());
                self.response[i] = r_total;
                self.throughput[i] = x;
            }
            for i in 0..c_n {
                let x = self.throughput[i];
                let residence_i = &self.residence_g[i * g_n..(i + 1) * g_n];
                for g in 0..g_n {
                    self.queue_g[g * c_n + i] = x * residence_i[g];
                }
            }
            if max_delta < EPSILON {
                converged = true;
                break;
            }
        }
        mva_iterations().add(iterations);
        if !converged && iterations > 0 {
            mva_failures().inc();
        }
        &self.response
    }

    /// The last [`OverlapMva::solve`]'s full solution, per station.
    #[allow(clippy::needless_range_loop)] // station/class index pairs read clearer
    pub fn solution(&self) -> MvaSolution {
        let net = self.net;
        let c_n = net.num_classes();
        let k_n = net.num_stations();
        let g_n = self.queueing_g.len();
        let mut residence = vec![vec![0.0f64; k_n]; c_n];
        let mut queue = vec![vec![0.0f64; k_n]; c_n];
        for i in 0..c_n {
            for (k, &g) in self.group_of.iter().enumerate() {
                residence[i][k] = self.residence_g[i * g_n + g];
                queue[i][k] = self.queue_g[g * c_n + i];
            }
        }
        let mut utilization = vec![0.0; k_n];
        for k in 0..k_n {
            for c in 0..c_n {
                utilization[k] += self.throughput[c] * net.demands[c][k];
            }
        }
        MvaSolution {
            residence,
            response: self.response.clone(),
            throughput: self.throughput.clone(),
            queue,
            utilization,
        }
    }
}

/// Partition the stations into groups of one kind with bit-equal
/// demand columns for every class. Returns each station's group and
/// each group's first station, groups numbered in order of first
/// appearance.
fn station_groups(net: &ClosedNetwork) -> (Vec<usize>, Vec<usize>) {
    let mut group_of = Vec::with_capacity(net.num_stations());
    let mut reps: Vec<usize> = Vec::new();
    for (k, station) in net.stations.iter().enumerate() {
        let same = |&r: &usize| {
            net.stations[r].kind == station.kind
                && net
                    .demands
                    .iter()
                    .all(|row| row[r].to_bits() == row[k].to_bits())
        };
        match reps.iter().position(same) {
            Some(g) => group_of.push(g),
            None => {
                group_of.push(reps.len());
                reps.push(k);
            }
        }
    }
    (group_of, reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Station;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Oracle: [`overlap_mva`] as it was before station grouping — every
    /// station solved on its own — kept verbatim apart from the
    /// iteration bookkeeping that fed the registry counters and the
    /// factor matrix, which callers now pass whole.
    #[allow(clippy::needless_range_loop)]
    fn per_station_mva(net: &ClosedNetwork, populations: &[f64], w: &[f64]) -> MvaSolution {
        net.validate();
        let c_n = net.num_classes();
        let k_n = net.num_stations();
        assert_eq!(populations.len(), c_n);
        assert_eq!(w.len(), c_n * c_n);
        assert!(
            populations.iter().all(|&n| n >= 0.0 && n.is_finite()),
            "populations must be non-negative"
        );

        let is_queueing: Vec<bool> = net
            .stations
            .iter()
            .map(|s| s.kind == StationKind::Queueing)
            .collect();

        // Queue lengths in station-major layout, so the per-class inner sum
        // walks one contiguous row instead of striding across class rows.
        let mut queue_t = vec![0.0f64; k_n * c_n];
        for k in 0..k_n {
            for c in 0..c_n {
                queue_t[k * c_n + c] = populations[c] / k_n as f64;
            }
        }
        let mut residence = vec![vec![0.0f64; k_n]; c_n];
        let mut response = vec![0.0f64; c_n];
        let mut throughput = vec![0.0f64; c_n];

        for _iter in 0..MAX_ITER {
            let mut max_delta = 0.0f64;
            for i in 0..c_n {
                let w_row = &w[i * c_n..(i + 1) * c_n];
                let demands_i = &net.demands[i];
                let n = populations[i];
                // Schweitzer self-correction factor (N_i−1), applied to the
                // diagonal term only; `* (n - 1.0) / n` keeps the original
                // expression's operation order bit-for-bit.
                let nm1 = n - 1.0;
                let residence_i = &mut residence[i];
                let mut r_total = 0.0;
                for k in 0..k_n {
                    let d = demands_i[k];
                    let r = if is_queueing[k] {
                        let q_row = &queue_t[k * c_n..(k + 1) * c_n];
                        let q_self = if n > 1.0 { q_row[i] * nm1 / n } else { 0.0 };
                        // Diagonal split keeps the summation order of the
                        // former `for j in 0..c_n` loop exactly.
                        let mut seen = 0.0;
                        for j in 0..i {
                            seen += w_row[j] * q_row[j];
                        }
                        seen += w_row[i] * q_self;
                        for j in i + 1..c_n {
                            seen += w_row[j] * q_row[j];
                        }
                        d * (1.0 + seen)
                    } else {
                        d
                    };
                    residence_i[k] = r;
                    r_total += r;
                }
                let x = if r_total > 0.0 {
                    populations[i] / r_total
                } else {
                    0.0
                };
                max_delta = max_delta.max((response[i] - r_total).abs());
                response[i] = r_total;
                throughput[i] = x;
            }
            for i in 0..c_n {
                let x = throughput[i];
                let residence_i = &residence[i];
                for k in 0..k_n {
                    queue_t[k * c_n + i] = x * residence_i[k];
                }
            }
            if max_delta < EPSILON {
                break;
            }
        }
        let mut queue = vec![vec![0.0f64; k_n]; c_n];
        for i in 0..c_n {
            for k in 0..k_n {
                queue[i][k] = queue_t[k * c_n + i];
            }
        }

        let mut utilization = vec![0.0; k_n];
        for k in 0..k_n {
            for c in 0..c_n {
                utilization[k] += throughput[c] * net.demands[c][k];
            }
        }
        MvaSolution {
            residence,
            response,
            throughput,
            queue,
            utilization,
        }
    }

    /// A seeded random network for the grouping oracle: distinct
    /// queueing and delay stations, some replicated, some with a twin
    /// one ULP off in one class's demand, all shuffled.
    fn random_network(rng: &mut SmallRng) -> ClosedNetwork {
        let c_n = rng.gen_range(1..=6usize);
        let mut columns: Vec<(StationKind, Vec<f64>)> = Vec::new();
        for _ in 0..rng.gen_range(1..=5usize) {
            let kind = if rng.gen_bool(0.25) {
                StationKind::Delay
            } else {
                StationKind::Queueing
            };
            let col: Vec<f64> = (0..c_n)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        rng.gen_range(0.01..5.0)
                    }
                })
                .collect();
            for _ in 0..rng.gen_range(1..=4usize) {
                columns.push((kind, col.clone()));
            }
            if rng.gen_bool(0.4) {
                let mut twin = col.clone();
                let c = rng.gen_range(0..c_n);
                twin[c] = f64::from_bits(twin[c].to_bits() + 1);
                columns.push((kind, twin));
            }
        }
        columns.shuffle(rng);
        let stations = columns
            .iter()
            .enumerate()
            .map(|(k, (kind, _))| match kind {
                StationKind::Queueing => Station::queueing(&format!("s{k}")),
                StationKind::Delay => Station::delay(&format!("s{k}")),
            })
            .collect();
        let classes = (0..c_n).map(|c| format!("c{c}")).collect();
        let demands = (0..c_n)
            .map(|c| columns.iter().map(|(_, col)| col[c]).collect())
            .collect();
        ClosedNetwork::new(stations, classes, demands)
    }

    /// Random populations, some in (0, 1] where the Schweitzer
    /// self-correction is off, and a random factor matrix.
    fn random_load(rng: &mut SmallRng, c_n: usize) -> (Vec<f64>, Vec<f64>) {
        let pops: Vec<f64> = (0..c_n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    1.0 - rng.gen::<f64>()
                } else {
                    rng.gen_range(1.0..40.0)
                }
            })
            .collect();
        let w = (0..c_n * c_n).map(|_| rng.gen_range(0.0..=1.0)).collect();
        (pops, w)
    }

    /// The grouping oracle's 400 seeded networks, each with a random load.
    #[allow(clippy::type_complexity)]
    fn oracle_cases() -> Vec<(ClosedNetwork, (Vec<f64>, Vec<f64>))> {
        let mut rng = SmallRng::seed_from_u64(17);
        (0..400)
            .map(|_| {
                let net = random_network(&mut rng);
                let load = random_load(&mut rng, net.num_classes());
                (net, load)
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every field of two solutions equal by bit pattern.
    fn assert_bit_equal(got: &MvaSolution, want: &MvaSolution, what: &str) {
        let rows = |m: &[Vec<f64>]| m.iter().map(|r| bits(r)).collect::<Vec<_>>();
        assert_eq!(bits(&got.response), bits(&want.response), "{what}");
        assert_eq!(bits(&got.throughput), bits(&want.throughput), "{what}");
        assert_eq!(rows(&got.residence), rows(&want.residence), "{what}");
        assert_eq!(rows(&got.queue), rows(&want.queue), "{what}");
        assert_eq!(bits(&got.utilization), bits(&want.utilization), "{what}");
    }

    #[test]
    fn grouped_stations_equal_the_per_station_solve() {
        let mut grouped = 0;
        for (case, (net, (pops, w))) in oracle_cases().iter().enumerate() {
            if station_groups(net).1.len() < net.num_stations() {
                grouped += 1;
            }
            let got = overlap_mva(net, pops, w);
            let want = per_station_mva(net, pops, w);
            assert_bit_equal(&got, &want, &format!("case {case}"));
        }
        assert!(
            grouped > 200,
            "only {grouped} networks had replicated stations"
        );
    }

    #[test]
    fn a_reused_prepared_solver_equals_the_per_station_solve() {
        // The buffers a prepared solver keeps across solves must carry
        // nothing from one solve into the next.
        let mut rng = SmallRng::seed_from_u64(18);
        for (case, (net, first)) in oracle_cases().into_iter().enumerate() {
            let mut mva = OverlapMva::new(&net);
            let mut load = first;
            for call in 0..5 {
                if call > 0 {
                    load = random_load(&mut rng, net.num_classes());
                }
                let (pops, w) = &load;
                let response = bits(mva.solve(pops, w));
                let want = per_station_mva(&net, pops, w);
                let what = format!("case {case}, call {call}");
                assert_eq!(response, bits(&want.response), "{what}");
                assert_bit_equal(&mva.solution(), &want, &what);
            }
        }
    }

    #[test]
    fn one_ulp_twins_are_not_grouped() {
        let d = 0.3f64;
        let twin = f64::from_bits(d.to_bits() + 1);
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("a"),
                Station::queueing("b"),
                Station::delay("c"),
                Station::queueing("d"),
            ],
            vec!["x".into(), "y".into()],
            vec![vec![d, d, d, d], vec![1.0, 1.0, 1.0, twin]],
        );
        // a and b group; c differs in kind, d by one ULP in class y.
        assert_eq!(station_groups(&net), (vec![0, 0, 1, 2], vec![0, 2, 3]));
    }

    /// Single class, single queueing station: R(N) = N·D, X = 1/D.
    #[test]
    fn exact_single_station_saturates() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("s")],
            vec!["a".into()],
            vec![vec![2.0]],
        );
        let sol = exact_mva(&net, &[5]);
        assert!((sol.response[0] - 10.0).abs() < 1e-9);
        assert!((sol.throughput[0] - 0.5).abs() < 1e-9);
        assert!((sol.utilization[0] - 1.0).abs() < 1e-9);
    }

    /// Machine-repairman: delay (think) + queueing station; known closed
    /// form via recursion — check Little's law and monotonicity instead.
    #[test]
    fn exact_interactive_system() {
        let net = ClosedNetwork::new(
            vec![Station::delay("think"), Station::queueing("cpu")],
            vec!["u".into()],
            vec![vec![10.0, 1.0]],
        );
        let mut prev_x = 0.0;
        for n in 1..=20u32 {
            let sol = exact_mva(&net, &[n]);
            // Little: N = X·R (R includes think time here).
            assert!(
                (sol.throughput[0] * sol.response[0] - n as f64).abs() < 1e-6,
                "Little violated at N={n}"
            );
            assert!(sol.throughput[0] >= prev_x - 1e-12, "X must increase");
            assert!(sol.throughput[0] <= 1.0 + 1e-9, "X bounded by service rate");
            prev_x = sol.throughput[0];
        }
    }

    /// Two-class exact MVA on the balanced network: classes are symmetric,
    /// so their metrics must be equal.
    #[test]
    fn exact_two_class_symmetry() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("a"), Station::queueing("b")],
            vec!["x".into(), "y".into()],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        );
        let sol = exact_mva(&net, &[3, 3]);
        assert!((sol.response[0] - sol.response[1]).abs() < 1e-9);
        assert!((sol.throughput[0] - sol.throughput[1]).abs() < 1e-9);
    }

    #[test]
    fn approximate_close_to_exact() {
        let net = ClosedNetwork::new(
            vec![
                Station::queueing("cpu"),
                Station::queueing("disk"),
                Station::delay("net"),
            ],
            vec!["x".into(), "y".into()],
            vec![vec![0.5, 1.0, 0.3], vec![1.2, 0.2, 0.1]],
        );
        let ex = exact_mva(&net, &[4, 3]);
        let ap = approximate_mva(&net, &[4.0, 3.0]);
        for c in 0..2 {
            let rel = (ex.response[c] - ap.response[c]).abs() / ex.response[c];
            assert!(
                rel < 0.08,
                "class {c}: approx {:.4} vs exact {:.4} ({:.1}%)",
                ap.response[c],
                ex.response[c],
                rel * 100.0
            );
        }
    }

    #[test]
    fn overlap_one_equals_schweitzer() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("cpu"), Station::queueing("disk")],
            vec!["x".into(), "y".into()],
            vec![vec![0.5, 1.0], vec![1.0, 0.25]],
        );
        let a = approximate_mva(&net, &[3.0, 2.0]);
        let b = overlap_mva(&net, &[3.0, 2.0], &[1.0; 4]);
        for c in 0..2 {
            assert!((a.response[c] - b.response[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_overlap_removes_contention() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("cpu")],
            vec!["x".into(), "y".into()],
            vec![vec![1.0], vec![1.0]],
        );
        // No overlap at all: every class sees an empty station.
        let sol = overlap_mva(&net, &[4.0, 4.0], &[0.0; 4]);
        assert!((sol.response[0] - 1.0).abs() < 1e-9);
        assert!((sol.response[1] - 1.0).abs() < 1e-9);
        // Full overlap: heavy contention.
        let full = overlap_mva(&net, &[4.0, 4.0], &[1.0; 4]);
        assert!(full.response[0] > 3.0);
    }

    #[test]
    fn overlap_monotone_in_factors() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("cpu"), Station::queueing("disk")],
            vec!["x".into(), "y".into()],
            vec![vec![0.7, 0.4], vec![0.5, 0.9]],
        );
        let lo = overlap_mva(&net, &[3.0, 3.0], &[0.2; 4]);
        let hi = overlap_mva(&net, &[3.0, 3.0], &[0.9; 4]);
        assert!(hi.response[0] > lo.response[0]);
        assert!(hi.response[1] > lo.response[1]);
    }

    #[test]
    fn fractional_population_is_accepted() {
        let net = ClosedNetwork::new(
            vec![Station::queueing("cpu")],
            vec!["x".into()],
            vec![vec![1.0]],
        );
        let sol = approximate_mva(&net, &[2.5]);
        // With a single station all customers queue there: Q = N and the
        // Schweitzer fixed point is R = D(1 + (N−1)/N·N) = N·D = 2.5.
        assert!(sol.response[0] > 1.0 && sol.response[0] <= 2.5 + 1e-9);
    }

    #[test]
    fn delay_station_never_queues() {
        let net = ClosedNetwork::new(
            vec![Station::delay("think")],
            vec!["x".into()],
            vec![vec![3.0]],
        );
        let sol = approximate_mva(&net, &[100.0]);
        assert!((sol.response[0] - 3.0).abs() < 1e-9);
    }
}
