//! Asymptotic and balanced-system bounds for closed networks — the
//! classical sanity envelope around any MVA solution, kept as a test
//! oracle.
//!
//! For a single-class closed network with total demand `D = Σ_k D_k`,
//! bottleneck demand `D_max` and `N` customers (no think time):
//!
//! ```text
//! X(N) ≤ min(N / D, 1 / D_max)            (throughput upper bound)
//! R(N) ≥ max(D, N · D_max)                (response lower bound)
//! ```
//!
//! and the balanced-system bounds of Zahorjan et al. tighten the
//! pessimistic side.

use crate::network::{ClosedNetwork, StationKind};

/// Aggregate single-class demand statistics of a network.
#[derive(Debug, Clone, Copy)]
pub struct DemandSummary {
    /// Total demand over queueing stations.
    pub total: f64,
    /// Bottleneck (max) station demand.
    pub max: f64,
    /// Average station demand.
    pub avg: f64,
    /// Delay-station (think) demand.
    pub think: f64,
}

/// Summarize class `c`'s demands.
pub fn demand_summary(net: &ClosedNetwork, class: usize) -> DemandSummary {
    let mut total = 0.0;
    let mut max: f64 = 0.0;
    let mut think = 0.0;
    let mut n = 0usize;
    for (k, st) in net.stations.iter().enumerate() {
        let d = net.demands[class][k];
        match st.kind {
            StationKind::Delay => think += d,
            StationKind::Queueing => {
                total += d;
                max = max.max(d);
                n += 1;
            }
        }
    }
    DemandSummary {
        total,
        max,
        avg: if n == 0 { 0.0 } else { total / n as f64 },
        think,
    }
}

/// Asymptotic throughput upper bound for a single class in isolation.
pub fn throughput_upper_bound(net: &ClosedNetwork, class: usize, n: f64) -> f64 {
    let s = demand_summary(net, class);
    if s.max <= 0.0 {
        return f64::INFINITY;
    }
    (n / (s.total + s.think)).min(1.0 / s.max)
}

/// Asymptotic response-time lower bound (excluding think time).
pub fn response_lower_bound(net: &ClosedNetwork, class: usize, n: f64) -> f64 {
    let s = demand_summary(net, class);
    s.total.max(n * s.max - s.think)
}

/// Balanced-system response *upper* bound (Zahorjan et al.): a closed
/// network is never slower than the balanced network with every station
/// at the bottleneck demand: `R ≤ D + (N−1) · D_max`.
pub fn response_upper_bound(net: &ClosedNetwork, class: usize, n: f64) -> f64 {
    let s = demand_summary(net, class);
    s.total + (n - 1.0).max(0.0) * s.max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mva::{approximate_mva, exact_mva};
    use crate::network::{ClosedNetwork, Station};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn net() -> ClosedNetwork {
        ClosedNetwork::new(
            vec![
                Station::queueing("cpu"),
                Station::queueing("disk"),
                Station::delay("think"),
            ],
            vec!["c".into()],
            vec![vec![0.8, 0.4, 2.0]],
        )
    }

    #[test]
    fn summary_identifies_bottleneck() {
        let s = demand_summary(&net(), 0);
        assert!((s.total - 1.2).abs() < 1e-12);
        assert!((s.max - 0.8).abs() < 1e-12);
        assert!((s.think - 2.0).abs() < 1e-12);
        assert!((s.avg - 0.6).abs() < 1e-12);
    }

    #[test]
    fn exact_mva_respects_bounds_at_all_populations() {
        let net = net();
        for n in 1..=30u32 {
            let sol = exact_mva(&net, &[n]);
            let x = sol.throughput[0];
            let r_queueing: f64 = sol.residence[0][..2].iter().sum();
            assert!(
                x <= throughput_upper_bound(&net, 0, n as f64) + 1e-9,
                "X({n}) = {x} above bound"
            );
            assert!(
                r_queueing >= response_lower_bound(&net, 0, n as f64) - 2.0 - 1e-9,
                // think time shifts the asymptote by up to the think demand
                "R({n}) = {r_queueing} below bound"
            );
            assert!(
                r_queueing <= response_upper_bound(&net, 0, n as f64) + 1e-9,
                "R({n}) = {r_queueing} above balanced bound"
            );
        }
    }

    #[test]
    fn bottleneck_saturates_throughput() {
        let net = net();
        let sol = exact_mva(&net, &[60]);
        let x_max = 1.0 / 0.8;
        assert!(sol.throughput[0] <= x_max);
        assert!(
            sol.throughput[0] > 0.95 * x_max,
            "should be near saturation"
        );
    }

    /// Cross-layer check: the approximate MVA, grouped stations and
    /// all, stays inside the bounds on seeded random single-class
    /// networks — 1–8 queueing stations (some replicated), an optional
    /// delay station, and 0.2–60 customers.
    #[test]
    fn approximate_mva_respects_bounds_on_random_networks() {
        let mut rng = SmallRng::seed_from_u64(5);
        let within = |lo: f64, x: f64, hi: f64| {
            let tol = 1e-12 * lo.abs().max(hi.abs()).max(x.abs());
            lo - tol <= x && x <= hi + tol
        };
        for case in 0..500 {
            let mut stations = Vec::new();
            let mut demands = Vec::new();
            let queueing = rng.gen_range(1..=8usize);
            while stations.len() < queueing {
                let d = rng.gen_range(0.01..4.0);
                let copies = rng.gen_range(1..=3usize).min(queueing - stations.len());
                for _ in 0..copies {
                    stations.push(Station::queueing(&format!("q{}", stations.len())));
                    demands.push(d);
                }
            }
            if rng.gen_bool(0.5) {
                stations.push(Station::delay("think"));
                demands.push(rng.gen_range(0.0..10.0));
            }
            let net = ClosedNetwork::new(stations, vec!["c".into()], vec![demands]);
            let n = rng.gen_range(0.2..=60.0);
            let sol = approximate_mva(&net, &[n]);
            let x = sol.throughput[0];
            let r_queueing: f64 = net
                .stations
                .iter()
                .zip(&sol.residence[0])
                .filter(|(s, _)| s.kind == StationKind::Queueing)
                .map(|(_, r)| r)
                .sum();
            assert!(
                within(0.0, x, throughput_upper_bound(&net, 0, n)),
                "case {case}: X({n}) = {x} above bound"
            );
            assert!(
                within(
                    response_lower_bound(&net, 0, n),
                    r_queueing,
                    response_upper_bound(&net, 0, n)
                ),
                "case {case}: R({n}) = {r_queueing} outside [{}, {}]",
                response_lower_bound(&net, 0, n),
                response_upper_bound(&net, 0, n)
            );
        }
    }
}
