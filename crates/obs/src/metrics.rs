//! The metric cells: atomic counters, gauges, and log-bucketed
//! histograms. Handles are `Arc`s onto the shared cell, so cloning is
//! cheap and recording is lock-free; the registry hands the same cell
//! back for the same (name, labels) key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Add `v` to an `f64` stored by bit pattern in an atomic cell.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonic event counter.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events at once (batch the hot loop: accumulate
    /// locally, add once).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways (queue depth,
/// uptime, ratios). Stored as an `f64` bit pattern.
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` (may be negative).
    #[inline]
    pub fn add(&self, v: f64) {
        atomic_f64_add(&self.0, v);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A geometric bucket ladder: upper bounds `start · factorⁱ` for
/// `i = 0..count`, plus the implicit `+Inf` overflow bucket. Log
/// bucketing keeps the estimate's *relative* error bounded — a
/// quantile read back from the ladder is within one factor of the
/// exact value — with a handful of atomics per histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Buckets {
    /// Upper bound of the first bucket.
    pub start: f64,
    /// Ratio between consecutive bounds (> 1).
    pub factor: f64,
    /// Number of finite buckets.
    pub count: usize,
}

impl Buckets {
    /// Latency ladder: 1 µs to ~33 s in factor-2 steps — spans a cache
    /// hit to well past the service's request timeout.
    pub const TIME: Buckets = Buckets {
        start: 1e-6,
        factor: 2.0,
        count: 26,
    };

    /// Cardinality ladder: 1 to ~524k in factor-2 steps (event-heap
    /// depths, queue lengths).
    pub const DEPTH: Buckets = Buckets {
        start: 1.0,
        factor: 2.0,
        count: 20,
    };

    /// Upper bound of finite bucket `i`.
    fn upper(&self, i: usize) -> f64 {
        self.start * self.factor.powi(i as i32)
    }

    fn validate(&self) {
        assert!(
            self.start > 0.0 && self.factor > 1.0 && self.count > 0,
            "buckets need start > 0, factor > 1, count > 0: {self:?}"
        );
    }
}

/// The shared cell behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: Buckets,
    /// One cell per finite bucket plus the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Σ observed values, as an `f64` bit pattern.
    sum: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new(buckets: Buckets) -> HistogramCore {
        buckets.validate();
        HistogramCore {
            buckets,
            counts: (0..=buckets.count).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram of observed values.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let core = &*self.0;
        // First finite bucket whose upper bound covers `v`; a linear
        // scan over ≤ ~26 bounds beats recomputing logarithms.
        let idx = (0..core.buckets.count)
            .find(|&i| v <= core.buckets.upper(i))
            .unwrap_or(core.buckets.count);
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&core.sum, v);
    }

    /// A point-in-time copy of every cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        HistogramSnapshot {
            uppers: (0..core.buckets.count)
                .map(|i| core.buckets.upper(i))
                .collect(),
            counts: core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(core.sum.load(Ordering::Relaxed)),
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Estimate the `q`-quantile (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

/// A consistent-enough copy of a histogram's cells (each cell is read
/// once; concurrent recording may skew totals by in-flight
/// observations, never corrupt them).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub uppers: Vec<f64>,
    /// Per-bucket counts; `counts.len() == uppers.len() + 1`, the last
    /// entry being the `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Σ observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate the `q`-quantile (`0 < q ≤ 1`) as the upper bound of
    /// the bucket holding the ⌈q·n⌉-th smallest observation — an
    /// overestimate by at most one bucket factor, which is the
    /// guarantee log bucketing buys. `None` when empty. Observations
    /// past the last finite bound report that bound (the ladder can't
    /// say more).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.uppers[i.min(self.uppers.len() - 1)]);
            }
        }
        Some(self.uppers[self.uppers.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::flag_lock;

    #[test]
    fn counter_concurrent_increments_sum_exactly() {
        let _guard = flag_lock();
        // N threads × M increments must lose nothing: the registry
        // promise that makes counters trustworthy under a thread pool.
        let c = crate::counter("metrics_test_exact_total", "doc");
        let before = c.value();
        let (threads, per_thread) = (8, 10_000);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value() - before, threads * per_thread);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = crate::gauge("metrics_test_gauge", "doc");
        g.set(5.0);
        g.inc();
        g.dec();
        g.add(-2.5);
        assert_eq!(g.value(), 2.5);
    }

    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact() {
        let _guard = flag_lock();
        // A known deterministic distribution: 1..=1000 (uniform). The
        // ladder's estimate must bracket the exact quantile from above
        // by at most one factor.
        let h = Histogram(Arc::new(HistogramCore::new(Buckets {
            start: 1.0,
            factor: 2.0,
            count: 12,
        })));
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &values {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        for q in [0.5, 0.9, 0.99, 1.0] {
            let exact = values[((q * 1000.0_f64).ceil() as usize).clamp(1, 1000) - 1];
            let est = h.quantile(q).unwrap();
            assert!(
                est >= exact && est <= exact * 2.0,
                "q={q}: estimate {est} not within one ×2 bucket of exact {exact}"
            );
        }

        // A second, geometric distribution exercises the small buckets.
        let h2 = Histogram(Arc::new(HistogramCore::new(Buckets::TIME)));
        let geo: Vec<f64> = (0..10).map(|i| 1e-5 * 3f64.powi(i)).collect();
        for &v in &geo {
            h2.observe(v);
        }
        for q in [0.3, 0.7, 1.0] {
            let exact = geo[((q * geo.len() as f64).ceil() as usize).clamp(1, geo.len()) - 1];
            let est = h2.quantile(q).unwrap();
            assert!(
                est >= exact && est <= exact * 2.0,
                "q={q}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_overflow_reports_last_finite_bound() {
        let h = Histogram(Arc::new(HistogramCore::new(Buckets {
            start: 1.0,
            factor: 2.0,
            count: 3,
        })));
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantile");
        h.observe(1e9); // beyond the ladder
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![0, 0, 0, 1]);
        assert_eq!(h.quantile(1.0), Some(4.0), "clamped to the last bound");
        assert_eq!(snap.sum, 1e9, "sum keeps the exact value");
    }

    #[test]
    fn disabled_registry_drops_observations() {
        let _guard = flag_lock();
        let c = crate::counter("metrics_test_disabled_total", "doc");
        let h = crate::histogram("metrics_test_disabled_hist", "doc", Buckets::TIME);
        let before = (c.value(), h.count());
        crate::set_enabled(false);
        c.inc();
        h.observe(1.0);
        crate::set_enabled(true);
        assert_eq!((c.value(), h.count()), before, "nothing recorded while off");
        c.inc();
        assert_eq!(c.value(), before.0 + 1, "recording resumes");
    }
}
