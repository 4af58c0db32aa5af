//! # mr2-obs — the workspace's observability substrate
//!
//! A process-wide [`Registry`] of named metrics — monotonic [`Counter`]s,
//! [`Gauge`]s, and log-bucketed [`Histogram`]s — plus RAII [`span`]
//! timers and a per-request trace context, with zero dependencies
//! (`std` only; the build environment has no crates.io access).
//!
//! The paper decomposes MapReduce response time into measurable phases;
//! this crate gives the *serving system* the same treatment the models
//! give the *workload*: every layer (HTTP front end, scenario runner,
//! MVA/fork-join solver, event-driven simulator) records into one
//! registry that `GET /metrics` renders in Prometheus text exposition
//! format.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-free hot path.** Recording an observation is a handful of
//!    relaxed atomic operations on an `Arc`-shared cell — no locks, no
//!    allocation. The registry's `RwLock` is touched only to *obtain* a
//!    handle; call sites cache handles in `OnceLock` statics.
//! 2. **Cheap when off.** [`set_enabled`]`(false)` turns every
//!    observation into one relaxed load and a branch, so instrumented
//!    hot loops stay inside the bench suite's regression gate.
//! 3. **Snapshot-able.** Rendering never blocks recorders: it takes the
//!    registry read lock and reads each atomic once.
//!
//! ```
//! use mr2_obs as obs;
//!
//! let solves = obs::counter("doc_solves_total", "Model solves performed.");
//! {
//!     let _timer = obs::span("doc.solve"); // records mr2_span_seconds{span="doc.solve"}
//!     solves.inc();
//! }
//! assert!(solves.value() >= 1);
//! assert!(obs::render().contains("doc_solves_total"));
//! ```
//!
//! ## Traces
//!
//! A trace is a thread-local request context: [`begin_trace`] installs
//! it, every [`span`] that closes on that thread while it is active
//! appends one `(id, parent, name, start, duration)` entry — the ids
//! come from a per-thread span stack, so the entries form a real tree —
//! and [`end_trace`] returns it. Root spans are sequential, so their
//! durations can never sum past the request's wall time — the
//! invariant a `"debug"` reply's breakdown relies on.
//! [`finish_trace`] additionally hands the trace to the retention
//! layer: a bounded lock-free ring with 1-in-N head sampling plus
//! tail-keep for traces over a slow threshold ([`configure_tracing`]),
//! and an all-time slowest list. Threads spawned during a request do
//! not inherit the context — a trace reports what *this* thread did.
//! The scenario runner therefore evaluates points on the calling thread
//! too: those nest under the request's spans, while the points its
//! helper threads take reach only the profiler, as root stacks of their
//! own.
//!
//! ## Profile
//!
//! Independently of traces, every closed span folds its self time into
//! an always-on call-tree profiler keyed by span path; see
//! [`profile`], [`profile::render_collapsed`] for flamegraph-ready
//! collapsed stacks, and `GET /debug/profile` in `mr2-serve`.

mod metrics;
mod registry;
mod span;

pub mod lint;
pub mod profile;
pub mod trace;

pub use lint::lint_exposition;
pub use metrics::{Buckets, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricKind, Registry};
pub use span::{
    begin_trace, end_trace, finish_trace, observe_span, trace_active, Span, Trace, TraceSpan,
};
pub use trace::{
    configure_tracing, find_trace, recent_traces, slowest_traces, tracing_config, TraceRing,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The process-wide registry every helper below records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether observations are being recorded (default: yes).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable recording. Handles stay valid either
/// way; while disabled, every observation is a relaxed load and a
/// branch (the benchmark suite's "≈0 overhead" configuration).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Get or register the unlabelled counter `name` in the process
/// registry. Panics if `name` is already registered as another kind.
pub fn counter(name: &'static str, help: &'static str) -> Counter {
    registry().counter(name, help, &[])
}

/// Get or register a labelled counter series.
pub fn counter_with(name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
    registry().counter(name, help, labels)
}

/// Get or register the unlabelled gauge `name`.
pub fn gauge(name: &'static str, help: &'static str) -> Gauge {
    registry().gauge(name, help, &[])
}

/// Get or register a labelled gauge series.
pub fn gauge_with(name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
    registry().gauge(name, help, labels)
}

/// Get or register the unlabelled histogram `name` with `buckets`.
pub fn histogram(name: &'static str, help: &'static str, buckets: Buckets) -> Histogram {
    registry().histogram(name, help, &[], buckets)
}

/// Get or register a labelled histogram series.
pub fn histogram_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
    buckets: Buckets,
) -> Histogram {
    registry().histogram(name, help, labels, buckets)
}

/// Start an RAII span timer named `name`. On drop it records its
/// elapsed seconds into `mr2_span_seconds{span=name}`, folds its self
/// time into the call-tree profiler, and, when a trace is active on
/// this thread, appends itself (with span and parent ids from the
/// per-thread stack) to the trace's span tree.
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Render every registered metric in Prometheus text exposition format
/// (content type `text/plain; version=0.0.4`).
pub fn render() -> String {
    registry().render()
}

/// Process-wide request-id source (access logs and trace contexts).
pub fn next_request_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Serializes tests that toggle [`set_enabled`] against tests that
/// assert exact observation counts (unit tests share one process-wide
/// registry and flag).
#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    pub(crate) fn flag_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    /// N writer threads hammer counters and histograms while M reader
    /// threads render the exposition: every render must be a
    /// well-formed snapshot (no torn families — verified by the
    /// exposition linter), and the final counts must be exact.
    #[test]
    fn concurrent_scrape_and_record_stay_consistent() {
        let _guard = tests_support::flag_lock();
        const WRITERS: usize = 4;
        const READERS: usize = 2;
        const OPS: u64 = 5_000;
        let c = counter("lib_test_concurrent_total", "doc");
        let h = histogram("lib_test_concurrent_hist", "doc", Buckets::TIME);
        let (c0, h0) = (c.value(), h.count());
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (c, h) = (c.clone(), h.clone());
                scope.spawn(move || {
                    for i in 0..OPS {
                        c.inc();
                        h.observe((w as f64 + 1.0) * 1e-6 * (i % 7 + 1) as f64);
                    }
                });
            }
            for _ in 0..READERS {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let text = render();
                        let errors = lint_exposition(&text);
                        assert!(
                            errors.is_empty(),
                            "mid-write render must lint clean: {errors:?}"
                        );
                        assert!(text.contains("lib_test_concurrent_total"));
                    }
                });
            }
        });
        assert_eq!(c.value(), c0 + WRITERS as u64 * OPS, "no lost increments");
        assert_eq!(h.count(), h0 + WRITERS as u64 * OPS, "no lost observations");
    }

    #[test]
    fn helpers_register_into_the_shared_registry() {
        counter("lib_test_total", "doc").add(3);
        gauge("lib_test_gauge", "doc").set(2.5);
        histogram("lib_test_hist", "doc", Buckets::TIME).observe(0.01);
        let text = render();
        for needle in [
            "# TYPE lib_test_total counter",
            "# TYPE lib_test_gauge gauge",
            "# TYPE lib_test_hist histogram",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
