//! RAII span timers, the per-thread span stack, and the thread-local
//! trace context.
//!
//! Every [`Span`](crate::span) records its elapsed seconds into the
//! `mr2_span_seconds{span=…}` histogram family. Beyond the histogram,
//! each span participates in two richer sinks:
//!
//! * **Hierarchy.** A per-thread stack of open frames gives every span
//!   an id and a parent id, so nested `model.solve` / `point.sim` /
//!   `cache.lookup` calls form a real tree. When a trace is active on
//!   the thread ([`begin_trace`]), every span that closes while it is
//!   active appends a [`TraceSpan`] carrying `(id, parent, name,
//!   start, duration)`; [`end_trace`] returns the whole tree. Root
//!   spans (no parent inside the trace) are strictly sequential, so
//!   *their* durations sum to at most the request's wall time — the
//!   invariant a `"debug"` reply's breakdown relies on.
//! * **Profiling.** On close, a span folds its *self time* (elapsed
//!   minus time spent in child spans) into the process-wide call-tree
//!   profiler keyed by span path (see [`crate::profile`]), whether or
//!   not a trace is active.
//!
//! The context is deliberately **not** propagated to spawned threads:
//! a trace is "what this request's thread did, in order", and parallel
//! workers report through the registry and profiler instead. The
//! scenario runner's calling thread evaluates points itself, so a sweep
//! on one CPU, or of one distinct point, traces whole; the points its
//! helper threads take are profile roots outside the request's tree.
//!
//! Panic safety: unwinding drops open `Span` guards, which pop their
//! frames; anything a panic (or a leaked guard) leaves behind is
//! truncated wholesale by [`end_trace`], so the next request on the
//! worker never inherits phantom parent frames.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use crate::metrics::{Buckets, Histogram};

/// Histogram family every span records into.
const SPAN_FAMILY: &str = "mr2_span_seconds";
const SPAN_HELP: &str = "Elapsed seconds of named code spans.";

/// Hard cap on spans collected into one trace; a trace wrapping a huge
/// sweep keeps its earliest spans and counts the rest as dropped.
const MAX_TRACE_SPANS: usize = 4096;

/// Cache of span-name → histogram handle, so starting a span on a hot
/// path costs one `RwLock` read after the first use of each name.
fn span_histogram(name: &'static str) -> Histogram {
    static CACHE: OnceLock<RwLock<HashMap<&'static str, Histogram>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(h) = cache.read().unwrap().get(name) {
        return h.clone();
    }
    let h = crate::histogram_with(SPAN_FAMILY, SPAN_HELP, &[("span", name)], Buckets::TIME);
    cache.write().unwrap().entry(name).or_insert(h).clone()
}

/// One completed span inside a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Id within the trace, assigned in start order (0, 1, 2, …).
    pub id: u32,
    /// Id of the enclosing span inside the same trace; `None` for
    /// roots.
    pub parent: Option<u32>,
    /// Span name (as passed to [`crate::span`]).
    pub name: &'static str,
    /// Offset of the span's start from the trace's start.
    pub start: Duration,
    /// How long the span ran.
    pub duration: Duration,
}

/// A finished request trace: the span tree of what the traced thread
/// did between [`begin_trace`] and [`end_trace`].
#[derive(Debug, Clone)]
pub struct Trace {
    /// The request id the trace was begun with.
    pub request_id: u64,
    /// Free-form label (typically the route) the trace was begun with.
    pub label: &'static str,
    /// Wall time between begin and end.
    pub wall: Duration,
    /// Completed spans in completion order; ids were assigned in start
    /// order, so children carry higher ids than their parents.
    pub spans: Vec<TraceSpan>,
    /// Spans discarded once the trace hit its size cap.
    pub dropped: u32,
}

impl Trace {
    /// Root spans (no parent inside the trace), in start order.
    pub fn roots(&self) -> Vec<&TraceSpan> {
        let mut v: Vec<&TraceSpan> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Direct children of span `id`, in start order.
    pub fn children(&self, id: u32) -> Vec<&TraceSpan> {
        let mut v: Vec<&TraceSpan> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        v.sort_by_key(|s| s.id);
        v
    }
}

struct ActiveTrace {
    request_id: u64,
    label: &'static str,
    /// Distinguishes this trace from stale frame annotations left on
    /// the stack by earlier traces.
    epoch: u64,
    started: Instant,
    /// Stack height when the trace began; frames at or below this
    /// depth belong to enclosing (non-traced) work.
    base_depth: usize,
    next_id: u32,
    dropped: u32,
    spans: Vec<TraceSpan>,
}

/// One open span on this thread's stack.
struct Frame {
    name: &'static str,
    /// Chained path hash for the profiler (see [`crate::profile`]).
    path_hash: u64,
    /// Nanoseconds already spent in completed child spans.
    child_ns: u64,
    /// `(trace epoch, span id, parent span id)` when a trace was
    /// active on this thread when the span started.
    trace: Option<(u64, u32, Option<u32>)>,
}

struct ThreadState {
    frames: Vec<Frame>,
    trace: Option<ActiveTrace>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            frames: Vec::new(),
            trace: None,
        })
    };
}

/// Monotonic trace-epoch source shared by all threads.
static TRACE_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Install a trace context on the current thread. Returns `false` (and
/// leaves the existing context untouched) if one is already active.
pub fn begin_trace(request_id: u64, label: &'static str) -> bool {
    STATE.with(|slot| {
        let mut s = slot.borrow_mut();
        if s.trace.is_some() {
            return false;
        }
        let base_depth = s.frames.len();
        s.trace = Some(ActiveTrace {
            request_id,
            label,
            epoch: TRACE_EPOCH.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
            base_depth,
            next_id: 0,
            dropped: 0,
            spans: Vec::new(),
        });
        true
    })
}

/// Whether a trace context is active on the current thread.
pub fn trace_active() -> bool {
    STATE.with(|slot| slot.borrow().trace.is_some())
}

/// Remove the current thread's trace context and return the span tree;
/// `None` when no trace is active.
///
/// Also truncates the span stack back to where it was at
/// [`begin_trace`]: a panic that unwound past open guards, or a leaked
/// guard, cannot leave phantom frames behind for the worker's next
/// request.
pub fn end_trace() -> Option<Trace> {
    STATE.with(|slot| {
        let mut s = slot.borrow_mut();
        let t = s.trace.take()?;
        s.frames.truncate(t.base_depth);
        Some(Trace {
            request_id: t.request_id,
            label: t.label,
            wall: t.started.elapsed(),
            spans: t.spans,
            dropped: t.dropped,
        })
    })
}

/// [`end_trace`], then hand the trace to the retention layer (sampling
/// ring + slowest list, see [`crate::trace`]). Returns the finished
/// trace whether or not the ring kept it.
pub fn finish_trace() -> Option<Arc<Trace>> {
    end_trace().map(crate::trace::record_trace)
}

/// Record an already-measured duration into `mr2_span_seconds{span=…}`
/// without an RAII guard — for call sites whose timing cannot be
/// scoped cleanly (e.g. a cache that times only its hit branch). Does
/// not interact with the trace context or the profiler.
pub fn observe_span(name: &'static str, seconds: f64) {
    if crate::enabled() {
        span_histogram(name).observe(seconds);
    }
}

/// A running span timer; see [`crate::span`]. Dropping it records the
/// observation.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    started: Instant,
    /// Index of this span's frame on the thread stack (`None` when
    /// recording was disabled at start — histogram-only on drop).
    frame: Option<usize>,
}

impl Span {
    pub(crate) fn start(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span {
                name,
                started: Instant::now(),
                frame: None,
            };
        }
        let frame = STATE.with(|slot| {
            let mut s = slot.borrow_mut();
            let parent_hash = s
                .frames
                .last()
                .map_or(crate::profile::ROOT_HASH, |f| f.path_hash);
            let path_hash = crate::profile::chain(parent_hash, name);
            // The nearest enclosing frame annotated by the *live*
            // trace is the parent. Stale annotations (an earlier
            // trace's epoch) only ever sit below the live trace's
            // base depth, so the topmost annotated frame decides.
            let enclosing = s
                .frames
                .iter()
                .rev()
                .find_map(|f| f.trace)
                .map(|(epoch, id, _)| (epoch, id));
            let trace = s.trace.as_mut().and_then(|t| {
                let parent = match enclosing {
                    Some((epoch, id)) if epoch == t.epoch => Some(id),
                    _ => None,
                };
                let id = t.next_id;
                t.next_id = t.next_id.checked_add(1)?;
                Some((t.epoch, id, parent))
            });
            s.frames.push(Frame {
                name,
                path_hash,
                child_ns: 0,
                trace,
            });
            Some(s.frames.len() - 1)
        });
        Span {
            name,
            started: Instant::now(),
            frame,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let duration = self.started.elapsed();
        if crate::enabled() {
            span_histogram(self.name).observe(duration.as_secs_f64());
        }
        let Some(index) = self.frame else { return };
        STATE.with(|slot| {
            let mut s = slot.borrow_mut();
            // end_trace may already have truncated past us, and leaked
            // inner guards may have left deeper frames behind; in
            // either case restore consistency rather than misattribute.
            if index >= s.frames.len() || s.frames[index].name != self.name {
                return;
            }
            s.frames.truncate(index + 1);
            let frame = s.frames.pop().expect("frame at index exists");
            let dur_ns = duration.as_nanos().min(u64::MAX as u128) as u64;
            if let Some(parent) = s.frames.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
            let self_ns = dur_ns.saturating_sub(frame.child_ns);
            let frames = &s.frames;
            crate::profile::record(frame.path_hash, self_ns, dur_ns, || {
                let mut path: Vec<&'static str> = frames.iter().map(|f| f.name).collect();
                path.push(frame.name);
                path
            });
            if let Some((epoch, id, parent)) = frame.trace {
                if let Some(t) = s.trace.as_mut() {
                    if t.epoch == epoch {
                        if t.spans.len() < MAX_TRACE_SPANS {
                            t.spans.push(TraceSpan {
                                id,
                                parent,
                                name: self.name,
                                start: self.started.saturating_duration_since(t.started),
                                duration,
                            });
                        } else {
                            t.dropped = t.dropped.saturating_add(1);
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let until = Instant::now() + Duration::from_micros(us);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_record_into_the_histogram_family() {
        let _guard = crate::tests_support::flag_lock();
        let h = span_histogram("span_test.basic");
        let before = h.count();
        {
            let _s = crate::span("span_test.basic");
            spin(50);
        }
        assert_eq!(h.count(), before + 1);
        assert!(h.quantile(1.0).unwrap() >= 1e-6);
    }

    #[test]
    fn trace_builds_a_span_tree_with_ids_and_parents() {
        let _guard = crate::tests_support::flag_lock();
        assert!(begin_trace(41, "test"));
        assert!(!begin_trace(42, "test"), "no nested trace contexts");
        {
            let _a = crate::span("span_test.first");
            spin(200);
        }
        {
            let _b = crate::span("span_test.outer");
            let _nested = crate::span("span_test.inner");
            spin(200);
        }
        let t = end_trace().expect("trace was active");
        assert!(end_trace().is_none(), "context consumed");
        assert_eq!(t.request_id, 41);
        assert_eq!(t.label, "test");
        assert_eq!(t.dropped, 0);
        // All three spans are in the trace, ids in start order.
        let mut by_id = t.spans.clone();
        by_id.sort_by_key(|s| s.id);
        let names: Vec<&str> = by_id.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["span_test.first", "span_test.outer", "span_test.inner"],
        );
        assert_eq!(by_id[0].parent, None);
        assert_eq!(by_id[1].parent, None);
        assert_eq!(
            by_id[2].parent,
            Some(by_id[1].id),
            "inner nests under outer"
        );
        // Roots are sequential: their durations sum to at most wall.
        let roots = t.roots();
        assert_eq!(roots.len(), 2);
        assert!(roots[0].start <= roots[1].start, "ordered by start");
        let sum: Duration = roots.iter().map(|s| s.duration).sum();
        assert!(
            sum <= t.wall,
            "sequential roots cannot out-sum the wall time ({sum:?} vs {wall:?})",
            wall = t.wall
        );
        // The child is inside its parent's window.
        let outer = by_id[1].clone();
        let inner = by_id[2].clone();
        assert!(inner.start >= outer.start);
        assert!(inner.duration <= outer.duration + Duration::from_millis(1));
        assert_eq!(t.children(outer.id), vec![&inner]);
    }

    #[test]
    fn spawned_threads_do_not_inherit_the_trace() {
        let _guard = crate::tests_support::flag_lock();
        assert!(begin_trace(77, "test"));
        let child_active = std::thread::spawn(trace_active).join().unwrap();
        assert!(!child_active);
        let t = end_trace().unwrap();
        assert!(t.spans.is_empty());
    }

    /// Regression: a panic (or leaked guard) mid-trace must not leave
    /// phantom frames for the next request on the same thread.
    #[test]
    fn panic_mid_trace_pops_the_whole_span_stack() {
        let _guard = crate::tests_support::flag_lock();
        assert!(begin_trace(90, "panicky"));
        let result = std::panic::catch_unwind(|| {
            let _outer = crate::span("span_test.panic_outer");
            let inner = crate::span("span_test.panic_inner");
            // A leaked guard never drops, so its frame stays behind
            // even after unwinding pops `_outer`.
            std::mem::forget(inner);
            panic!("boom");
        });
        assert!(result.is_err());
        // The panicked request's cleanup path.
        let t = end_trace().expect("trace still active after panic");
        assert_eq!(t.request_id, 90);
        // The next request on this worker starts from a clean stack:
        // its spans are roots, not children of panic_inner.
        assert!(begin_trace(91, "next"));
        {
            let _s = crate::span("span_test.after_panic");
            spin(50);
        }
        let t = end_trace().unwrap();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "span_test.after_panic");
        assert_eq!(
            t.spans[0].parent, None,
            "no phantom parent inherited from the panicked request"
        );
    }

    #[test]
    fn leaked_inner_guard_does_not_corrupt_the_outer_frame() {
        let _guard = crate::tests_support::flag_lock();
        assert!(begin_trace(95, "leaky"));
        {
            let _outer = crate::span("span_test.leak_outer");
            let inner = crate::span("span_test.leak_inner");
            std::mem::forget(inner);
            // _outer's drop truncates the leaked frame away.
        }
        {
            let _sib = crate::span("span_test.leak_sibling");
        }
        let t = end_trace().unwrap();
        let sib = t
            .spans
            .iter()
            .find(|s| s.name == "span_test.leak_sibling")
            .unwrap();
        assert_eq!(sib.parent, None, "sibling is a root, not a leak child");
    }

    #[test]
    fn trace_span_count_is_capped() {
        let _guard = crate::tests_support::flag_lock();
        assert!(begin_trace(96, "cap"));
        for _ in 0..(MAX_TRACE_SPANS + 5) {
            let _s = crate::span("span_test.capped");
        }
        let t = end_trace().unwrap();
        assert_eq!(t.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(t.dropped, 5);
    }

    #[test]
    fn disabled_spans_skip_the_stack_entirely() {
        let _guard = crate::tests_support::flag_lock();
        crate::set_enabled(false);
        assert!(begin_trace(97, "off"));
        {
            let _s = crate::span("span_test.disabled");
        }
        let t = end_trace().unwrap();
        crate::set_enabled(true);
        assert!(t.spans.is_empty(), "disabled spans stay out of traces");
    }
}
