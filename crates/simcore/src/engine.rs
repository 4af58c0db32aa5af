//! The event-loop driver: a clock plus a deterministic event calendar.
//!
//! Domain simulators (YARN, MapReduce) own an `Engine<E>` with their own
//! event enum `E` and drain it with [`Engine::next`], dispatching on the
//! event payload. The calendar is a `std` binary heap that delivers the
//! earliest event first and events at equal timestamps in FIFO
//! (insertion) order, so a tie never depends on heap internals and runs
//! stay deterministic. The engine enforces that simulated time never
//! moves backwards and counts processed events for benchmark reporting.
//! On drop each engine publishes its lifetime totals — events processed
//! and peak calendar depth — into the `mr2-obs` registry, so the cost
//! is two atomic operations per *engine*, not per event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use crate::time::SimTime;

/// Events processed across all engines in this process.
fn sim_events() -> &'static mr2_obs::Counter {
    static C: OnceLock<mr2_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        mr2_obs::counter(
            "mr2_sim_events_total",
            "Events processed by discrete-event simulation engines.",
        )
    })
}

/// Distribution of per-engine peak event-calendar depths.
fn sim_heap_depth() -> &'static mr2_obs::Histogram {
    static H: OnceLock<mr2_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        mr2_obs::histogram(
            "mr2_sim_event_heap_depth",
            "Peak pending-event calendar depth, one observation per simulation engine.",
            mr2_obs::Buckets::DEPTH,
        )
    })
}

/// A calendar entry: an event, its timestamp, and its insertion
/// sequence number.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Ord for Scheduled<E> {
    /// Reversed `(time, seq)` order, so the max-heap pops the earliest
    /// time first and, among equal times, the earliest scheduled.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

/// Clock + calendar. See the module docs.
pub struct Engine<E> {
    now: SimTime,
    calendar: BinaryHeap<Scheduled<E>>,
    seq: u64,
    processed: u64,
    peak_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at time zero with an empty calendar.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            calendar: BinaryHeap::new(),
            seq: 0,
            processed: 0,
            peak_pending: 0,
        }
    }

    /// Schedule an event at absolute time `t`. Panics if `t` is in the past.
    pub fn schedule_at(&mut self, t: SimTime, event: E) {
        assert!(
            t >= self.now,
            "cannot schedule into the past: now={}, t={}",
            self.now,
            t
        );
        self.calendar.push(Scheduled {
            time: t,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.peak_pending = self.peak_pending.max(self.calendar.len());
    }

    /// Schedule an event `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        debug_assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.now + delay.max(0.0), event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self semantics with side effects on the clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { time, event, .. } = self.calendar.pop()?;
        debug_assert!(time >= self.now);
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl<E> Drop for Engine<E> {
    fn drop(&mut self) {
        // Engines that never scheduled anything (e.g. constructed and
        // discarded) stay out of the registry.
        if self.processed > 0 || self.peak_pending > 0 {
            sim_events().add(self.processed);
            sim_heap_depth().observe(self.peak_pending as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut eng = Engine::new();
        eng.schedule_in(2.0, Ev::Tick(2));
        eng.schedule_in(1.0, Ev::Tick(1));
        let (t1, e1) = eng.next().unwrap();
        assert_eq!((t1, e1), (SimTime::from_secs(1.0), Ev::Tick(1)));
        assert_eq!(eng.now, SimTime::from_secs(1.0));
        // Scheduling relative to the new now.
        eng.schedule_in(0.5, Ev::Tick(3));
        let (t2, e2) = eng.next().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(1.5), Ev::Tick(3)));
        let (t3, _) = eng.next().unwrap();
        assert_eq!(t3, SimTime::from_secs(2.0));
        assert!(eng.next().is_none());
        assert_eq!(eng.processed(), 3);
        assert_eq!(eng.peak_pending, 2);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        // Equal timestamps interleaved with earlier and later events,
        // scheduled both before and after pops: every tie still comes
        // out in the order it went in.
        let mut eng = Engine::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..50 {
            eng.schedule_at(t, Ev::Tick(i));
            eng.schedule_at(SimTime::from_secs(9.0 - (i % 3) as f64), Ev::Tick(1000 + i));
        }
        eng.schedule_at(SimTime::from_secs(1.0), Ev::Tick(999));
        assert_eq!(eng.next(), Some((SimTime::from_secs(1.0), Ev::Tick(999))));
        for i in 50..100 {
            eng.schedule_at(t, Ev::Tick(i));
        }
        for i in 0..100 {
            assert_eq!(eng.next(), Some((t, Ev::Tick(i))));
        }
        let mut last = t;
        while let Some((at, _)) = eng.next() {
            assert!(at >= last);
            last = at;
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_in(5.0, Ev::Tick(1));
        eng.next();
        eng.schedule_at(SimTime::from_secs(1.0), Ev::Tick(2));
    }

    #[test]
    fn drop_publishes_lifetime_totals() {
        let events = sim_events();
        let depth = sim_heap_depth();
        let (e0, d0) = (events.value(), depth.count());
        {
            let mut eng = Engine::new();
            eng.schedule_in(1.0, Ev::Tick(1));
            eng.schedule_in(2.0, Ev::Tick(2));
            eng.next();
        }
        // Other tests drop engines concurrently, so assert growth, not
        // exact totals.
        assert!(events.value() > e0, "processed events published");
        assert!(depth.count() > d0, "depth observation published");
    }
}
