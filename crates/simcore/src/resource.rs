//! Shared-resource model used by the cluster simulator.
//!
//! One service discipline covers every physical resource in the Hadoop
//! cluster model: [`FairShare`] — generalized processor sharing with a
//! per-customer rate cap. A node CPU is `FairShare` with capacity =
//! #cores (each task caps at 1 core); a disk or NIC is `FairShare` with
//! capacity = bandwidth in bytes/s (flows split the bandwidth max–min
//! fairly).
//!
//! It is a *passive* state machine: it never schedules events itself.
//! After mutating it, the owner asks [`FairShare::next_completion`] and
//! schedules a tick in its own event queue, carrying the resource's
//! `generation()`; a tick whose generation no longer matches is stale
//! and dropped. An owner may mutate several times before it asks, as
//! long as it asks before simulated time moves on: an admission
//! completes nothing by itself, so one tick armed after a run of
//! admissions finds what a tick armed after each would have. This keeps
//! the resource reusable under any event loop.

use crate::time::SimTime;

/// Relative tolerance used to decide a customer's work is exhausted.
const WORK_EPS_REL: f64 = 1e-9;
/// Absolute tolerance for very small work amounts.
const WORK_EPS_ABS: f64 = 1e-12;

#[derive(Debug, Clone)]
struct Share<K> {
    key: K,
    remaining: f64,
    total: f64,
}

/// Generalized processor-sharing resource with a per-customer rate cap.
///
/// With `n` active customers each receives `min(cap, capacity / n)` units of
/// work per second, i.e. max–min fair sharing of `capacity` where no
/// customer can use more than `cap`.
#[derive(Debug, Clone)]
pub struct FairShare<K> {
    capacity: f64,
    per_customer_cap: f64,
    active: Vec<Share<K>>,
    last_update: SimTime,
    generation: u64,
}

impl<K> FairShare<K> {
    /// A resource delivering `capacity` work-units/second in aggregate, at
    /// most `per_customer_cap` work-units/second to any single customer.
    pub fn new(capacity: f64, per_customer_cap: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(per_customer_cap > 0.0, "per-customer cap must be positive");
        FairShare {
            capacity,
            per_customer_cap,
            active: Vec::new(),
            last_update: SimTime::ZERO,
            generation: 0,
        }
    }

    /// The current per-customer service rate.
    #[inline]
    fn rate(&self) -> f64 {
        let n = self.active.len();
        if n == 0 {
            0.0
        } else {
            (self.capacity / n as f64).min(self.per_customer_cap)
        }
    }

    /// Monotone counter bumped on every state change; owners stamp scheduled
    /// ticks with it and ignore stale ticks.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Integrate progress from `last_update` to `now` at the current rate.
    fn integrate_to(&mut self, now: SimTime) {
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            let rate = self.rate();
            for s in &mut self.active {
                s.remaining -= rate * dt;
            }
        }
        self.last_update = self.last_update.max(now);
    }

    /// Admit a customer with `work` units of demand at time `now`.
    ///
    /// Customers with non-positive work complete instantaneously and are
    /// returned by the next [`FairShare::collect_finished`] call.
    pub fn admit(&mut self, now: SimTime, key: K, work: f64) {
        self.integrate_to(now);
        self.active.push(Share {
            key,
            remaining: work.max(0.0),
            total: work.max(0.0),
        });
        self.generation += 1;
    }

    /// Advance to `now` and append all customers whose work is exhausted
    /// to `done`, in admission order. The rest keep their order.
    pub fn collect_finished(&mut self, now: SimTime, done: &mut Vec<K>) {
        self.integrate_to(now);
        let before = done.len();
        let finished = |s: &mut Share<K>| s.remaining <= WORK_EPS_ABS + WORK_EPS_REL * s.total;
        done.extend(self.active.extract_if(.., finished).map(|s| s.key));
        if done.len() > before {
            self.generation += 1;
        }
    }

    /// The absolute time of the next completion, assuming no further state
    /// change, or `None` if idle.
    ///
    /// Strictly after `last_update` whenever uncollectable work remains:
    /// when a tiny residual's `remaining / rate` underflows the f64
    /// resolution at the current timestamp (e.g. a 1-byte transfer late
    /// in a long run), `last_update + dt` rounds back to `last_update`,
    /// and a tick scheduled there would integrate a zero-length step,
    /// collect nothing, and re-arm itself at the same instant forever.
    /// Nudging one ulp forward makes that tick drain `rate * ulp` work,
    /// which by construction exceeds any residual small enough to have
    /// underflowed. Residuals within the completion tolerance keep the
    /// exact `last_update` time — they are collectable as-is.
    pub fn next_completion(&self) -> Option<SimTime> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let s = self
            .active
            .iter()
            .min_by(|a, b| a.remaining.total_cmp(&b.remaining))?;
        let t = self.last_update + s.remaining.max(0.0) / rate;
        let eps = WORK_EPS_ABS + WORK_EPS_REL * s.total;
        if t > self.last_update || s.remaining <= eps {
            Some(t)
        } else {
            Some(SimTime(f64::from_bits(self.last_update.0.to_bits() + 1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect<K>(r: &mut FairShare<K>, now: SimTime) -> Vec<K> {
        let mut done = Vec::new();
        r.collect_finished(now, &mut done);
        done
    }

    #[test]
    fn single_customer_runs_at_cap() {
        // Capacity 12 cores, cap 1 core: one task of 5 core-seconds takes 5s.
        let mut cpu = FairShare::new(12.0, 1.0);
        cpu.admit(SimTime::ZERO, "t1", 5.0);
        assert_eq!(cpu.next_completion(), Some(SimTime::from_secs(5.0)));
        let done = collect(&mut cpu, SimTime::from_secs(5.0));
        assert_eq!(done, vec!["t1"]);
        assert_eq!(cpu.next_completion(), None, "idle");
    }

    #[test]
    fn contention_slows_everyone() {
        // Capacity 2, cap 1: four tasks of 4 units each share rate 0.5.
        let mut cpu = FairShare::new(2.0, 1.0);
        for k in 0..4 {
            cpu.admit(SimTime::ZERO, k, 4.0);
        }
        let t = cpu.next_completion().unwrap();
        assert!((t.as_secs() - 8.0).abs() < 1e-6, "got {t}");
        let done = collect(&mut cpu, t);
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn rate_recomputes_on_departure() {
        // Two tasks on capacity 1 (cap 1): each runs at 0.5. Task a has 1
        // unit, task b has 2 units. a finishes at t=2; then b runs at rate 1
        // and finishes its remaining 1 unit at t=3.
        let mut r = FairShare::new(1.0, 1.0);
        r.admit(SimTime::ZERO, 'a', 1.0);
        r.admit(SimTime::ZERO, 'b', 2.0);
        let t1 = r.next_completion().unwrap();
        assert!((t1.as_secs() - 2.0).abs() < 1e-6);
        assert_eq!(collect(&mut r, t1), vec!['a']);
        let t2 = r.next_completion().unwrap();
        assert!((t2.as_secs() - 3.0).abs() < 1e-6, "got {t2}");
        assert_eq!(collect(&mut r, t2), vec!['b']);
    }

    #[test]
    fn late_arrival_shares_fairly() {
        // Link of 10 bytes/s, no per-flow cap bite (cap=10). Flow a: 100
        // bytes at t=0. Flow b: 30 bytes at t=5. At t=5, a has 50 left; both
        // run at 5/s. b finishes at t=11, a at t=5 + (50-30)/10... compute:
        // t in [5,11): each gets 5/s, b's 30 bytes done at t=11, a has
        // 50-30=20 left, then rate 10/s → done at t=13.
        let mut link = FairShare::new(10.0, 10.0);
        link.admit(SimTime::ZERO, 'a', 100.0);
        link.admit(SimTime::from_secs(5.0), 'b', 30.0);
        let t = link.next_completion().unwrap();
        assert!((t.as_secs() - 11.0).abs() < 1e-6, "got {t}");
        assert_eq!(collect(&mut link, t), vec!['b']);
        let t = link.next_completion().unwrap();
        assert!((t.as_secs() - 13.0).abs() < 1e-6, "got {t}");
        assert_eq!(collect(&mut link, t), vec!['a']);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut r = FairShare::new(1.0, 1.0);
        r.admit(SimTime::ZERO, 'a', 0.0);
        assert_eq!(r.next_completion(), Some(SimTime::ZERO));
        assert_eq!(collect(&mut r, SimTime::ZERO), vec!['a']);
    }

    #[test]
    fn sub_ulp_residual_completes_at_a_strictly_later_time() {
        // A 1e-7-unit residual on a 1e8-rate resource at t=70 needs
        // dt=1e-15, below the f64 ulp of 70 (~7e-15): `last_update + dt`
        // rounds back to 70 exactly. The reported completion must still
        // be strictly later, or an owner re-arming ticks off
        // `next_completion` spins at a frozen timestamp forever.
        let mut disk = FairShare::new(1e8, 1e8);
        let t0 = SimTime::from_secs(70.0);
        disk.admit(t0, "tail", 1e-7);
        let next = disk.next_completion().unwrap();
        assert!(next > t0, "no representable progress: {next} vs {t0}");
        assert_eq!(collect(&mut disk, next), vec!["tail"]);
        assert_eq!(disk.next_completion(), None, "idle");
    }
}
