//! Property-based tests of the simulation substrate.

use proptest::prelude::*;
use simcore::{FairShare, SimTime, Welford};

proptest! {
    /// Fair-share resources conserve work: every admitted customer
    /// eventually finishes, and total delivered service equals total
    /// admitted work regardless of arrival pattern.
    #[test]
    fn fair_share_conserves_work(
        arrivals in prop::collection::vec((0.0f64..100.0, 0.1f64..50.0), 1..20),
        capacity in 0.5f64..8.0,
        cap in 0.5f64..4.0,
    ) {
        let mut r = FairShare::new(capacity, cap);
        let mut sorted = arrivals.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut done = 0usize;
        let mut finished = Vec::new();
        let mut next_id = 0usize;
        let mut t = SimTime::ZERO;
        let mut pending = sorted.into_iter().peekable();
        // Drive arrivals and completions in time order.
        loop {
            let next_completion = r.next_completion();
            let next_arrival = pending.peek().map(|&(at, _)| SimTime::from_secs(at));
            match (next_completion, next_arrival) {
                (None, None) => break,
                (Some(c), None) => {
                    t = c;
                    finished.clear();
                    r.collect_finished(t, &mut finished);
                    done += finished.len();
                }
                (None, Some(a)) => {
                    t = t.max(a);
                    let (_, work) = pending.next().unwrap();
                    r.admit(t, next_id, work);
                    next_id += 1;
                }
                (Some(c), Some(a)) => {
                    if c <= a {
                        t = c;
                        finished.clear();
                        r.collect_finished(t, &mut finished);
                        done += finished.len();
                    } else {
                        t = t.max(a);
                        let (_, work) = pending.next().unwrap();
                        r.admit(t, next_id, work);
                        next_id += 1;
                    }
                }
            }
        }
        prop_assert_eq!(done, arrivals.len(), "every customer must finish");
        prop_assert_eq!(r.next_completion(), None, "idle once drained");
    }

    /// The per-customer rate never exceeds the cap nor the fair share:
    /// `n` equal customers finish no sooner than either bound allows.
    #[test]
    fn fair_share_rate_bounds(
        n in 1usize..50,
        capacity in 0.5f64..16.0,
        cap in 0.1f64..4.0,
    ) {
        let mut r = FairShare::new(capacity, cap);
        for i in 0..n {
            r.admit(SimTime::ZERO, i, 10.0);
        }
        let t = r.next_completion().unwrap().as_secs();
        prop_assert!(t.is_finite());
        prop_assert!(t >= 10.0 / cap * (1.0 - 1e-12));
        prop_assert!(t >= 10.0 * n as f64 / capacity * (1.0 - 1e-12));
    }

    /// Welford statistics agree with the two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        let scale = var.abs().max(1.0);
        prop_assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() < 1e-6 * scale);
    }
}
