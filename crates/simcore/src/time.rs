//! Simulated time.
//!
//! Time is a non-negative `f64` measured in **seconds** since the start of
//! the simulation. A newtype keeps it from being confused with durations or
//! ordinary floats, and provides a total order (`f64::total_cmp`) so it can
//! key the event calendar.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(pub f64);

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Panics on NaN or negative input in debug builds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s >= 0.0 && !s.is_nan(), "invalid SimTime: {s}");
        SimTime(s)
    }

    /// The raw number of seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    /// Elapsed seconds between two instants.
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1.5);
        let b = a + 2.5;
        assert_eq!(b.as_secs(), 4.0);
        assert!((b - a - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs(1.25).to_string(), "1.250000s");
    }
}
