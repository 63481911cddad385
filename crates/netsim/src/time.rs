//! Virtual simulation time.
//!
//! The simulator clock is a non-negative number of seconds stored as `f64`.
//! [`SimTime`] wraps the raw value so that it can be ordered totally (the
//! engine needs a `BinaryHeap` key) and so that arithmetic intent is explicit.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Negative inputs are clamped to zero.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(if secs < 0.0 { 0.0 } else { secs })
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1_000.0)
    }

    /// The raw number of seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The raw number of milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Saturating difference `self - other`, never negative.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Times are always finite and non-negative by construction.
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_negative() {
        assert_eq!(SimTime::from_secs(-1.0), SimTime::ZERO);
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_secs(5.0)),
            SimTime::ZERO
        );
    }

    #[test]
    fn conversions_are_consistent() {
        let t = SimTime::from_millis(1500.0);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
        assert!((t.as_millis() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a + b, SimTime::from_secs(3.0));
        assert_eq!(b - a, SimTime::from_secs(1.0));
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_secs(3.0));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs(0.5)), "0.500000s");
    }
}
