//! Virtual simulation time.
//!
//! The simulator clock is a non-negative number of seconds stored as `f64`.
//! [`SimTime`] wraps the raw value so that it can be ordered totally (the
//! engine needs a heap key) and so that arithmetic intent is explicit.
//!
//! Every value is `+0.0`, a positive number or `+∞` ("never due"): the
//! constructors clamp negatives (and `-0.0`) to `+0.0` and map NaN to
//! `+∞`.  On those values the IEEE bit pattern, read as a `u64`, orders
//! exactly as the number does, which is what the event queue sorts by
//! ([`SimTime::to_bits`]).

use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the start of the simulation.
#[derive(Debug, Clone, Copy, Serialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.  Negative inputs (and `-0.0`) are clamped
    /// to zero; NaN means never due, `+∞`, which sorts after every finite
    /// time.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        if secs > 0.0 {
            SimTime(secs)
        } else if secs.is_nan() {
            SimTime(f64::INFINITY)
        } else {
            SimTime::ZERO
        }
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1_000.0)
    }

    /// The raw number of seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The raw number of milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// The IEEE bits of the time: a time orders exactly as its bits do,
    /// read as an unsigned integer.
    #[inline]
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// The time whose bits [`SimTime::to_bits`] returned.
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> Self {
        SimTime(f64::from_bits(bits))
    }

    /// Saturating difference `self - other`, never negative.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime::from_secs((self.0 - other.0).max(0.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        Ord::max(self, other)
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        Ord::min(self, other)
    }
}

impl PartialEq for SimTime {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.to_bits().cmp(&other.to_bits())
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Deserialize for SimTime {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        f64::from_value(v).map(SimTime::from_secs)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// The sum of two times is never negative, but `+∞` stays `+∞`.
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
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
    fn negative_zero_and_nan_are_normalised() {
        let zero = SimTime::from_secs(-0.0);
        assert_eq!(zero.as_secs().to_bits(), 0.0f64.to_bits());
        assert_eq!(zero, SimTime::ZERO);
        assert_eq!(SimTime::from_millis(-0.0).to_bits(), 0);
        let never = SimTime::from_secs(f64::NAN);
        assert_eq!(never.as_secs(), f64::INFINITY);
        assert_eq!(never, SimTime::from_secs(f64::INFINITY));
        assert_eq!(SimTime::from_secs(f64::NEG_INFINITY), SimTime::ZERO);
        // Arithmetic stays inside the normalised values.
        let one = SimTime::from_secs(1.0);
        assert_eq!((one - one).to_bits(), 0);
        assert_eq!(one.saturating_sub(one).to_bits(), 0);
        assert_eq!(never - never, never);
        assert_eq!(never.saturating_sub(never), SimTime::ZERO);
        assert_eq!(one + f64::NAN, never);
        // A deserialized time is normalised like a constructed one.
        let parse = |json: &str| serde_json::from_str::<SimTime>(json).expect("a number");
        assert_eq!(parse("-2.5").to_bits(), 0);
        assert_eq!(parse("0.25"), SimTime::from_secs(0.25));
    }

    #[test]
    fn the_order_is_total_and_agrees_with_the_bits() {
        let times = [
            SimTime::from_secs(f64::NAN),
            SimTime::from_secs(3.0),
            SimTime::from_secs(-0.0),
            SimTime::from_secs(f64::MIN_POSITIVE),
            SimTime::from_secs(5e-324),
            SimTime::from_secs(1e300),
            SimTime::from_secs(f64::INFINITY),
            SimTime::ZERO,
            SimTime::from_secs(-7.0),
        ];
        for a in times {
            // Reflexive: NaN no longer compares unequal to itself.
            assert_eq!(a.cmp(&a), Ordering::Equal);
            assert_eq!(a, a);
            for b in times {
                let by_value = a.as_secs().partial_cmp(&b.as_secs());
                assert_eq!(Some(a.cmp(&b)), by_value, "{a:?} {b:?}");
                assert_eq!(a.cmp(&b), a.to_bits().cmp(&b.to_bits()));
                assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
                assert_eq!(a.max(b), if a >= b { a } else { b });
                assert_eq!(a.min(b), if a <= b { a } else { b });
            }
        }
        let mut sorted = times;
        sorted.sort();
        let secs: Vec<f64> = sorted.iter().map(|t| t.as_secs()).collect();
        assert!(secs.windows(2).all(|w| w[0] <= w[1]), "{secs:?}");
        assert_eq!(secs[0].to_bits(), 0);
        assert_eq!(secs[8], f64::INFINITY);
        assert_eq!(SimTime::from_bits(sorted[4].to_bits()), sorted[4]);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs(0.5)), "0.500000s");
    }
}
