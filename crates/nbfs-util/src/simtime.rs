//! Simulated time.
//!
//! All cost models in the workspace express time as [`SimTime`] — simulated
//! seconds on the modelled cluster, completely decoupled from wall-clock
//! time. Keeping it a newtype prevents accidentally mixing simulated and
//! real durations.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A non-negative duration (or instant, as duration since run start) in
/// simulated seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Constructs from seconds.
    ///
    /// # Panics
    /// If `secs` is negative or NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0, "SimTime must be non-negative, got {secs}");
        SimTime(secs)
    }

    /// Constructs from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs(ns * 1e-9)
    }

    /// Constructs from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Constructs from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics (in debug builds) if the result would be negative.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow: {} - {}", self.0, rhs.0);
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    /// Ratio of two durations (e.g. "proportion of total time", Fig. 14).
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{:.1} ns", s * 1e9)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert!((SimTime::from_millis(1.5).as_micros() - 1500.0).abs() < 1e-9);
        assert!((SimTime::from_nanos(100.0).as_secs() - 1e-7).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.5);
        assert_eq!((a - b).as_secs(), 1.5);
        assert_eq!((a * 3.0).as_secs(), 6.0);
        assert_eq!((a / 4.0).as_secs(), 0.5);
        assert_eq!(a / b, 4.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn sum_of_iterator() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", SimTime::from_millis(2.25)), "2.250 ms");
        assert_eq!(format!("{}", SimTime::from_micros(3.5)), "3.500 us");
        assert_eq!(format!("{}", SimTime::from_nanos(80.0)), "80.0 ns");
    }
}
