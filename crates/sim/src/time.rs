//! Simulation clock: microsecond-resolution virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// From fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// From fractional seconds, rounding *up* to the next microsecond.
    ///
    /// Event loops must use this for completion deadlines: rounding down
    /// would schedule a wake-up an instant before the completion,
    /// advancing the clock by zero and spinning forever.
    pub fn from_secs_f64_ceil(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).ceil() as u64)
    }

    /// From fractional seconds, rounding *down* to a microsecond: for
    /// bounds that must not be overshot.
    pub(crate) fn from_secs_f64_floor(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).floor() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturates at zero (with a debug assertion): simulated time is
    /// monotonic, so a backwards difference is a caller bug, but a
    /// zero-length interval is always safe to hand onward.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000_000;
        let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(90).as_secs_f64(), 90.0);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_secs_f64(1.5).0, 1_500_000);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a + b, SimTime::from_secs(14));
        assert_eq!(a - b, SimTime::from_secs(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!(b < a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn negative_duration_saturates_to_zero() {
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(2), SimTime::ZERO);
    }

    #[test]
    fn display_is_hms() {
        assert_eq!(SimTime::from_secs(3723).to_string(), "01:02:03");
    }
}
