//! Virtual time used by the deterministic runtime and the network simulator.
//!
//! Time is measured in microseconds since the start of a run. Using a
//! dedicated newtype (instead of `std::time::Instant`) keeps every protocol
//! state machine deterministic and lets the same code run on the simulated
//! clock and on a wall-clock driven in-process transport.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The origin of virtual time.
    pub const ZERO: Time = Time(0);

    /// Builds a time stamp from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000)
    }

    /// Builds a time stamp from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000)
    }

    /// Builds a time stamp from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Returns the number of whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference between two time stamps.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a duration from fractional seconds (rounded down to µs).
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s * 1e6).max(0.0) as u64)
    }

    /// Returns the number of whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds (rounded down).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Divides the duration by an integer divisor (divisor must be non-zero).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, divisor: u64) -> Duration {
        Duration(self.0 / divisor)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(Time::from_secs(2), Time::from_millis(2000));
        assert_eq!(Time::from_millis(3), Time::from_micros(3000));
        assert_eq!(Duration::from_secs(1).as_millis(), 1000);
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn arithmetic_behaves() {
        let t = Time::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t, Time::from_millis(1500));
        assert_eq!(t - Time::from_secs(1), Duration::from_millis(500));
        // Subtraction saturates instead of panicking.
        assert_eq!(Time::from_secs(1) - Time::from_secs(2), Duration::ZERO);
        let mut d = Duration::from_secs(1);
        d += Duration::from_secs(2);
        assert_eq!(d, Duration::from_secs(3));
        assert_eq!(d - Duration::from_secs(1), Duration::from_secs(2));
    }

    #[test]
    fn scaling() {
        assert_eq!(
            Duration::from_millis(10).saturating_mul(3),
            Duration::from_millis(30)
        );
        assert_eq!(Duration::from_millis(10).div(2), Duration::from_millis(5));
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }

    #[test]
    fn float_conversions() {
        assert!((Time::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((Duration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-9);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Time::from_secs(1) < Time::from_secs(2));
        assert!(Duration::from_millis(1) < Duration::from_millis(2));
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500s");
        assert_eq!(format!("{:?}", Duration::from_micros(7)), "7us");
    }

    #[test]
    fn saturating_since() {
        let a = Time::from_secs(5);
        let b = Time::from_secs(3);
        assert_eq!(a.saturating_since(b), Duration::from_secs(2));
        assert_eq!(b.saturating_since(a), Duration::ZERO);
    }
}
