//! Exact simulated time in picoseconds.
//!
//! Photonic signal flight is ~7 cm/ns in silicon waveguides (group index
//! ≈ 4.3), so per-node offsets on a centimetre-scale bus are tens of
//! picoseconds. Electronic network clocks in the paper run at 2.5 GHz
//! (400 ps). A `u64` picosecond counter covers > 200 days of simulated time,
//! far beyond any experiment here, with exact integer arithmetic throughout.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Duration(pub u64);

impl Time {
    /// Simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// A sentinel later than any reachable simulated time.
    pub const MAX: Time = Time(u64::MAX);

    /// Absolute time from a picosecond count.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Absolute time from a nanosecond count.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds since simulation start (fractional).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Microseconds since simulation start (fractional).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since simulation start (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self` (a causality bug in a model).
    pub fn since(self, earlier: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("Time::since: earlier timestamp is in the future"),
        )
    }

    /// Saturating difference; zero if `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Span from a picosecond count.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Span from a nanosecond count.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Span from a fractional nanosecond count (rounded to the nearest ps).
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns >= 0.0 && ns.is_finite(),
            "negative or non-finite duration"
        );
        Duration((ns * 1e3).round() as u64)
    }

    /// Span of one period of a clock with the given frequency in GHz.
    ///
    /// E.g. `Duration::from_freq_ghz(2.5)` is 400 ps; `from_freq_ghz(10.0)`
    /// is 100 ps (one 10 Gb/s bit slot).
    pub fn from_freq_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "clock frequency must be positive");
        Duration::from_ns_f64(1.0 / ghz)
    }

    /// Picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// `self * n` with overflow checking.
    pub fn checked_mul(self, n: u64) -> Option<Duration> {
        self.0.checked_mul(n).map(Duration)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    /// Integer number of `rhs` periods fitting in `self`.
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ps", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_ns(3).as_ps(), 3_000);
        assert_eq!(Duration::from_ns(2).as_ps(), 2_000);
        assert_eq!(Duration::from_ns_f64(0.4).as_ps(), 400);
        assert_eq!(Duration::from_ns_f64(0.1).as_ps(), 100);
    }

    #[test]
    fn clock_periods() {
        // 2.5 GHz electronic network clock -> 400 ps.
        assert_eq!(Duration::from_freq_ghz(2.5).as_ps(), 400);
        // 10 Gb/s photonic modulation -> 100 ps per bit slot.
        assert_eq!(Duration::from_freq_ghz(10.0).as_ps(), 100);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ns(1) + Duration::from_ps(500);
        assert_eq!(t.as_ps(), 1_500);
        assert_eq!(t.since(Time::from_ns(1)).as_ps(), 500);
        assert_eq!(Duration::from_ps(300) * 4, Duration::from_ps(1_200));
        assert_eq!(Duration::from_ps(1_200) / Duration::from_ps(400), 3);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_causality_violation() {
        let _ = Time::from_ps(1).since(Time::from_ps(2));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            Time::from_ps(1).saturating_since(Time::from_ps(2)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Time::from_ps(12)), "12ps");
        assert_eq!(format!("{}", Time::from_ps(1_500)), "1.500ns");
        assert_eq!(format!("{}", Time::from_ps(2_000_000)), "2.000us");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Time::from_ps(5), Time::ZERO, Time::from_ps(3)];
        v.sort();
        assert_eq!(v, vec![Time::ZERO, Time::from_ps(3), Time::from_ps(5)]);
    }
}
