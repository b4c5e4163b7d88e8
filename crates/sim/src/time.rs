//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is integer **microseconds** since the start of the
//! run. Integer time is load-bearing for the whole system: belief states in
//! `augur-inference` are compared and hashed for *exact* compaction,
//! and ground truth and hypotheses must predict the same instants
//! bit-for-bit. Floating-point time would break both.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant in virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The latest representable instant; used as "never" in schedulers.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (display/plotting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier > self`; callers are expected to know event order.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self
            .0
            .checked_sub(earlier.0)
            .expect("Time::since: earlier instant is after self"))
    }

    /// The span from `earlier` to `self`, or `Dur::ZERO` if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow (useful with `Time::MAX` sentinels).
    pub fn checked_add(self, d: Dur) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }

    /// Saturating addition; sticks at `Time::MAX`.
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// The longest representable span; used as "forever".
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000)
    }

    /// Construct from float seconds, rounding to the nearest microsecond.
    ///
    /// # Panics
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s.is_finite() && s >= 0.0, "Dur::from_secs_f64({s})");
        Dur((s * 1e6).round() as u64)
    }

    /// Length in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in float milliseconds (for utility discounting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in float seconds (display/plotting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Integer multiplication, saturating.
    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Dur) -> Option<Dur> {
        self.0.checked_sub(other.0).map(Dur)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.checked_add(d.0).expect("Time + Dur overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, d: Dur) -> Time {
        Time(self.0.checked_sub(d.0).expect("Time - Dur underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, other: Dur) -> Dur {
        Dur(self.0.checked_add(other.0).expect("Dur + Dur overflow"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, other: Dur) {
        *self = *self + other;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, other: Dur) -> Dur {
        Dur(self.0.checked_sub(other.0).expect("Dur - Dur underflow"))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, other: Dur) {
        *self = *self - other;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "forever")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(3), Time::from_millis(3_000));
        assert_eq!(Time::from_millis(5), Time::from_micros(5_000));
        assert_eq!(Dur::from_secs(1), Dur::from_micros(1_000_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::from_secs(10);
        let d = Dur::from_millis(250);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert_eq!(a.saturating_since(b), Dur::ZERO);
        assert_eq!(b.saturating_since(a), Dur::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "earlier instant is after self")]
    fn since_panics_backwards() {
        let _ = Time::from_secs(1).since(Time::from_secs(2));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(Time::MAX.checked_add(Dur::from_micros(1)).is_none());
        assert_eq!(
            Time::ZERO.checked_add(Dur::from_secs(1)),
            Some(Time::from_secs(1))
        );
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Dur::from_secs_f64(0.0015), Dur::from_micros(1_500));
        assert!((Dur::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((Dur::from_millis(7).as_millis_f64() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dur::from_micros(12).to_string(), "12us");
        assert_eq!(Dur::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Dur::from_secs(12).to_string(), "12.000s");
        assert_eq!(Dur::MAX.to_string(), "forever");
        assert_eq!(Time::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_millis(999) < Time::from_secs(1));
        assert!(Dur::from_micros(1) > Dur::ZERO);
    }
}
