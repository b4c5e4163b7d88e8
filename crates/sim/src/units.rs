//! Integer-valued physical units used throughout the element language.
//!
//! Everything that becomes part of a belief-state's identity must be an
//! integer (hypotheses are hashed and compared exactly), so link rates
//! are whole bits per second, packet sizes are whole bits, and
//! probabilities are parts-per-million.

use crate::time::Dur;
use std::fmt;

/// A link rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRate(u64);

impl BitRate {
    /// Construct from bits per second.
    ///
    /// # Panics
    /// Panics on a zero rate; a zero-rate link never drains and every
    /// service-time computation would overflow. Model an unusable link with
    /// a gate element instead.
    pub fn from_bps(bps: u64) -> BitRate {
        assert!(bps > 0, "BitRate must be positive");
        BitRate(bps)
    }

    /// Construct from kilobits (1000 bits) per second.
    pub fn from_kbps(kbps: u64) -> BitRate {
        BitRate::from_bps(kbps * 1_000)
    }

    /// The rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bits` onto this link, rounded up to a whole
    /// microsecond so that a busy link is never modeled as instantaneously
    /// free.
    pub fn service_time(self, bits: Bits) -> Dur {
        let us = (bits.as_u64() as u128 * 1_000_000).div_ceil(self.0 as u128);
        Dur::from_micros(u64::try_from(us).expect("service time overflows u64 microseconds"))
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbps", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}kbps", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// A quantity of data in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(u64);

impl Bits {
    /// The empty quantity.
    pub const ZERO: Bits = Bits(0);

    /// Construct from a bit count.
    pub const fn new(bits: u64) -> Bits {
        Bits(bits)
    }

    /// Construct from a byte count.
    pub const fn from_bytes(bytes: u64) -> Bits {
        Bits(bytes * 8)
    }

    /// The count in bits.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The count in bits as a float (for utility accounting).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Bits) -> Bits {
        Bits(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: Bits) -> Option<Bits> {
        self.0.checked_add(other.0).map(Bits)
    }
}

impl std::ops::Add for Bits {
    type Output = Bits;
    fn add(self, other: Bits) -> Bits {
        Bits(self.0.checked_add(other.0).expect("Bits + Bits overflow"))
    }
}

impl std::ops::AddAssign for Bits {
    fn add_assign(&mut self, other: Bits) {
        *self = *self + other;
    }
}

impl std::ops::Sub for Bits {
    type Output = Bits;
    fn sub(self, other: Bits) -> Bits {
        Bits(self.0.checked_sub(other.0).expect("Bits - Bits underflow"))
    }
}

impl std::ops::SubAssign for Bits {
    fn sub_assign(&mut self, other: Bits) {
        *self = *self - other;
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.0)
    }
}

/// A probability in parts per million: `Ppm(200_000)` is 0.2.
///
/// Stored as an integer so element parameters stay `Eq + Hash`; converted
/// to `f64` only at the point of weighting or sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppm(u32);

impl Ppm {
    /// Probability zero.
    pub const ZERO: Ppm = Ppm(0);
    /// Probability one.
    pub const ONE: Ppm = Ppm(1_000_000);

    /// Construct from parts per million.
    ///
    /// # Panics
    /// Panics if `ppm` exceeds one million.
    pub fn new(ppm: u32) -> Ppm {
        assert!(ppm <= 1_000_000, "Ppm({ppm}) exceeds 1.0");
        Ppm(ppm)
    }

    /// Construct from a float probability, rounding to the nearest ppm.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn from_prob(p: f64) -> Ppm {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        Ppm((p * 1e6).round() as u32)
    }

    /// The raw parts-per-million value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The probability as a float in `[0, 1]`.
    pub fn prob(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The complement `1 - p`.
    pub fn complement(self) -> Ppm {
        Ppm(1_000_000 - self.0)
    }

    /// True iff the probability is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True iff the probability is exactly one.
    pub fn is_one(self) -> bool {
        self.0 == 1_000_000
    }
}

impl fmt::Display for Ppm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.prob())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_exact_division() {
        // 12_000 bits at 12_000 bps is exactly one second.
        let r = BitRate::from_bps(12_000);
        assert_eq!(r.service_time(Bits::new(12_000)), Dur::from_secs(1));
    }

    #[test]
    fn service_time_rounds_up() {
        // 1 bit at 3 bps: 333_333.33 us rounds up to 333_334.
        let r = BitRate::from_bps(3);
        assert_eq!(r.service_time(Bits::new(1)), Dur::from_micros(333_334));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = BitRate::from_bps(0);
    }

    #[test]
    fn rate_constructors() {
        assert_eq!(BitRate::from_kbps(12).as_bps(), 12_000);
    }

    #[test]
    fn bits_bytes() {
        assert_eq!(Bits::from_bytes(1_500), Bits::new(12_000));
    }

    #[test]
    fn ppm_roundtrip() {
        let p = Ppm::from_prob(0.2);
        assert_eq!(p.as_u32(), 200_000);
        assert!((p.prob() - 0.2).abs() < 1e-9);
        assert_eq!(p.complement(), Ppm::from_prob(0.8));
        assert!(Ppm::ZERO.is_zero());
        assert!(Ppm::ONE.is_one());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn ppm_rejects_overflow() {
        let _ = Ppm::new(1_000_001);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BitRate::from_bps(12_000).to_string(), "12.000kbps");
        assert_eq!(BitRate::from_bps(3_000_000).to_string(), "3.000Mbps");
        assert_eq!(Bits::new(42).to_string(), "42b");
        assert_eq!(Ppm::from_prob(0.25).to_string(), "0.2500");
    }

    #[test]
    fn service_time_large_values_no_overflow() {
        let r = BitRate::from_bps(1);
        // u64::MAX bits at 1 bps would overflow u64 microseconds; make sure
        // we catch it rather than silently wrapping.
        let big = Bits::new(u64::MAX / 1_000_000);
        let _ = r.service_time(big); // fits: ~1.8e13 * 1e6 / 1 fits in u128
    }
}
