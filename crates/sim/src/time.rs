//! Simulated time.
//!
//! [`SimTime`] is a nanosecond-resolution instant (or span — the simulation
//! treats both uniformly, like a monotonic clock offset from zero). SmartNIC
//! events of interest range from ~1ns (L1 hit) to tens of ms (actor
//! migration), all of which fit comfortably in a `u64` of nanoseconds
//! (~584 years of range).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from a floating-point number of microseconds (common unit in
    /// the paper's figures). Negative and NaN inputs clamp to zero.
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn from_us_f64(us: f64) -> Self {
        if us.is_nan() || us <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((us * 1_000.0).round() as u64)
    }

    /// Construct from a floating-point number of seconds.
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// As floating-point microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As floating-point milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// As floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The larger of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// Scale a span by a dimensionless factor (e.g. frequency ratios in the
    /// hardware model). Clamps negative/NaN factors to zero.
    #[expect(clippy::cast_possible_truncation, reason = "rounds to whole ns")]
    pub fn scale(self, factor: f64) -> SimTime {
        if factor.is_nan() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((self.0 as f64 * factor).round() as u64)
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
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimTime::from_us_f64(1.5).as_ns(), 1_500);
    }

    #[test]
    fn float_conversions_roundtrip() {
        let t = SimTime::from_ns(2_345_678);
        assert!((t.as_us_f64() - 2345.678).abs() < 1e-9);
        assert!((t.as_ms_f64() - 2.345678).abs() < 1e-12);
        assert!((t.as_secs_f64() - 0.002345678).abs() < 1e-15);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_us_f64(-4.0), SimTime::ZERO);
        assert_eq!(SimTime::from_us_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns(10).scale(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns(10).scale(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 3, SimTime::from_us(30));
        assert_eq!(a / 2, SimTime::from_us(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(SimTime::from_ns(100).scale(1.5), SimTime::from_ns(150));
        assert_eq!(SimTime::from_ns(3).scale(0.5), SimTime::from_ns(2)); // round half to even? (1.5 -> 2)
    }

    #[test]
    fn sum_and_display() {
        let total: SimTime = [SimTime::from_us(1), SimTime::from_us(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_us(3));
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX.checked_add(SimTime::from_ns(1)).is_none());
        assert_eq!(
            SimTime::from_ns(1).checked_add(SimTime::from_ns(2)),
            Some(SimTime::from_ns(3))
        );
    }
}
