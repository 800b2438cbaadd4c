//! Virtual time.
//!
//! The substrate is a discrete-event simulation; all latencies, CPU costs
//! and timeouts are expressed in virtual **microseconds**. Using a newtype
//! (rather than `std::time`) keeps simulated time strictly separated from
//! wall-clock time and makes event ordering explicit and deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use bytes::{Buf, BufMut};

use crate::wire::{Wire, WireError};

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span in (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        micros_f64(self.0) / 1e6
    }

    /// Multiply by an integer factor (saturating).
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

/// Microseconds as an `f64`, for display and reports only.
#[expect(
    clippy::as_conversions,
    reason = "no `From<u64>` for `f64`; rounding starts at 2^53 us (285 years)"
)]
fn micros_f64(us: u64) -> f64 {
    us as f64
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

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", micros_f64(self.0) / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", micros_f64(self.0) / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", micros_f64(self.0) / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", micros_f64(self.0) / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Wire for Time {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.0);
    }
    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 8 {
            return Err(WireError::Truncated("Time"));
        }
        Ok(Time(buf.get_u64()))
    }
    fn wire_len(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t, Time(15));
        assert_eq!(t.since(Time(10)), Duration(5));
        assert_eq!(Time(3).since(Time(10)), Duration::ZERO, "saturating");
        assert_eq!(
            Duration::from_millis(2) + Duration::from_micros(1),
            Duration(2001)
        );
        assert_eq!(Duration::from_secs(1).as_millis(), 1000);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Time(5), Time(1), Time(9)];
        v.sort();
        assert_eq!(v, vec![Time(1), Time(5), Time(9)]);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Time(12)), "12us");
        assert_eq!(format!("{}", Time(1_500)), "1.5ms");
        assert_eq!(format!("{}", Time(2_500_000)), "2.500s");
    }

    #[test]
    fn saturation() {
        assert_eq!(Time(u64::MAX) + Duration(1), Time(u64::MAX));
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
        assert_eq!(Duration(5) - Duration(9), Duration::ZERO);
    }

    #[test]
    fn wire_roundtrip() {
        let t = Time(123_456_789);
        assert_eq!(crate::wire::roundtrip(&t).unwrap(), t);
    }
}
