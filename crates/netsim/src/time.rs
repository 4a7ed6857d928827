//! Simulation time: `u64` nanoseconds since the simulation epoch, wrapped in
//! newtypes so instants and durations cannot be confused and no floating
//! point enters the event engine.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time (ns since epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time (ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as `f64` (stats/reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Millis since epoch as `f64` (stats/reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is actually later (clock misuse in callers shows up as zero, not
    /// a wrap-around of half the u64 range).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds as `f64` (stats/reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as `f64` (stats/reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization time of `bytes` at `bandwidth_bps`, rounded up to the
    /// next nanosecond so a busy link can never transmit at infinite speed.
    pub fn transmission(bytes: usize, bandwidth_bps: u64) -> SimDuration {
        assert!(bandwidth_bps > 0, "zero-bandwidth link");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bandwidth_bps as u128);
        SimDuration(ns as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t.as_nanos(), 10_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(10));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO, "saturating");
        assert_eq!(SimDuration::from_millis(10) * 3, SimDuration::from_millis(30));
        assert_eq!(SimDuration::from_millis(30) / 3, SimDuration::from_millis(10));
    }

    #[test]
    fn transmission_time_1500b_at_20mbps() {
        // 1500 bytes at 20 Mbit/s = 600 µs.
        let d = SimDuration::transmission(1500, 20_000_000);
        assert_eq!(d, SimDuration::from_micros(600));
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s, must round up.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn transmission_zero_bytes_is_zero() {
        assert_eq!(SimDuration::transmission(0, 1_000_000), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn transmission_zero_bandwidth_panics() {
        let _ = SimDuration::transmission(1, 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_nanos(42).to_string(), "42ns");
    }
}
