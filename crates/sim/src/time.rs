//! Simulation time: a monotone clock with millisecond resolution.
//!
//! Traces span seven days (604,800,000 ms), so `u64` milliseconds leave ample
//! headroom while keeping arithmetic cheap and exact.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in milliseconds since the start of
/// the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span between two [`SimTime`] instants, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event may be scheduled at `MAX`.
    pub const MAX: SimTime = SimTime(u64::MAX);
    /// The most whole hours [`from_hours`](SimTime::from_hours) takes: one
    /// more and the milliseconds overflow `u64`.
    pub const MAX_HOURS: u64 = u64::MAX / 3_600_000;

    /// An instant `ms` milliseconds after the start of the run.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// An instant `s` seconds after the start of the run.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// An instant `m` minutes after the start of the run.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// An instant `h` hours after the start of the run.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }

    /// An instant `d` days after the start of the run.
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        SimTime(d * 86_400_000)
    }

    /// Milliseconds since the start of the run.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the start of the run.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional hours since the start of the run (for plotting).
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// A span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }

    /// A span of `m` minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// A span of `h` hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// A span of `d` days.
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000)
    }

    /// The span in milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The span in whole seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Multiply the span by an integer factor (saturating).
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

rvs_checkpoint::persist_struct!(SimTime { 0 });

rvs_checkpoint::persist_struct!(SimDuration { 0 });

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let h = ms / 3_600_000;
        let m = (ms / 60_000) % 60;
        let s = (ms / 1_000) % 60;
        let rem = ms % 1_000;
        if rem == 0 {
            write!(f, "{h:03}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:03}:{m:02}:{s:02}.{rem:03}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_largest_hour_count_converts_exactly() {
        let t = SimTime::from_hours(SimTime::MAX_HOURS);
        assert_eq!(t.as_millis() / 3_600_000, SimTime::MAX_HOURS);
        assert_eq!(t.as_millis() % 3_600_000, 0);
        assert!(u64::MAX - t.as_millis() < 3_600_000, "no larger hour fits");
        assert_eq!(
            SimDuration::from_hours(SimTime::MAX_HOURS).as_millis(),
            t.as_millis()
        );
        assert_eq!((SimTime::MAX_HOURS + 1).checked_mul(3_600_000), None);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_days(1), SimTime::from_hours(24));
        assert_eq!(SimTime::from_days(7).as_millis(), 604_800_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_hours(3);
        let d = SimDuration::from_mins(90);
        let t2 = t + d;
        assert_eq!(t2 - t, d);
        assert_eq!(t2.since(t), d);
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_secs(5);
        t += SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(10));
    }

    #[test]
    fn hours_f64_is_fractional() {
        let t = SimTime::from_mins(90);
        assert!((t.as_hours_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_millis(u64::MAX)
                .saturating_mul(2)
                .as_millis(),
            u64::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_hours(12).to_string(), "012:00:00");
        assert_eq!(SimTime::from_millis(3_661_500).to_string(), "001:01:01.500");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2000ms");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
