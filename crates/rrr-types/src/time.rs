//! Simulation time, durations, and the fixed-duration analysis windows the
//! signal techniques operate on (§4.1.2 footnote 1, §4.2.1).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds since the start of the simulated measurement campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

/// A span of simulated time, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(pub u64);

impl Duration {
    pub const fn secs(s: u64) -> Self {
        Duration(s)
    }
    pub const fn minutes(m: u64) -> Self {
        Duration(m * 60)
    }
    pub const fn hours(h: u64) -> Self {
        Duration(h * 3600)
    }
    pub const fn days(d: u64) -> Self {
        Duration(d * 86_400)
    }
    pub fn as_secs(self) -> u64 {
        self.0
    }
}

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);

    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Integer division: which day of the campaign this instant falls in.
    pub fn day(self) -> u64 {
        self.0 / 86_400
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / 86_400;
        let rem = self.0 % 86_400;
        write!(f, "d{:02}+{:02}:{:02}:{:02}", d, rem / 3600, (rem % 3600) / 60, rem % 60)
    }
}

/// A window index under a given [`WindowConfig`] — the unit at which the
/// paper's time series are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Window(pub u64);

impl Window {
    pub fn index(self) -> u64 {
        self.0
    }
    pub fn next(self) -> Window {
        Window(self.0 + 1)
    }
}

/// Fixed-duration windowing of the campaign timeline.
///
/// The paper uses 15 minutes for BGP-derived series (the RouteViews dump
/// cycle) and between 15 minutes and 24 hours for traceroute-derived series,
/// the smallest duration that still yields 20 consecutive populated windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window duration.
    pub duration: Duration,
}

impl WindowConfig {
    /// The paper's BGP window: 15 minutes.
    pub const BGP: WindowConfig = WindowConfig { duration: Duration::minutes(15) };

    /// Minimum traceroute window duration (§4.2.1).
    pub const MIN_TRACE: Duration = Duration::minutes(15);
    /// Maximum traceroute window duration (§4.2.1).
    pub const MAX_TRACE: Duration = Duration::hours(24);
    /// Minimum consecutive populated windows required before a series is
    /// eligible for outlier detection (§4.2.1, "widely considered as the
    /// minimum recommended number of observations").
    pub const MIN_WINDOWS: usize = 20;

    pub fn new(duration: Duration) -> Self {
        assert!(duration.0 > 0, "window duration must be positive");
        WindowConfig { duration }
    }

    /// The window containing instant `t`.
    pub fn window_of(self, t: Timestamp) -> Window {
        Window(t.0 / self.duration.0)
    }

    /// The half-open interval `[start, end)` of a window.
    pub fn bounds(self, w: Window) -> (Timestamp, Timestamp) {
        (Timestamp(w.0 * self.duration.0), Timestamp((w.0 + 1) * self.duration.0))
    }

    /// Number of whole windows in a campaign of length `total`.
    pub fn count(self, total: Duration) -> u64 {
        total.0 / self.duration.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::minutes(15).as_secs(), 900);
        assert_eq!(Duration::hours(2).as_secs(), 7200);
        assert_eq!(Duration::days(1).as_secs(), 86_400);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp(100) + Duration::secs(50);
        assert_eq!(t, Timestamp(150));
        assert_eq!(t - Timestamp(100), Duration(50));
        // saturating subtraction
        assert_eq!(Timestamp(10) - Timestamp(100), Duration(0));
        let mut t2 = Timestamp::ZERO;
        t2 += Duration::days(2);
        assert_eq!(t2.day(), 2);
    }

    #[test]
    fn windowing() {
        let cfg = WindowConfig::BGP;
        assert_eq!(cfg.window_of(Timestamp(0)), Window(0));
        assert_eq!(cfg.window_of(Timestamp(899)), Window(0));
        assert_eq!(cfg.window_of(Timestamp(900)), Window(1));
        let (s, e) = cfg.bounds(Window(2));
        assert_eq!(s, Timestamp(1800));
        assert_eq!(e, Timestamp(2700));
        assert_eq!(cfg.count(Duration::days(1)), 96);
    }

    #[test]
    fn display_format() {
        assert_eq!(Timestamp(0).to_string(), "d00+00:00:00");
        assert_eq!(Timestamp(90_061).to_string(), "d01+01:01:01");
    }

    #[test]
    #[should_panic]
    fn zero_duration_rejected() {
        let _ = WindowConfig::new(Duration(0));
    }
}
