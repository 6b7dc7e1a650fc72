//! Simulated time: durations and instants.
//!
//! The simulators in this workspace integrate physics and replay traces over
//! spans from seconds (open transitions) to 10⁵ years (Monte-Carlo reliability
//! runs), so time is represented as `f64` seconds rather than `std::time`
//! types, which makes the arithmetic with power and charge direct.

use serde::{Deserialize, Serialize};

use crate::macros::scalar_newtype;

/// A span of simulated time, in seconds.
///
/// # Examples
///
/// ```
/// use recharge_units::Seconds;
///
/// let open_transition = Seconds::new(45.0);
/// let charge_sla = Seconds::from_minutes(30.0);
/// assert!(open_transition < charge_sla);
/// assert_eq!(charge_sla.as_minutes(), 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seconds(pub(crate) f64);

scalar_newtype!(Seconds, "s");

impl Seconds {
    /// Creates a duration from seconds.
    #[must_use]
    pub const fn new(secs: f64) -> Self {
        Seconds(secs)
    }

    /// Creates a duration from minutes.
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Self {
        Seconds(minutes * 60.0)
    }

    /// Creates a duration from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Seconds(hours * 3_600.0)
    }

    /// Creates a duration from days.
    #[must_use]
    pub fn from_days(days: f64) -> Self {
        Seconds(days * 86_400.0)
    }

    /// Creates a duration from (365-day) years.
    #[must_use]
    pub fn from_years(years: f64) -> Self {
        Seconds(years * 365.0 * 86_400.0)
    }

    /// The value in seconds.
    #[must_use]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }
}

/// An absolute instant on the simulation clock, as seconds since the start of
/// the run.
///
/// `SimTime` and [`Seconds`] are kept distinct so that instants cannot be
/// accidentally added together; only `SimTime ± Seconds` and
/// `SimTime − SimTime → Seconds` are provided.
///
/// # Examples
///
/// ```
/// use recharge_units::{Seconds, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + Seconds::from_minutes(30.0);
/// assert_eq!(later - start, Seconds::from_minutes(30.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds since simulation start.
    #[must_use]
    pub const fn from_secs(secs: f64) -> Self {
        SimTime(secs)
    }

    /// Seconds since simulation start.
    #[must_use]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Elapsed time since `earlier`.
    ///
    /// Equivalent to `self - earlier` but reads better at call sites that want
    /// to emphasize direction.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Seconds {
        Seconds(self.0 - earlier.0)
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl core::ops::Add<Seconds> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Seconds) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<Seconds> for SimTime {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub<Seconds> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Seconds) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl core::ops::Sub<SimTime> for SimTime {
    type Output = Seconds;
    fn sub(self, rhs: SimTime) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(Seconds::from_minutes(1.5).as_secs(), 90.0);
        assert_eq!(Seconds::from_hours(2.0).as_minutes(), 120.0);
        assert_eq!(Seconds::from_days(1.0).as_minutes(), 1_440.0);
        assert_eq!(Seconds::from_years(1.0).as_secs(), 31_536_000.0);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::from_secs(100.0);
        let t1 = t0 + Seconds::new(20.0);
        assert_eq!(t1.as_secs(), 120.0);
        assert_eq!(t1 - t0, Seconds::new(20.0));
        assert_eq!(t1.since(t0), Seconds::new(20.0));
        assert_eq!(t1 - Seconds::new(120.0), SimTime::ZERO);
    }

    #[test]
    fn instant_add_assign() {
        let mut t = SimTime::ZERO;
        t += Seconds::new(3.0);
        assert_eq!(t.as_secs(), 3.0);
    }

    #[test]
    fn instant_min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Seconds::new(1.0)), "1.000 s");
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "t=2.000s");
    }
}
