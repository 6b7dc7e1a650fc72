//! Energy quantities.

use serde::{Deserialize, Serialize};

use crate::macros::scalar_newtype;
use crate::power::Watts;
use crate::time::Seconds;

/// Energy in joules (watt-seconds).
///
/// Battery capacity, discharged energy, and recharged energy are all tracked in
/// joules. Watt-hour accessors are provided because battery data sheets quote
/// capacity in Wh (a full BBU discharge in the paper is 3,300 W × 90 s = 82.5 Wh).
///
/// # Examples
///
/// ```
/// use recharge_units::{Joules, Watts, Seconds};
///
/// let full_discharge = Watts::new(3_300.0) * Seconds::new(90.0);
/// assert!((full_discharge.as_watt_hours() - 82.5).abs() < 1e-9);
/// assert_eq!(full_discharge, Joules::new(297_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Joules(pub(crate) f64);

scalar_newtype!(Joules, "J");

impl Joules {
    /// Creates an energy value from joules.
    #[must_use]
    pub const fn new(joules: f64) -> Self {
        Joules(joules)
    }

    /// The value in joules.
    #[must_use]
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// The value in watt-hours.
    #[must_use]
    pub fn as_watt_hours(self) -> f64 {
        self.0 / 3_600.0
    }
}

impl core::ops::Div<Seconds> for Joules {
    type Output = Watts;

    /// Energy spread over a duration yields average power.
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.0 / rhs.as_secs())
    }
}

impl core::ops::Div<Watts> for Joules {
    type Output = Seconds;

    /// Energy delivered at a constant power yields the time required.
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.0 / rhs.as_watts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_hour_round_trip() {
        let e = Joules::new(297_000.0);
        assert_eq!(e.as_watt_hours(), 82.5);
    }

    #[test]
    fn energy_over_time_is_power() {
        let e = Joules::new(1_200.0);
        assert_eq!(e / Seconds::new(60.0), Watts::new(20.0));
    }

    #[test]
    fn energy_over_power_is_time() {
        let e = Joules::new(297_000.0);
        let t = e / Watts::new(3_300.0);
        assert_eq!(t, Seconds::new(90.0));
    }

    #[test]
    fn arithmetic() {
        let a = Joules::new(10.0);
        let b = Joules::new(4.0);
        assert_eq!(a + b, Joules::new(14.0));
        assert_eq!(a - b, Joules::new(6.0));
        assert_eq!(a / b, 2.5);
        assert_eq!((a * 0.5).as_joules(), 5.0);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Joules::new(2.0)), "2.000 J");
    }
}
