//! Electrical quantities: current, voltage, resistance, and charge.

use serde::{Deserialize, Serialize};

use crate::macros::scalar_newtype;
use crate::power::Watts;

/// Electric current in amperes.
///
/// Battery charging currents in the paper live in the hardware range
/// **1 A – 5 A**; the named constants [`Amperes::MIN_CHARGE`] and
/// [`Amperes::MAX_CHARGE`] capture that range.
///
/// # Examples
///
/// ```
/// use recharge_units::{Amperes, Volts};
///
/// let current = Amperes::new(5.0).clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE);
/// let power = Volts::new(52.0) * current;
/// assert_eq!(power.as_watts(), 260.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Amperes(pub(crate) f64);

scalar_newtype!(Amperes, "A");

impl Amperes {
    /// Minimum charging current the variable charger hardware supports (1 A).
    pub const MIN_CHARGE: Amperes = Amperes(1.0);

    /// Maximum charging current the variable charger hardware supports (5 A).
    pub const MAX_CHARGE: Amperes = Amperes(5.0);

    /// Creates a current value from amperes.
    #[must_use]
    pub const fn new(amps: f64) -> Self {
        Amperes(amps)
    }

    /// The value in amperes.
    #[must_use]
    pub const fn as_amps(self) -> f64 {
        self.0
    }
}

/// Electric potential in volts.
///
/// The BBU charger transitions from constant-current to constant-voltage mode at
/// 52 V and holds 52.5 V during the constant-voltage phase.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Volts(pub(crate) f64);

scalar_newtype!(Volts, "V");

impl Volts {
    /// Creates a potential value from volts.
    #[must_use]
    pub const fn new(volts: f64) -> Self {
        Volts(volts)
    }

    /// The value in volts.
    #[must_use]
    pub const fn as_volts(self) -> f64 {
        self.0
    }
}

/// Electrical resistance in ohms.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Ohms(pub(crate) f64);

scalar_newtype!(Ohms, "Ω");

impl Ohms {
    /// Creates a resistance value from ohms.
    #[must_use]
    pub const fn new(ohms: f64) -> Self {
        Ohms(ohms)
    }

    /// The value in ohms.
    #[must_use]
    pub const fn as_ohms(self) -> f64 {
        self.0
    }
}

// --- Physical relations -----------------------------------------------------

impl core::ops::Mul<Amperes> for Volts {
    type Output = Watts;

    /// P = V · I.
    fn mul(self, rhs: Amperes) -> Watts {
        Watts::new(self.0 * rhs.0)
    }
}

impl core::ops::Mul<Volts> for Amperes {
    type Output = Watts;

    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl core::ops::Div<Ohms> for Volts {
    type Output = Amperes;

    /// I = V / R.
    fn div(self, rhs: Ohms) -> Amperes {
        Amperes(self.0 / rhs.0)
    }
}

impl core::ops::Mul<Ohms> for Amperes {
    type Output = Volts;

    /// V = I · R.
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

impl core::ops::Div<Volts> for Watts {
    type Output = Amperes;

    /// I = P / V.
    fn div(self, rhs: Volts) -> Amperes {
        Amperes(self.as_watts() / rhs.0)
    }
}

impl core::ops::Div<Amperes> for Watts {
    type Output = Volts;

    /// V = P / I.
    fn div(self, rhs: Amperes) -> Volts {
        Volts(self.as_watts() / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_relations() {
        let v = Volts::new(52.0);
        let r = Ohms::new(0.5);
        let i = v / r;
        assert_eq!(i, Amperes::new(104.0));
        assert_eq!(i * r, v);
    }

    #[test]
    fn power_relations() {
        let p = Volts::new(52.0) * Amperes::new(5.0);
        assert_eq!(p, Watts::new(260.0));
        assert_eq!(Amperes::new(5.0) * Volts::new(52.0), p);
        assert_eq!(p / Volts::new(52.0), Amperes::new(5.0));
        assert_eq!(p / Amperes::new(5.0), Volts::new(52.0));
    }

    #[test]
    fn hardware_charge_range_constants() {
        assert_eq!(Amperes::MIN_CHARGE.as_amps(), 1.0);
        assert_eq!(Amperes::MAX_CHARGE.as_amps(), 5.0);
        assert_eq!(
            Amperes::new(7.0).clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE),
            Amperes::MAX_CHARGE
        );
    }
}
