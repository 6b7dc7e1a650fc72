//! Rack recharge power as a function of charging current.

use serde::{Deserialize, Serialize};

use recharge_battery::BbuParams;
use recharge_units::{Amperes, Watts};

/// Linear model of rack recharge power versus per-BBU charging current.
///
/// During the CC phase — the phase that matters for breaker protection,
/// because it is when the power draw peaks — rack recharge power is
/// proportional to the commanded current (§V-B: "CC power would be a constant
/// 1.9 kW" at 5 A). The controller uses this model to translate current
/// assignments into power demand against the available budget.
///
/// # Examples
///
/// ```
/// use recharge_core::RechargePowerModel;
/// use recharge_units::Amperes;
///
/// let model = RechargePowerModel::production();
/// let at_5a = model.rack_power(Amperes::new(5.0));
/// assert!((1.7..2.0).contains(&at_5a.as_kilowatts())); // ≈1.9 kW
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RechargePowerModel {
    watts_per_amp: Watts,
}

impl RechargePowerModel {
    /// The model for the calibrated production battery (≈374 W per ampere):
    /// each of the rack's BBUs draws `V_cc→cv × I × loss` from the wall at
    /// the top of its CC phase.
    #[must_use]
    pub fn production() -> Self {
        let params = BbuParams::production();
        let per_amp = params.cc_to_cv_voltage.as_volts()
            * params.wall_loss_factor
            * f64::from(params.bbus_per_rack);
        RechargePowerModel {
            watts_per_amp: Watts::new(per_amp),
        }
    }

    /// Peak (CC-phase) rack recharge power at the given per-BBU current.
    #[must_use]
    pub fn rack_power(&self, current: Amperes) -> Watts {
        self.watts_per_amp * current.as_amps()
    }

    /// The largest per-BBU current whose rack power fits in `budget`,
    /// unclamped (may fall outside the 1–5 A hardware range).
    #[must_use]
    pub fn current_for_power(&self, budget: Watts) -> Amperes {
        Amperes::new((budget / self.watts_per_amp).max(0.0))
    }
}

impl Default for RechargePowerModel {
    fn default() -> Self {
        RechargePowerModel::production()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_anchors() {
        let m = RechargePowerModel::production();
        // §III-A / §V-A anchors: ~1.9 kW at 5 A, ~700 W at 2 A, ~350 W at 1 A.
        assert!((1.7..2.0).contains(&m.rack_power(Amperes::new(5.0)).as_kilowatts()));
        let w2 = m.rack_power(Amperes::new(2.0)).as_watts();
        assert!((680.0..800.0).contains(&w2), "2 A → {w2} W");
        let w1 = m.rack_power(Amperes::new(1.0)).as_watts();
        assert!((340.0..400.0).contains(&w1), "1 A → {w1} W");
    }

    #[test]
    fn linearity() {
        let m = RechargePowerModel {
            watts_per_amp: Watts::new(100.0),
        };
        assert_eq!(m.rack_power(Amperes::new(3.0)), Watts::new(300.0));
        assert_eq!(m.current_for_power(Watts::new(250.0)), Amperes::new(2.5));
        assert_eq!(m.current_for_power(Watts::new(-5.0)), Amperes::ZERO);
    }

    #[test]
    fn round_trip() {
        let m = RechargePowerModel::production();
        let i = Amperes::new(3.3);
        let back = m.current_for_power(m.rack_power(i));
        assert!((back.as_amps() - 3.3).abs() < 1e-9);
    }
}
