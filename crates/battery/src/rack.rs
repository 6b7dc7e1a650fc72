//! Rack-level battery shelf: the six identical BBUs of an Open Rack V2 rack.

use serde::{Deserialize, Serialize};

use recharge_units::{Amperes, Dod, Seconds, Soc, Watts};

use crate::bbu::{Bbu, BbuState};
use crate::charger::ChargePolicy;
use crate::error::BatteryError;
use crate::params::BbuParams;

/// What one simulation step of a [`RackBatterySystem`] did, rack-aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackStepReport {
    /// State of the (identical) BBUs after the step.
    pub state: BbuState,
    /// Total battery power delivered to the rack's IT load.
    pub discharge_power: Watts,
    /// Total wall power drawn by all BBU chargers in the rack.
    pub recharge_power: Watts,
    /// Per-BBU charging current that flowed.
    pub charge_current: Amperes,
}

/// The battery subsystem of one rack.
///
/// All six BBUs in a rack share the same parameters, see the same input-power
/// events, and split the rack IT load evenly, so they stay in lock-step; the
/// system therefore simulates one representative BBU and scales its power by
/// the unit count. Rack-level recharge power with the calibrated defaults is
/// ≈ 0.37 kW per ampere of setpoint: ~1.9 kW at 5 A, ~0.73 kW at 2 A, and
/// ~0.37 kW at 1 A, matching §III-A and the Fig 10 plateaus.
///
/// # Examples
///
/// ```
/// use recharge_battery::{ChargePolicy, BbuParams, RackBatterySystem};
/// use recharge_units::{Seconds, Watts};
///
/// let mut rack = RackBatterySystem::new(BbuParams::default(), ChargePolicy::Variable);
///
/// // 60-second open transition at 6.3 kW of rack IT load.
/// rack.input_power_lost();
/// rack.step(Watts::from_kilowatts(6.3), Seconds::new(60.0));
/// rack.input_power_restored();
///
/// let report = rack.step(Watts::from_kilowatts(6.3), Seconds::new(1.0));
/// assert!(report.recharge_power > Watts::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackBatterySystem {
    representative: Bbu,
    count: u8,
}

impl RackBatterySystem {
    /// Creates a rack battery shelf with `params.bbus_per_rack` identical BBUs.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`BbuParams::validate`] — in particular a
    /// zero `bbus_per_rack` (constructible via serde) would otherwise turn
    /// every load-share division in [`step`](Self::step) into silent NaN.
    #[must_use]
    pub fn new(params: BbuParams, policy: ChargePolicy) -> Self {
        match RackBatterySystem::try_new(params, policy) {
            Ok(rack) => rack,
            Err(err) => panic!("invalid BBU parameters: {err}"),
        }
    }

    /// Creates a rack battery shelf, validating the parameters first.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidParams`] describing the first violated
    /// constraint (see [`BbuParams::validate`]); deserialized configurations
    /// with `bbus_per_rack: 0` are rejected here instead of yielding NaN load
    /// shares at step time.
    fn try_new(params: BbuParams, policy: ChargePolicy) -> Result<Self, BatteryError> {
        params.validate()?;
        Ok(RackBatterySystem {
            representative: Bbu::new(params, policy),
            count: params.bbus_per_rack,
        })
    }

    /// Number of BBUs in the rack.
    #[must_use]
    pub fn bbu_count(&self) -> u8 {
        self.count
    }

    /// State of the BBUs.
    #[must_use]
    pub fn state(&self) -> BbuState {
        self.representative.state()
    }

    /// State of charge of the BBUs.
    #[must_use]
    pub fn soc(&self) -> Soc {
        self.representative.soc()
    }

    /// Instantaneous depth of discharge of the BBUs.
    #[must_use]
    pub fn dod(&self) -> Dod {
        self.representative.dod()
    }

    /// DOD latched when the current charge sequence began — the quantity the
    /// leaf controller estimates and feeds to the SLA current calculation.
    #[must_use]
    pub fn event_dod(&self) -> Dod {
        self.representative.event_dod()
    }

    /// The representative BBU (all six are identical).
    #[must_use]
    pub fn bbu(&self) -> &Bbu {
        &self.representative
    }

    /// Whether the rack currently has its battery redundancy available.
    #[must_use]
    pub fn is_redundant(&self) -> bool {
        self.state() == BbuState::FullyCharged
    }

    /// The per-BBU charging setpoint currently in force.
    #[must_use]
    pub fn setpoint(&self) -> Amperes {
        self.representative.charger().setpoint()
    }

    /// Signals loss of rack input power to all BBUs.
    pub fn input_power_lost(&mut self) {
        self.representative.input_power_lost();
    }

    /// Signals restoration of rack input power to all BBUs.
    pub fn input_power_restored(&mut self) {
        self.representative.input_power_restored();
    }

    /// Applies a manual charging-current override (clamped to 1–5 A) to every
    /// BBU in the rack.
    pub fn set_override(&mut self, current: Amperes) {
        self.representative.charger_mut().set_override(current);
    }

    /// Clears the manual override on every BBU in the rack.
    pub fn clear_override(&mut self) {
        self.representative.charger_mut().clear_override();
    }

    /// Suspends or resumes charging on every BBU in the rack (the postponing
    /// extension; see [`Charger::set_postponed`](crate::Charger::set_postponed)).
    pub fn set_postponed(&mut self, postponed: bool) {
        self.representative.charger_mut().set_postponed(postponed);
    }

    /// Whether charging is currently postponed.
    #[must_use]
    pub fn is_postponed(&self) -> bool {
        self.representative.charger().is_postponed()
    }

    /// Advances the shelf by `dt` with the rack drawing `rack_it_load`.
    pub fn step(&mut self, rack_it_load: Watts, dt: Seconds) -> RackStepReport {
        let share = rack_it_load / f64::from(self.count);
        let report = self.representative.step(share, dt);
        RackStepReport {
            state: report.state,
            discharge_power: report.discharge_power * f64::from(self.count),
            recharge_power: report.recharge_wall_power * f64::from(self.count),
            charge_current: report.charge_current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> RackBatterySystem {
        RackBatterySystem::new(BbuParams::default(), ChargePolicy::Variable)
    }

    /// Discharge a rack for `secs` at `load_kw`, then restore power.
    fn discharge(rack: &mut RackBatterySystem, load_kw: f64, secs: f64) {
        rack.input_power_lost();
        rack.step(Watts::from_kilowatts(load_kw), Seconds::new(secs));
        rack.input_power_restored();
    }

    #[test]
    fn six_bbus_by_default() {
        assert_eq!(rack().bbu_count(), 6);
        assert!(rack().is_redundant());
    }

    #[test]
    fn zero_bbu_params_are_rejected_with_typed_error() {
        // Regression: BbuParams is serde-deserializable, so a config file can
        // carry bbus_per_rack: 0; construction must fail loudly instead of
        // stepping into NaN load shares.
        let params = BbuParams {
            bbus_per_rack: 0,
            ..BbuParams::default()
        };
        let err = RackBatterySystem::try_new(params, ChargePolicy::Variable).unwrap_err();
        assert!(
            matches!(&err, BatteryError::InvalidParams(msg) if msg.contains("bbus_per_rack")),
            "unexpected error: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "bbus_per_rack")]
    fn zero_bbu_params_panic_in_new() {
        let params = BbuParams {
            bbus_per_rack: 0,
            ..BbuParams::default()
        };
        let _ = RackBatterySystem::new(params, ChargePolicy::Variable);
    }

    #[test]
    fn load_split_across_bbus_gives_expected_dod() {
        let mut r = rack();
        // 6.3 kW rack load → 1.05 kW per BBU → 94.5 kJ in 90 s ≈ 31.8% DOD.
        discharge(&mut r, 6.3, 90.0);
        assert!(
            (r.event_dod().value() - 0.3185).abs() < 0.011,
            "dod={}",
            r.event_dod()
        );
    }

    #[test]
    fn rack_recharge_power_at_5a_is_about_1_9_kw() {
        let mut r = RackBatterySystem::new(BbuParams::default(), ChargePolicy::Original);
        discharge(&mut r, 12.6, 90.0);
        // Peak recharge power over the CC phase.
        let mut peak = Watts::ZERO;
        for _ in 0..600 {
            peak = peak.max(r.step(Watts::ZERO, Seconds::new(1.0)).recharge_power);
        }
        assert!(
            (1_500.0..2_100.0).contains(&peak.as_watts()),
            "5 A rack recharge peak {} should be ≈1.9 kW",
            peak
        );
    }

    #[test]
    fn rack_recharge_power_at_2a_is_about_700_w() {
        let mut r = rack();
        discharge(&mut r, 6.0, 60.0); // ~20% DOD → variable charger picks 2 A
        assert_eq!(r.setpoint(), Amperes::new(2.0));
        let p = r.step(Watts::ZERO, Seconds::new(1.0)).recharge_power;
        assert!(
            (580.0..820.0).contains(&p.as_watts()),
            "2 A rack recharge power {} should be ≈700 W",
            p
        );
    }

    #[test]
    fn rack_recharge_power_at_1a_is_about_350_w() {
        let mut r = rack();
        discharge(&mut r, 6.0, 60.0);
        r.set_override(Amperes::MIN_CHARGE);
        let p = r.step(Watts::ZERO, Seconds::new(1.0)).recharge_power;
        assert!(
            (290.0..410.0).contains(&p.as_watts()),
            "1 A rack recharge power {} should be ≈350 W",
            p
        );
    }

    #[test]
    fn production_validation_spike_shape() {
        // §III-B production validation: a 60 s open transition leaving BBUs at
        // ~20% DOD starts them at 2 A; the original charger would have drawn
        // 2.6× more (26 kW vs 10 kW across 14 racks).
        let mut variable = rack();
        let mut original = RackBatterySystem::new(BbuParams::default(), ChargePolicy::Original);
        discharge(&mut variable, 6.0, 60.0);
        discharge(&mut original, 6.0, 60.0);
        let pv = variable.step(Watts::ZERO, Seconds::new(1.0)).recharge_power;
        let po = original.step(Watts::ZERO, Seconds::new(1.0)).recharge_power;
        let ratio = po / pv;
        assert!(
            (2.0..3.2).contains(&ratio),
            "original/variable power ratio {ratio:.2}"
        );
    }

    #[test]
    fn override_round_trip() {
        let mut r = rack();
        discharge(&mut r, 12.6, 90.0);
        let auto = r.setpoint();
        r.set_override(Amperes::new(1.5));
        assert_eq!(r.setpoint(), Amperes::new(1.5));
        r.clear_override();
        assert_eq!(r.setpoint(), auto);
    }

    #[test]
    fn postponed_rack_draws_nothing_and_resumes() {
        let mut r = rack();
        discharge(&mut r, 12.6, 90.0);
        r.set_postponed(true);
        assert!(r.is_postponed());
        let report = r.step(Watts::ZERO, Seconds::new(60.0));
        assert_eq!(report.recharge_power, Watts::ZERO);
        assert!(!r.is_redundant());

        r.set_postponed(false);
        let report = r.step(Watts::ZERO, Seconds::new(1.0));
        assert!(report.recharge_power > Watts::ZERO);
    }

    #[test]
    fn redundancy_restored_only_after_full_charge() {
        let mut r = rack();
        discharge(&mut r, 12.6, 30.0);
        assert!(!r.is_redundant());
        let mut steps = 0;
        while !r.is_redundant() {
            r.step(Watts::ZERO, Seconds::new(1.0));
            steps += 1;
            assert!(steps < 7_200, "charge should finish within 2 h");
        }
        assert_eq!(r.soc(), Soc::FULL);
    }
}
