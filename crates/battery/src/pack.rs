//! Lumped equivalent-circuit electrical model of one BBU pack.

use serde::{Deserialize, Serialize};

use recharge_units::{Amperes, Dod, Joules, Seconds, Soc, Volts, Watts};

use crate::kernel;
use crate::params::BbuParams;

/// Which leg of the CC-CV sequence (Fig 6a) a charging step executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChargePhase {
    /// Constant-current: terminal voltage below the CC→CV threshold, charging
    /// at the commanded setpoint.
    ConstantCurrent,
    /// Constant-voltage: terminal held at the CV voltage, current tapering
    /// (possibly still clamped at the setpoint just after the transition).
    ConstantVoltage,
    /// Charging finished: the taper current reached the cutoff.
    Complete,
}

/// Result of one charging step of a [`BbuPack`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeStep {
    /// Phase the charger was in during this step.
    pub phase: ChargePhase,
    /// Current that actually flowed into the pack.
    pub current: Amperes,
    /// Terminal voltage during the step.
    pub terminal_voltage: Volts,
    /// Power drawn from the wall (PSU input), including conversion losses.
    pub wall_power: Watts,
    /// Energy actually stored by the chemistry during the step.
    pub stored_energy: Joules,
}

/// Result of one discharging step of a [`BbuPack`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DischargeStep {
    /// Power the pack delivered (≤ the request, limited by the per-BBU
    /// discharge ceiling and by remaining energy).
    pub delivered_power: Watts,
    /// Whether the pack hit 0% state of charge during the step.
    pub depleted: bool,
}

/// Lumped electrical model of a BBU: affine open-circuit voltage over state of
/// charge plus a series internal resistance, charged via the CC-CV logic of
/// Fig 6(a) and discharged at the rack's IT-load share.
///
/// State of charge is tracked energetically: 100% SoC corresponds to
/// [`BbuParams::full_discharge_energy`] of deliverable energy.
///
/// # Examples
///
/// ```
/// use recharge_battery::{BbuPack, BbuParams};
/// use recharge_units::{Dod, Seconds, Watts};
///
/// let mut pack = BbuPack::new(BbuParams::default());
/// assert!(pack.is_fully_charged());
///
/// // Drain 50% of capacity at 1,650 W for 90 s.
/// let step = pack.discharge_step(Watts::new(1_650.0), Seconds::new(90.0));
/// assert!(!step.depleted);
/// assert!((pack.dod().value() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BbuPack {
    params: BbuParams,
    soc: f64,
    /// Latched once the CV taper reaches the cutoff; cleared by any discharge.
    charge_terminated: bool,
}

impl BbuPack {
    /// Creates a fully charged pack.
    #[must_use]
    pub fn new(params: BbuParams) -> Self {
        BbuPack {
            params,
            soc: 1.0,
            charge_terminated: true,
        }
    }

    /// Creates a pack pre-discharged to the given depth of discharge.
    #[must_use]
    pub fn discharged(params: BbuParams, dod: Dod) -> Self {
        let mut pack = BbuPack::new(params);
        if dod > Dod::ZERO {
            pack.soc = 1.0 - dod.value();
            pack.charge_terminated = false;
        }
        pack
    }

    /// The physical parameters of this pack.
    #[must_use]
    pub fn params(&self) -> &BbuParams {
        &self.params
    }

    /// Current state of charge.
    #[must_use]
    pub fn soc(&self) -> Soc {
        Soc::new(self.soc)
    }

    /// Current depth of discharge.
    #[must_use]
    pub fn dod(&self) -> Dod {
        self.soc().to_dod()
    }

    /// Whether the charge sequence has completed (taper reached cutoff).
    #[must_use]
    pub fn is_fully_charged(&self) -> bool {
        self.charge_terminated
    }

    /// Current the CV loop would naturally drive at the present state of
    /// charge, before clamping to the commanded setpoint.
    #[must_use]
    pub fn natural_cv_current(&self) -> Amperes {
        kernel::natural_cv_current(&self.params, self.params.ocv(self.soc))
    }

    /// Advances the CC-CV charge sequence by `dt` with the commanded setpoint.
    ///
    /// Implements the flowchart of Fig 6(a):
    ///
    /// 1. If the terminal voltage at the setpoint current stays below the
    ///    CC→CV threshold (52 V), charge at constant current.
    /// 2. Otherwise regulate the terminal at the CV voltage (52.5 V); the
    ///    current is the natural taper current, clamped to the setpoint.
    /// 3. Terminate when the taper current falls to the cutoff (400 mA); the
    ///    terminating step reports the final sub-cutoff taper flow plus the
    ///    snapped sliver of charge, so cumulative `stored_energy` telescopes
    ///    exactly with ΔSoC × capacity (see [`kernel::charge_step`]).
    ///
    /// A zero or negative `setpoint` pauses charging (used by coordination
    /// layers that postpone charging entirely).
    pub fn charge_step(&mut self, setpoint: Amperes, dt: Seconds) -> ChargeStep {
        kernel::charge_step(
            &self.params,
            &mut self.soc,
            &mut self.charge_terminated,
            setpoint,
            dt,
        )
    }

    /// Draws `requested` power from the pack for `dt`.
    ///
    /// Delivery is limited by the per-BBU discharge ceiling
    /// ([`BbuParams::max_discharge_power`]) and by the energy remaining; if the
    /// pack empties mid-step the delivered power is the average over `dt`.
    pub fn discharge_step(&mut self, requested: Watts, dt: Seconds) -> DischargeStep {
        kernel::discharge_step(
            &self.params,
            &mut self.soc,
            &mut self.charge_terminated,
            requested,
            dt,
        )
    }

    /// Charges to completion at a fixed setpoint, returning the total time.
    ///
    /// Used by table generation and tests; `dt` is the integration step.
    ///
    /// Returns `None` if charging has not completed within `max_steps` steps.
    #[must_use]
    pub fn charge_to_full(
        &mut self,
        setpoint: Amperes,
        dt: Seconds,
        max_steps: usize,
    ) -> Option<Seconds> {
        let mut elapsed = Seconds::ZERO;
        for _ in 0..max_steps {
            if self.is_fully_charged() {
                return Some(elapsed);
            }
            self.charge_step(setpoint, dt);
            elapsed += dt;
        }
        self.is_fully_charged().then_some(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack_at(dod: f64) -> BbuPack {
        BbuPack::discharged(BbuParams::default(), Dod::new(dod))
    }

    #[test]
    fn new_pack_is_full() {
        let pack = BbuPack::new(BbuParams::default());
        assert!(pack.is_fully_charged());
        assert_eq!(pack.soc(), Soc::FULL);
        assert_eq!(pack.dod(), Dod::ZERO);
    }

    #[test]
    fn discharge_reduces_soc_proportionally() {
        let mut pack = BbuPack::new(BbuParams::default());
        let step = pack.discharge_step(Watts::new(3_300.0), Seconds::new(45.0));
        assert_eq!(step.delivered_power, Watts::new(3_300.0));
        assert!(!step.depleted);
        assert!((pack.dod().value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn discharge_is_capped_at_max_power() {
        let mut pack = BbuPack::new(BbuParams::default());
        let step = pack.discharge_step(Watts::new(10_000.0), Seconds::new(1.0));
        assert_eq!(step.delivered_power, Watts::new(3_300.0));
    }

    #[test]
    fn full_discharge_depletes_exactly() {
        let mut pack = BbuPack::new(BbuParams::default());
        let step = pack.discharge_step(Watts::new(3_300.0), Seconds::new(90.0));
        assert!(step.depleted);
        assert_eq!(pack.dod(), Dod::FULL);
        // Further discharge delivers nothing.
        let step = pack.discharge_step(Watts::new(3_300.0), Seconds::new(1.0));
        assert_eq!(step.delivered_power, Watts::ZERO);
    }

    #[test]
    fn overlong_discharge_delivers_average_power() {
        let mut pack = pack_at(0.5);
        // 50% remaining = 148.5 kJ; ask for 3.3 kW for 90 s (297 kJ).
        let step = pack.discharge_step(Watts::new(3_300.0), Seconds::new(90.0));
        assert!(step.depleted);
        assert!((step.delivered_power.as_watts() - 1_650.0).abs() < 1e-6);
    }

    #[test]
    fn charging_starts_in_cc_and_reaches_cv() {
        let mut pack = pack_at(1.0);
        let first = pack.charge_step(Amperes::new(5.0), Seconds::new(1.0));
        assert_eq!(first.phase, ChargePhase::ConstantCurrent);
        assert_eq!(first.current, Amperes::new(5.0));
        // Initial wall power ≈ 260 W (paper Fig 3/4): V_term ≈ 46.5 V × 5 A × 1.2.
        assert!(
            (first.wall_power.as_watts() - 260.0).abs() < 40.0,
            "initial wall power {} should be ≈260 W",
            first.wall_power
        );

        let mut saw_cv = false;
        for _ in 0..20_000 {
            let step = pack.charge_step(Amperes::new(5.0), Seconds::new(1.0));
            if step.phase == ChargePhase::ConstantVoltage {
                saw_cv = true;
                assert_eq!(step.terminal_voltage, Volts::new(52.5));
                assert!(step.current <= Amperes::new(5.0));
            }
            if pack.is_fully_charged() {
                break;
            }
        }
        assert!(saw_cv, "charge sequence must pass through the CV phase");
        assert!(pack.is_fully_charged());
        assert_eq!(pack.soc(), Soc::FULL);
    }

    #[test]
    fn full_charge_at_5a_takes_about_36_minutes() {
        let mut pack = pack_at(1.0);
        let t = pack
            .charge_to_full(Amperes::new(5.0), Seconds::new(1.0), 100_000)
            .unwrap();
        assert!(
            (30.0..45.0).contains(&t.as_minutes()),
            "full 5 A charge took {:.1} min, expected ≈36 min",
            t.as_minutes()
        );
    }

    #[test]
    fn cc_phase_at_5a_is_about_20_minutes() {
        let mut pack = pack_at(1.0);
        let mut cc_time = Seconds::ZERO;
        for _ in 0..100_000 {
            let step = pack.charge_step(Amperes::new(5.0), Seconds::new(1.0));
            match step.phase {
                ChargePhase::ConstantCurrent => cc_time += Seconds::new(1.0),
                _ => break,
            }
        }
        assert!(
            (14.0..24.0).contains(&cc_time.as_minutes()),
            "CC phase took {:.1} min, expected ≈20 min",
            cc_time.as_minutes()
        );
    }

    #[test]
    fn initial_power_is_independent_of_dod() {
        // Fig 4: the original charger always starts at the same (maximum)
        // power because it always begins in CC mode.
        let mut powers = Vec::new();
        for dod in [0.25, 0.5, 0.75, 1.0] {
            let mut pack = pack_at(dod);
            let step = pack.charge_step(Amperes::new(5.0), Seconds::new(1.0));
            powers.push(step.wall_power.as_watts());
        }
        let spread = powers.iter().cloned().fold(f64::MIN, f64::max)
            - powers.iter().cloned().fold(f64::MAX, f64::min);
        // The affine OCV makes the initial terminal voltage climb slightly
        // with SoC, so "independent" means within ≈15% here.
        assert!(
            spread < 60.0,
            "initial power spread {spread} W too large: {powers:?}"
        );
    }

    #[test]
    fn zero_setpoint_pauses_charging() {
        let mut pack = pack_at(0.5);
        let before = pack.soc();
        let step = pack.charge_step(Amperes::ZERO, Seconds::new(60.0));
        assert_eq!(step.wall_power, Watts::ZERO);
        assert_eq!(pack.soc(), before);
        assert!(!pack.is_fully_charged());
    }

    #[test]
    fn charge_step_after_completion_is_inert() {
        let mut pack = BbuPack::new(BbuParams::default());
        let step = pack.charge_step(Amperes::new(5.0), Seconds::new(1.0));
        assert_eq!(step.phase, ChargePhase::Complete);
        assert_eq!(step.wall_power, Watts::ZERO);
    }

    #[test]
    fn small_discharge_requires_recharge_to_terminate() {
        // Even a brief discharge clears the completion latch: the pack must
        // run its taper before it reports fully charged again (Fig 8a has no
        // shortcut from discharging back to fully charged).
        let mut pack = BbuPack::new(BbuParams::default());
        pack.discharge_step(Watts::new(3_300.0), Seconds::new(1.0));
        assert!(!pack.is_fully_charged());
        let t = pack
            .charge_to_full(Amperes::new(2.0), Seconds::new(1.0), 100_000)
            .unwrap();
        assert!(t > Seconds::ZERO);
    }

    #[test]
    fn energy_conservation_wall_exceeds_stored() {
        let mut pack = pack_at(1.0);
        let mut wall = Joules::ZERO;
        let mut stored = Joules::ZERO;
        let dt = Seconds::new(1.0);
        while !pack.is_fully_charged() {
            let step = pack.charge_step(Amperes::new(5.0), dt);
            wall += step.wall_power * dt;
            stored += step.stored_energy;
        }
        assert!(
            wall > stored,
            "wall energy must exceed stored energy (losses)"
        );
        // The terminating step accounts the snapped sliver, so the cumulative
        // stored series telescopes with ΔSoC × capacity to float precision —
        // not the 2% slack the zero-energy snap used to need.
        assert!(
            (stored.as_joules() - 297_000.0).abs() / 297_000.0 < 1e-9,
            "stored {stored} should match capacity exactly"
        );
    }

    #[test]
    fn termination_step_reports_taper_flow_not_zeros() {
        // Drive a pack to the terminating step and check that the step that
        // latches completion still reports the sub-cutoff taper current, a
        // non-zero wall power (no one-tick dip to zero before completion),
        // and the stored sliver that makes the energy series telescope.
        let mut pack = pack_at(0.5);
        let dt = Seconds::new(1.0);
        for _ in 0..200_000 {
            let soc_before = pack.soc().value();
            let step = pack.charge_step(Amperes::new(2.0), dt);
            if step.phase == ChargePhase::Complete {
                assert!(step.current > Amperes::ZERO, "taper current flowed");
                assert!(step.current <= pack.params().cutoff_current);
                assert_eq!(step.terminal_voltage, pack.params().cv_voltage);
                assert!(
                    step.wall_power > Watts::ZERO,
                    "wall power must taper, not dip to zero"
                );
                let expected = pack.params().full_discharge_energy * (1.0 - soc_before);
                assert!(
                    (step.stored_energy.as_joules() - expected.as_joules()).abs() < 1e-6,
                    "terminating stored {} != remaining sliver {}",
                    step.stored_energy,
                    expected
                );
                assert!(pack.is_fully_charged());
                return;
            }
        }
        panic!("charge never terminated");
    }

    #[test]
    fn lower_current_charges_slower() {
        let mut fast = pack_at(0.6);
        let mut slow = pack_at(0.6);
        let t_fast = fast
            .charge_to_full(Amperes::new(5.0), Seconds::new(1.0), 200_000)
            .unwrap();
        let t_slow = slow
            .charge_to_full(Amperes::new(1.0), Seconds::new(1.0), 200_000)
            .unwrap();
        assert!(t_slow > t_fast);
    }

    #[test]
    fn charge_to_full_gives_none_when_budget_too_small() {
        let mut pack = pack_at(1.0);
        assert!(pack
            .charge_to_full(Amperes::new(1.0), Seconds::new(1.0), 10)
            .is_none());
    }
}
