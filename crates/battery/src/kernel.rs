//! The scalar CC-CV / discharge kernel over raw pack state.
//!
//! One BBU's electrical state is two scalars — `soc` and the
//! `charge_terminated` latch — plus the shared [`BbuParams`]. The object
//! path ([`BbuPack`](crate::BbuPack)) wraps that state per pack; the
//! struct-of-arrays fleet kernel in `recharge-dynamo` holds it in contiguous
//! arrays and steps thousands of racks in one pass. Both call *these*
//! functions, so the two paths execute the same floating-point operations in
//! the same order and stay bit-identical by construction.

use recharge_units::{Amperes, Joules, Seconds, Volts, Watts};

use crate::pack::{ChargePhase, ChargeStep, DischargeStep};
use crate::params::BbuParams;

/// Current the CV loop would naturally drive at open-circuit voltage `ocv`,
/// before clamping to the commanded setpoint.
#[inline]
#[must_use]
pub fn natural_cv_current(params: &BbuParams, ocv: Volts) -> Amperes {
    ((params.cv_voltage - ocv) / params.internal_resistance).max(Amperes::ZERO)
}

/// Advances the CC-CV charge sequence of Fig 6(a) by `dt` over raw state.
///
/// 1. If the terminal voltage at the setpoint current stays below the CC→CV
///    threshold (52 V), charge at constant current.
/// 2. Otherwise regulate the terminal at the CV voltage (52.5 V); the current
///    is the natural taper current, clamped to the setpoint.
/// 3. Terminate when the taper current falls to the cutoff (400 mA). The
///    terminating step reports the sub-cutoff current that still flowed (the
///    wall-power series tapers, it does not dip to zero one tick early) and a
///    `stored_energy` equal to the *entire* remaining sliver of capacity, so
///    cumulative stored energy telescopes exactly with ΔSoC × capacity. The
///    sliver charged beyond the physical taper flow is bounded by
///    `(1 − soc_cutoff) × capacity` — ≈0.4% of capacity with the production
///    parameters, whose [`BbuParams::validate`] requires the taper to cross
///    the cutoff strictly before 100% SoC.
///
/// A zero or negative `setpoint` pauses charging (used by coordination layers
/// that postpone charging entirely).
#[inline]
pub fn charge_step(
    params: &BbuParams,
    soc: &mut f64,
    charge_terminated: &mut bool,
    setpoint: Amperes,
    dt: Seconds,
) -> ChargeStep {
    if *charge_terminated || setpoint <= Amperes::ZERO || dt <= Seconds::ZERO {
        return ChargeStep {
            phase: if *charge_terminated {
                ChargePhase::Complete
            } else {
                ChargePhase::ConstantCurrent
            },
            current: Amperes::ZERO,
            terminal_voltage: params.ocv(*soc),
            wall_power: Watts::ZERO,
            stored_energy: Joules::ZERO,
        };
    }

    let ocv = params.ocv(*soc);
    let cc_terminal = ocv + setpoint * params.internal_resistance;

    let (phase, current, terminal) = if cc_terminal < params.cc_to_cv_voltage {
        (ChargePhase::ConstantCurrent, setpoint, cc_terminal)
    } else {
        let natural = natural_cv_current(params, ocv);
        let current = natural.min(setpoint);
        if current <= params.cutoff_current {
            // Taper finished: latch termination and snap the remaining sliver
            // of charge, reporting it as stored so the cumulative series
            // telescopes; the sub-cutoff current still flowed during `dt`.
            let stored = params.full_discharge_energy * (1.0 - *soc);
            *soc = 1.0;
            *charge_terminated = true;
            return ChargeStep {
                phase: ChargePhase::Complete,
                current,
                terminal_voltage: params.cv_voltage,
                wall_power: params.cv_voltage * current * params.wall_loss_factor,
                stored_energy: stored,
            };
        }
        (ChargePhase::ConstantVoltage, current, params.cv_voltage)
    };

    // Energy stored by the chemistry accrues at the open-circuit potential
    // scaled by the charge-acceptance efficiency; the I²R drop is heat.
    let stored = ocv * current * dt * params.charge_efficiency;
    *soc = (*soc + stored / params.full_discharge_energy).min(1.0);

    let wall_power = terminal * current * params.wall_loss_factor;
    ChargeStep {
        phase,
        current,
        terminal_voltage: terminal,
        wall_power,
        stored_energy: stored,
    }
}

/// A conservative lower bound on the time until the charge sequence's next
/// *qualitative* event — the CC→CV knee crossing while the pack charges in
/// constant current, or charge termination (the taper reaching the cutoff)
/// once it is in constant voltage.
///
/// The bound is analytic. Under the affine OCV model both thresholds
/// correspond to fixed states of charge:
///
/// ```text
/// soc_knee = (cc_to_cv_voltage − I·R − ocv_empty) / (ocv_full − ocv_empty)
/// soc_cut  = (cv_voltage − I_cutoff·R − ocv_empty) / (ocv_full − ocv_empty)
/// ```
///
/// and every charging step stores at most `ocv_full × I_now × η` joules per
/// second, because the OCV and (in CV) the taper current only fall as charge
/// accrues. Dividing the charge still missing to the threshold by that
/// ceiling can therefore only *under*-estimate the time to the event:
/// discrete stepping with any `dt` cannot observe the event strictly before
/// the returned time (property-tested). The event-driven backend uses this
/// as a safe horizon — never as permission to skip state it would otherwise
/// have computed, since the accumulated float series is step-size dependent.
///
/// The bound is valid only while the inputs stand still: a setpoint change,
/// a postpone/override, or any discharge invalidates it and a fresh bound
/// must be taken from the new state.
///
/// Returns infinite [`Seconds`] when no self-driven event can occur: charging
/// already terminated, a non-positive setpoint (postponed), or parameters
/// whose threshold lies beyond 100% SoC.
#[must_use]
pub fn next_charge_event_time(
    params: &BbuParams,
    soc: f64,
    charge_terminated: bool,
    setpoint: Amperes,
) -> Seconds {
    let never = Seconds::new(f64::INFINITY);
    if charge_terminated || setpoint <= Amperes::ZERO {
        return never;
    }
    let span = params.ocv_full.as_volts() - params.ocv_empty.as_volts();
    let r = params.internal_resistance.as_ohms();
    let capacity = params.full_discharge_energy.as_joules();
    // J/s stored per ampere at the OCV ceiling.
    let rate_per_amp = params.ocv_full.as_volts() * params.charge_efficiency;

    let cc_terminal = params.ocv(soc) + setpoint * params.internal_resistance;
    if cc_terminal < params.cc_to_cv_voltage {
        // Constant current: the next event is the CC→CV knee.
        let soc_knee = (params.cc_to_cv_voltage.as_volts()
            - setpoint.as_amps() * r
            - params.ocv_empty.as_volts())
            / span;
        if soc_knee > 1.0 {
            return never; // the terminal can never reach the knee
        }
        let missing = (soc_knee - soc).max(0.0) * capacity;
        Seconds::new(missing / (rate_per_amp * setpoint.as_amps()))
    } else {
        // Constant voltage: the next event is termination at the cutoff.
        let current_now = natural_cv_current(params, params.ocv(soc)).min(setpoint);
        if current_now <= params.cutoff_current {
            return Seconds::ZERO; // the very next step latches completion
        }
        let soc_cut = (params.cv_voltage.as_volts()
            - params.cutoff_current.as_amps() * r
            - params.ocv_empty.as_volts())
            / span;
        if soc_cut > 1.0 {
            return never; // the taper never crosses the cutoff
        }
        let missing = (soc_cut - soc).max(0.0) * capacity;
        Seconds::new(missing / (rate_per_amp * current_now.as_amps()))
    }
}

/// Draws `requested` power from raw pack state for `dt`.
///
/// Delivery is limited by the per-BBU discharge ceiling
/// ([`BbuParams::max_discharge_power`]) and by the energy remaining; if the
/// pack empties mid-step the delivered power is the average over `dt`. Any
/// actual discharge clears the `charge_terminated` latch.
#[inline]
pub fn discharge_step(
    params: &BbuParams,
    soc: &mut f64,
    charge_terminated: &mut bool,
    requested: Watts,
    dt: Seconds,
) -> DischargeStep {
    let depleted_now = *soc <= 0.0;
    if requested <= Watts::ZERO || dt <= Seconds::ZERO || depleted_now {
        return DischargeStep {
            delivered_power: Watts::ZERO,
            depleted: depleted_now,
        };
    }
    *charge_terminated = false;

    let power = requested.min(params.max_discharge_power);
    let wanted = power * dt;
    let available = params.full_discharge_energy * *soc;
    let (delivered_energy, depleted) = if wanted >= available {
        (available, true)
    } else {
        (wanted, false)
    };

    *soc = (*soc - delivered_energy / params.full_discharge_energy).max(0.0);
    if depleted {
        *soc = 0.0;
    }
    DischargeStep {
        delivered_power: delivered_energy / dt,
        depleted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn production() -> BbuParams {
        BbuParams::production()
    }

    #[test]
    fn terminated_or_paused_charging_has_no_event() {
        let p = production();
        assert!(next_charge_event_time(&p, 1.0, true, Amperes::new(5.0))
            .as_secs()
            .is_infinite());
        assert!(next_charge_event_time(&p, 0.5, false, Amperes::ZERO)
            .as_secs()
            .is_infinite());
        assert!(next_charge_event_time(&p, 0.5, false, Amperes::new(-1.0))
            .as_secs()
            .is_infinite());
    }

    #[test]
    fn cc_phase_predicts_a_positive_knee_horizon() {
        let p = production();
        // Half discharged at 5 A: deep in CC, the knee is minutes away.
        let t = next_charge_event_time(&p, 0.5, false, Amperes::new(5.0));
        assert!(t > Seconds::new(60.0), "knee horizon {t}");
        // The bound must not exceed the true knee time: stepping densely at
        // 1 s must stay in CC for at least `t` seconds.
        let mut soc = 0.5;
        let mut term = false;
        let mut elapsed = 0.0;
        loop {
            let step = charge_step(
                &p,
                &mut soc,
                &mut term,
                Amperes::new(5.0),
                Seconds::new(1.0),
            );
            if step.phase != ChargePhase::ConstantCurrent {
                break;
            }
            elapsed += 1.0;
            assert!(elapsed < 1e6, "never left CC");
        }
        assert!(
            elapsed >= t.as_secs() - 1e-9,
            "knee at {elapsed:.1} s before predicted {t}"
        );
    }

    #[test]
    fn cv_phase_predicts_termination_and_zero_at_the_cutoff() {
        let p = production();
        // Just past the cutoff SoC the next step must terminate: bound is 0.
        let span = p.ocv_full.as_volts() - p.ocv_empty.as_volts();
        let soc_cut = (p.cv_voltage.as_volts()
            - p.cutoff_current.as_amps() * p.internal_resistance.as_ohms()
            - p.ocv_empty.as_volts())
            / span;
        assert_eq!(
            next_charge_event_time(&p, soc_cut + 1e-6, false, Amperes::new(2.0)),
            Seconds::ZERO
        );
        // Early in the CV leg the bound is positive and conservative.
        let soc0 = soc_cut - 0.02;
        let t = next_charge_event_time(&p, soc0, false, Amperes::new(2.0));
        assert!(t > Seconds::ZERO, "{t}");
        let mut soc = soc0;
        let mut term = false;
        let mut elapsed = 0.0;
        while !term {
            charge_step(
                &p,
                &mut soc,
                &mut term,
                Amperes::new(2.0),
                Seconds::new(1.0),
            );
            if !term {
                elapsed += 1.0;
            }
            assert!(elapsed < 1e6, "never terminated");
        }
        assert!(
            elapsed >= t.as_secs() - 1e-9,
            "terminated at {elapsed:.1} s before predicted {t}"
        );
    }
}
