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
