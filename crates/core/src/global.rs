//! The global equal-rate charging baseline (§V-B3).

use recharge_units::{Amperes, Watts};

use crate::algorithm::{AssignmentOutcome, ChargeAssignment, RackChargeState};
use crate::policy::SlaCurrentPolicy;
use crate::power_model::RechargePowerModel;

/// The baseline **global charging algorithm**: coordinates against the power
/// limit but ignores rack priority and DOD, charging every rack at the same
/// current — the largest hardware-legal rate that fits the available power.
///
/// The paper uses this baseline to demonstrate why priority awareness matters
/// (Figs 14, 15): under pressure it penalizes P1 racks first, because their
/// stricter SLA needs more current than the uniform rate provides.
///
/// # Examples
///
/// ```
/// use recharge_core::{assign_global, RackChargeState, RechargePowerModel, SlaCurrentPolicy};
/// use recharge_units::{Dod, Priority, RackId, Watts};
///
/// let policy = SlaCurrentPolicy::production();
/// let model = RechargePowerModel::production();
/// let racks = vec![
///     RackChargeState { rack: RackId::new(0), priority: Priority::P1, dod: Dod::new(0.5) },
///     RackChargeState { rack: RackId::new(1), priority: Priority::P3, dod: Dod::new(0.5) },
/// ];
/// let outcome = assign_global(&racks, Watts::from_kilowatts(1.5), &policy, &model);
/// // Everyone gets the same current.
/// assert_eq!(outcome.assignments[0].current, outcome.assignments[1].current);
/// ```
#[must_use]
pub fn assign_global(
    racks: &[RackChargeState],
    available_power: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> AssignmentOutcome {
    let uniform = global_current(racks.len(), available_power, model);
    let assignments: Vec<ChargeAssignment> = racks
        .iter()
        .map(|r| ChargeAssignment {
            rack: r.rack,
            priority: r.priority,
            dod: r.dod,
            current: uniform,
            sla_met: policy.meets_sla(r.priority, r.dod, uniform),
        })
        .collect();

    let total: Watts = assignments
        .iter()
        .map(|a| model.rack_power(a.current))
        .sum();
    AssignmentOutcome {
        assignments,
        total_recharge_power: total,
        remaining_power: (available_power - total).max(Watts::ZERO),
    }
}

/// The one current [`assign_global`] gives each of `racks` charging racks:
/// an equal share of `available_power`, clamped to the 1–5 A hardware range
/// (the 1 A floor when no rack charges).
///
/// The controller's global arm calls this directly, so it re-derives the
/// uniform rate every tick without building the assignments.
///
/// # Examples
///
/// ```
/// use recharge_core::{global_current, RechargePowerModel};
/// use recharge_units::{Amperes, Watts};
///
/// let model = RechargePowerModel::production();
/// let ample = Watts::from_megawatts(1.0);
/// assert_eq!(global_current(4, ample, &model), Amperes::MAX_CHARGE);
/// assert_eq!(global_current(4, Watts::ZERO, &model), Amperes::MIN_CHARGE);
/// ```
#[must_use]
pub fn global_current(racks: usize, available_power: Watts, model: &RechargePowerModel) -> Amperes {
    if racks == 0 {
        return Amperes::MIN_CHARGE;
    }
    let per_rack = available_power / racks as f64;
    model
        .current_for_power(per_rack)
        .clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_units::{Dod, Priority, RackId};

    fn racks_mixed(dod: f64) -> Vec<RackChargeState> {
        (0..9)
            .map(|i| RackChargeState {
                rack: RackId::new(i),
                priority: Priority::ALL[(i % 3) as usize],
                dod: Dod::new(dod),
            })
            .collect()
    }

    #[test]
    fn uniform_current_fits_budget() {
        let model = RechargePowerModel::production();
        let policy = SlaCurrentPolicy::production();
        let racks = racks_mixed(0.5);
        let budget = Watts::from_kilowatts(9.0);
        let outcome = assign_global(&racks, budget, &policy, &model);
        let currents: Vec<_> = outcome.assignments.iter().map(|a| a.current).collect();
        assert!(
            currents.windows(2).all(|w| w[0] == w[1]),
            "currents must be uniform"
        );
        assert!(currents[0] > Amperes::MIN_CHARGE && currents[0] < Amperes::MAX_CHARGE);
        assert!(outcome.total_recharge_power <= budget);
    }

    #[test]
    fn generous_budget_clamps_at_5a() {
        let outcome = assign_global(
            &racks_mixed(0.5),
            Watts::from_megawatts(1.0),
            &SlaCurrentPolicy::production(),
            &RechargePowerModel::production(),
        );
        assert!(outcome
            .assignments
            .iter()
            .all(|a| a.current == Amperes::MAX_CHARGE));
    }

    #[test]
    fn starved_budget_clamps_at_1a() {
        let outcome = assign_global(
            &racks_mixed(0.5),
            Watts::ZERO,
            &SlaCurrentPolicy::production(),
            &RechargePowerModel::production(),
        );
        assert!(outcome
            .assignments
            .iter()
            .all(|a| a.current == Amperes::MIN_CHARGE));
    }

    #[test]
    fn p1_racks_suffer_first_under_pressure() {
        // §V-B3: "P1 racks are the first ones to get penalized by the global
        // charging algorithm" — their stricter SLA needs more current than
        // the uniform rate.
        let policy = SlaCurrentPolicy::production();
        let model = RechargePowerModel::production();
        let racks = racks_mixed(0.6);
        // A uniform rate between P3's requirement and P1's requirement.
        let p3_need = policy.sla_current(Priority::P3, Dod::new(0.6));
        let budget = model.rack_power(p3_need + Amperes::new(0.3)) * racks.len() as f64;
        let outcome = assign_global(&racks, budget, &policy, &model);
        let met = |p| outcome.sla_met_count(Some(p));
        assert_eq!(
            met(Priority::P1),
            0,
            "P1 should be starved by the uniform rate"
        );
        assert!(
            met(Priority::P3) > 0,
            "P3 should be satisfied by the uniform rate"
        );
    }

    #[test]
    fn empty_fleet() {
        let outcome = assign_global(
            &[],
            Watts::from_kilowatts(1.0),
            &SlaCurrentPolicy::production(),
            &RechargePowerModel::production(),
        );
        assert!(outcome.assignments.is_empty());
        assert_eq!(outcome.total_recharge_power, Watts::ZERO);
    }
}
