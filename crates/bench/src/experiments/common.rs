//! Shared configuration for the MSB-scale simulation experiments.

use recharge_battery::ChargePolicy;
use recharge_dynamo::Strategy;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::Watts;

use crate::fast_mode;

/// The three charger deployments Fig 13 / Table III compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// The original 5 A charger, no coordination.
    OriginalCharger,
    /// The variable (Eq. 1) charger, no coordination.
    VariableCharger,
    /// The variable charger under coordinated priority-aware control.
    PriorityAware,
}

impl Deployment {
    /// All deployments in the paper's comparison order.
    pub const ALL: [Deployment; 3] = [
        Deployment::OriginalCharger,
        Deployment::VariableCharger,
        Deployment::PriorityAware,
    ];

    /// Short label used in report tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Deployment::OriginalCharger => "original charger",
            Deployment::VariableCharger => "variable charger",
            Deployment::PriorityAware => "priority-aware",
        }
    }

    fn strategy(self) -> Strategy {
        match self {
            Deployment::OriginalCharger | Deployment::VariableCharger => Strategy::Uncoordinated,
            Deployment::PriorityAware => Strategy::PriorityAware,
        }
    }

    fn charge_policy(self) -> ChargePolicy {
        match self {
            Deployment::OriginalCharger => ChargePolicy::Original,
            Deployment::VariableCharger | Deployment::PriorityAware => ChargePolicy::Variable,
        }
    }
}

/// The fleet-size divisor in effect: 1 normally, 4 in fast mode (79 racks
/// with proportionally scaled limits — the dynamics are scale-free because
/// both load and recharge power scale with rack count).
#[must_use]
fn scale_divisor() -> usize {
    if fast_mode() {
        4
    } else {
        1
    }
}

/// The paper's MSB priority mix (89/142/85), divided by the scale divisor.
#[must_use]
pub fn paper_counts() -> (usize, usize, usize) {
    let d = scale_divisor();
    (89 / d, 142 / d, 85 / d)
}

/// Builds an MSB-scale scenario for a deployment: `limit_mw` is the
/// full-scale breaker limit (scaled along with the fleet in fast mode).
#[must_use]
pub fn msb_scenario(
    counts: (usize, usize, usize),
    limit_mw: f64,
    discharge: DischargeLevel,
    deployment: Deployment,
    strategy_override: Option<Strategy>,
    seed: u64,
) -> Scenario {
    let total_full_scale = 316.0;
    let total = (counts.0 + counts.1 + counts.2) as f64;
    let limit = Watts::from_megawatts(limit_mw * total / total_full_scale);
    Scenario::paper_msb(seed)
        .priority_counts(counts.0, counts.1, counts.2)
        .power_limit(limit)
        .strategy(strategy_override.unwrap_or_else(|| deployment.strategy()))
        .charge_policy(deployment.charge_policy())
        .discharge(discharge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_mapping() {
        assert_eq!(
            Deployment::OriginalCharger.charge_policy(),
            ChargePolicy::Original
        );
        assert_eq!(
            Deployment::PriorityAware.strategy(),
            Strategy::PriorityAware
        );
        assert_eq!(
            Deployment::VariableCharger.strategy(),
            Strategy::Uncoordinated
        );
        assert_eq!(Deployment::OriginalCharger.label(), "original charger");
    }

    #[test]
    fn scenario_limit_scales_with_fleet() {
        let s = msb_scenario(
            (89, 142, 85),
            2.5,
            DischargeLevel::Medium,
            Deployment::PriorityAware,
            None,
            1,
        );
        // Full fleet: full limit.
        assert!((s.limit().as_megawatts() - 2.5).abs() < 1e-9);
    }
}
