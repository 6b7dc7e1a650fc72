//! Algorithm 1: highest-priority-lowest-discharge-first battery charging,
//! plus the reverse-order throttling pass used on overload.

use serde::{Deserialize, Serialize};

use recharge_units::{Amperes, Dod, Priority, RackId, Watts};

use crate::index::ChargeIndex;
use crate::policy::SlaCurrentPolicy;
use crate::power_model::RechargePowerModel;

/// A rack whose batteries need to charge: the controller's view at the start
/// of a charging sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackChargeState {
    /// The rack.
    pub rack: RackId,
    /// Its service priority.
    pub priority: Priority,
    /// Depth of discharge of its batteries, estimated by the leaf controller
    /// from the open-transition length and the rack IT load.
    pub dod: Dod,
}

/// One rack's charging-current assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeAssignment {
    /// The rack.
    pub rack: RackId,
    /// Its service priority (carried for reverse-order throttling).
    pub priority: Priority,
    /// Its battery depth of discharge at charge start.
    pub dod: Dod,
    /// The assigned per-BBU charging current.
    pub current: Amperes,
    /// Whether this assignment meets the rack's charging-time SLA.
    pub sla_met: bool,
}

/// The result of an assignment pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignmentOutcome {
    /// Per-rack assignments, in the input's rack order.
    pub assignments: Vec<ChargeAssignment>,
    /// Total peak recharge power the assignments will draw.
    pub total_recharge_power: Watts,
    /// Power budget that remained unallocated (zero when exhausted).
    pub remaining_power: Watts,
}

impl AssignmentOutcome {
    /// Number of racks whose SLA is met, optionally filtered by priority.
    #[must_use]
    pub fn sla_met_count(&self, priority: Option<Priority>) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.sla_met && priority.is_none_or(|p| a.priority == p))
            .count()
    }
}

/// **Algorithm 1** (§IV-C): assigns charging currents so that charging-time
/// SLAs are satisfied highest-priority-first — and lowest-discharge-first
/// within a priority, which maximizes the number of satisfied racks — without
/// exceeding the available power.
///
/// Every rack is first set to the 1 A hardware minimum (charging cannot be
/// postponed entirely with current hardware, §IV-A); the minimum draw is
/// therefore committed up front, and the sorted pass upgrades racks to their
/// Fig 9(b) SLA current while budget remains. The pass stops at the first
/// rack that no longer fits, preserving strict priority order: power is never
/// diverted around a starved high-priority rack to a cheaper low-priority one.
///
/// `available_power` is the breaker headroom (limit − IT load) granted to
/// battery charging. A rack's `sla_met` flag is true when its *assigned*
/// current meets the SLA — which includes racks left at the minimum whose
/// SLA only needs 1 A (the Fig 14(a) observation for P3).
///
/// # Examples
///
/// ```
/// use recharge_core::{assign_priority_aware, RackChargeState, RechargePowerModel, SlaCurrentPolicy};
/// use recharge_units::{Dod, Priority, RackId, Watts};
///
/// let policy = SlaCurrentPolicy::production();
/// let model = RechargePowerModel::production();
/// let racks: Vec<_> = (0..4)
///     .map(|i| RackChargeState {
///         rack: RackId::new(i),
///         priority: Priority::P2,
///         dod: Dod::new(0.6),
///     })
///     .collect();
/// // A tight budget: the minimum draw fits but not every SLA upgrade.
/// let outcome = assign_priority_aware(&racks, Watts::from_kilowatts(1.65), &policy, &model);
/// assert!(outcome.sla_met_count(None) < 4);
/// assert!(outcome.total_recharge_power <= Watts::from_kilowatts(1.65));
/// ```
#[must_use]
pub fn assign_priority_aware(
    racks: &[RackChargeState],
    available_power: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> AssignmentOutcome {
    // Step 1-4: initialize everyone at the minimum and compute SLA currents.
    let mut assignments: Vec<ChargeAssignment> = racks
        .iter()
        .map(|r| ChargeAssignment {
            rack: r.rack,
            priority: r.priority,
            dod: r.dod,
            current: Amperes::MIN_CHARGE,
            sla_met: false,
        })
        .collect();

    // Step 5: sort by priority, then by DOD (lowest energy discharge first).
    let mut order: Vec<usize> = (0..racks.len()).collect();
    order.sort_by(|&a, &b| {
        racks[a]
            .priority
            .cmp(&racks[b].priority)
            .then(racks[a].dod.value().total_cmp(&racks[b].dod.value()))
    });

    let remaining = upgrade_in_order(
        &mut assignments,
        order.into_iter(),
        available_power,
        policy,
        model,
    );
    finish_assignment(assignments, remaining, policy, model)
}

/// **Algorithm 1** over an incrementally maintained [`ChargeIndex`]: the same
/// assignment as [`assign_priority_aware`], but the
/// highest-priority-lowest-discharge-first order is read straight off the
/// index instead of re-sorting the fleet — the per-call cost is `O(n)` in the
/// tracked racks with no comparison sort.
///
/// Assignments are returned in the index's charge order. Within one DOD
/// quantization bucket (1/[`SLA_MEMO_DOD_BINS`] of discharge depth) racks tie
/// on their memoized SLA current, so the bucket ordering assigns the same
/// totals as the exact-DOD ordering; ties inside a bucket resolve by rack id.
///
/// [`SLA_MEMO_DOD_BINS`]: crate::SLA_MEMO_DOD_BINS
#[must_use]
pub fn assign_priority_aware_indexed(
    index: &ChargeIndex,
    available_power: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> AssignmentOutcome {
    let mut assignments: Vec<ChargeAssignment> = index
        .charge_order()
        .map(|(rack, e)| ChargeAssignment {
            rack,
            priority: e.priority,
            dod: e.dod,
            current: Amperes::MIN_CHARGE,
            sla_met: false,
        })
        .collect();
    let order = 0..assignments.len();
    let remaining = upgrade_in_order(&mut assignments, order, available_power, policy, model);
    finish_assignment(assignments, remaining, policy, model)
}

/// Steps 6-8 of Algorithm 1: commit the 1 A floor, then upgrade racks to
/// their SLA current in the caller-provided order while budget remains,
/// stopping at the first rack that no longer fits. Returns the unallocated
/// remainder.
///
/// Every admission is journaled to the flight recorder with its reason:
/// `admit_upgraded` for racks granted their SLA current, one
/// `admit_budget_exhausted` for the first rack whose upgrade no longer fits,
/// and `admit_floor` for every rack after it (left at the 1 A floor). The
/// journal never feeds back into the assignment — with the recorder off the
/// loop breaks at the first non-fit exactly as before.
fn upgrade_in_order(
    assignments: &mut [ChargeAssignment],
    order: impl Iterator<Item = usize>,
    available_power: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> Watts {
    use recharge_telemetry::{FlightKind, ReasonCode};

    // The 1 A minimum is committed regardless of budget. When the committed
    // floor already exceeds the headroom (a heavily oversubscribed tick) the
    // deficit is not an upgrade budget: clamp at zero so no rack can be
    // upgraded against a negative remainder.
    let min_power = model.rack_power(Amperes::MIN_CHARGE) * assignments.len() as f64;
    let mut remaining = (available_power - min_power).max(Watts::ZERO);

    let mut exhausted = false;
    for idx in order {
        let a = assignments[idx];
        if exhausted {
            // Pure journaling: racks past the first non-fit keep the floor.
            recharge_telemetry::flight(
                FlightKind::Admit,
                ReasonCode::AdmitFloor,
                a.rack.index(),
                a.priority.rank(),
                ChargeIndex::dod_bucket(a.dod),
                Amperes::MIN_CHARGE.as_amps().to_bits(),
                remaining.as_watts().to_bits(),
            );
            continue;
        }
        let sla_current = policy.sla_current(a.priority, a.dod);
        let upgrade = model.rack_power(sla_current) - model.rack_power(Amperes::MIN_CHARGE);
        if upgrade <= remaining {
            remaining -= upgrade;
            assignments[idx].current = sla_current;
            recharge_telemetry::flight(
                FlightKind::Admit,
                ReasonCode::AdmitUpgraded,
                a.rack.index(),
                a.priority.rank(),
                ChargeIndex::dod_bucket(a.dod),
                sla_current.as_amps().to_bits(),
                remaining.as_watts().to_bits(),
            );
        } else {
            if !recharge_telemetry::recorder_enabled() {
                break;
            }
            recharge_telemetry::flight(
                FlightKind::Admit,
                ReasonCode::AdmitBudgetExhausted,
                a.rack.index(),
                a.priority.rank(),
                ChargeIndex::dod_bucket(a.dod),
                sla_current.as_amps().to_bits(),
                remaining.as_watts().to_bits(),
            );
            exhausted = true;
        }
    }
    remaining
}

/// Recomputes `sla_met` flags and totals for a finished assignment pass.
fn finish_assignment(
    mut assignments: Vec<ChargeAssignment>,
    remaining: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> AssignmentOutcome {
    for a in &mut assignments {
        a.sla_met = policy.meets_sla(a.priority, a.dod, a.current);
    }
    let total: Watts = assignments
        .iter()
        .map(|a| model.rack_power(a.current))
        .sum();
    AssignmentOutcome {
        assignments,
        total_recharge_power: total,
        remaining_power: remaining.max(Watts::ZERO),
    }
}

/// The result of an overload-throttling pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThrottleOutcome {
    /// The updated assignments, in the input's rack order.
    pub assignments: Vec<ChargeAssignment>,
    /// Recharge power shed by the throttle pass.
    pub power_shed: Watts,
    /// Overload that battery throttling could not cover; the controller must
    /// cap servers by this amount as a last resort (§IV-C).
    pub residual_overload: Watts,
}

/// Reverse-order throttling (§IV-C): on a detected overload, set racks to the
/// 1 A minimum in **lowest-priority-highest-discharge-first** order until the
/// shed power covers the overload; whatever cannot be covered is returned as
/// the server-capping requirement.
///
/// A throttled rack's `sla_met` flag is recomputed against `policy` rather
/// than unconditionally cleared: a P3 rack at medium discharge still meets
/// its 90-minute SLA at the 1 A minimum (the Fig 14(a) observation), and
/// reporting it as violated would overstate the overload's SLA damage.
///
/// # Examples
///
/// ```
/// use recharge_core::{assign_priority_aware, throttle_on_overload, RackChargeState,
///     RechargePowerModel, SlaCurrentPolicy};
/// use recharge_units::{Dod, Priority, RackId, Watts};
///
/// let policy = SlaCurrentPolicy::production();
/// let model = RechargePowerModel::production();
/// let racks = vec![
///     RackChargeState { rack: RackId::new(0), priority: Priority::P1, dod: Dod::new(0.5) },
///     RackChargeState { rack: RackId::new(1), priority: Priority::P3, dod: Dod::new(0.5) },
/// ];
/// let outcome = assign_priority_aware(&racks, Watts::from_kilowatts(5.0), &policy, &model);
/// let throttled = throttle_on_overload(&outcome.assignments, Watts::new(400.0), &policy, &model);
/// // The P3 rack is sacrificed first...
/// assert_eq!(throttled.assignments[1].current, recharge_units::Amperes::MIN_CHARGE);
/// // ...but at 50% DOD the 1 A minimum still meets the 90-minute P3 SLA.
/// assert!(throttled.assignments[1].sla_met);
/// ```
#[must_use]
pub fn throttle_on_overload(
    assignments: &[ChargeAssignment],
    overload: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> ThrottleOutcome {
    let mut updated = assignments.to_vec();
    if overload <= Watts::ZERO {
        return ThrottleOutcome {
            assignments: updated,
            power_shed: Watts::ZERO,
            residual_overload: Watts::ZERO,
        };
    }

    // Reverse of Algorithm 1's order: lowest priority first, highest DOD
    // first within a priority.
    let mut order: Vec<usize> = (0..updated.len()).collect();
    order.sort_by(|&a, &b| {
        updated[b]
            .priority
            .cmp(&updated[a].priority)
            .then(updated[b].dod.value().total_cmp(&updated[a].dod.value()))
    });

    let shed = shed_in_order(&mut updated, order.into_iter(), overload, policy, model);
    ThrottleOutcome {
        assignments: updated,
        power_shed: shed,
        residual_overload: (overload - shed).max(Watts::ZERO),
    }
}

/// Reverse-order throttling over an incrementally maintained [`ChargeIndex`]:
/// the same shed pass as [`throttle_on_overload`], but the
/// lowest-priority-highest-discharge-first order is
/// [`ChargeIndex::shed_order`] — no per-call comparison sort. The racks'
/// commanded currents are read from the index.
///
/// Assignments are returned in the index's *charge* order (the reverse of the
/// shed order), with `sla_met` recomputed for every rack against `policy`.
#[must_use]
pub fn throttle_on_overload_indexed(
    index: &ChargeIndex,
    overload: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> ThrottleOutcome {
    let mut updated: Vec<ChargeAssignment> = index
        .charge_order()
        .map(|(rack, e)| ChargeAssignment {
            rack,
            priority: e.priority,
            dod: e.dod,
            current: e.current,
            sla_met: policy.meets_sla(e.priority, e.dod, e.current),
        })
        .collect();
    if overload <= Watts::ZERO {
        return ThrottleOutcome {
            assignments: updated,
            power_shed: Watts::ZERO,
            residual_overload: Watts::ZERO,
        };
    }
    // `updated` is in charge order, so the index's shed positions address it
    // directly; ties shed rack-ascending, as in `throttle_on_overload`.
    let order = index.shed_order().into_iter();
    let shed = shed_in_order(&mut updated, order, overload, policy, model);
    ThrottleOutcome {
        assignments: updated,
        power_shed: shed,
        residual_overload: (overload - shed).max(Watts::ZERO),
    }
}

/// The shared shed loop: demote racks to the 1 A minimum in the caller's
/// order until the shed power covers `overload`. Returns the power shed.
///
/// Each demotion is journaled to the flight recorder (`throttle_overload`)
/// with the current it was demoted from (`v0`, amps bits) and the overload
/// still uncovered after the demotion (`v1`, watts bits).
fn shed_in_order(
    updated: &mut [ChargeAssignment],
    order: impl Iterator<Item = usize>,
    overload: Watts,
    policy: &SlaCurrentPolicy,
    model: &RechargePowerModel,
) -> Watts {
    let mut shed = Watts::ZERO;
    for idx in order {
        if shed >= overload {
            break;
        }
        let a = &mut updated[idx];
        if a.current > Amperes::MIN_CHARGE {
            let demoted_from = a.current;
            shed += model.rack_power(a.current) - model.rack_power(Amperes::MIN_CHARGE);
            a.current = Amperes::MIN_CHARGE;
            a.sla_met = policy.meets_sla(a.priority, a.dod, a.current);
            recharge_telemetry::tcounter!("core.throttle_demotions").inc();
            recharge_telemetry::flight(
                recharge_telemetry::FlightKind::Throttle,
                recharge_telemetry::ReasonCode::ThrottleOverload,
                a.rack.index(),
                a.priority.rank(),
                ChargeIndex::dod_bucket(a.dod),
                demoted_from.as_amps().to_bits(),
                (overload - shed).max(Watts::ZERO).as_watts().to_bits(),
            );
        }
    }
    shed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SlaCurrentPolicy {
        SlaCurrentPolicy::production()
    }

    fn model() -> RechargePowerModel {
        RechargePowerModel::production()
    }

    fn rack(i: u32, priority: Priority, dod: f64) -> RackChargeState {
        RackChargeState {
            rack: RackId::new(i),
            priority,
            dod: Dod::new(dod),
        }
    }

    #[test]
    fn ample_power_satisfies_everyone() {
        let racks = vec![
            rack(0, Priority::P1, 0.3),
            rack(1, Priority::P2, 0.5),
            rack(2, Priority::P3, 0.6),
        ];
        let outcome =
            assign_priority_aware(&racks, Watts::from_megawatts(1.0), &policy(), &model());
        assert_eq!(outcome.sla_met_count(None), 3);
        for a in &outcome.assignments {
            let want = policy().sla_current(a.priority, a.dod);
            assert_eq!(a.current, want);
        }
    }

    #[test]
    fn priority_order_protects_p1_first() {
        // Budget for the minimum draw of all four plus roughly one upgrade.
        let m = model();
        let racks = vec![
            rack(0, Priority::P3, 0.6),
            rack(1, Priority::P1, 0.6),
            rack(2, Priority::P2, 0.6),
            rack(3, Priority::P1, 0.7),
        ];
        let min = m.rack_power(Amperes::MIN_CHARGE) * 4.0;
        let p1_need = m.rack_power(policy().sla_current(Priority::P1, Dod::new(0.6)))
            - m.rack_power(Amperes::MIN_CHARGE);
        let budget = min + p1_need * 1.2;
        let outcome = assign_priority_aware(&racks, budget, &policy(), &m);
        // The lowest-DOD P1 rack gets upgraded; P2/P3 stay at minimum.
        assert!(outcome.assignments[1].current > Amperes::MIN_CHARGE);
        assert_eq!(outcome.assignments[0].current, Amperes::MIN_CHARGE);
        assert_eq!(outcome.assignments[2].current, Amperes::MIN_CHARGE);
    }

    #[test]
    fn lowest_dod_first_within_priority() {
        let m = model();
        // All deep enough that every SLA current exceeds the 1 A minimum.
        let racks = vec![
            rack(0, Priority::P2, 0.9),
            rack(1, Priority::P2, 0.55),
            rack(2, Priority::P2, 0.75),
        ];
        let p = policy();
        assert!(p.sla_current(Priority::P2, Dod::new(0.55)) > Amperes::MIN_CHARGE);
        // Enough for the minimums plus exactly the cheapest upgrade.
        let min = m.rack_power(Amperes::MIN_CHARGE) * 3.0;
        let cheapest = m.rack_power(p.sla_current(Priority::P2, Dod::new(0.55)))
            - m.rack_power(Amperes::MIN_CHARGE);
        let outcome = assign_priority_aware(&racks, min + cheapest * 1.01, &p, &m);
        assert!(
            outcome.assignments[1].current > Amperes::MIN_CHARGE,
            "lowest DOD first"
        );
        assert_eq!(outcome.assignments[0].current, Amperes::MIN_CHARGE);
        assert_eq!(outcome.assignments[2].current, Amperes::MIN_CHARGE);
    }

    #[test]
    fn assignments_never_exceed_available_power_beyond_minimum() {
        let m = model();
        let racks: Vec<_> = (0..50)
            .map(|i| {
                rack(
                    i,
                    Priority::ALL[(i % 3) as usize],
                    0.2 + 0.015 * f64::from(i),
                )
            })
            .collect();
        let min = m.rack_power(Amperes::MIN_CHARGE) * racks.len() as f64;
        for budget_kw in [0.0, 10.0, 20.0, 30.0, 50.0] {
            let budget = Watts::from_kilowatts(budget_kw);
            let outcome = assign_priority_aware(&racks, budget, &policy(), &m);
            let cap = budget.max(min);
            assert!(
                outcome.total_recharge_power <= cap + Watts::new(1e-6),
                "total {} exceeds cap {} at budget {}",
                outcome.total_recharge_power,
                cap,
                budget
            );
        }
    }

    #[test]
    fn currents_stay_in_hardware_range() {
        let racks: Vec<_> = (0..30)
            .map(|i| rack(i, Priority::P1, f64::from(i) / 30.0))
            .collect();
        let outcome =
            assign_priority_aware(&racks, Watts::from_kilowatts(40.0), &policy(), &model());
        for a in &outcome.assignments {
            assert!(a.current >= Amperes::MIN_CHARGE && a.current <= Amperes::MAX_CHARGE);
        }
    }

    #[test]
    fn minimum_rate_racks_can_still_meet_lenient_slas() {
        // Fig 14(a): P3 at the 1 A minimum still meets its 90-minute SLA at
        // medium discharge even when the budget upgrades nobody.
        let racks = vec![rack(0, Priority::P3, 0.5)];
        let outcome = assign_priority_aware(&racks, Watts::ZERO, &policy(), &model());
        assert_eq!(outcome.assignments[0].current, Amperes::MIN_CHARGE);
        assert!(outcome.assignments[0].sla_met);
    }

    #[test]
    fn empty_fleet() {
        let outcome = assign_priority_aware(&[], Watts::from_kilowatts(1.0), &policy(), &model());
        assert!(outcome.assignments.is_empty());
        assert_eq!(outcome.total_recharge_power, Watts::ZERO);
    }

    #[test]
    fn throttle_sheds_lowest_priority_highest_dod_first() {
        let m = model();
        let assignments = vec![
            ChargeAssignment {
                rack: RackId::new(0),
                priority: Priority::P1,
                dod: Dod::new(0.5),
                current: Amperes::new(3.0),
                sla_met: true,
            },
            ChargeAssignment {
                rack: RackId::new(1),
                priority: Priority::P3,
                dod: Dod::new(0.4),
                current: Amperes::new(3.0),
                sla_met: true,
            },
            ChargeAssignment {
                rack: RackId::new(2),
                priority: Priority::P3,
                dod: Dod::new(0.8),
                current: Amperes::new(3.0),
                sla_met: true,
            },
        ];
        let one_rack_shed = m.rack_power(Amperes::new(3.0)) - m.rack_power(Amperes::MIN_CHARGE);
        let outcome = throttle_on_overload(&assignments, one_rack_shed * 0.9, &policy(), &m);
        // Only the high-DOD P3 rack needed to be throttled.
        assert_eq!(outcome.assignments[2].current, Amperes::MIN_CHARGE);
        assert_eq!(outcome.assignments[1].current, Amperes::new(3.0));
        assert_eq!(outcome.assignments[0].current, Amperes::new(3.0));
        assert_eq!(outcome.residual_overload, Watts::ZERO);
        // At 80% DOD the 1 A minimum misses the 90-minute P3 SLA (Fig 14(c)).
        assert!(!outcome.assignments[2].sla_met);
    }

    #[test]
    fn throttle_reports_residual_for_server_capping() {
        let m = model();
        let assignments = vec![ChargeAssignment {
            rack: RackId::new(0),
            priority: Priority::P2,
            dod: Dod::new(0.5),
            current: Amperes::new(2.0),
            sla_met: true,
        }];
        let max_shed = m.rack_power(Amperes::new(2.0)) - m.rack_power(Amperes::MIN_CHARGE);
        let overload = max_shed + Watts::new(500.0);
        let outcome = throttle_on_overload(&assignments, overload, &policy(), &m);
        assert_eq!(outcome.assignments[0].current, Amperes::MIN_CHARGE);
        assert!((outcome.residual_overload.as_watts() - 500.0).abs() < 1e-6);
        assert!((outcome.power_shed.as_watts() - max_shed.as_watts()).abs() < 1e-6);
    }

    #[test]
    fn throttle_is_a_no_op_without_overload() {
        let assignments = vec![ChargeAssignment {
            rack: RackId::new(0),
            priority: Priority::P1,
            dod: Dod::new(0.5),
            current: Amperes::new(4.0),
            sla_met: true,
        }];
        let outcome = throttle_on_overload(&assignments, Watts::ZERO, &policy(), &model());
        assert_eq!(outcome.assignments, assignments);
        assert_eq!(outcome.power_shed, Watts::ZERO);
    }

    #[test]
    fn sub_floor_budget_commits_minimum_and_upgrades_nobody() {
        // The committed 1 A fleet floor can exceed the headroom on a heavily
        // oversubscribed tick. The deficit must not become an upgrade budget:
        // every rack stays at the minimum and the reported remainder is zero.
        let m = model();
        let racks: Vec<_> = (0..20).map(|i| rack(i, Priority::P1, 0.6)).collect();
        let min = m.rack_power(Amperes::MIN_CHARGE) * racks.len() as f64;
        let budget = min * 0.5;
        let outcome = assign_priority_aware(&racks, budget, &policy(), &m);
        for a in &outcome.assignments {
            assert_eq!(
                a.current,
                Amperes::MIN_CHARGE,
                "rack {} upgraded on deficit",
                a.rack
            );
        }
        assert!((outcome.total_recharge_power.as_watts() - min.as_watts()).abs() < 1e-6);
        assert_eq!(outcome.remaining_power, Watts::ZERO);
    }

    #[test]
    fn throttled_rack_keeps_lenient_sla() {
        // Fig 14(a): a P3 rack at medium discharge throttled to 1 A still
        // meets its 90-minute SLA; `sla_met` must be recomputed, not cleared.
        let m = model();
        let assignments = vec![ChargeAssignment {
            rack: RackId::new(0),
            priority: Priority::P3,
            dod: Dod::new(0.5),
            current: Amperes::new(3.0),
            sla_met: true,
        }];
        let outcome =
            throttle_on_overload(&assignments, Watts::from_kilowatts(10.0), &policy(), &m);
        assert_eq!(outcome.assignments[0].current, Amperes::MIN_CHARGE);
        assert!(outcome.assignments[0].sla_met);
    }

    #[test]
    fn throttle_is_idempotent_on_residual() {
        // Re-throttling against the uncovered residual sheds nothing more:
        // every rack is already at the 1 A floor.
        let m = model();
        let p = policy();
        let assignments = vec![
            ChargeAssignment {
                rack: RackId::new(0),
                priority: Priority::P1,
                dod: Dod::new(0.5),
                current: Amperes::new(4.0),
                sla_met: true,
            },
            ChargeAssignment {
                rack: RackId::new(1),
                priority: Priority::P3,
                dod: Dod::new(0.7),
                current: Amperes::new(2.0),
                sla_met: true,
            },
        ];
        let overload = Watts::from_kilowatts(50.0);
        let once = throttle_on_overload(&assignments, overload, &p, &m);
        assert!(
            once.residual_overload > Watts::ZERO,
            "overload should exhaust the fleet"
        );
        let again = throttle_on_overload(&once.assignments, once.residual_overload, &p, &m);
        assert_eq!(again.assignments, once.assignments);
        assert_eq!(again.power_shed, Watts::ZERO);
        assert_eq!(again.residual_overload, once.residual_overload);
    }

    /// Builds an index over the given states with zero commanded currents.
    fn index_of(racks: &[RackChargeState]) -> ChargeIndex {
        let mut index = ChargeIndex::new();
        for r in racks {
            index.upsert(r.rack, r.priority, r.dod, Amperes::ZERO);
        }
        index
    }

    #[test]
    fn indexed_assign_matches_sorted_assign() {
        // Distinct DOD buckets: the index order and the exact-DOD sort agree
        // rack for rack, so the assignments must match exactly.
        let racks = vec![
            rack(0, Priority::P3, 0.62),
            rack(1, Priority::P1, 0.41),
            rack(2, Priority::P2, 0.83),
            rack(3, Priority::P1, 0.77),
            rack(4, Priority::P2, 0.15),
        ];
        let index = index_of(&racks);
        for budget_kw in [0.0, 2.0, 4.0, 8.0, 100.0] {
            let budget = Watts::from_kilowatts(budget_kw);
            let plain = assign_priority_aware(&racks, budget, &policy(), &model());
            let indexed = assign_priority_aware_indexed(&index, budget, &policy(), &model());
            assert_eq!(plain.total_recharge_power, indexed.total_recharge_power);
            assert_eq!(plain.remaining_power, indexed.remaining_power);
            assert_eq!(
                plain.sla_met_count(None),
                indexed.sla_met_count(None),
                "budget {budget}"
            );
            // Same per-rack currents, modulo output order.
            let mut plain_by_rack: Vec<(RackId, Amperes)> = plain
                .assignments
                .iter()
                .map(|a| (a.rack, a.current))
                .collect();
            let mut indexed_by_rack: Vec<(RackId, Amperes)> = indexed
                .assignments
                .iter()
                .map(|a| (a.rack, a.current))
                .collect();
            plain_by_rack.sort_by_key(|&(r, _)| r);
            indexed_by_rack.sort_by_key(|&(r, _)| r);
            assert_eq!(plain_by_rack, indexed_by_rack, "budget {budget}");
        }
    }

    #[test]
    fn indexed_assign_output_is_in_charge_order() {
        let racks = vec![
            rack(0, Priority::P3, 0.3),
            rack(1, Priority::P1, 0.6),
            rack(2, Priority::P2, 0.4),
        ];
        let index = index_of(&racks);
        let outcome =
            assign_priority_aware_indexed(&index, Watts::from_megawatts(1.0), &policy(), &model());
        let order: Vec<u32> = outcome.assignments.iter().map(|a| a.rack.index()).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn indexed_throttle_matches_sorted_throttle() {
        let m = model();
        let p = policy();
        let racks = vec![
            rack(0, Priority::P1, 0.5),
            rack(1, Priority::P3, 0.4),
            rack(2, Priority::P3, 0.8),
            rack(3, Priority::P2, 0.66),
        ];
        let assigned = assign_priority_aware(&racks, Watts::from_megawatts(1.0), &p, &m);
        let mut index = index_of(&racks);
        for a in &assigned.assignments {
            index.set_current(a.rack, a.current);
        }
        let one_rack = m.rack_power(Amperes::new(3.0)) - m.rack_power(Amperes::MIN_CHARGE);
        for overload in [
            Watts::ZERO,
            one_rack * 0.9,
            one_rack * 2.5,
            one_rack * 100.0,
        ] {
            let plain = throttle_on_overload(&assigned.assignments, overload, &p, &m);
            let indexed = throttle_on_overload_indexed(&index, overload, &p, &m);
            assert!(
                (plain.power_shed - indexed.power_shed).abs() < Watts::new(1e-9),
                "shed diverged at overload {overload}"
            );
            assert!(
                (plain.residual_overload - indexed.residual_overload).abs() < Watts::new(1e-9),
                "residual diverged at overload {overload}"
            );
            let mut plain_by_rack: Vec<(RackId, Amperes)> = plain
                .assignments
                .iter()
                .map(|a| (a.rack, a.current))
                .collect();
            let mut indexed_by_rack: Vec<(RackId, Amperes)> = indexed
                .assignments
                .iter()
                .map(|a| (a.rack, a.current))
                .collect();
            plain_by_rack.sort_by_key(|&(r, _)| r);
            indexed_by_rack.sort_by_key(|&(r, _)| r);
            assert_eq!(plain_by_rack, indexed_by_rack, "overload {overload}");
        }
    }

    #[test]
    fn indexed_throttle_breaks_ties_like_the_stable_sort() {
        // Identical racks tie on (priority, DOD); the stable descending sort
        // sheds them in input (rack-ascending) order, and the indexed pass
        // must pick the same victim when the overload only needs one.
        let m = model();
        let p = policy();
        let racks: Vec<RackChargeState> = (0..3).map(|i| rack(i, Priority::P1, 0.65)).collect();
        let assigned = assign_priority_aware(&racks, Watts::from_megawatts(1.0), &p, &m);
        assert!(assigned.assignments[0].current > Amperes::MIN_CHARGE);
        let mut index = index_of(&racks);
        for a in &assigned.assignments {
            index.set_current(a.rack, a.current);
        }
        let one_rack =
            m.rack_power(assigned.assignments[0].current) - m.rack_power(Amperes::MIN_CHARGE);
        let plain = throttle_on_overload(&assigned.assignments, one_rack * 0.5, &p, &m);
        let indexed = throttle_on_overload_indexed(&index, one_rack * 0.5, &p, &m);
        let mut plain_by_rack: Vec<(RackId, Amperes)> = plain
            .assignments
            .iter()
            .map(|a| (a.rack, a.current))
            .collect();
        let mut indexed_by_rack: Vec<(RackId, Amperes)> = indexed
            .assignments
            .iter()
            .map(|a| (a.rack, a.current))
            .collect();
        plain_by_rack.sort_by_key(|&(r, _)| r);
        indexed_by_rack.sort_by_key(|&(r, _)| r);
        assert_eq!(plain_by_rack, indexed_by_rack);
        // Exactly one rack demoted, and it is the lowest rack id of the tie.
        let demoted: Vec<RackId> = indexed_by_rack
            .iter()
            .filter(|&&(_, c)| c == Amperes::MIN_CHARGE)
            .map(|&(r, _)| r)
            .collect();
        assert_eq!(demoted, vec![RackId::new(0)]);
    }

    #[test]
    fn sla_met_count_filters_by_priority() {
        let racks = vec![
            rack(0, Priority::P1, 0.2),
            rack(1, Priority::P2, 0.2),
            rack(2, Priority::P3, 0.2),
        ];
        let outcome =
            assign_priority_aware(&racks, Watts::from_megawatts(1.0), &policy(), &model());
        assert_eq!(outcome.sla_met_count(Some(Priority::P1)), 1);
        assert_eq!(outcome.sla_met_count(None), 3);
    }
}
