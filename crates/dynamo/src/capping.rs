//! Priority-aware server power capping: the Dynamo safety net.
//!
//! Capping "according to priority of services" (§II-B) is the last line of
//! defense in every strategy: lower-priority racks are throttled first, each
//! down to a configurable fraction of its load, until the required reduction
//! is covered.

use recharge_units::{RackId, Watts};

use crate::messages::PowerReading;

/// The largest fraction of a rack's IT load that either controller tier's
/// server capping may shed: servers are never throttled below 60 % of load.
pub(crate) const MAX_CAP_FRACTION: f64 = 0.4;

/// One rack's capping decision: limit the rack to `limit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapDecision {
    /// The rack to cap.
    pub rack: RackId,
    /// The new server power limit for the rack.
    pub limit: Watts,
    /// Power shed by this decision.
    pub shed: Watts,
}

/// Plans server caps covering `deficit`, capping lowest-priority racks first
/// (highest current load first within a priority class, so the fewest racks
/// are touched). Each rack can shed at most `max_cap_fraction` of its current
/// load — servers cannot be throttled to zero.
///
/// Returns the decisions and the deficit that remains uncovered (non-zero
/// only when every rack is already at its floor).
///
/// # Examples
///
/// ```
/// use recharge_dynamo::capping::plan_caps;
/// # use recharge_dynamo::PowerReading;
/// # use recharge_battery::BbuState;
/// use recharge_units::{Dod, Priority, RackId, Watts};
///
/// # let reading = |i: u32, p: Priority, kw: f64| PowerReading {
/// #     rack: RackId::new(i), priority: p, input_power_present: true,
/// #     it_load: Watts::from_kilowatts(kw), recharge_power: Watts::ZERO,
/// #     bbu_state: BbuState::FullyCharged, event_dod: Dod::ZERO, dod: Dod::ZERO,
/// #     capped_power: Watts::ZERO,
/// # };
/// let readings = vec![reading(0, Priority::P1, 8.0), reading(1, Priority::P3, 8.0)];
/// let (caps, uncovered) = plan_caps(&readings, Watts::from_kilowatts(2.0), 0.4);
/// assert_eq!(caps[0].rack, RackId::new(1)); // P3 capped before P1
/// assert_eq!(uncovered, Watts::ZERO);
/// ```
#[must_use]
pub fn plan_caps(
    readings: &[PowerReading],
    deficit: Watts,
    max_cap_fraction: f64,
) -> (Vec<CapDecision>, Watts) {
    assert!(
        (0.0..=1.0).contains(&max_cap_fraction),
        "cap fraction must be a fraction"
    );
    if deficit <= Watts::ZERO {
        return (Vec::new(), Watts::ZERO);
    }

    let mut order: Vec<&PowerReading> = readings.iter().filter(|r| r.input_power_present).collect();
    // Lowest priority first (P3 before P1), then biggest load first.
    order.sort_by(|a, b| {
        b.priority
            .cmp(&a.priority)
            .then(b.it_load.as_watts().total_cmp(&a.it_load.as_watts()))
    });

    let mut decisions = Vec::new();
    let mut remaining = deficit;
    for reading in order {
        if remaining <= Watts::ZERO {
            break;
        }
        let max_shed = reading.it_load * max_cap_fraction;
        if max_shed <= Watts::ZERO {
            continue;
        }
        let shed = max_shed.min(remaining);
        decisions.push(CapDecision {
            rack: reading.rack,
            limit: reading.it_load - shed,
            shed,
        });
        remaining -= shed;
    }
    (decisions, remaining.max(Watts::ZERO))
}

/// Plans which capped racks can be released given `headroom` of spare power,
/// highest priority first (P1 recovers before P3). A rack is only released
/// when its full capped amount fits in the remaining headroom, so uncapping
/// never re-triggers the overload it solved.
#[must_use]
pub fn plan_uncaps(readings: &[PowerReading], headroom: Watts) -> Vec<RackId> {
    if headroom <= Watts::ZERO {
        return Vec::new();
    }
    let mut capped: Vec<&PowerReading> = readings
        .iter()
        .filter(|r| r.capped_power > Watts::ZERO)
        .collect();
    capped.sort_by(|a, b| {
        a.priority.cmp(&b.priority).then(
            a.capped_power
                .as_watts()
                .total_cmp(&b.capped_power.as_watts()),
        )
    });

    let mut released = Vec::new();
    let mut remaining = headroom;
    for reading in capped {
        if reading.capped_power <= remaining {
            released.push(reading.rack);
            remaining -= reading.capped_power;
        }
    }
    released
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_battery::BbuState;
    use recharge_units::{Dod, Priority};

    fn reading(i: u32, priority: Priority, load_kw: f64, capped_kw: f64) -> PowerReading {
        PowerReading {
            rack: RackId::new(i),
            priority,
            input_power_present: true,
            it_load: Watts::from_kilowatts(load_kw),
            recharge_power: Watts::ZERO,
            bbu_state: BbuState::FullyCharged,
            event_dod: Dod::ZERO,
            dod: Dod::ZERO,
            capped_power: Watts::from_kilowatts(capped_kw),
        }
    }

    #[test]
    fn lowest_priority_capped_first() {
        let readings = vec![
            reading(0, Priority::P1, 8.0, 0.0),
            reading(1, Priority::P2, 8.0, 0.0),
            reading(2, Priority::P3, 8.0, 0.0),
        ];
        let (caps, uncovered) = plan_caps(&readings, Watts::from_kilowatts(3.0), 0.4);
        assert_eq!(uncovered, Watts::ZERO);
        assert_eq!(caps[0].rack, RackId::new(2));
        // P3 sheds its full 40% (3.2 kW ≥ 3.0 kW needed): one rack suffices.
        assert_eq!(caps.len(), 1);
        assert!((caps[0].shed.as_kilowatts() - 3.0).abs() < 1e-9);
        assert!((caps[0].limit.as_kilowatts() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn escalates_to_higher_priorities_when_needed() {
        let readings = vec![
            reading(0, Priority::P1, 10.0, 0.0),
            reading(1, Priority::P3, 10.0, 0.0),
        ];
        let (caps, uncovered) = plan_caps(&readings, Watts::from_kilowatts(6.0), 0.4);
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].rack, RackId::new(1));
        assert_eq!(caps[1].rack, RackId::new(0));
        assert_eq!(uncovered, Watts::ZERO);
        let total: f64 = caps.iter().map(|c| c.shed.as_kilowatts()).sum();
        assert!((total - 6.0).abs() < 1e-9);
    }

    #[test]
    fn reports_uncoverable_deficit() {
        let readings = vec![reading(0, Priority::P3, 10.0, 0.0)];
        let (caps, uncovered) = plan_caps(&readings, Watts::from_kilowatts(7.0), 0.4);
        assert_eq!(caps.len(), 1);
        assert!((caps[0].shed.as_kilowatts() - 4.0).abs() < 1e-9);
        assert!((uncovered.as_kilowatts() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn racks_on_battery_are_not_capped() {
        let mut riding = reading(0, Priority::P3, 10.0, 0.0);
        riding.input_power_present = false;
        let (caps, uncovered) = plan_caps(&[riding], Watts::from_kilowatts(1.0), 0.4);
        assert!(caps.is_empty());
        assert!(uncovered > Watts::ZERO);
    }

    #[test]
    fn zero_deficit_needs_no_caps() {
        let readings = vec![reading(0, Priority::P3, 10.0, 0.0)];
        let (caps, uncovered) = plan_caps(&readings, Watts::ZERO, 0.4);
        assert!(caps.is_empty());
        assert_eq!(uncovered, Watts::ZERO);
    }

    #[test]
    fn uncap_releases_highest_priority_first_within_headroom() {
        let readings = vec![
            reading(0, Priority::P3, 6.0, 2.0),
            reading(1, Priority::P1, 6.0, 2.0),
            reading(2, Priority::P2, 6.0, 2.0),
        ];
        let released = plan_uncaps(&readings, Watts::from_kilowatts(4.5));
        assert_eq!(released, vec![RackId::new(1), RackId::new(2)]);
    }

    #[test]
    fn uncap_with_no_headroom_releases_nothing() {
        let readings = vec![reading(0, Priority::P1, 6.0, 2.0)];
        assert!(plan_uncaps(&readings, Watts::ZERO).is_empty());
        assert!(plan_uncaps(&readings, Watts::from_kilowatts(1.0)).is_empty());
    }
}
