//! Physically grounded AOR: instead of parameterizing the battery by a fixed
//! charging time (Fig 9a's x-axis), replay the sampled failure events through
//! the calibrated battery model, with the charging current chosen per event
//! by an arbitrary rule.
//!
//! This closes the loop between §IV-A's reliability analysis and §IV-C's
//! coordination policy: pass the Fig 9(b) SLA rule for a priority and the
//! emergent AOR should land at that priority's Table II target; pass a
//! throttled 1 A rule and you measure the redundancy cost of coordination
//! ("we prefer to relax the redundancy provided by the batteries", §V-B2).

use recharge_battery::{BbuParams, ChargeTimeTable};
use recharge_units::{Amperes, Dod, Seconds, Watts};

use crate::aor::AorSimulation;

/// Result of one physical AOR run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalAorReport {
    /// Fraction of time the battery was fully charged.
    pub aor: f64,
    /// Power-loss episodes per year in the sampled stream.
    pub episodes_per_year: f64,
    /// Mean battery depth of discharge at charge start.
    pub mean_event_dod: Dod,
    /// Mean time to recharge after an event.
    pub mean_charge_time: Seconds,
    /// Events whose recharge was still incomplete when the next event began
    /// (depth carried over).
    pub compound_events: usize,
}

/// Replays Table I failure events through the battery model.
#[derive(Debug, Clone)]
pub struct PhysicalAorSimulation {
    events: AorSimulation,
    rack_load: Watts,
    params: BbuParams,
}

impl PhysicalAorSimulation {
    /// Creates a physical AOR simulation: `events` samples the power-loss
    /// stream, `rack_load` is the rack IT load carried by the batteries
    /// during each loss.
    #[must_use]
    pub fn new(events: AorSimulation, rack_load: Watts) -> Self {
        PhysicalAorSimulation {
            events,
            rack_load,
            params: BbuParams::production(),
        }
    }

    /// Runs `horizon_years` with the charging current chosen per event by
    /// `current_for` (given the event's depth of discharge), using `table`
    /// for the resulting charge times.
    ///
    /// If a new power loss begins before the previous recharge completes, the
    /// remaining depth carries over (linear-in-time recharge approximation
    /// between events).
    ///
    /// # Panics
    ///
    /// Panics if `horizon_years` is not positive.
    pub fn run_with<F>(
        &self,
        horizon_years: f64,
        seed: u64,
        table: &ChargeTimeTable,
        mut current_for: F,
    ) -> PhysicalAorReport
    where
        F: FnMut(Dod) -> Amperes,
    {
        let timeline = self.events.run(horizon_years, seed);
        let horizon = timeline.horizon_secs();
        let intervals = timeline.intervals();

        // Per-BBU discharge rate while carrying its share of the rack.
        let per_bbu = self.rack_load / f64::from(self.params.bbus_per_rack);
        let dod_per_sec = per_bbu.as_watts() / self.params.full_discharge_energy.as_joules();

        let mut lost = 0.0;
        let mut dod_carry = 0.0f64;
        let mut charged_until = f64::NEG_INFINITY;
        let mut dod_sum = 0.0;
        let mut charge_time_sum = 0.0;
        let mut compound = 0;

        for (i, &(start, end)) in intervals.iter().enumerate() {
            // Carry-over: how much recharge was still pending at this start?
            if charged_until > start {
                compound += 1;
            } else {
                dod_carry = 0.0;
            }

            let dod = (dod_carry + dod_per_sec * (end - start)).min(1.0);
            let current = current_for(Dod::new(dod));
            let charge_secs = table
                .charge_time(
                    Dod::new(dod),
                    current.clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE),
                )
                .expect("hardware-range current within table")
                .as_secs();
            dod_sum += dod;
            charge_time_sum += charge_secs;
            charged_until = end + charge_secs;

            let next_start = intervals.get(i + 1).map_or(f64::INFINITY, |&(s, _)| s);
            let redundant_again = charged_until.min(next_start).min(horizon);
            lost += (redundant_again - start).max(0.0);

            // Linear recharge approximation for the carried depth.
            if next_start < charged_until {
                let progressed = ((next_start - end) / charge_secs).clamp(0.0, 1.0);
                dod_carry = dod * (1.0 - progressed);
            }
        }

        let n = intervals.len().max(1) as f64;
        PhysicalAorReport {
            aor: 1.0 - lost / horizon,
            episodes_per_year: timeline.episodes_per_year(),
            mean_event_dod: Dod::new(dod_sum / n),
            mean_charge_time: Seconds::new(charge_time_sum / n),
            compound_events: compound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::standard_sources;
    use recharge_battery::{variable_current, ChargePolicy};

    fn sim() -> PhysicalAorSimulation {
        PhysicalAorSimulation::new(
            AorSimulation::new(standard_sources()),
            Watts::from_kilowatts(6.3),
        )
    }

    fn table() -> &'static ChargeTimeTable {
        ChargeTimeTable::production()
    }

    #[test]
    fn variable_charger_aor_is_high() {
        // Open transitions average 45 s → ≈16% DOD at 6.3 kW (rare multi-hour
        // outages pull the mean up further): the variable charger recovers in
        // ≈15 min, so AOR stays well above 99.9%.
        let report = sim().run_with(3_000.0, 5, table(), variable_current);
        assert!(report.aor > 0.999, "AOR {:.5}", report.aor);
        assert!((8.0..11.5).contains(&report.episodes_per_year));
        assert!(
            report.mean_event_dod < Dod::new(0.3),
            "{}",
            report.mean_event_dod
        );
        assert!(report.mean_charge_time < Seconds::from_minutes(45.0));
    }

    #[test]
    fn throttled_charging_costs_redundancy() {
        // Forcing every event to the 1 A floor visibly lowers AOR versus the
        // 5 A original charger — the coordination trade the paper accepts.
        let fast = sim().run_with(3_000.0, 7, table(), |dod| {
            ChargePolicy::Original.automatic_current(dod)
        });
        let slow = sim().run_with(3_000.0, 7, table(), |_| Amperes::MIN_CHARGE);
        assert!(
            slow.aor < fast.aor,
            "slow {:.5} vs fast {:.5}",
            slow.aor,
            fast.aor
        );
        assert!(slow.mean_charge_time > fast.mean_charge_time);
        // Both remain above the paper's lowest published target band.
        assert!(slow.aor > 0.995);
    }

    #[test]
    fn compound_events_are_detected() {
        // With an artificially slow charge (1 A) and frequent events, some
        // recharges will still be in flight when the next loss hits.
        let report = sim().run_with(5_000.0, 11, table(), |_| Amperes::MIN_CHARGE);
        assert!(report.compound_events > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sim().run_with(500.0, 3, table(), variable_current);
        let b = sim().run_with(500.0, 3, table(), variable_current);
        assert_eq!(a, b);
    }
}
