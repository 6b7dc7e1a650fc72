//! Two-level control, as deployed (§IV-C): **leaf controllers** (one per
//! RPP) compute and set the initial SLA charging currents for their row,
//! while **upper monitors** (SB/MSB) watch their own breaker for the whole
//! charging period and, on overload, force racks in their subtree to the
//! 1 A minimum in reverse priority order — capping servers only as the last
//! resort.
//!
//! The single-controller [`Controller`](crate::Controller) is the right tool
//! when power is constrained at exactly one level (the paper's §V-B MSB
//! experiments); this module handles constraints at multiple levels at once.

use std::collections::{HashMap, HashSet};

use recharge_core::ChargeIndex;
use recharge_power::{DeviceKind, Topology};
use recharge_units::{Amperes, DeviceId, RackId, SimTime, Watts};

use crate::bus::AgentBus;
use crate::capping::plan_caps;
use crate::controller::{Controller, ControllerConfig, Strategy};
use crate::messages::PowerReading;

/// A monitor protecting one upper-level breaker (SB or MSB).
///
/// It holds no assignment state: when its subtree draw exceeds the limit it
/// progressively forces charging racks to the hardware minimum —
/// lowest-priority-highest-discharge first — and caps servers only if the
/// whole subtree is already at the floor.
///
/// The shed order is kept *materialized* in a persistent [`ChargeIndex`]
/// maintained from per-tick reading deltas, the same structure the leaf
/// controllers use — overload response walks
/// [`ChargeIndex::shed_order`] instead of re-sorting the subtree every tick
/// (see `charge_tiebreak_parity` in the module tests).
#[derive(Debug)]
pub struct UpperMonitor {
    device: DeviceId,
    limit: Watts,
    racks: Vec<RackId>,
    forced_minimum: HashSet<RackId>,
    index: ChargeIndex,
}

impl UpperMonitor {
    /// Creates a monitor for `device` with power `limit` over `racks`.
    #[must_use]
    pub fn new(device: DeviceId, limit: Watts, racks: Vec<RackId>) -> Self {
        UpperMonitor {
            device,
            limit,
            racks,
            forced_minimum: HashSet::new(),
            index: ChargeIndex::new(),
        }
    }

    /// The protected device.
    #[must_use]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// One monitoring interval: returns the server power it had to cap (zero
    /// when battery throttling sufficed).
    pub fn tick<B: AgentBus + ?Sized>(&mut self, bus: &mut B) -> Watts {
        let readings: Vec<PowerReading> = self.racks.iter().filter_map(|&r| bus.read(r)).collect();
        let draw: Watts = readings.iter().map(PowerReading::input_draw).sum();

        // Maintain the persistent shed index from reading deltas: admit
        // newly charging racks, refresh DODs (a no-op unless a quantization
        // bucket is crossed), drop racks that finished or vanished.
        let mut charging = 0usize;
        for reading in &readings {
            if reading.is_charging() {
                charging += 1;
                if self.index.contains(reading.rack) {
                    self.index.set_dod(reading.rack, reading.event_dod);
                } else {
                    self.index.upsert(
                        reading.rack,
                        reading.priority,
                        reading.event_dod,
                        Amperes::ZERO,
                    );
                }
            } else {
                self.index.remove(reading.rack);
            }
        }
        if self.index.len() > charging {
            // Unreachable racks disappeared from the readings entirely.
            let present: HashSet<RackId> = readings.iter().map(|r| r.rack).collect();
            let gone: Vec<RackId> = self
                .index
                .charge_order()
                .map(|(rack, _)| rack)
                .filter(|rack| !present.contains(rack))
                .collect();
            for rack in gone {
                self.index.remove(rack);
            }
        }

        if draw <= self.limit {
            // Forget finished charge sequences so the next event starts clean.
            self.forced_minimum
                .retain(|rack| self.index.contains(*rack));
            return Watts::ZERO;
        }
        let mut overload = draw - self.limit;

        // Reverse order: lowest priority first, deepest discharge first,
        // the index's shed order (the same as `throttle_on_overload_indexed`).
        let racks: Vec<RackId> = self.index.charge_order().map(|(rack, _)| rack).collect();
        let by_rack: HashMap<RackId, &PowerReading> =
            readings.iter().map(|r| (r.rack, r)).collect();
        let floor = Watts::new(375.0); // ≈1 A rack draw; shed estimate only
        for i in self.index.shed_order() {
            if overload <= Watts::ZERO {
                break;
            }
            let rack = racks[i];
            if self.forced_minimum.contains(&rack) {
                continue;
            }
            let Some(reading) = by_rack.get(&rack) else {
                continue;
            };
            bus.set_charge_override(rack, Amperes::MIN_CHARGE);
            self.forced_minimum.insert(rack);
            overload -= (reading.recharge_power - floor).max(Watts::ZERO);
        }

        if overload > Watts::ZERO {
            let (caps, _uncovered) = plan_caps(&readings, overload);
            for cap in &caps {
                bus.cap_servers(cap.rack, cap.limit);
            }
            return caps.iter().map(|c| c.shed).sum();
        }
        Watts::ZERO
    }
}

/// The deployed two-level arrangement: a leaf [`Controller`] per RPP plus an
/// [`UpperMonitor`] per SB/MSB breaker.
///
/// # Examples
///
/// ```no_run
/// use recharge_dynamo::{HierarchicalControl, Strategy};
/// use recharge_power::facebook;
///
/// let plan = facebook::single_msb(56);
/// let control = HierarchicalControl::from_topology(&plan.topology, Strategy::PriorityAware);
/// assert!(control.leaf_count() > 0);
/// ```
pub struct HierarchicalControl {
    leaves: Vec<Controller>,
    uppers: Vec<UpperMonitor>,
}

impl HierarchicalControl {
    /// Builds the control tree from a topology: every RPP with a breaker gets
    /// a leaf controller, every SB/MSB with a breaker gets an upper monitor.
    #[must_use]
    pub fn from_topology(topology: &Topology, strategy: Strategy) -> Self {
        let mut leaves = Vec::new();
        let mut uppers = Vec::new();
        for device in topology.devices() {
            let Some(limit) = device.limit() else {
                continue;
            };
            match device.kind() {
                DeviceKind::Rpp => {
                    let config = ControllerConfig::new(device.id(), limit)
                        .with_scope(topology.racks_under(device.id()));
                    leaves.push(Controller::new(config, strategy));
                }
                DeviceKind::Msb | DeviceKind::Sb => {
                    uppers.push(UpperMonitor::new(
                        device.id(),
                        limit,
                        topology.racks_under(device.id()),
                    ));
                }
                DeviceKind::Substation | DeviceKind::Msg => {}
            }
        }
        HierarchicalControl { leaves, uppers }
    }

    /// Number of leaf controllers.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of upper monitors.
    #[must_use]
    pub fn upper_count(&self) -> usize {
        self.uppers.len()
    }

    /// One control interval across the whole tree: leaves first (assignment
    /// and local protection), then upper monitors (aggregate protection).
    /// Returns the total server power capped this tick.
    pub fn tick<B: AgentBus + ?Sized>(&mut self, now: SimTime, bus: &mut B) -> Watts {
        let mut capped = Watts::ZERO;
        for leaf in &mut self.leaves {
            let report = leaf.tick(now, bus);
            capped += report.cap_requested;
        }
        for upper in &mut self.uppers {
            capped += upper.tick(bus);
        }
        capped
    }

    /// Per-rack commanded currents across all leaf controllers.
    #[must_use]
    pub fn commanded_currents(&self) -> HashMap<RackId, Amperes> {
        let mut all = HashMap::new();
        for leaf in &self.leaves {
            all.extend(leaf.commanded_currents());
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SimRackAgent;
    use crate::bus::InMemoryBus;
    use recharge_power::facebook;
    use recharge_units::{Priority, Seconds};

    /// A small MSB: 4 RPPs × 4 racks.
    fn build() -> (
        HierarchicalControl,
        InMemoryBus<SimRackAgent>,
        recharge_power::facebook::MsbPlan,
    ) {
        let plan = facebook::single_msb_with_row_size(16, 4);
        let agents: Vec<SimRackAgent> = plan
            .racks
            .iter()
            .map(|&rack| {
                SimRackAgent::builder(rack, Priority::ALL[(rack.index() % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect();
        let control = HierarchicalControl::from_topology(&plan.topology, Strategy::PriorityAware);
        (control, InMemoryBus::new(agents), plan)
    }

    fn open_transition(bus: &mut InMemoryBus<SimRackAgent>, secs: f64) {
        for a in bus.agents_mut() {
            a.set_input_power(false);
        }
        for a in bus.agents_mut() {
            a.step(Seconds::new(secs));
        }
        for a in bus.agents_mut() {
            a.set_input_power(true);
        }
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
    }

    #[test]
    fn control_tree_shape_matches_topology() {
        let (control, _, plan) = build();
        assert_eq!(control.leaf_count(), plan.rpps.len());
        assert_eq!(control.upper_count(), 1 + plan.sbs.len());
    }

    #[test]
    fn leaves_assign_sla_currents_per_row() {
        let (mut control, mut bus, _) = build();
        open_transition(&mut bus, 60.0);
        control.tick(SimTime::from_secs(61.0), &mut bus);
        let commanded = control.commanded_currents();
        assert_eq!(commanded.len(), 16, "every rack coordinated by its leaf");
        for (&rack, &current) in &commanded {
            assert!(current >= Amperes::MIN_CHARGE, "rack {rack} at {current}");
        }
    }

    #[test]
    fn upper_monitor_throttles_subtree_on_aggregate_overload() {
        // Constrain one SB below its subtree draw while every RPP stays
        // comfortable: only the upper monitor can see this overload.
        let (_, mut bus, plan) = build();
        let sb = plan.sbs[0];
        let racks = plan.topology.racks_under(sb);
        assert!(!racks.is_empty());
        let mut control =
            HierarchicalControl::from_topology(&plan.topology, Strategy::PriorityAware);
        // Shrink that SB's monitor limit to IT + a sliver.
        let it: Watts = racks
            .iter()
            .map(|&r| bus.read(r).expect("reachable").it_load)
            .sum();
        for upper in &mut control.uppers {
            if upper.device() == sb {
                upper.limit = it + Watts::new(500.0);
            }
        }

        open_transition(&mut bus, 90.0);
        for s in 0..30 {
            control.tick(SimTime::from_secs(62.0 + f64::from(s)), &mut bus);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        let forced = control
            .uppers
            .iter()
            .find(|u| u.device() == sb)
            .expect("monitor exists")
            .forced_minimum
            .len();
        assert!(forced > 0, "the SB monitor should have forced racks to 1 A");
        // And the subtree draw came back under the (tightened) limit.
        let draw: Watts = racks
            .iter()
            .map(|&r| bus.read(r).expect("reachable").input_draw())
            .sum();
        assert!(
            draw <= it + Watts::new(500.0) + Watts::new(1.0),
            "draw {draw}"
        );
    }

    /// A fixed-reading bus that records the override order the monitor
    /// issues; commands route nowhere.
    struct RecordingBus {
        readings: Vec<PowerReading>,
        overrides: Vec<RackId>,
    }

    impl AgentBus for RecordingBus {
        fn racks(&self) -> Vec<RackId> {
            self.readings.iter().map(|r| r.rack).collect()
        }
        fn read(&self, rack: RackId) -> Option<PowerReading> {
            self.readings.iter().find(|r| r.rack == rack).copied()
        }
        fn set_charge_override(&mut self, rack: RackId, _current: Amperes) {
            self.overrides.push(rack);
        }
        fn clear_charge_override(&mut self, _rack: RackId) {}
        fn set_charge_postponed(&mut self, _rack: RackId, _postponed: bool) {}
        fn cap_servers(&mut self, _rack: RackId, _limit: Watts) {}
        fn uncap_servers(&mut self, _rack: RackId) {}
    }

    fn charging_reading(rack: u32, priority: Priority, dod: f64) -> PowerReading {
        PowerReading {
            rack: RackId::new(rack),
            priority,
            input_power_present: true,
            it_load: Watts::from_kilowatts(6.0),
            recharge_power: Watts::from_kilowatts(1.0),
            bbu_state: recharge_battery::BbuState::Charging,
            event_dod: recharge_units::Dod::new(dod),
            dod: recharge_units::Dod::new(dod),
            capped_power: Watts::ZERO,
        }
    }

    /// The indexed shed order must match the sorted path it replaced: the
    /// old code stably sorted candidates by descending priority, then
    /// descending exact DOD — so exact-(priority, DOD) ties shed in input
    /// (rack-ascending) order. The index walks (rank, DOD-bucket) groups in
    /// reverse charge order with racks ascending within a group; with DODs
    /// in distinct buckets plus exact ties, the two orders must be equal.
    #[test]
    fn charge_tiebreak_parity() {
        let readings = vec![
            charging_reading(0, Priority::P1, 0.30),
            charging_reading(1, Priority::P3, 0.80), // exact tie with rack 2
            charging_reading(2, Priority::P3, 0.80),
            charging_reading(3, Priority::P2, 0.55), // exact tie with rack 5
            charging_reading(4, Priority::P3, 0.20),
            charging_reading(5, Priority::P2, 0.55),
        ];

        // The replicated old path: stable sort, descending priority then
        // descending exact DOD, over the readings in input order.
        let mut sorted: Vec<&PowerReading> = readings.iter().collect();
        sorted.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then(b.event_dod.value().total_cmp(&a.event_dod.value()))
        });
        let expected: Vec<RackId> = sorted.iter().map(|r| r.rack).collect();

        // The indexed path, via a monitor whose limit forces a full shed.
        let racks: Vec<RackId> = readings.iter().map(|r| r.rack).collect();
        let mut monitor = UpperMonitor::new(DeviceId::new(9), Watts::new(1.0), racks);
        let mut bus = RecordingBus {
            readings,
            overrides: Vec::new(),
        };
        monitor.tick(&mut bus);

        assert_eq!(
            bus.overrides, expected,
            "indexed shed order diverged from the sorted path"
        );
        assert_eq!(monitor.forced_minimum.len(), 6);
    }

    /// The persistent index follows reading deltas: racks that finish
    /// charging (or vanish from the readings) drop out of the shed order.
    #[test]
    fn index_tracks_reading_deltas() {
        let mut readings = vec![
            charging_reading(0, Priority::P2, 0.40),
            charging_reading(1, Priority::P3, 0.60),
        ];
        let racks: Vec<RackId> = readings.iter().map(|r| r.rack).collect();
        // Generous limit: no shed, but the index still tracks charging racks.
        let mut monitor = UpperMonitor::new(DeviceId::new(9), Watts::from_kilowatts(100.0), racks);
        let mut bus = RecordingBus {
            readings: readings.clone(),
            overrides: Vec::new(),
        };
        monitor.tick(&mut bus);
        assert_eq!(monitor.index.len(), 2);

        // Rack 1 finishes charging; rack 0 disappears (unreachable).
        readings[1].bbu_state = recharge_battery::BbuState::FullyCharged;
        readings.remove(0);
        bus.readings = readings;
        monitor.tick(&mut bus);
        assert!(monitor.index.is_empty(), "finished/vanished racks linger");
        assert!(bus.overrides.is_empty(), "no overload, no overrides");
    }

    #[test]
    fn forced_set_clears_after_charging_completes() {
        let (_, mut bus, plan) = build();
        let mut control =
            HierarchicalControl::from_topology(&plan.topology, Strategy::PriorityAware);
        let msb = plan.msb;
        for upper in &mut control.uppers {
            if upper.device() == msb {
                upper.limit = Watts::from_kilowatts(98.0); // 16 racks × 6 kW + 2 kW
            }
        }
        open_transition(&mut bus, 60.0);
        for s in 0..4_000 {
            control.tick(SimTime::from_secs(62.0 + f64::from(s)), &mut bus);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        for upper in &control.uppers {
            assert_eq!(
                upper.forced_minimum.len(),
                0,
                "monitor {} still holds racks",
                upper.device()
            );
        }
    }
}
