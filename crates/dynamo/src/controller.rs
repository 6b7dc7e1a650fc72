//! The Dynamo controller protecting one circuit breaker.

use std::collections::HashMap;

use recharge_core::{
    assign_priority_aware_indexed, global_current, throttle_on_overload_indexed, ChargeAssignment,
    ChargeIndex, IndexedCharge, RechargePowerModel, SlaCurrentPolicy,
};
use recharge_telemetry::{flight, tcounter, tspan, FlightKind, ReasonCode, NO_BUCKET};
use recharge_units::{Amperes, DeviceId, Dod, Priority, RackId, RackMap, SimTime, Watts};

use crate::bus::AgentBus;
use crate::capping::{plan_caps, plan_uncaps};
use crate::messages::PowerReading;

/// How the controller coordinates battery charging (§V-B2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// No charging coordination: chargers act on their local (original or
    /// variable) policy; the controller only caps servers to protect the
    /// breaker. This models the pre-coordination deployments of Fig 13.
    Uncoordinated,
    /// The global baseline: every charging rack gets the same current, the
    /// largest hardware-legal rate that fits the instantaneous available
    /// power. Priority- and DOD-oblivious.
    Global,
    /// The paper's contribution: Algorithm 1 at charge start, reverse-order
    /// battery throttling on overload, server capping only as a last resort.
    #[default]
    PriorityAware,
}

impl core::fmt::Display for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Strategy::Uncoordinated => "uncoordinated",
            Strategy::Global => "global",
            Strategy::PriorityAware => "priority-aware",
        };
        f.write_str(name)
    }
}

/// The planning guard band: charging assignments are planned against
/// `limit × (1 − PLANNING_MARGIN)` so that trace noise after assignment
/// cannot push the total over the physical limit.
const PLANNING_MARGIN: f64 = 0.015;

/// Configuration of a [`Controller`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    device: DeviceId,
    limit: Watts,
    allow_postponing: bool,
    scope: Option<Vec<RackId>>,
    policy: SlaCurrentPolicy,
    model: RechargePowerModel,
}

impl ControllerConfig {
    /// Creates a configuration for the breaker at `device` with power `limit`
    /// and production policy/model defaults.
    #[must_use]
    pub fn new(device: DeviceId, limit: Watts) -> Self {
        ControllerConfig {
            device,
            limit,
            allow_postponing: false,
            scope: None,
            policy: SlaCurrentPolicy::production(),
            model: RechargePowerModel::production(),
        }
    }

    /// Restricts the controller to a subset of the bus's racks — a leaf
    /// controller sees only the racks under its own RPP even when the bus
    /// spans the whole suite. Each rack is named at most once; the
    /// controller reads the scope rack by rack, in this order.
    #[must_use]
    pub fn with_scope(mut self, racks: Vec<RackId>) -> Self {
        self.scope = Some(racks);
        self
    }

    /// Enables the charge-postponing extension (§IV-A future work): under
    /// extreme constraint the controller defers whole racks instead of
    /// capping servers. Requires charger hardware that can hold at zero.
    #[must_use]
    pub fn with_postponing(mut self) -> Self {
        self.allow_postponing = true;
        self
    }

    /// The protected breaker's power limit.
    #[must_use]
    pub fn limit(&self) -> Watts {
        self.limit
    }

    /// The limit the planner budgets against (guard band applied).
    #[must_use]
    fn planning_limit(&self) -> Watts {
        self.limit * (1.0 - PLANNING_MARGIN)
    }

    /// The protected device.
    #[must_use]
    pub fn device(&self) -> DeviceId {
        self.device
    }
}

/// What one controller tick observed and did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerReport {
    /// Tick instant.
    pub now: SimTime,
    /// Total draw at the breaker (IT + recharge of powered racks).
    pub total_draw: Watts,
    /// IT-load component of the draw.
    pub it_load: Watts,
    /// Recharge-power component of the draw.
    pub recharge_power: Watts,
    /// Whether the draw exceeded the limit this tick.
    pub overloaded: bool,
    /// Charging racks that received a (new or updated) current override.
    pub overrides_sent: usize,
    /// Racks throttled to the minimum by the overload response.
    pub racks_throttled: usize,
    /// Server power shed by caps currently in force.
    pub capped_power: Watts,
    /// Additional capping requested this tick (zero when batteries absorbed
    /// the whole overload).
    pub cap_requested: Watts,
    /// Racks whose charging is deferred by the postponing extension.
    pub racks_postponed: usize,
}

/// A record of a rack whose charging is deferred by the postponing extension:
/// parked outside the [`ChargeIndex`] (it takes no part in assignment or
/// throttling — its commanded current is held at zero) with its state frozen
/// at park time for the resume ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ParkedCharge {
    priority: Priority,
    dod: Dod,
}

/// A Dynamo controller protecting one breaker (§IV-B): monitors the racks
/// below it, coordinates their battery charging according to its
/// [`Strategy`], and caps servers when charging throttles cannot prevent an
/// overload.
///
/// The plannable charging population lives in a [`ChargeIndex`] — an
/// incrementally maintained (priority, DOD-bucket) ordering fed by per-tick
/// battery-state deltas — so Algorithm 1 and the reverse throttling pass read
/// their iteration order straight off the index instead of re-sorting the
/// fleet every tick.
///
/// Call [`Controller::tick`] once per control interval with the agent bus,
/// or [`Controller::tick_on`] with the interval's rows when the caller has
/// already read them; the controller is transport-agnostic and holds no
/// references between ticks.
pub struct Controller {
    config: ControllerConfig,
    strategy: Strategy,
    index: ChargeIndex,
    parked: RackMap<ParkedCharge>,
    /// [`tick`](Self::tick)'s read buffer, kept between ticks so a tick
    /// reads the fleet without allocating. It holds no state: every tick
    /// refills it.
    readings: Vec<PowerReading>,
}

impl Controller {
    /// Creates a controller.
    #[must_use]
    pub fn new(config: ControllerConfig, strategy: Strategy) -> Self {
        Controller {
            config,
            strategy,
            index: ChargeIndex::new(),
            parked: RackMap::default(),
            readings: Vec::new(),
        }
    }

    /// Racks whose charging is currently postponed.
    #[must_use]
    pub fn postponed_racks(&self) -> Vec<RackId> {
        let mut v: Vec<RackId> = self.parked.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The coordination strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Currents currently commanded for in-progress charge sequences
    /// (postponed racks are held at zero).
    #[must_use]
    pub fn commanded_currents(&self) -> HashMap<RackId, Amperes> {
        let mut currents: HashMap<RackId, Amperes> = self
            .index
            .charge_order()
            .map(|(r, e)| (r, e.current))
            .collect();
        for &rack in self.parked.keys() {
            currents.insert(rack, Amperes::ZERO);
        }
        currents
    }

    /// Runs one control interval: read, coordinate, protect.
    ///
    /// The read goes through the bus: the scope rack by rack, or the whole
    /// bus with one [`read_all`](AgentBus::read_all), into a buffer the
    /// controller keeps between ticks. The rows then go to
    /// [`tick_on`](Self::tick_on), which makes every decision. When
    /// telemetry is enabled the read is traced as `controller.read`.
    pub fn tick<B: AgentBus + ?Sized>(&mut self, now: SimTime, bus: &mut B) -> ControllerReport {
        // The buffer leaves `self` for the tick, so the rows can be borrowed
        // while the controller's state changes; it returns at the end.
        let mut rows = std::mem::take(&mut self.readings);
        rows.clear();
        {
            let _read_span = tspan!("controller.read", "controller");
            match &self.config.scope {
                Some(scope) => rows.extend(scope.iter().filter_map(|&r| bus.read(r))),
                None => bus.read_all(&mut rows),
            }
        }
        let report = self.tick_on(now, &rows, bus);
        self.readings = rows;
        report
    }

    /// Runs one control interval on rows the caller has already read:
    /// coordinate, protect.
    ///
    /// `rows` must be what [`tick`](Self::tick)'s read would return at this
    /// instant: every reachable rack the controller watches, in bus order
    /// (the scope's order for a scoped controller). A caller that holds the
    /// fleet's rows anyway, like the simulator's in-process backends, hands
    /// them over instead of reading the fleet a second time; the decisions,
    /// commands and report are then exactly `tick`'s.
    ///
    /// When telemetry is enabled the tick's phases are traced as spans
    /// (`controller.gather`, `controller.assign`, `controller.throttle`,
    /// `controller.postpone`, `controller.recover`) under the parent
    /// `controller.tick`; the instrumentation reads clocks only and cannot
    /// change any control decision.
    pub fn tick_on<B: AgentBus + ?Sized>(
        &mut self,
        now: SimTime,
        rows: &[PowerReading],
        bus: &mut B,
    ) -> ControllerReport {
        let _tick_span = tspan!("controller.tick", "controller");
        tcounter!("controller.ticks").inc();
        // Anchor ambient flight-recorder time to the control interval so every
        // decision journaled below lands at this tick's simulated instant.
        recharge_telemetry::set_flight_now(now.as_secs());
        let gather_span = tspan!("controller.gather", "controller");

        // One pass over the fleet. Each sum is its own accumulator folded
        // from zero in fleet order, so it has the bits of a separate `Sum`.
        // Available power is planned against the fleet's full IT load,
        // `planning_it`: racks on battery bring their load back the moment
        // the transition ends. Besides the charging population, the pass
        // collects the racks still riding the open transition: the
        // controller estimates their DOD while the power is out (§IV-B) and
        // pre-plans their override so the charger never starts at its
        // automatic current. It also counts the capped racks: a count, not
        // the float sum, decides exactly whether any cap is left to release.
        let mut it_load = Watts::ZERO;
        let mut recharge = Watts::ZERO;
        let mut capped_now = Watts::ZERO;
        let mut planning_it = Watts::ZERO;
        let mut capped_racks = 0usize;
        let mut charging: Vec<&PowerReading> = Vec::new();
        let mut discharging: Vec<&PowerReading> = Vec::new();
        for r in rows {
            if r.input_power_present {
                it_load += r.it_load;
                recharge += r.recharge_power;
            }
            capped_now += r.capped_power;
            capped_racks += usize::from(r.capped_power > Watts::ZERO);
            planning_it += r.it_load;
            match r.bbu_state {
                recharge_battery::BbuState::Charging => charging.push(r),
                recharge_battery::BbuState::Discharging => discharging.push(r),
                _ => {}
            }
        }
        let total = it_load + recharge;

        // One pass splits the live racks into fresh ones and tracked ones. If
        // every tracked rack is still live, nothing finished; only otherwise
        // is the set difference built. A tracked rack with no reading at all
        // (unreachable) counts as finished too.
        let mut fresh: Vec<&PowerReading> = Vec::new();
        let mut live_tracked = 0;
        for &r in charging.iter().chain(&discharging) {
            if self.index.contains(r.rack) || self.parked.contains_key(&r.rack) {
                live_tracked += 1;
            } else {
                fresh.push(r);
            }
        }
        if live_tracked != self.index.len() + self.parked.len() {
            let mut live: Vec<RackId> = charging
                .iter()
                .chain(&discharging)
                .map(|r| r.rack)
                .collect();
            live.sort_unstable();
            let finished: Vec<RackId> = self
                .index
                .charge_order()
                .map(|(r, _)| r)
                .chain(self.parked.keys().copied())
                .filter(|r| live.binary_search(r).is_err())
                .collect();
            for rack in finished {
                self.index.remove(rack);
                self.parked.remove(&rack);
                bus.clear_charge_override(rack);
            }
        }
        drop(gather_span);

        let assign_span = tspan!("controller.assign", "controller");
        let mut overrides_sent = 0;
        match self.strategy {
            Strategy::Uncoordinated => {
                // Chargers run their local policy; just remember who charges.
                self.admit(&fresh);
            }
            Strategy::Global => {
                self.admit(&fresh);
                Self::unpostpone_fresh(&fresh, bus);
                self.refresh_dods(&charging, &discharging);
                // Re-derive the uniform rate from instantaneous headroom.
                if !self.index.is_empty() {
                    let available = (self.config.planning_limit() - planning_it).max(Watts::ZERO);
                    let uniform = global_current(self.index.len(), available, &self.config.model);
                    overrides_sent += self.apply_uniform(uniform, bus);
                }
            }
            Strategy::PriorityAware => {
                // Algorithm 1 runs while racks are discharging (pre-planning
                // with the live DOD estimate) and whenever new racks appear;
                // settled assignments persist otherwise. The iteration order
                // comes straight off the incrementally maintained index.
                if !fresh.is_empty() || !discharging.is_empty() {
                    self.admit(&fresh);
                    Self::unpostpone_fresh(&fresh, bus);
                    self.refresh_dods(&charging, &discharging);
                    let available = (self.config.planning_limit() - planning_it).max(Watts::ZERO);
                    let outcome = assign_priority_aware_indexed(
                        &self.index,
                        available,
                        &self.config.policy,
                        &self.config.model,
                    );
                    overrides_sent += self.apply_assignments(&outcome.assignments, bus);
                }
            }
        }
        drop(assign_span);

        // Overload protection. The physical layer needs a control interval to
        // settle after an override (Fig 11: ~20 s in production), so the
        // response is driven by the *effective* draw: for racks with a
        // commanded current, the smaller of the command's model power and the
        // measurement (the min lets the CV taper release headroom); for
        // uncommanded racks, the measurement.
        let effective_recharge: Watts = charging
            .iter()
            .map(|r| match self.index.current(r.rack) {
                Some(c) if c > Amperes::ZERO => {
                    self.config.model.rack_power(c).min(r.recharge_power)
                }
                _ => r.recharge_power,
            })
            .sum();
        let effective_total = it_load + effective_recharge;
        let overloaded = total > self.config.limit;
        let mut racks_throttled = 0;
        let mut cap_requested = Watts::ZERO;
        let mut racks_postponed_now = 0;
        if effective_total > self.config.limit {
            let _throttle_span = tspan!("controller.throttle", "controller");
            let overload = effective_total - self.config.limit;
            let residual = match self.strategy {
                Strategy::PriorityAware => {
                    let outcome = throttle_on_overload_indexed(
                        &self.index,
                        overload,
                        &self.config.policy,
                        &self.config.model,
                    );
                    racks_throttled = outcome
                        .assignments
                        .iter()
                        .filter(|after| {
                            self.index
                                .current(after.rack)
                                .is_some_and(|before| after.current < before)
                        })
                        .count();
                    overrides_sent += self.apply_assignments(&outcome.assignments, bus);
                    outcome.residual_overload
                }
                Strategy::Global => {
                    // The per-tick recompute above already pushed the uniform
                    // rate down to fit; what cannot fit even at 1 A remains.
                    let min_draw =
                        self.config.model.rack_power(Amperes::MIN_CHARGE) * charging.len() as f64;
                    let available = (self.config.limit - it_load).max(Watts::ZERO);
                    (min_draw - available).max(Watts::ZERO).min(overload)
                }
                Strategy::Uncoordinated => overload,
            };
            let mut residual = residual;
            if residual > Watts::ZERO
                && self.config.allow_postponing
                && self.strategy == Strategy::PriorityAware
            {
                let _postpone_span = tspan!("controller.postpone", "controller");
                let assignments = self.index_assignments();
                let outcome =
                    recharge_core::postpone_on_deficit(&assignments, residual, &self.config.model);
                for &rack in &outcome.postponed {
                    bus.set_charge_postponed(rack, true);
                    // Park the rack outside the index: it no longer takes
                    // part in assignment or throttling, and its commanded
                    // current is implicitly zero until resumed.
                    if let Some(entry) = self.index.remove(rack) {
                        flight(
                            FlightKind::Postpone,
                            ReasonCode::PostponeDeficit,
                            rack.index(),
                            entry.priority.rank(),
                            ChargeIndex::dod_bucket(entry.dod),
                            entry.current.as_amps().to_bits(),
                            residual.as_watts().to_bits(),
                        );
                        flight(
                            FlightKind::Park,
                            ReasonCode::PostponeDeficit,
                            rack.index(),
                            entry.priority.rank(),
                            ChargeIndex::dod_bucket(entry.dod),
                            entry.dod.value().to_bits(),
                            0,
                        );
                        self.parked.insert(
                            rack,
                            ParkedCharge {
                                priority: entry.priority,
                                dod: entry.dod,
                            },
                        );
                    }
                }
                racks_postponed_now += outcome.postponed.len();
                residual = outcome.residual_deficit;
            }
            if residual > Watts::ZERO {
                let (caps, _uncovered) = plan_caps(rows, residual);
                for cap in &caps {
                    bus.cap_servers(cap.rack, cap.limit);
                    flight(
                        FlightKind::Cap,
                        ReasonCode::CapLastResort,
                        cap.rack.index(),
                        0,
                        NO_BUCKET,
                        cap.limit.as_watts().to_bits(),
                        cap.shed.as_watts().to_bits(),
                    );
                }
                cap_requested = caps.iter().map(|c| c.shed).sum();
            }
        } else {
            let _recover_span = tspan!("controller.recover", "controller");
            // Resume postponed racks whose hardware-floor draw now fits; the
            // rack is dropped from the parked set so that the next tick's
            // Algorithm 1 pass re-admits and re-plans it from scratch.
            if !self.parked.is_empty() {
                let mut headroom =
                    (self.config.planning_limit() - effective_total).max(Watts::ZERO);
                // Hysteresis: reserve twice the hardware-floor draw per
                // resumed rack so a marginal headroom blip cannot start a
                // resume → deficit → re-postpone oscillation that caps
                // servers in the gap.
                let reserve = self.config.model.rack_power(Amperes::MIN_CHARGE) * 2.0;
                let mut resumable: Vec<(RackId, Priority, Dod)> = self
                    .parked
                    .iter()
                    .map(|(&rack, p)| (rack, p.priority, p.dod))
                    .collect();
                // The rack-id tail keeps the order deterministic when parked
                // racks tie on (priority, DOD).
                resumable.sort_by(|a, b| {
                    a.1.cmp(&b.1)
                        .then(a.2.value().total_cmp(&b.2.value()))
                        .then(a.0.cmp(&b.0))
                });
                for (rack, priority, dod) in resumable {
                    if reserve > headroom {
                        break;
                    }
                    flight(
                        FlightKind::Resume,
                        ReasonCode::ResumeHeadroom,
                        rack.index(),
                        priority.rank(),
                        ChargeIndex::dod_bucket(dod),
                        headroom.as_watts().to_bits(),
                        reserve.as_watts().to_bits(),
                    );
                    headroom -= reserve;
                    bus.set_charge_postponed(rack, false);
                    self.parked.remove(&rack);
                }
            }
            // Recovery: release caps that fit comfortably in the headroom.
            // With no rack capped there is nothing to plan.
            if capped_racks > 0 {
                let headroom = (self.config.limit - effective_total.max(total)) * 0.9;
                for rack in plan_uncaps(rows, headroom) {
                    bus.uncap_servers(rack);
                    flight(
                        FlightKind::Uncap,
                        ReasonCode::UncapHeadroom,
                        rack.index(),
                        0,
                        NO_BUCKET,
                        headroom.as_watts().to_bits(),
                        0,
                    );
                }
            }
        }

        tcounter!("controller.overrides_sent").add(overrides_sent as u64);
        tcounter!("controller.racks_throttled").add(racks_throttled as u64);
        if cap_requested > Watts::ZERO {
            tcounter!("controller.cap_requests").inc();
        }

        ControllerReport {
            now,
            total_draw: total,
            it_load,
            recharge_power: recharge,
            overloaded,
            overrides_sent,
            racks_throttled,
            capped_power: capped_now,
            cap_requested,
            racks_postponed: self.parked.len().max(racks_postponed_now),
        }
    }

    /// Registers newly seen charging/discharging racks in the index with an
    /// uncommanded (zero) current so the first applied assignment always
    /// sends a real override.
    fn admit(&mut self, fresh: &[&PowerReading]) {
        for r in fresh {
            self.index
                .upsert(r.rack, r.priority, r.event_dod, Amperes::ZERO);
        }
    }

    /// Refreshes the DOD of indexed racks from the latest readings: charging
    /// racks keep their latched event DOD, discharging racks track the live
    /// estimate (it grows while the rack is still riding the open
    /// transition). Each refresh is a state delta into the index — the
    /// ordering only moves when a quantization-bucket boundary is crossed.
    fn refresh_dods(&mut self, charging: &[&PowerReading], discharging: &[&PowerReading]) {
        for r in charging {
            self.index.set_dod(r.rack, r.event_dod);
        }
        for r in discharging {
            self.index.set_dod(r.rack, r.dod);
        }
    }

    /// The indexed population as assignments (charge order), for passes that
    /// take a plain slice.
    fn index_assignments(&self) -> Vec<ChargeAssignment> {
        self.index
            .charge_order()
            .map(|(rack, e)| ChargeAssignment {
                rack,
                priority: e.priority,
                dod: e.dod,
                current: e.current,
                sla_met: false,
            })
            .collect()
    }

    /// Clears any stale postpone flag on newly admitted racks.
    ///
    /// A rack re-appearing after a partition or an agent flap may still
    /// carry a postpone flag from an earlier plan that nobody could clear
    /// while it was unreachable (the mesh lease clears it on standalone
    /// fallback, but an in-memory flap has no lease). Admission means the
    /// rack is planned to charge, so make that true on the agent as well —
    /// a no-op for racks that were never postponed.
    fn unpostpone_fresh<B: AgentBus + ?Sized>(fresh: &[&PowerReading], bus: &mut B) {
        for r in fresh {
            bus.set_charge_postponed(r.rack, false);
        }
    }

    /// Sends overrides for assignments that differ from the commanded state;
    /// returns how many were sent.
    fn apply_assignments<B: AgentBus + ?Sized>(
        &mut self,
        assignments: &[ChargeAssignment],
        bus: &mut B,
    ) -> usize {
        let mut sent = 0;
        for a in assignments {
            let Some(current) = self.index.current(a.rack) else {
                continue;
            };
            if overrides(current, a.current) {
                self.index.set_current(a.rack, a.current);
                send_override(bus, a.rack, a.priority, a.dod, current, a.current);
                sent += 1;
            }
        }
        sent
    }

    /// The global arm's assignment: every indexed rack to `uniform`, through
    /// the same delta rule as [`apply_assignments`](Self::apply_assignments)
    /// and in charge order, without building the assignments. Returns how
    /// many overrides were sent.
    fn apply_uniform<B: AgentBus + ?Sized>(&mut self, uniform: Amperes, bus: &mut B) -> usize {
        // Setting a current moves no rack in the order, so the racks to
        // command can be read off first and commanded after.
        let changed: Vec<(RackId, IndexedCharge)> = self
            .index
            .charge_order()
            .filter(|(_, e)| overrides(e.current, uniform))
            .map(|(rack, e)| (rack, *e))
            .collect();
        for &(rack, e) in &changed {
            self.index.set_current(rack, uniform);
            send_override(bus, rack, e.priority, e.dod, e.current, uniform);
        }
        changed.len()
    }

    /// Captures the controller's brain — the [`ChargeIndex`] population and
    /// the parked (postponed) set — as a deterministic snapshot.
    ///
    /// Entries are emitted in charge order (the index's own deterministic
    /// `BTreeSet` iteration) and parked racks in ascending rack order, so two
    /// controllers with identical state produce byte-identical snapshots.
    /// The configuration and strategy are deliberately *not* captured: every
    /// replica of an HA set is constructed with the same config, and leases
    /// live on the agent side where they survive a controller loss anyway.
    #[must_use]
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            entries: self.snapshot_entries().collect(),
            parked: self.snapshot_parked(),
        }
    }

    /// The brain's snapshot, encoded: byte for byte what
    /// `snapshot().to_bytes()` returns, written in one pass straight from
    /// the index without building the [`ControllerSnapshot`]. This is what
    /// an HA leader replicates.
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_snapshot(self.snapshot_entries(), self.snapshot_parked().into_iter())
    }

    /// The indexed racks as snapshot entries, in charge order.
    fn snapshot_entries(&self) -> impl ExactSizeIterator<Item = SnapshotEntry> + '_ {
        self.index.charge_order().map(|(rack, e)| SnapshotEntry {
            rack,
            priority: e.priority,
            dod: e.dod,
            current: e.current,
        })
    }

    /// The parked racks as snapshot entries, in rack order. Nothing is
    /// allocated while no rack is parked.
    fn snapshot_parked(&self) -> Vec<SnapshotParked> {
        let mut parked: Vec<SnapshotParked> = self
            .parked
            .iter()
            .map(|(&rack, p)| SnapshotParked {
                rack,
                priority: p.priority,
                dod: p.dod,
            })
            .collect();
        parked.sort_unstable_by_key(|p| p.rack);
        parked
    }

    /// Replaces the controller's brain with `snapshot`'s state.
    ///
    /// After a restore the next [`tick`](Self::tick) replays the delta since
    /// the snapshot from live agent readings: finished racks are evicted,
    /// newly charging racks admitted, and DOD estimates refreshed — the
    /// standard gather phase is the delta replay.
    pub fn restore(&mut self, snapshot: &ControllerSnapshot) {
        self.index.clear();
        self.parked.clear();
        for e in &snapshot.entries {
            self.index.upsert(e.rack, e.priority, e.dod, e.current);
        }
        for p in &snapshot.parked {
            self.parked.insert(
                p.rack,
                ParkedCharge {
                    priority: p.priority,
                    dod: p.dod,
                },
            );
        }
    }
}

/// The override delta rule: a new current is sent only when it differs from
/// the commanded one by more than 0.01 A.
fn overrides(commanded: Amperes, new: Amperes) -> bool {
    (commanded - new).abs() > Amperes::new(0.01)
}

/// Sends one charging-current override and journals it.
fn send_override<B: AgentBus + ?Sized>(
    bus: &mut B,
    rack: RackId,
    priority: Priority,
    dod: Dod,
    commanded: Amperes,
    new: Amperes,
) {
    bus.set_charge_override(rack, new);
    flight(
        FlightKind::Override,
        ReasonCode::OverrideDelta,
        rack.index(),
        priority.rank(),
        ChargeIndex::dod_bucket(dod),
        new.as_amps().to_bits(),
        commanded.as_amps().to_bits(),
    );
}

/// One indexed rack inside a [`ControllerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct SnapshotEntry {
    rack: RackId,
    priority: Priority,
    dod: Dod,
    current: Amperes,
}

/// One parked (postponed) rack inside a [`ControllerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct SnapshotParked {
    rack: RackId,
    priority: Priority,
    dod: Dod,
}

/// Snapshot codec version byte; decoders reject mismatches.
const SNAPSHOT_VERSION: u8 = 1;

/// A deterministic, bit-exact capture of a [`Controller`]'s mutable state:
/// the charge-index population (charge order) and the parked set (rack
/// order). Produced by [`Controller::snapshot`], consumed by
/// [`Controller::restore`], and wire-portable through
/// [`to_bytes`](Self::to_bytes) / [`from_bytes`](Self::from_bytes) — every
/// `f64` travels as its exact IEEE-754 bit pattern, like the mesh codec, so
/// a restored brain is indistinguishable from the original.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerSnapshot {
    entries: Vec<SnapshotEntry>,
    parked: Vec<SnapshotParked>,
}

/// A malformed snapshot byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the snapshot did.
    Truncated,
    /// Unknown snapshot codec version.
    BadVersion(u8),
    /// A priority rank outside 1..=3.
    BadPriority(u8),
    /// An `f64` field no snapshot can hold (a DOD outside `[0, 1]`, a
    /// negative or non-finite current), as its raw bits.
    BadValue(u64),
    /// Trailing bytes after a complete snapshot.
    TrailingBytes,
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadVersion(v) => {
                write!(f, "snapshot version {v} (expected {SNAPSHOT_VERSION})")
            }
            SnapshotError::BadPriority(v) => write!(f, "illegal priority rank {v}"),
            SnapshotError::BadValue(bits) => write!(f, "illegal value {}", f64::from_bits(*bits)),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encoded size of one indexed entry: rack u32, priority u8, two f64s.
const SNAPSHOT_ENTRY_BYTES: usize = 4 + 1 + 8 + 8;
/// Encoded size of one parked entry: rack u32, priority u8, one f64.
const SNAPSHOT_PARKED_BYTES: usize = 4 + 1 + 8;

impl ControllerSnapshot {
    /// Serializes the snapshot. Layout (all little-endian):
    ///
    /// ```text
    /// [ version u8 ]
    /// [ tracked u32 ] n × [ rack u32 | priority u8 | dod bits u64 | current bits u64 ]
    /// [ parked  u32 ] m × [ rack u32 | priority u8 | dod bits u64 ]
    /// ```
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_snapshot(self.entries.iter().copied(), self.parked.iter().copied())
    }

    /// Decodes a snapshot serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the buffer is truncated, carries an
    /// unknown version, an illegal priority rank or value, or trailing
    /// bytes. It never panics, whatever the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cursor = SnapshotReader(bytes);
        let version = cursor.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let tracked = cursor.u32()? as usize;
        if tracked > cursor.remaining() / SNAPSHOT_ENTRY_BYTES {
            return Err(SnapshotError::Truncated);
        }
        let mut entries = Vec::with_capacity(tracked);
        for _ in 0..tracked {
            entries.push(SnapshotEntry {
                rack: RackId::new(cursor.u32()?),
                priority: cursor.priority()?,
                dod: cursor.dod()?,
                current: cursor.current()?,
            });
        }
        let parked_count = cursor.u32()? as usize;
        if parked_count > cursor.remaining() / SNAPSHOT_PARKED_BYTES {
            return Err(SnapshotError::Truncated);
        }
        let mut parked = Vec::with_capacity(parked_count);
        for _ in 0..parked_count {
            parked.push(SnapshotParked {
                rack: RackId::new(cursor.u32()?),
                priority: cursor.priority()?,
                dod: cursor.dod()?,
            });
        }
        if cursor.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(ControllerSnapshot { entries, parked })
    }
}

/// The snapshot codec's one writer (layout at
/// [`ControllerSnapshot::to_bytes`]), shared by the decoded snapshot and the
/// live controller.
fn encode_snapshot(
    entries: impl ExactSizeIterator<Item = SnapshotEntry>,
    parked: impl ExactSizeIterator<Item = SnapshotParked>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        1 + 8 + entries.len() * SNAPSHOT_ENTRY_BYTES + parked.len() * SNAPSHOT_PARKED_BYTES,
    );
    out.push(SNAPSHOT_VERSION);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.rack.index().to_le_bytes());
        out.push(e.priority.rank());
        out.extend_from_slice(&e.dod.value().to_bits().to_le_bytes());
        out.extend_from_slice(&e.current.as_amps().to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(parked.len() as u32).to_le_bytes());
    for p in parked {
        out.extend_from_slice(&p.rack.index().to_le_bytes());
        out.push(p.priority.rank());
        out.extend_from_slice(&p.dod.value().to_bits().to_le_bytes());
    }
    out
}

/// Minimal little-endian cursor for the snapshot codec.
struct SnapshotReader<'a>(&'a [u8]);

impl SnapshotReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.0.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn priority(&mut self) -> Result<Priority, SnapshotError> {
        match self.u8()? {
            1 => Ok(Priority::P1),
            2 => Ok(Priority::P2),
            3 => Ok(Priority::P3),
            v => Err(SnapshotError::BadPriority(v)),
        }
    }

    /// A DOD, rejected unless already in `[0, 1]` (so NaN never reaches
    /// `Dod::new` and no value is silently clamped).
    fn dod(&mut self) -> Result<Dod, SnapshotError> {
        let bits = self.u64()?;
        let value = f64::from_bits(bits);
        if (0.0..=1.0).contains(&value) {
            Ok(Dod::new(value))
        } else {
            Err(SnapshotError::BadValue(bits))
        }
    }

    /// A commanded current: finite and non-negative.
    fn current(&mut self) -> Result<Amperes, SnapshotError> {
        let bits = self.u64()?;
        let value = f64::from_bits(bits);
        if value.is_finite() && value >= 0.0 {
            Ok(Amperes::new(value))
        } else {
            Err(SnapshotError::BadValue(bits))
        }
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{RackAgent, SimRackAgent};
    use crate::bus::InMemoryBus;
    use recharge_battery::BbuState;
    use recharge_core::{assign_global, RackChargeState};
    use recharge_units::Seconds;
    use std::cell::{Cell, RefCell};

    fn fleet(n_per_priority: usize, load_kw: f64) -> InMemoryBus<SimRackAgent> {
        let mut agents = Vec::new();
        let mut id = 0;
        for priority in Priority::ALL {
            for _ in 0..n_per_priority {
                agents.push(
                    SimRackAgent::builder(RackId::new(id), priority)
                        .offered_load(Watts::from_kilowatts(load_kw))
                        .build(),
                );
                id += 1;
            }
        }
        InMemoryBus::new(agents)
    }

    /// Runs an open transition of `secs` over the whole bus.
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

    fn controller(limit_kw: f64, strategy: Strategy) -> Controller {
        Controller::new(
            ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(limit_kw)),
            strategy,
        )
    }

    #[test]
    fn steady_state_reports_pure_it_load() {
        let mut bus = fleet(2, 6.0);
        let mut c = controller(190.0, Strategy::PriorityAware);
        let report = c.tick(SimTime::ZERO, &mut bus);
        assert!(!report.overloaded);
        assert_eq!(report.it_load, Watts::from_kilowatts(36.0));
        assert_eq!(report.recharge_power, Watts::ZERO);
        assert_eq!(report.overrides_sent, 0);
    }

    #[test]
    fn priority_aware_assigns_on_charge_start() {
        let mut bus = fleet(2, 6.0);
        let mut c = controller(190.0, Strategy::PriorityAware);
        open_transition(&mut bus, 45.0);
        let report = c.tick(SimTime::from_secs(46.0), &mut bus);
        assert!(report.overrides_sent > 0, "SLA overrides should be issued");
        let currents = c.commanded_currents();
        assert_eq!(currents.len(), 6);
        // Ample headroom: every rack gets its Fig 9(b) SLA current; P1 racks
        // (2 A floor) charge no slower than P3 racks.
        let p1 = currents[&RackId::new(0)];
        let p3 = currents[&RackId::new(4)];
        assert!(p1 >= p3, "P1 {p1} vs P3 {p3}");
    }

    #[test]
    fn overrides_reach_the_chargers() {
        let mut bus = fleet(1, 6.0);
        let mut c = controller(190.0, Strategy::PriorityAware);
        open_transition(&mut bus, 30.0);
        c.tick(SimTime::from_secs(31.0), &mut bus);
        for agent in bus.agents() {
            let expected = c.commanded_currents()[&agent.rack()];
            assert_eq!(agent.battery().setpoint(), expected);
        }
    }

    #[test]
    fn load_rise_mid_charge_throttles_before_capping() {
        // 3 racks × 6 kW = 18 kW of IT load under a 21 kW limit: the initial
        // assignment fits comfortably. A subsequent IT-load rise overloads
        // the breaker; batteries must be throttled, servers spared.
        let mut bus = fleet(1, 6.0);
        let mut c = controller(21.0, Strategy::PriorityAware);
        open_transition(&mut bus, 60.0);
        c.tick(SimTime::from_secs(61.0), &mut bus);

        // Diurnal rise: +600 W per rack.
        for a in bus.agents_mut() {
            a.set_offered_load(Watts::from_kilowatts(6.6));
        }
        let mut saw_throttle = false;
        let mut saw_cap = false;
        for s in 0..120 {
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
            let report = c.tick(SimTime::from_secs(62.0 + f64::from(s)), &mut bus);
            saw_throttle |= report.racks_throttled > 0;
            saw_cap |= report.cap_requested > Watts::ZERO;
        }
        assert!(saw_throttle, "overload should throttle charging");
        assert!(!saw_cap, "battery throttling should cover this overload");
    }

    #[test]
    fn extreme_limit_falls_back_to_server_capping() {
        let mut bus = fleet(1, 6.0);
        // Limit below IT load + minimum recharge draw: capping is inevitable.
        let mut c = controller(18.5, Strategy::PriorityAware);
        open_transition(&mut bus, 60.0);
        let mut total_cap = Watts::ZERO;
        for s in 0..120 {
            let report = c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
            total_cap = total_cap.max(report.capped_power + report.cap_requested);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        assert!(
            total_cap > Watts::ZERO,
            "capping must engage below the floor"
        );
        // The P3 rack must be capped before the P1 rack.
        let p3_cap = bus.read(RackId::new(2)).unwrap().capped_power;
        let p1_cap = bus.read(RackId::new(0)).unwrap().capped_power;
        assert!(p3_cap >= p1_cap, "P3 cap {p3_cap} vs P1 cap {p1_cap}");
    }

    #[test]
    fn caps_are_released_after_recovery() {
        let mut bus = fleet(1, 6.0);
        let mut c = controller(18.5, Strategy::PriorityAware);
        open_transition(&mut bus, 60.0);
        for s in 0..4_000 {
            c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        // Charging long done; caps should have been lifted.
        let still_capped: Vec<_> = bus
            .racks()
            .into_iter()
            .filter(|&r| bus.read(r).unwrap().capped_power > Watts::ZERO)
            .collect();
        assert!(
            still_capped.is_empty(),
            "caps not released: {still_capped:?}"
        );
    }

    #[test]
    fn global_strategy_is_uniform() {
        let mut bus = fleet(2, 6.0);
        let mut c = controller(40.0, Strategy::Global);
        open_transition(&mut bus, 60.0);
        c.tick(SimTime::from_secs(61.0), &mut bus);
        let currents = c.commanded_currents();
        let values: Vec<Amperes> = currents.values().copied().collect();
        assert!(values
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < Amperes::new(1e-9)));
    }

    #[test]
    fn uncoordinated_strategy_never_overrides() {
        let mut bus = fleet(2, 6.0);
        let mut c = controller(25.0, Strategy::Uncoordinated);
        open_transition(&mut bus, 60.0);
        for s in 0..60 {
            let report = c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
            assert_eq!(report.overrides_sent, 0);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        // Overload under the tight limit must have been met with capping.
        let capped: Watts = bus
            .racks()
            .iter()
            .map(|&r| bus.read(r).unwrap().capped_power)
            .sum();
        assert!(capped > Watts::ZERO);
    }

    #[test]
    fn unreachable_agents_do_not_poison_the_tick() {
        let mut bus = fleet(1, 6.0);
        bus.disconnect(RackId::new(1));
        let mut c = controller(190.0, Strategy::PriorityAware);
        open_transition(&mut bus, 45.0);
        let report = c.tick(SimTime::from_secs(46.0), &mut bus);
        // Two of three racks are visible; coordination proceeds for them.
        assert_eq!(report.it_load, Watts::from_kilowatts(12.0));
        assert_eq!(c.commanded_currents().len(), 2);
    }

    #[test]
    fn overrides_cleared_when_charge_completes() {
        let mut bus = fleet(1, 6.0);
        let mut c = controller(190.0, Strategy::PriorityAware);
        open_transition(&mut bus, 10.0);
        c.tick(SimTime::from_secs(11.0), &mut bus);
        assert!(!c.commanded_currents().is_empty());
        // Run to completion.
        for s in 0..4_000 {
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
            c.tick(SimTime::from_secs(12.0 + f64::from(s)), &mut bus);
        }
        assert!(c.commanded_currents().is_empty());
        for a in bus.agents() {
            assert_eq!(a.battery().bbu().charger().override_current(), None);
        }
    }

    #[test]
    fn postponing_replaces_server_capping_under_extreme_limits() {
        // A limit below IT + the 1 A fleet floor: without the extension the
        // controller must cap servers; with it, it defers P3/P2 racks.
        let build = |postpone: bool| {
            let config = ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(18.5));
            let config = if postpone {
                config.with_postponing()
            } else {
                config
            };
            Controller::new(config, Strategy::PriorityAware)
        };

        for postpone in [false, true] {
            let mut bus = fleet(1, 6.0);
            let mut c = build(postpone);
            open_transition(&mut bus, 60.0);
            let mut total_cap = Watts::ZERO;
            let mut saw_postponed = 0;
            for s in 0..240 {
                let report = c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
                total_cap = total_cap.max(report.capped_power + report.cap_requested);
                saw_postponed = saw_postponed.max(report.racks_postponed);
                for a in bus.agents_mut() {
                    a.step(Seconds::new(1.0));
                }
            }
            if postpone {
                assert_eq!(
                    total_cap,
                    Watts::ZERO,
                    "postponing should spare the servers"
                );
                assert!(saw_postponed > 0, "some rack must have been deferred");
                // The deferred rack is the P3 one.
                assert!(c
                    .postponed_racks()
                    .iter()
                    .all(|&r| bus.agent(r).unwrap().priority() != Priority::P1));
            } else {
                assert!(
                    total_cap > Watts::ZERO,
                    "without postponing, capping engages"
                );
            }
        }
    }

    #[test]
    fn postponed_racks_resume_when_headroom_returns() {
        let mut bus = fleet(1, 6.0);
        let config =
            ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(18.5)).with_postponing();
        let mut c = Controller::new(config, Strategy::PriorityAware);
        open_transition(&mut bus, 60.0);
        for s in 0..60 {
            c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        assert!(!c.postponed_racks().is_empty());

        // The diurnal load drops: headroom returns and the deferral lifts.
        for a in bus.agents_mut() {
            a.set_offered_load(Watts::from_kilowatts(5.0));
        }
        for s in 60..2_400 {
            c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        assert!(
            c.postponed_racks().is_empty(),
            "deferral should lift with headroom"
        );
        for a in bus.agents() {
            assert!(!a.battery().is_postponed());
        }
    }

    /// A fixed-reading bus that counts bulk and per-rack reads and records
    /// overrides, override clears and uncaps; other commands route nowhere.
    #[derive(Default)]
    struct ScriptedBus {
        readings: Vec<PowerReading>,
        reads: RefCell<Vec<RackId>>,
        bulk_reads: Cell<usize>,
        overrides: Vec<(RackId, Amperes)>,
        cleared: Vec<RackId>,
        uncapped: Vec<RackId>,
    }

    impl AgentBus for ScriptedBus {
        fn racks(&self) -> Vec<RackId> {
            self.readings.iter().map(|r| r.rack).collect()
        }
        fn read(&self, rack: RackId) -> Option<PowerReading> {
            self.reads.borrow_mut().push(rack);
            self.readings.iter().find(|r| r.rack == rack).copied()
        }
        fn read_all(&self, out: &mut Vec<PowerReading>) {
            self.bulk_reads.set(self.bulk_reads.get() + 1);
            out.extend_from_slice(&self.readings);
        }
        fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
            self.overrides.push((rack, current));
        }
        fn clear_charge_override(&mut self, rack: RackId) {
            self.cleared.push(rack);
        }
        fn set_charge_postponed(&mut self, _rack: RackId, _postponed: bool) {}
        fn cap_servers(&mut self, _rack: RackId, _limit: Watts) {}
        fn uncap_servers(&mut self, rack: RackId) {
            self.uncapped.push(rack);
        }
    }

    fn reading(rack: u32, priority: Priority, state: BbuState, dod: f64) -> PowerReading {
        PowerReading {
            rack: RackId::new(rack),
            priority,
            input_power_present: true,
            it_load: Watts::from_kilowatts(6.0),
            recharge_power: Watts::from_kilowatts(1.0),
            bbu_state: state,
            event_dod: Dod::new(dod),
            dod: Dod::new(dod),
            capped_power: Watts::ZERO,
        }
    }

    fn indexed(c: &Controller) -> Vec<RackId> {
        c.index.charge_order().map(|(r, _)| r).collect()
    }

    /// Ticks a controller once over `readings` and returns the report's IT,
    /// recharge, total and capped sums next to the same sums as separate
    /// `Sum` folds in fleet order, all as bits.
    fn gathered_and_separate_sums(readings: Vec<PowerReading>) -> ([u64; 4], [u64; 4]) {
        let powered = || readings.iter().filter(|r| r.input_power_present);
        let it: Watts = powered().map(|r| r.it_load).sum();
        let recharge: Watts = powered().map(|r| r.recharge_power).sum();
        let capped: Watts = readings.iter().map(|r| r.capped_power).sum();
        let separate = [it, recharge, it + recharge, capped];
        let mut bus = ScriptedBus {
            readings,
            ..ScriptedBus::default()
        };
        let mut c = controller(190.0, Strategy::PriorityAware);
        let report = c.tick(SimTime::from_secs(100.0), &mut bus);
        let gathered = [
            report.it_load,
            report.recharge_power,
            report.total_draw,
            report.capped_power,
        ];
        let bits = |w: [Watts; 4]| w.map(|w| w.as_watts().to_bits());
        (bits(gathered), bits(separate))
    }

    /// Readings with powers across eight decades, so any change to the
    /// order of a sum shows in its bits.
    fn arb_gather_readings() -> impl proptest::Strategy<Value = Vec<PowerReading>> {
        use proptest::Strategy as _;
        let watts = || (0.0f64..1.0, 0i32..8);
        let rack = (
            (0u8..3, proptest::bool::ANY, 0usize..4, 0.0f64..=1.0),
            watts(),
            watts(),
            watts(),
        );
        proptest::collection::vec(rack, 0..40).prop_map(|racks| {
            racks
                .into_iter()
                .enumerate()
                .map(|(i, ((p, powered, state, dod), it, re, capped))| {
                    let w = |(m, e): (f64, i32)| Watts::new(m * 10f64.powi(e));
                    PowerReading {
                        rack: RackId::new(i as u32),
                        priority: Priority::ALL[usize::from(p)],
                        input_power_present: powered,
                        it_load: w(it),
                        recharge_power: w(re),
                        bbu_state: [
                            BbuState::FullyCharged,
                            BbuState::Charging,
                            BbuState::Discharging,
                            BbuState::FullyDischarged,
                        ][state],
                        event_dod: Dod::new(dod),
                        dod: Dod::new(dod),
                        capped_power: w(capped),
                    }
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn gather_sums_match_separate_folds_bit_for_bit(readings in arb_gather_readings()) {
            let (gathered, separate) = gathered_and_separate_sums(readings);
            proptest::prop_assert_eq!(gathered, separate);
        }
    }

    #[test]
    fn gather_sums_of_an_empty_or_unpowered_fleet_match_separate_folds() {
        let (gathered, separate) = gathered_and_separate_sums(Vec::new());
        assert_eq!(gathered, separate);
        assert_eq!(gathered, [0; 4], "an empty fleet draws +0.0 W");
        let unpowered: Vec<PowerReading> = (0..12)
            .map(|i| PowerReading {
                input_power_present: false,
                capped_power: Watts::new(f64::from(i) * 0.1),
                ..reading(i, Priority::ALL[i as usize % 3], BbuState::Discharging, 0.3)
            })
            .collect();
        let (gathered, separate) = gathered_and_separate_sums(unpowered);
        assert_eq!(gathered, separate);
        assert_eq!(gathered[..3], [0; 3], "unpowered racks draw nothing");
    }

    #[test]
    fn unreachable_tracked_rack_is_evicted_and_its_override_cleared() {
        let mut bus = fleet(1, 6.0);
        let mut c = controller(190.0, Strategy::PriorityAware);
        open_transition(&mut bus, 45.0);
        c.tick(SimTime::from_secs(46.0), &mut bus);
        let rack = RackId::new(1);
        assert!(c.commanded_currents().contains_key(&rack));
        assert!(bus
            .agent(rack)
            .unwrap()
            .battery()
            .bbu()
            .charger()
            .override_current()
            .is_some());

        // The agent stops answering mid-charge: the next tick evicts it.
        bus.disconnect(rack);
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
        c.tick(SimTime::from_secs(47.0), &mut bus);
        assert!(!c.commanded_currents().contains_key(&rack));
        assert_eq!(c.commanded_currents().len(), 2, "the others stay tracked");
        assert_eq!(
            bus.agent(rack)
                .unwrap()
                .battery()
                .bbu()
                .charger()
                .override_current(),
            None
        );
    }

    #[test]
    fn finishing_and_admitting_on_one_tick_matches_the_old_filter() {
        let mut bus = ScriptedBus {
            readings: vec![
                reading(0, Priority::P3, BbuState::Charging, 0.5),
                reading(1, Priority::P1, BbuState::Charging, 0.3),
                reading(2, Priority::P2, BbuState::FullyCharged, 0.0),
                reading(3, Priority::P2, BbuState::Charging, 0.6),
            ],
            ..ScriptedBus::default()
        };
        let mut c = controller(190.0, Strategy::PriorityAware);
        c.tick(SimTime::from_secs(1.0), &mut bus);
        assert_eq!(
            indexed(&c),
            vec![RackId::new(1), RackId::new(3), RackId::new(0)]
        );

        // Racks 0 and 1 finish on the tick rack 2 starts charging.
        bus.readings[0].bbu_state = BbuState::FullyCharged;
        bus.readings[1].bbu_state = BbuState::FullyCharged;
        bus.readings[2] = reading(2, Priority::P2, BbuState::Charging, 0.4);

        // The quadratic filter this tick replaced, over the same state.
        let live: Vec<RackId> = bus
            .readings
            .iter()
            .filter(|r| r.is_charging() || r.bbu_state == BbuState::Discharging)
            .map(|r| r.rack)
            .collect();
        let old_finished: Vec<RackId> = indexed(&c)
            .into_iter()
            .chain(c.parked.keys().copied())
            .filter(|r| !live.iter().any(|l| l == r))
            .collect();
        assert_eq!(old_finished, vec![RackId::new(1), RackId::new(0)]);

        c.tick(SimTime::from_secs(2.0), &mut bus);
        assert_eq!(bus.cleared, old_finished, "evictions in charge order");
        assert_eq!(indexed(&c), vec![RackId::new(2), RackId::new(3)]);
    }

    #[test]
    fn unscoped_tick_reads_in_bulk() {
        let mut bus = ScriptedBus {
            readings: (0..4)
                .map(|i| reading(i, Priority::P2, BbuState::Charging, 0.5))
                .collect(),
            ..ScriptedBus::default()
        };
        let mut c = controller(190.0, Strategy::PriorityAware);
        let report = c.tick(SimTime::from_secs(1.0), &mut bus);
        assert_eq!(bus.bulk_reads.get(), 1);
        assert!(bus.reads.borrow().is_empty(), "no per-rack reads");
        assert_eq!(report.it_load, Watts::from_kilowatts(24.0));
    }

    #[test]
    fn scoped_tick_reads_only_its_scope() {
        let mut bus = ScriptedBus {
            readings: (0..4)
                .map(|i| reading(i, Priority::P2, BbuState::Charging, 0.5))
                .collect(),
            ..ScriptedBus::default()
        };
        let config = ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0))
            .with_scope(vec![RackId::new(2), RackId::new(0)]);
        let mut c = Controller::new(config, Strategy::PriorityAware);
        let report = c.tick(SimTime::from_secs(1.0), &mut bus);
        assert_eq!(bus.bulk_reads.get(), 0);
        assert_eq!(*bus.reads.borrow(), vec![RackId::new(2), RackId::new(0)]);
        assert_eq!(report.it_load, Watts::from_kilowatts(12.0));
        assert_eq!(indexed(&c), vec![RackId::new(0), RackId::new(2)]);
    }

    #[test]
    fn global_arm_sends_what_assign_global_and_the_delta_rule_sent() {
        // Nine charging racks across priorities and DODs; the IT load moves
        // so that the uniform rate changes by well over 0.01 A, by 0.02 A,
        // by 0.005 A, by 0.0001 A and not at all, and hits both clamps.
        let mut bus = ScriptedBus {
            readings: (0..9)
                .map(|i| {
                    let dod = 0.2 + 0.07 * f64::from(i);
                    let mut r = reading(i, Priority::ALL[i as usize % 3], BbuState::Charging, dod);
                    r.recharge_power = Watts::ZERO;
                    r
                })
                .collect(),
            ..ScriptedBus::default()
        };
        let mut c = controller(70.0, Strategy::Global);
        let (policy, model) = (
            SlaCurrentPolicy::production(),
            RechargePowerModel::production(),
        );
        // A per-rack IT step that moves the uniform rate by `amps`.
        let step = |amps: f64| model.rack_power(Amperes::new(amps)).as_watts();
        let its = [
            6000.0,
            6000.0,
            6200.0,
            6200.0 + step(0.005),
            6200.0 + step(0.025),
            6500.0,
            6500.0 + step(0.0001),
            9000.0,
            5000.0,
        ];
        let mut sent_any = 0;
        let mut held_any = 0;
        for (t, it_w) in its.into_iter().enumerate() {
            for r in &mut bus.readings {
                r.it_load = Watts::new(it_w);
            }
            // The old arm: `assign_global` over the index's states, then the
            // 0.01 A delta rule against the commanded currents.
            let mut before = c.index.clone();
            for r in &bus.readings {
                if !before.contains(r.rack) {
                    before.upsert(r.rack, r.priority, r.event_dod, Amperes::ZERO);
                }
                before.set_dod(r.rack, r.event_dod);
            }
            let planning_it: Watts = bus.readings.iter().map(|r| r.it_load).sum();
            let available = (c.config.planning_limit() - planning_it).max(Watts::ZERO);
            let states: Vec<RackChargeState> = before
                .charge_order()
                .map(|(rack, e)| RackChargeState {
                    rack,
                    priority: e.priority,
                    dod: e.dod,
                })
                .collect();
            let outcome = assign_global(&states, available, &policy, &model);
            let expected: Vec<(RackId, Amperes)> = outcome
                .assignments
                .iter()
                .filter(|a| {
                    (before.current(a.rack).unwrap() - a.current).abs() > Amperes::new(0.01)
                })
                .map(|a| (a.rack, a.current))
                .collect();

            bus.overrides.clear();
            let report = c.tick(SimTime::from_secs(t as f64), &mut bus);
            assert_eq!(bus.overrides, expected, "tick {t} at {it_w} W per rack");
            assert_eq!(report.overrides_sent, expected.len());
            // One formula: every rack sits at the uniform rate it was sent.
            let uniform = global_current(9, available, &model);
            assert!(outcome.assignments.iter().all(|a| a.current == uniform));
            if expected.is_empty() {
                held_any += 1;
            } else {
                sent_any += 1;
                assert!(c.commanded_currents().values().all(|&a| a == uniform));
            }
        }
        assert_eq!((sent_any, held_any), (6, 3));
    }

    #[test]
    fn one_capped_rack_is_released_as_before() {
        // Settled racks with ample headroom; one of them carries a cap.
        let mut bus = ScriptedBus {
            readings: (0..6)
                .map(|i| {
                    let mut r = reading(
                        i,
                        Priority::ALL[i as usize % 3],
                        BbuState::FullyCharged,
                        0.0,
                    );
                    r.recharge_power = Watts::ZERO;
                    r
                })
                .collect(),
            ..ScriptedBus::default()
        };
        let mut c = controller(190.0, Strategy::PriorityAware);
        c.tick(SimTime::from_secs(1.0), &mut bus);
        assert!(bus.uncapped.is_empty(), "no rack is capped");

        // The smallest positive cap still counts as a capped rack.
        for capped in [Watts::from_kilowatts(1.5), Watts::new(f64::MIN_POSITIVE)] {
            bus.uncapped.clear();
            bus.readings[4].capped_power = capped;
            let headroom = (c.config.limit() - Watts::from_kilowatts(36.0)) * 0.9;
            let expected = plan_uncaps(&bus.readings, headroom);
            assert_eq!(expected, vec![RackId::new(4)]);
            let report = c.tick(SimTime::from_secs(2.0), &mut bus);
            assert_eq!(bus.uncapped, expected, "cap of {capped}");
            assert_eq!(report.capped_power, capped);
        }
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::PriorityAware.to_string(), "priority-aware");
        assert_eq!(Strategy::Global.to_string(), "global");
        assert_eq!(Strategy::Uncoordinated.to_string(), "uncoordinated");
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let mut bus = fleet(1, 6.0);
        let config =
            ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(18.5)).with_postponing();
        let mut c = Controller::new(config, Strategy::PriorityAware);
        open_transition(&mut bus, 60.0);
        // Tick long enough that racks are admitted and at least one parks.
        for s in 0..60 {
            c.tick(SimTime::from_secs(61.0 + f64::from(s)), &mut bus);
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        assert!(!c.postponed_racks().is_empty(), "setup: nothing parked");

        let snap = c.snapshot();
        assert!(!snap.entries.is_empty());
        assert_eq!(snap.parked.len(), c.postponed_racks().len());
        let bytes = snap.to_bytes();
        let decoded = ControllerSnapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, snap);
        // Deterministic: re-snapshotting unchanged state is byte-identical,
        // and the one-pass encoding writes the same bytes.
        assert_eq!(c.snapshot().to_bytes(), bytes);
        assert_eq!(c.snapshot_bytes(), bytes);

        // Restoring into a fresh controller reproduces the brain exactly.
        let mut standby = controller(18.5, Strategy::PriorityAware);
        standby.restore(&decoded);
        assert_eq!(standby.commanded_currents(), c.commanded_currents());
        assert_eq!(standby.postponed_racks(), c.postponed_racks());
        assert_eq!(standby.snapshot().to_bytes(), bytes);
        assert_eq!(standby.snapshot_bytes(), bytes);
    }

    #[test]
    fn snapshot_rejects_corrupt_bytes() {
        let empty = ControllerSnapshot::default();
        assert!(empty.entries.is_empty() && empty.parked.is_empty());
        let bytes = empty.to_bytes();
        assert_eq!(ControllerSnapshot::from_bytes(&bytes), Ok(empty));
        assert_eq!(
            ControllerSnapshot::from_bytes(&[]),
            Err(SnapshotError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert_eq!(
            ControllerSnapshot::from_bytes(&bad),
            Err(SnapshotError::BadVersion(9))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            ControllerSnapshot::from_bytes(&trailing),
            Err(SnapshotError::TrailingBytes)
        );
        // A tracked count the remaining bytes cannot possibly hold.
        let mut huge = bytes;
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ControllerSnapshot::from_bytes(&huge),
            Err(SnapshotError::Truncated)
        );
        // An illegal priority rank inside an entry.
        let mut c = Controller::new(
            ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
            Strategy::PriorityAware,
        );
        c.index
            .upsert(RackId::new(3), Priority::P2, Dod::new(0.4), Amperes::ZERO);
        let mut bytes = c.snapshot().to_bytes();
        bytes[9] = 7; // entry priority byte: version(1) + count(4) + rack(4)
        assert_eq!(
            ControllerSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadPriority(7))
        );
    }

    #[test]
    fn restore_then_continue_matches_uninterrupted() {
        // Two identical worlds; world B's controller is replaced mid-flight
        // by a standby restored from a snapshot. Every subsequent report and
        // command stream must match world A bit for bit.
        let mut bus_a = fleet(2, 6.0);
        let mut bus_b = fleet(2, 6.0);
        let mut live = controller(21.0, Strategy::PriorityAware);
        let mut original = controller(21.0, Strategy::PriorityAware);
        open_transition(&mut bus_a, 60.0);
        open_transition(&mut bus_b, 60.0);
        for s in 0..30 {
            let now = SimTime::from_secs(61.0 + f64::from(s));
            assert_eq!(live.tick(now, &mut bus_a), original.tick(now, &mut bus_b));
            for a in bus_a.agents_mut() {
                a.step(Seconds::new(1.0));
            }
            for a in bus_b.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        // Failover in world B: a fresh standby restores the snapshot.
        let mut standby = controller(21.0, Strategy::PriorityAware);
        standby.restore(&original.snapshot());
        drop(original);
        for s in 30..120 {
            let now = SimTime::from_secs(61.0 + f64::from(s));
            assert_eq!(live.tick(now, &mut bus_a), standby.tick(now, &mut bus_b));
            for a in bus_a.agents_mut() {
                a.step(Seconds::new(1.0));
            }
            for a in bus_b.agents_mut() {
                a.step(Seconds::new(1.0));
            }
        }
        assert_eq!(standby.commanded_currents(), live.commanded_currents());
    }
}
