//! Struct-of-arrays fleet physics: the campus-scale execution backend.
//!
//! The object path dispatches every rack through
//! `SimRackAgent` → `RackBatterySystem` → `Bbu` → `BbuPack`, four layers of
//! method calls and scattered structs per rack per sub-step. At the paper's
//! 316 racks that is noise; at a 100k-rack campus it is the simulator's whole
//! budget. [`SoaBackend`] flattens the fleet into contiguous arrays — one
//! `soc[]`, `event_dod[]`, `automatic[]`, `offered[]`, … per shard, plus one
//! packed flag byte per rack — and steps them in a single branch-light pass.
//!
//! **Equivalence argument.** The per-rack state transition is *the same
//! code*: both paths call [`recharge_battery::kernel`] for the CC-CV and
//! discharge arithmetic, and the SoA pass replays the exact
//! `set_offered_load → set_input_power → step` sequence of
//! [`SerialBackend`](crate::SerialBackend) per rack per sub-step. Racks do
//! not interact during physics, so per-rack state — and therefore every
//! [`PowerReading`] and downstream `RunMetrics` — is bit-identical to the
//! object path regardless of shard count. The backend-equivalence matrix and
//! a proptest over random command schedules enforce this.
//!
//! Flag packing (one `u8` per rack):
//!
//! ```text
//! bit 0-1  BBU state      00 fully charged, 01 charging,
//!                         10 discharging,   11 fully discharged
//! bit 2    charge_terminated   (the pack's completion latch)
//! bit 3    postponed           (charging suspended entirely)
//! bit 4    override active     (override_a[] holds the clamped setpoint)
//! bit 5    cap active          (cap[] holds the server power cap)
//! bit 6    input power present
//! ```

use std::collections::HashMap;

use recharge_battery::kernel;
use recharge_battery::{BbuParams, BbuState, ChargePhase, ChargePolicy};
use recharge_telemetry::tspan;
use recharge_units::{Amperes, Dod, Priority, RackId, Seconds, Soc, Watts};

use crate::agent::{RackAgent, SimRackAgent};
use crate::backend::FleetBackend;
use crate::bus::AgentBus;
use crate::messages::PowerReading;

const STATE_MASK: u8 = 0b0000_0011;
const STATE_FULLY_CHARGED: u8 = 0b00;
const STATE_CHARGING: u8 = 0b01;
const STATE_DISCHARGING: u8 = 0b10;
const STATE_FULLY_DISCHARGED: u8 = 0b11;
const FLAG_TERMINATED: u8 = 1 << 2;
const FLAG_POSTPONED: u8 = 1 << 3;
const FLAG_OVERRIDE: u8 = 1 << 4;
const FLAG_CAPPED: u8 = 1 << 5;
const FLAG_INPUT_POWER: u8 = 1 << 6;

/// What [`SoaBackend::into_parts`] yields: the shards, the fleet-order map,
/// and the rack → (shard, slot) routing index.
pub(crate) type SoaParts = (
    Vec<SoaShard>,
    Vec<(usize, usize)>,
    HashMap<RackId, (usize, usize)>,
);

fn state_bits(state: BbuState) -> u8 {
    match state {
        BbuState::FullyCharged => STATE_FULLY_CHARGED,
        BbuState::Charging => STATE_CHARGING,
        BbuState::Discharging => STATE_DISCHARGING,
        BbuState::FullyDischarged => STATE_FULLY_DISCHARGED,
    }
}

fn bits_state(bits: u8) -> BbuState {
    match bits & STATE_MASK {
        STATE_FULLY_CHARGED => BbuState::FullyCharged,
        STATE_CHARGING => BbuState::Charging,
        STATE_DISCHARGING => BbuState::Discharging,
        _ => BbuState::FullyDischarged,
    }
}

/// One shard of the fleet: contiguous parallel arrays over its racks.
///
/// All racks in a shard share one [`BbuParams`] and [`ChargePolicy`] — the
/// construction pass partitions the fleet into homogeneous groups first — so
/// parameters live once per shard instead of once per rack.
#[derive(Debug, Clone)]
pub(crate) struct SoaShard {
    params: BbuParams,
    policy: ChargePolicy,
    /// `bbus_per_rack` as the f64 the load-share division uses.
    bbus: f64,
    racks: Vec<RackId>,
    priority: Vec<Priority>,
    soc: Vec<f64>,
    event_dod: Vec<f64>,
    /// Automatic setpoint (amps) latched at the last charge-sequence start.
    automatic: Vec<f64>,
    /// Override setpoint (amps); meaningful iff `FLAG_OVERRIDE`.
    override_a: Vec<f64>,
    /// Offered IT load (watts) from the trace.
    offered: Vec<f64>,
    /// Server power cap (watts); meaningful iff `FLAG_CAPPED`.
    cap: Vec<f64>,
    /// Rack recharge wall power (watts) after the last sub-step.
    recharge: Vec<f64>,
    flags: Vec<u8>,
}

impl SoaShard {
    fn from_agents(agents: &[&SimRackAgent], params: BbuParams, policy: ChargePolicy) -> Self {
        let n = agents.len();
        let mut shard = SoaShard {
            params,
            policy,
            bbus: f64::from(params.bbus_per_rack),
            racks: Vec::with_capacity(n),
            priority: Vec::with_capacity(n),
            soc: Vec::with_capacity(n),
            event_dod: Vec::with_capacity(n),
            automatic: Vec::with_capacity(n),
            override_a: Vec::with_capacity(n),
            offered: Vec::with_capacity(n),
            cap: Vec::with_capacity(n),
            recharge: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        };
        for &agent in agents {
            let bbu = agent.battery().bbu();
            let charger = bbu.charger();
            shard.racks.push(agent.rack());
            shard.priority.push(agent.priority());
            shard.soc.push(bbu.soc().value());
            shard.event_dod.push(bbu.event_dod().value());
            shard.automatic.push(charger.automatic_current().as_amps());
            shard
                .override_a
                .push(charger.override_current().map_or(0.0, Amperes::as_amps));
            shard.offered.push(agent.offered_load().as_watts());
            shard
                .cap
                .push(agent.cap_limit().map_or(0.0, Watts::as_watts));
            // `read()` reports the rack recharge power gated on input power —
            // exactly what an object-path agent would publish from here on.
            shard.recharge.push(agent.read().recharge_power.as_watts());
            let mut flags = state_bits(bbu.state());
            if bbu.pack().is_fully_charged() {
                flags |= FLAG_TERMINATED;
            }
            if charger.is_postponed() {
                flags |= FLAG_POSTPONED;
            }
            if charger.override_current().is_some() {
                flags |= FLAG_OVERRIDE;
            }
            if agent.cap_limit().is_some() {
                flags |= FLAG_CAPPED;
            }
            if agent.has_input_power() {
                flags |= FLAG_INPUT_POWER;
            }
            shard.flags.push(flags);
        }
        shard
    }

    pub(crate) fn len(&self) -> usize {
        self.racks.len()
    }

    /// The rack occupying `slot` (fleet identity, for load lookups).
    pub(crate) fn rack_at(&self, slot: usize) -> RackId {
        self.racks[slot]
    }

    /// The priority of the rack in `slot` (flight-recorder provenance).
    pub(crate) fn priority_at(&self, slot: usize) -> Priority {
        self.priority[slot]
    }

    /// Whether the next sub-step for this rack is a provable no-op given
    /// unchanged input power and an arbitrary offered load.
    ///
    /// This is the event-driven backend's *entire* skip authority: a rack may
    /// be fast-forwarded only while this predicate holds, because then the
    /// dense sub-step would write nothing except `offered[]` (patched up
    /// separately by [`touch_offered`](Self::touch_offered)). The cases:
    ///
    /// - `FullyCharged` / `FullyDischarged` with `recharge == 0`: the dense
    ///   pass only re-zeroes `recharge`. (A rack *entering* a settled state
    ///   still reports its final wall power for that boundary, so it needs
    ///   one more dense sub-step before it can sleep.)
    /// - `Charging`, not terminated, with a non-positive setpoint (postponed):
    ///   `kernel::charge_step` at zero amps moves nothing. A terminated
    ///   charging rack is excluded — its next sub-step flips the state latch
    ///   to `FullyCharged`, which is observable.
    /// - `Discharging` never sleeps: drain is load-dependent every sub-step.
    ///
    /// Input-power *edges* invalidate sleep; the event backend wakes all
    /// racks on every edge, so the predicate can assume power is steady.
    pub(crate) fn is_quiescent(&self, slot: usize) -> bool {
        if self.recharge[slot] != 0.0 {
            return false;
        }
        match self.flags[slot] & STATE_MASK {
            STATE_FULLY_CHARGED | STATE_FULLY_DISCHARGED => true,
            STATE_CHARGING => {
                self.flags[slot] & FLAG_TERMINATED == 0 && self.setpoint(slot) <= Amperes::ZERO
            }
            _ => false,
        }
    }

    /// Replays the only observable effect a skipped sub-step would have had:
    /// the `offered[]` trace write. Idempotent with the dense pass's last
    /// write for the same sub-step.
    pub(crate) fn touch_offered(&mut self, slot: usize, load: Watts) {
        self.offered[slot] = load.max(Watts::ZERO).as_watts();
    }

    /// The IT load actually drawn after capping — `SimRackAgent::effective_load`.
    fn effective_load(&self, slot: usize) -> Watts {
        let offered = Watts::new(self.offered[slot]);
        if self.flags[slot] & FLAG_CAPPED != 0 {
            offered.min(Watts::new(self.cap[slot]))
        } else {
            offered
        }
    }

    /// The effective charging setpoint — `Charger::setpoint`.
    fn setpoint(&self, slot: usize) -> Amperes {
        let flags = self.flags[slot];
        if flags & FLAG_POSTPONED != 0 {
            Amperes::ZERO
        } else if flags & FLAG_OVERRIDE != 0 {
            Amperes::new(self.override_a[slot])
        } else {
            Amperes::new(self.automatic[slot])
        }
    }

    fn set_state(&mut self, slot: usize, state: u8) {
        self.flags[slot] = (self.flags[slot] & !STATE_MASK) | state;
    }

    /// `Bbu::input_power_lost`: start carrying the load.
    fn input_power_lost(&mut self, slot: usize) {
        match self.flags[slot] & STATE_MASK {
            STATE_FULLY_CHARGED | STATE_CHARGING => self.set_state(slot, STATE_DISCHARGING),
            _ => {}
        }
    }

    /// `Bbu::input_power_restored`: latch the event DOD, recompute the
    /// automatic setpoint, begin (or skip) the charge sequence.
    fn input_power_restored(&mut self, slot: usize) {
        match self.flags[slot] & STATE_MASK {
            STATE_DISCHARGING | STATE_FULLY_DISCHARGED => {
                let dod = Soc::new(self.soc[slot]).to_dod();
                self.event_dod[slot] = dod.value();
                self.automatic[slot] = self.policy.automatic_current(dod).as_amps();
                if self.flags[slot] & FLAG_TERMINATED != 0 {
                    // Possible only for a zero-length or zero-load event.
                    self.set_state(slot, STATE_FULLY_CHARGED);
                } else {
                    self.set_state(slot, STATE_CHARGING);
                }
            }
            _ => {}
        }
    }

    /// One rack's sub-step: the `set_offered_load → set_input_power → step`
    /// sequence of the object path, over array state.
    pub(crate) fn substep(&mut self, slot: usize, load: Watts, power: bool, dt: Seconds) {
        self.offered[slot] = load.max(Watts::ZERO).as_watts();

        let had_power = self.flags[slot] & FLAG_INPUT_POWER != 0;
        if power != had_power {
            if power {
                self.flags[slot] |= FLAG_INPUT_POWER;
                self.input_power_restored(slot);
            } else {
                self.flags[slot] &= !FLAG_INPUT_POWER;
                self.input_power_lost(slot);
            }
        }

        match self.flags[slot] & STATE_MASK {
            STATE_FULLY_CHARGED | STATE_FULLY_DISCHARGED => {
                self.recharge[slot] = 0.0;
            }
            STATE_DISCHARGING => {
                let share = self.effective_load(slot) / self.bbus;
                let mut terminated = self.flags[slot] & FLAG_TERMINATED != 0;
                let step = kernel::discharge_step(
                    &self.params,
                    &mut self.soc[slot],
                    &mut terminated,
                    share,
                    dt,
                );
                if terminated {
                    self.flags[slot] |= FLAG_TERMINATED;
                } else {
                    self.flags[slot] &= !FLAG_TERMINATED;
                }
                if step.depleted {
                    self.set_state(slot, STATE_FULLY_DISCHARGED);
                }
                self.recharge[slot] = 0.0;
            }
            _ => {
                // STATE_CHARGING
                let setpoint = self.setpoint(slot);
                let mut terminated = self.flags[slot] & FLAG_TERMINATED != 0;
                let step = kernel::charge_step(
                    &self.params,
                    &mut self.soc[slot],
                    &mut terminated,
                    setpoint,
                    dt,
                );
                if terminated {
                    self.flags[slot] |= FLAG_TERMINATED;
                }
                if step.phase == ChargePhase::Complete {
                    self.set_state(slot, STATE_FULLY_CHARGED);
                }
                self.recharge[slot] = (step.wall_power * self.bbus).as_watts();
            }
        }
    }

    /// Runs a whole schedule over this shard (the threaded fan-out path).
    fn run_schedule(&mut self, dt: Seconds, input_power: &[bool], loads: &[Watts]) {
        let n = self.len();
        for (i, &power) in input_power.iter().enumerate() {
            let row = &loads[i * n..(i + 1) * n];
            for (slot, &load) in row.iter().enumerate() {
                self.substep(slot, load, power, dt);
            }
        }
    }

    /// `Charger::set_override` for one slot: clamp to the 1–5 A hardware
    /// range and raise the override flag.
    pub(crate) fn set_override_slot(&mut self, slot: usize, current: Amperes) {
        self.override_a[slot] = current
            .clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE)
            .as_amps();
        self.flags[slot] |= FLAG_OVERRIDE;
    }

    /// `Charger::clear_override` for one slot.
    pub(crate) fn clear_override_slot(&mut self, slot: usize) {
        self.flags[slot] &= !FLAG_OVERRIDE;
    }

    /// `Charger::set_postponed` for one slot.
    pub(crate) fn set_postponed_slot(&mut self, slot: usize, postponed: bool) {
        if postponed {
            self.flags[slot] |= FLAG_POSTPONED;
        } else {
            self.flags[slot] &= !FLAG_POSTPONED;
        }
    }

    /// `SimRackAgent::cap_servers` for one slot.
    pub(crate) fn cap_slot(&mut self, slot: usize, limit: Watts) {
        self.cap[slot] = limit.max(Watts::ZERO).as_watts();
        self.flags[slot] |= FLAG_CAPPED;
    }

    /// `SimRackAgent::uncap_servers` for one slot.
    pub(crate) fn uncap_slot(&mut self, slot: usize) {
        self.flags[slot] &= !FLAG_CAPPED;
    }

    /// `SimRackAgent::read` over array state.
    pub(crate) fn read(&self, slot: usize) -> PowerReading {
        let flags = self.flags[slot];
        let input = flags & FLAG_INPUT_POWER != 0;
        let offered = Watts::new(self.offered[slot]);
        let effective = self.effective_load(slot);
        PowerReading {
            rack: self.racks[slot],
            priority: self.priority[slot],
            input_power_present: input,
            it_load: effective,
            recharge_power: if input {
                Watts::new(self.recharge[slot])
            } else {
                Watts::ZERO
            },
            bbu_state: bits_state(flags),
            event_dod: Dod::new(self.event_dod[slot]),
            dod: Soc::new(self.soc[slot]).to_dod(),
            capped_power: (offered - effective).max(Watts::ZERO),
        }
    }
}

/// The struct-of-arrays fleet backend: serial (`threads == 1`) or sharded
/// over scoped threads, one contiguous chunk of the fleet per shard.
///
/// Implements both [`FleetBackend`] (the tick loop's surface) and
/// [`AgentBus`] (the controller's surface) over the same arrays — there are
/// no per-rack agent objects at all.
///
/// # Examples
///
/// ```
/// use recharge_dynamo::{FleetBackend, SimRackAgent, SoaBackend};
/// use recharge_units::{Priority, RackId, Seconds, Watts};
///
/// let agents = (0..4)
///     .map(|i| SimRackAgent::builder(RackId::new(i), Priority::P2).build())
///     .collect();
/// // A 30-second open transition, then power returns.
/// let mut fleet = SoaBackend::new(agents);
/// fleet.step_schedule(Seconds::new(30.0), &[false, true], &|_, _| {
///     Watts::from_kilowatts(6.0)
/// });
/// assert!(fleet.readings().iter().all(|r| r.is_charging()));
/// ```
pub struct SoaBackend {
    shards: Vec<SoaShard>,
    /// Fleet order → (shard, slot); readings and rack listings replay this so
    /// the outside world sees the original agent order even when the
    /// homogeneous-group partition reshuffled racks across shards.
    order: Vec<(usize, usize)>,
    /// rack → (shard, slot); commands and reads route through here.
    index: HashMap<RackId, (usize, usize)>,
    threaded: bool,
}

impl SoaBackend {
    /// Creates a serial (single-pass) SoA backend over the given agents.
    ///
    /// Heterogeneous fleets are supported: racks are partitioned into
    /// homogeneous groups by `(BbuParams, ChargePolicy)` at construction (in
    /// first-seen order), one or more shards per group. The kernel pass is
    /// untouched; only the shard layout changes. Readings and rack listings
    /// always come back in the original fleet order.
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>) -> Self {
        SoaBackend::with_shards(agents, 1, false)
    }

    /// Creates a sharded SoA backend: the fleet is split into `shards`
    /// contiguous chunks stepped on scoped threads, a whole schedule per
    /// fan-out (the batched submission model). `shards` clamps to
    /// `[1, agents.len()]`; a heterogeneous fleet may produce more shards
    /// than requested (at least one per homogeneous group).
    #[must_use]
    pub fn sharded(agents: Vec<SimRackAgent>, shards: usize) -> Self {
        SoaBackend::with_shards(agents, shards, true)
    }

    fn with_shards(agents: Vec<SimRackAgent>, shards: usize, threaded: bool) -> Self {
        if agents.is_empty() {
            return SoaBackend {
                shards: Vec::new(),
                order: Vec::new(),
                index: HashMap::new(),
                threaded,
            };
        }

        // Partition fleet positions into homogeneous groups, first-seen
        // order. `BbuParams` is PartialEq-only (f64 fields), so this is a
        // linear scan over the handful of distinct configurations.
        type Group = (BbuParams, ChargePolicy, Vec<usize>);
        let mut groups: Vec<Group> = Vec::new();
        for (pos, agent) in agents.iter().enumerate() {
            let params = *agent.battery().bbu().pack().params();
            let policy = agent.battery().bbu().charger().policy();
            match groups
                .iter_mut()
                .find(|(p, c, _)| *p == params && *c == policy)
            {
                Some((_, _, members)) => members.push(pos),
                None => groups.push((params, policy, vec![pos])),
            }
        }

        // One global chunk size keeps the homogeneous layout identical to
        // the pre-grouping backend: a single group splits into the same
        // contiguous chunks as before.
        let shard_count = shards.clamp(1, agents.len());
        let chunk = agents.len().div_ceil(shard_count);
        let mut built: Vec<SoaShard> = Vec::new();
        let mut order = vec![(0usize, 0usize); agents.len()];
        for (params, policy, members) in &groups {
            for piece in members.chunks(chunk) {
                let refs: Vec<&SimRackAgent> = piece.iter().map(|&pos| &agents[pos]).collect();
                let s = built.len();
                built.push(SoaShard::from_agents(&refs, *params, *policy));
                for (slot, &pos) in piece.iter().enumerate() {
                    order[pos] = (s, slot);
                }
            }
        }

        let mut index = HashMap::with_capacity(agents.len());
        for (s, shard) in built.iter().enumerate() {
            for (slot, &rack) in shard.racks.iter().enumerate() {
                index.insert(rack, (s, slot));
            }
        }
        SoaBackend {
            shards: built,
            order,
            index,
            threaded,
        }
    }

    /// Shared-crate access for the event-driven wrapper.
    pub(crate) fn shards(&self) -> &[SoaShard] {
        &self.shards
    }

    /// Mutable shard access for the event-driven wrapper.
    pub(crate) fn shards_mut(&mut self) -> &mut [SoaShard] {
        &mut self.shards
    }

    /// Routes a rack to its `(shard, slot)` home, if present.
    pub(crate) fn slot_of(&self, rack: RackId) -> Option<(usize, usize)> {
        self.index.get(&rack).copied()
    }

    /// Decomposes the backend into its shards plus the fleet-order and
    /// rack-routing maps — the sharded event backend takes ownership of the
    /// shards (they ping-pong to worker threads) but keeps the same
    /// construction/grouping pass and external ordering.
    pub(crate) fn into_parts(self) -> SoaParts {
        (self.shards, self.order, self.index)
    }

    /// Total racks across all shards.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.shards.iter().map(SoaShard::len).sum()
    }

    /// Number of shards the fleet is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl FleetBackend for SoaBackend {
    fn name(&self) -> &'static str {
        if self.threaded {
            "soa-sharded"
        } else {
            "soa"
        }
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let _span = tspan!("fleet.soa_step", "fleet");
        if !self.threaded || self.shards.len() <= 1 {
            for (i, &power) in input_power.iter().enumerate() {
                for shard in &mut self.shards {
                    for slot in 0..shard.len() {
                        let load = load_of(shard.racks[slot], i);
                        shard.substep(slot, load, power, dt);
                    }
                }
            }
            return;
        }

        // `load_of` is not Sync, so materialize each shard's loads up front
        // (substep-major, matching `run_schedule`), then fan the schedule out
        // once — the batched submission model, minus any channels.
        let loads: Vec<Vec<Watts>> = self
            .shards
            .iter()
            .map(|shard| {
                let mut v = Vec::with_capacity(shard.len() * input_power.len());
                for i in 0..input_power.len() {
                    v.extend(shard.racks.iter().map(|&rack| load_of(rack, i)));
                }
                v
            })
            .collect();
        std::thread::scope(|scope| {
            for (shard, shard_loads) in self.shards.iter_mut().zip(&loads) {
                scope.spawn(move || shard.run_schedule(dt, input_power, shard_loads));
            }
        });
    }

    fn readings(&self) -> Vec<PowerReading> {
        let mut out = Vec::with_capacity(self.order.len());
        self.read_all(&mut out);
        out
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        self
    }
}

impl AgentBus for SoaBackend {
    fn racks(&self) -> Vec<RackId> {
        self.order
            .iter()
            .map(|&(s, slot)| self.shards[s].racks[slot])
            .collect()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        let &(s, slot) = self.index.get(&rack)?;
        Some(self.shards[s].read(slot))
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        // `order` replays the original fleet order, whatever the grouping
        // pass did to the shard layout.
        out.extend(
            self.order
                .iter()
                .map(|&(s, slot)| self.shards[s].read(slot)),
        );
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        if let Some(&(s, slot)) = self.index.get(&rack) {
            self.shards[s].set_override_slot(slot, current);
        }
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        if let Some(&(s, slot)) = self.index.get(&rack) {
            self.shards[s].clear_override_slot(slot);
        }
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        if let Some(&(s, slot)) = self.index.get(&rack) {
            self.shards[s].set_postponed_slot(slot, postponed);
        }
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        if let Some(&(s, slot)) = self.index.get(&rack) {
            self.shards[s].cap_slot(slot, limit);
        }
    }

    fn uncap_servers(&mut self, rack: RackId) {
        if let Some(&(s, slot)) = self.index.get(&rack) {
            self.shards[s].uncap_slot(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FleetBackendKind, SerialBackend};

    fn agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect()
    }

    /// A mixed fleet: two charge policies interleaved, so the grouping pass
    /// has to split the fleet into (at least) two homogeneous shards.
    fn mixed_agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                let mut builder =
                    SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                        .offered_load(Watts::from_kilowatts(6.0));
                if i % 2 == 0 {
                    builder = builder.charge_policy(ChargePolicy::Original);
                }
                builder.build()
            })
            .collect()
    }

    /// Steps both backends through the same mixed schedule with the same
    /// command stream, asserting bit-identical readings at every boundary.
    fn assert_lockstep(
        fleet: impl Fn() -> Vec<SimRackAgent>,
        mut soa: Box<dyn FleetBackend>,
        rounds: usize,
    ) {
        let mut reference = SerialBackend::new(fleet());
        for round in 0..rounds {
            // Commands vary per round to exercise every flag transition.
            for backend in [&mut reference as &mut dyn FleetBackend, soa.as_mut()] {
                let bus = backend.bus_mut();
                match round % 5 {
                    0 => bus.set_charge_override(RackId::new(2), Amperes::new(1.5)),
                    1 => {
                        bus.clear_charge_override(RackId::new(2));
                        bus.set_charge_postponed(RackId::new(3), true);
                    }
                    2 => {
                        bus.set_charge_postponed(RackId::new(3), false);
                        bus.cap_servers(RackId::new(4), Watts::from_kilowatts(4.0));
                    }
                    3 => bus.uncap_servers(RackId::new(4)),
                    _ => bus.set_charge_override(RackId::new(6), Amperes::new(9.0)),
                }
            }
            let schedule: Vec<bool> = (0..6).map(|i| (i + round) % 7 != 3).collect();
            let load = |rack: RackId, i: usize| {
                Watts::from_kilowatts(5.0 + 0.3 * f64::from(rack.index()) + 0.1 * i as f64)
            };
            reference.step_schedule(Seconds::new(1.0), &schedule, &load);
            soa.step_schedule(Seconds::new(1.0), &schedule, &load);
            assert_eq!(
                reference.readings(),
                soa.readings(),
                "round {round} diverged"
            );
            for rack in reference.bus_mut().racks() {
                assert_eq!(
                    reference.bus_mut().read(rack),
                    soa.bus_mut().read(rack),
                    "round {round} rack {rack:?}"
                );
            }
        }
    }

    #[test]
    fn soa_serial_matches_object_path_bit_for_bit() {
        assert_lockstep(|| agents(7), Box::new(SoaBackend::new(agents(7))), 12);
    }

    #[test]
    fn soa_sharded_matches_object_path_bit_for_bit() {
        assert_lockstep(
            || agents(7),
            Box::new(SoaBackend::sharded(agents(7), 3)),
            12,
        );
    }

    #[test]
    fn heterogeneous_soa_matches_object_path_bit_for_bit() {
        assert_lockstep(
            || mixed_agents(7),
            Box::new(SoaBackend::new(mixed_agents(7))),
            12,
        );
    }

    #[test]
    fn heterogeneous_sharded_soa_matches_object_path_bit_for_bit() {
        assert_lockstep(
            || mixed_agents(7),
            Box::new(SoaBackend::sharded(mixed_agents(7), 3)),
            12,
        );
    }

    #[test]
    fn heterogeneous_fleets_partition_by_group_and_keep_fleet_order() {
        // 7 racks, alternating policies → two groups (4 + 3 racks); a serial
        // build keeps one shard per group.
        let fleet = SoaBackend::new(mixed_agents(7));
        assert_eq!(fleet.shard_count(), 2);
        assert_eq!(fleet.rack_count(), 7);
        let order: Vec<u32> = FleetBackend::readings(&fleet)
            .iter()
            .map(|r| r.rack.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
        let listed: Vec<u32> = AgentBus::racks(&fleet).iter().map(|r| r.index()).collect();
        assert_eq!(listed, order);
    }

    #[test]
    fn shard_counts_clamp() {
        assert_eq!(SoaBackend::sharded(agents(4), 99).shard_count(), 4);
        assert_eq!(SoaBackend::sharded(agents(4), 0).shard_count(), 1);
        assert_eq!(SoaBackend::new(agents(4)).rack_count(), 4);
    }

    #[test]
    fn empty_fleet_is_inert() {
        let mut fleet = SoaBackend::new(Vec::new());
        fleet.step_schedule(Seconds::new(1.0), &[true], &|_, _| Watts::ZERO);
        assert!(fleet.readings().is_empty());
        assert!(fleet.bus_mut().read(RackId::new(0)).is_none());
    }

    #[test]
    fn kind_builds_soa_backends() {
        assert_eq!(FleetBackendKind::Soa.build(agents(2)).name(), "soa");
        assert_eq!(
            FleetBackendKind::SoaSharded { shards: 2 }
                .build(agents(4))
                .name(),
            "soa-sharded"
        );
    }
}
