//! The struct-of-arrays fleet engine: every fast in-process backend.
//!
//! The object path dispatches every rack through
//! `SimRackAgent` → `RackBatterySystem` → `Bbu` → `BbuPack`, four layers of
//! method calls and scattered structs per rack per sub-step. At the paper's
//! 316 racks that is noise; at a 100k-rack campus it is the simulator's whole
//! budget. [`SoaBackend`] flattens the fleet into contiguous arrays — one
//! `soc[]`, `event_dod[]`, `automatic[]`, `offered[]`, … per shard, plus one
//! packed flag byte per rack — and steps them in a single branch-light pass.
//!
//! One engine serves four [`FleetBackendKind`](crate::FleetBackendKind)s,
//! configured by a stepping mode and where the shards run:
//!
//! | kind              | mode  | shards run on                  |
//! |-------------------|-------|--------------------------------|
//! | `soa`             | dense | the calling thread             |
//! | `soa-sharded:N`   | dense | one persistent worker per shard |
//! | `event`           | event | the calling thread             |
//! | `event-sharded:N` | event | one persistent worker per shard |
//!
//! Dense mode steps every slot on every sub-step. Event mode steps only the
//! slots that are awake and fast-forwards the rest (the rules are in
//! `event.rs`). Both modes share one construction pass, one routing index,
//! one [`AgentBus`] implementation, and one per-shard batch runner; the
//! worker protocol lives in `workers.rs`.
//!
//! **Equivalence argument.** The per-rack state transition is *the same
//! code*: both paths call [`recharge_battery::kernel`] for the CC-CV and
//! discharge arithmetic, and the SoA pass replays the exact
//! `set_offered_load → set_input_power → step` sequence of
//! [`SerialBackend`](crate::SerialBackend) per rack per sub-step. Racks do
//! not interact during physics, so per-rack state — and therefore every
//! [`PowerReading`] and downstream `RunMetrics` — is bit-identical to the
//! object path regardless of mode, shard count, or thread. The
//! backend-equivalence matrix and proptests over random command schedules
//! enforce this.
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

use recharge_battery::kernel;
use recharge_battery::{BbuParams, BbuState, ChargePhase, ChargePolicy};
use recharge_telemetry::{flight, tcounter, tspan, FlightKind, ReasonCode, NO_BUCKET};
use recharge_units::{Amperes, Dod, Priority, RackId, RackMap, Seconds, Soc, Watts};

use crate::agent::{RackAgent, SimRackAgent};
use crate::backend::FleetBackend;
use crate::bus::AgentBus;
use crate::event::{Lane, WakeRecord};
use crate::messages::PowerReading;
use crate::workers::Workers;

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
    fn priority_at(&self, slot: usize) -> Priority {
        self.priority[slot]
    }

    /// Whether the next sub-step for this rack is a provable no-op given
    /// unchanged input power and an arbitrary offered load.
    ///
    /// This is event mode's *entire* skip authority: a rack may
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
    /// Input-power *edges* invalidate sleep; event mode wakes all racks on
    /// every edge, so the predicate can assume power is steady.
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

    /// `Charger::set_override` for one slot: clamp to the 1–5 A hardware
    /// range and raise the override flag.
    fn set_override_slot(&mut self, slot: usize, current: Amperes) {
        self.override_a[slot] = current
            .clamp(Amperes::MIN_CHARGE, Amperes::MAX_CHARGE)
            .as_amps();
        self.flags[slot] |= FLAG_OVERRIDE;
    }

    /// `Charger::clear_override` for one slot.
    fn clear_override_slot(&mut self, slot: usize) {
        self.flags[slot] &= !FLAG_OVERRIDE;
    }

    /// `Charger::set_postponed` for one slot.
    fn set_postponed_slot(&mut self, slot: usize, postponed: bool) {
        if postponed {
            self.flags[slot] |= FLAG_POSTPONED;
        } else {
            self.flags[slot] &= !FLAG_POSTPONED;
        }
    }

    /// `SimRackAgent::cap_servers` for one slot.
    fn cap_slot(&mut self, slot: usize, limit: Watts) {
        self.cap[slot] = limit.max(Watts::ZERO).as_watts();
        self.flags[slot] |= FLAG_CAPPED;
    }

    /// `SimRackAgent::uncap_servers` for one slot.
    fn uncap_slot(&mut self, slot: usize) {
        self.flags[slot] &= !FLAG_CAPPED;
    }

    /// `SimRackAgent::read` over array state.
    #[inline]
    fn read(&self, slot: usize) -> PowerReading {
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

/// How the engine steps a shard's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Every slot executes every sub-step.
    Dense,
    /// Only awake slots execute; quiescent slots fast-forward (`event.rs`).
    Event,
}

/// One schedule as the per-shard runner sees it.
#[derive(Clone, Copy)]
pub(crate) struct Batch<'a> {
    pub(crate) mode: Mode,
    /// Global sub-step index of the batch's first sub-step.
    pub(crate) base: u64,
    /// Input power on the sub-step before `base` (the previous schedule's
    /// last), which the first sub-step is compared with for an edge.
    pub(crate) power_before: bool,
    pub(crate) dt: Seconds,
    pub(crate) input_power: &'a [bool],
}

/// What one shard did during the last batch.
#[derive(Debug, Clone, Copy, Default)]
struct BatchCounts {
    executed: u64,
    fired: u64,
    replays: u64,
}

/// One shard's complete stepping state: its arrays and sleep lane.
/// Ownership moves to a worker thread for the length of a batch on the
/// sharded kinds and stays with the engine otherwise.
pub(crate) struct ShardState {
    pub(crate) shard: SoaShard,
    /// Sleep bookkeeping. Dense mode never retires a slot, so its lane stays
    /// all-awake and no command ever lands on a sleeper.
    pub(crate) lane: Lane,
    /// Slots commands touched while they slept since the last batch, in
    /// command order, duplicates included.
    woken: Vec<u32>,
    /// Sleep→wake transitions of the last batch, journaled by the engine.
    wakes: Vec<WakeRecord>,
    executed_total: u64,
    batch: BatchCounts,
}

impl ShardState {
    fn new(shard: SoaShard) -> Self {
        ShardState {
            lane: Lane::new(shard.len()),
            shard,
            woken: Vec::new(),
            wakes: Vec::new(),
            executed_total: 0,
            batch: BatchCounts::default(),
        }
    }

    /// Opens a batch whose first sub-step is `now`: wakes the commanded
    /// slots (rule 4 in `event.rs`) and starts the batch's counts with one
    /// delivery per command. Runs on the calling thread, before any worker
    /// frame is filled.
    fn open_batch(&mut self, now: u64) {
        self.lane.wake_commanded(&self.woken, now, &mut self.wakes);
        self.batch = BatchCounts {
            fired: self.woken.len() as u64,
            ..BatchCounts::default()
        };
        self.woken.clear();
    }

    /// The per-shard batch runner, the same on the calling thread and on a
    /// worker: in event mode wake every sleeper at each power edge, step the
    /// awake slots, and replay the final offered load into sleepers; in
    /// dense mode step every slot. `load(substep, slot, rack)` and
    /// `final_load(slot, rack)` supply offered loads.
    pub(crate) fn run_batch(
        &mut self,
        batch: &Batch<'_>,
        mut load: impl FnMut(usize, usize, RackId) -> Watts,
        final_load: impl FnMut(usize, RackId) -> Watts,
    ) {
        let ShardState {
            shard,
            lane,
            wakes,
            executed_total,
            batch: counts,
            ..
        } = self;
        match batch.mode {
            Mode::Dense => {
                for (i, &power) in batch.input_power.iter().enumerate() {
                    for slot in 0..shard.len() {
                        let offered = load(i, slot, shard.rack_at(slot));
                        shard.substep(slot, offered, power, batch.dt);
                    }
                }
                counts.executed = (batch.input_power.len() * shard.len()) as u64;
            }
            Mode::Event => {
                let mut before = batch.power_before;
                for (i, &power) in batch.input_power.iter().enumerate() {
                    let now = batch.base + i as u64;
                    if power != before {
                        counts.fired += 1;
                        lane.wake_all(now, wakes);
                        before = power;
                    }
                    counts.executed +=
                        lane.step_active(shard, now, power, batch.dt, |slot, rack| {
                            load(i, slot, rack)
                        });
                }
                counts.replays = lane.replay_offered(shard, final_load);
            }
        }
        *executed_total += counts.executed;
    }
}

/// The struct-of-arrays fleet engine, in dense or event mode, stepping its
/// shards on the calling thread or on one persistent worker per shard.
///
/// Implements both [`FleetBackend`] (the tick loop's surface) and
/// [`AgentBus`] (the controller's surface) over the same arrays — there are
/// no per-rack agent objects at all. Readings, bus behavior, and downstream
/// `RunMetrics` are bit-identical in every configuration; only the number of
/// rack sub-steps executed and who executes them change.
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
    mode: Mode,
    shards: Vec<ShardState>,
    /// The persistent shard workers of the sharded kinds; `None` steps every
    /// shard on the calling thread.
    workers: Option<Workers>,
    /// Fleet order → (shard, slot); readings and rack listings replay this so
    /// the outside world sees the original agent order even when the
    /// homogeneous-group partition reshuffled racks across shards.
    order: Vec<(usize, usize)>,
    /// rack → (shard, slot); commands and reads route through here.
    index: RackMap<(usize, usize)>,
    /// Input power on the last sub-step of the previous schedule. Safe to
    /// start `true`: every rack begins awake, and a rack only sleeps after
    /// executing a sub-step whose power this field tracked.
    power: bool,
    /// Global sub-step counter across schedules (the event timeline).
    clock: u64,
    /// Rack sub-steps actually executed, summed over shards.
    executed: u64,
    /// End-of-batch offered-load replay writes, summed over shards.
    replayed: u64,
}

impl SoaBackend {
    /// Dense stepping on the calling thread (`soa`).
    ///
    /// Heterogeneous fleets are supported: racks are partitioned into
    /// homogeneous groups by `(BbuParams, ChargePolicy)` at construction (in
    /// first-seen order), one or more shards per group. The kernel pass is
    /// untouched; only the shard layout changes. Readings and rack listings
    /// always come back in the original fleet order.
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>) -> Self {
        SoaBackend::build(agents, Mode::Dense, 1, false)
    }

    /// Dense stepping over `shards` contiguous chunks, one persistent worker
    /// thread per shard (`soa-sharded:N`). `shards` clamps to
    /// `[1, agents.len()]`; a heterogeneous fleet may produce more shards
    /// than requested (at least one per homogeneous group).
    #[must_use]
    pub fn sharded(agents: Vec<SimRackAgent>, shards: usize) -> Self {
        SoaBackend::build(agents, Mode::Dense, shards, true)
    }

    /// Event-mode stepping on the calling thread (`event`): quiescent racks
    /// fast-forward instead of stepping.
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
    /// let mut fleet = SoaBackend::event(agents);
    /// // A 30-second open transition, then a long quiet stretch of wall power.
    /// let schedule = [&[false][..], &[true; 600][..]].concat();
    /// fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
    ///     Watts::from_kilowatts(6.0)
    /// });
    /// assert!(fleet.substeps_skipped() > 0);
    /// ```
    #[must_use]
    pub fn event(agents: Vec<SimRackAgent>) -> Self {
        SoaBackend::build(agents, Mode::Event, 1, false)
    }

    /// Event-mode stepping with one persistent worker thread per shard
    /// (`event-sharded:N`); `shards` clamps like [`sharded`](Self::sharded).
    ///
    /// # Examples
    ///
    /// ```
    /// use recharge_dynamo::{FleetBackend, SimRackAgent, SoaBackend};
    /// use recharge_units::{Priority, RackId, Seconds, Watts};
    ///
    /// let agents = (0..8)
    ///     .map(|i| SimRackAgent::builder(RackId::new(i), Priority::P2).build())
    ///     .collect();
    /// let mut fleet = SoaBackend::event_sharded(agents, 4);
    /// let schedule = [&[false][..], &[true; 600][..]].concat();
    /// fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
    ///     Watts::from_kilowatts(6.0)
    /// });
    /// assert_eq!(fleet.shard_count(), 4);
    /// assert!(fleet.substeps_skipped() > 0);
    /// ```
    #[must_use]
    pub fn event_sharded(agents: Vec<SimRackAgent>, shards: usize) -> Self {
        SoaBackend::build(agents, Mode::Event, shards, true)
    }

    /// The one construction, grouping, and routing pass.
    fn build(agents: Vec<SimRackAgent>, mode: Mode, shards: usize, threaded: bool) -> Self {
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

        // One global chunk size: a single homogeneous group splits into
        // `shards` contiguous chunks.
        let chunk = agents.len().div_ceil(shards.clamp(1, agents.len().max(1)));
        let mut built: Vec<ShardState> = Vec::new();
        let mut order = vec![(0usize, 0usize); agents.len()];
        let mut index = RackMap::with_capacity_and_hasher(agents.len(), Default::default());
        for (params, policy, members) in &groups {
            for piece in members.chunks(chunk) {
                let refs: Vec<&SimRackAgent> = piece.iter().map(|&pos| &agents[pos]).collect();
                let s = built.len();
                built.push(ShardState::new(SoaShard::from_agents(
                    &refs, *params, *policy,
                )));
                for (slot, &pos) in piece.iter().enumerate() {
                    order[pos] = (s, slot);
                    index.insert(agents[pos].rack(), (s, slot));
                }
            }
        }
        SoaBackend {
            mode,
            workers: threaded.then(|| Workers::spawn(built.len())),
            shards: built,
            order,
            index,
            power: true,
            clock: 0,
            executed: 0,
            replayed: 0,
        }
    }

    /// Total racks across all shards.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.order.len()
    }

    /// Number of shards the fleet is split into (and worker threads, on the
    /// sharded kinds).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rack sub-steps actually executed since construction, over all shards.
    #[must_use]
    pub fn substeps_executed(&self) -> u64 {
        self.executed
    }

    /// Rack sub-steps fast-forwarded (what dense stepping would have run
    /// minus what this engine did); always zero in dense mode.
    #[must_use]
    pub fn substeps_skipped(&self) -> u64 {
        self.clock * self.rack_count() as u64 - self.executed
    }

    /// End-of-batch offered-load replay writes since construction, summed
    /// over shards: exactly one write per sleeping rack per schedule, which
    /// is the same write set the dense pass's final sub-step would have
    /// produced for them.
    #[must_use]
    pub fn offered_replays(&self) -> u64 {
        self.replayed
    }

    /// Per-shard `(executed, skipped)` sub-step accounting. Each pair
    /// satisfies `executed + skipped == substeps × shard_len` exactly.
    #[must_use]
    pub fn per_shard_substeps(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|state| {
                let dense = self.clock * state.shard.len() as u64;
                (state.executed_total, dense - state.executed_total)
            })
            .collect()
    }

    /// Sums the shards' batch counts and journals their wake records, on the
    /// calling thread, after the batch.
    fn finish_batch(&mut self, n: usize) {
        let mut counts = BatchCounts::default();
        for state in &mut self.shards {
            counts.executed += state.batch.executed;
            counts.fired += state.batch.fired;
            counts.replays += state.batch.replays;
            let ShardState { shard, wakes, .. } = state;
            for record in wakes.drain(..) {
                flight(
                    FlightKind::FastForward,
                    ReasonCode::Observed,
                    shard.rack_at(record.slot).index(),
                    shard.priority_at(record.slot).rank(),
                    NO_BUCKET,
                    record.skipped,
                    record.now,
                );
            }
        }
        self.executed += counts.executed;
        self.replayed += counts.replays;
        if self.mode == Mode::Event {
            let dense = n as u64 * self.rack_count() as u64;
            tcounter!("sim.rack_substeps").add(counts.executed);
            tcounter!("sim.ticks_skipped").add(dense - counts.executed);
            tcounter!("sim.events_fired").add(counts.fired);
            tcounter!("sim.offered_replays").add(counts.replays);
        }
    }

    /// Applies a command to the owning shard's arrays and, if the target is
    /// sleeping, lists it to wake at the next schedule's first sub-step so
    /// the command's effect is stepped densely (rule 2 in `event.rs`).
    fn command(&mut self, rack: RackId, apply: impl FnOnce(&mut SoaShard, usize)) {
        let Some(&(s, slot)) = self.index.get(&rack) else {
            return;
        };
        let state = &mut self.shards[s];
        apply(&mut state.shard, slot);
        if state.lane.is_sleeping(slot) {
            state
                .woken
                .push(u32::try_from(slot).expect("slot fits u32"));
        }
    }
}

impl FleetBackend for SoaBackend {
    fn name(&self) -> &'static str {
        match (self.mode, self.workers.is_some()) {
            (Mode::Dense, false) => "soa",
            (Mode::Dense, true) => "soa-sharded",
            (Mode::Event, false) => "event",
            (Mode::Event, true) => "event-sharded",
        }
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let _span = tspan!("fleet.step", "fleet");
        let n = input_power.len();
        if n == 0 || self.shards.is_empty() {
            return;
        }
        for state in &mut self.shards {
            state.open_batch(self.clock);
        }
        let batch = Batch {
            mode: self.mode,
            base: self.clock,
            power_before: self.power,
            dt,
            input_power,
        };
        match &mut self.workers {
            Some(workers) => workers.run(&mut self.shards, &batch, load_of),
            // Inline, the runner calls `load_of` directly: no frame, and
            // loads are evaluated only for the slots that execute.
            None => {
                for state in &mut self.shards {
                    state.run_batch(
                        &batch,
                        |i, _, rack| load_of(rack, i),
                        |_, rack| load_of(rack, n - 1),
                    );
                }
            }
        }
        self.clock += n as u64;
        self.power = input_power[n - 1];
        self.finish_batch(n);
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
            .map(|&(s, slot)| self.shards[s].shard.rack_at(slot))
            .collect()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        let &(s, slot) = self.index.get(&rack)?;
        Some(self.shards[s].shard.read(slot))
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        // `order` replays the original fleet order, whatever the grouping
        // pass did to the shard layout.
        out.extend(
            self.order
                .iter()
                .map(|&(s, slot)| self.shards[s].shard.read(slot)),
        );
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        self.command(rack, |shard, slot| shard.set_override_slot(slot, current));
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        self.command(rack, SoaShard::clear_override_slot);
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        self.command(rack, |shard, slot| {
            shard.set_postponed_slot(slot, postponed);
        });
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        self.command(rack, |shard, slot| shard.cap_slot(slot, limit));
    }

    fn uncap_servers(&mut self, rack: RackId) {
        self.command(rack, SoaShard::uncap_slot);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{FleetBackendKind, SerialBackend};
    use crate::bus::InMemoryBus;
    use crate::controller::{Controller, ControllerConfig, Strategy};
    use recharge_units::{DeviceId, SimTime};

    pub(crate) fn agents(n: u32) -> Vec<SimRackAgent> {
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

    /// Steps the serial reference and every engine through the same mixed
    /// schedule with the same command stream, asserting bit-identical
    /// readings at every boundary.
    pub(crate) fn assert_lockstep(
        fleet: impl Fn() -> Vec<SimRackAgent>,
        engines: &mut [SoaBackend],
        rounds: usize,
    ) {
        let mut reference = SerialBackend::new(fleet());
        for round in 0..rounds {
            // Commands vary per round to exercise every flag transition.
            let buses = engines.iter_mut().map(|e| e as &mut dyn AgentBus);
            for bus in std::iter::once(reference.bus_mut()).chain(buses) {
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
            for engine in engines.iter_mut() {
                engine.step_schedule(Seconds::new(1.0), &schedule, &load);
                assert_eq!(
                    reference.readings(),
                    FleetBackend::readings(engine),
                    "round {round}: {} diverged",
                    engine.name()
                );
                for rack in reference.bus_mut().racks() {
                    assert_eq!(
                        reference.bus_mut().read(rack),
                        AgentBus::read(engine, rack),
                        "round {round} rack {rack:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn soa_serial_matches_object_path_bit_for_bit() {
        assert_lockstep(|| agents(7), &mut [SoaBackend::new(agents(7))], 12);
    }

    #[test]
    fn soa_sharded_matches_object_path_bit_for_bit() {
        assert_lockstep(|| agents(7), &mut [SoaBackend::sharded(agents(7), 3)], 12);
    }

    #[test]
    fn heterogeneous_soa_matches_object_path_bit_for_bit() {
        let mut engines = [
            SoaBackend::new(mixed_agents(7)),
            SoaBackend::event(mixed_agents(7)),
        ];
        assert_lockstep(|| mixed_agents(7), &mut engines, 12);
    }

    #[test]
    fn heterogeneous_sharded_soa_matches_object_path_bit_for_bit() {
        let mut engines = [
            SoaBackend::sharded(mixed_agents(7), 3),
            SoaBackend::event_sharded(mixed_agents(7), 3),
        ];
        assert_lockstep(|| mixed_agents(7), &mut engines, 12);
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
    fn batched_steps_match_per_tick_steps() {
        // A schedule submitted as one batch must equal the same sub-steps
        // submitted one batch each, per-sub-step load and power included.
        let load = |rack: RackId, i: usize| {
            Watts::from_kilowatts(5.0 + 0.25 * f64::from(rack.index()) + 0.1 * i as f64)
        };
        for (mut batched, mut per_tick) in [
            (
                SoaBackend::sharded(agents(9), 4),
                SoaBackend::new(agents(9)),
            ),
            (
                SoaBackend::event_sharded(agents(9), 4),
                SoaBackend::event(agents(9)),
            ),
        ] {
            for round in 0..3 {
                let power: Vec<bool> = (0..10).map(|i| (i + round) % 7 != 3).collect();
                batched.step_schedule(Seconds::new(1.0), &power, &load);
                for (i, &p) in power.iter().enumerate() {
                    per_tick.step_schedule(Seconds::new(1.0), &[p], &|rack, _| load(rack, i));
                }
            }
            assert_eq!(
                FleetBackend::readings(&batched),
                FleetBackend::readings(&per_tick),
                "{}",
                batched.name()
            );
        }
    }

    #[test]
    fn controller_runs_unchanged_over_threads() {
        let mut fleet = SoaBackend::sharded(agents(6), 2);
        let mut controller = Controller::new(
            ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
            Strategy::PriorityAware,
        );
        let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
        // Open transition, then coordinate.
        fleet.step_schedule(Seconds::new(60.0), &[false], &load);
        fleet.step_schedule(Seconds::new(1.0), &[true], &load);
        let report = controller.tick(SimTime::from_secs(61.0), &mut fleet);
        assert!(report.overrides_sent > 0);
        // The overrides landed in the worker-stepped arrays.
        fleet.step_schedule(Seconds::new(1.0), &[true], &load);
        let commanded = controller.commanded_currents();
        for reading in FleetBackend::readings(&fleet) {
            let state = &fleet.shards[fleet.index[&reading.rack].0];
            let slot = fleet.index[&reading.rack].1;
            assert_eq!(
                state.shard.setpoint(slot),
                commanded[&reading.rack],
                "rack {}",
                reading.rack
            );
        }
    }

    #[test]
    fn shard_counts_clamp() {
        assert_eq!(SoaBackend::sharded(agents(4), 99).shard_count(), 4);
        assert_eq!(SoaBackend::sharded(agents(4), 0).shard_count(), 1);
        assert_eq!(SoaBackend::event_sharded(agents(4), 99).shard_count(), 4);
        assert_eq!(SoaBackend::new(agents(4)).rack_count(), 4);
    }

    #[test]
    fn degenerate_shard_counts_clamp() {
        // Zero shards clamps up to one worker; an excess clamps down to one
        // shard per rack — both still step and read correctly.
        for requested in [0, 99] {
            let mut fleet = SoaBackend::sharded(agents(2), requested);
            fleet.step_schedule(Seconds::new(1.0), &[true], &|_, _| {
                Watts::from_kilowatts(6.0)
            });
            assert!(AgentBus::read(&fleet, RackId::new(1)).is_some());
            assert_eq!(fleet.rack_count(), 2);
        }
        // No agents at all still yields a working (empty) fleet.
        let fleet = SoaBackend::sharded(Vec::new(), 4);
        assert!(AgentBus::racks(&fleet).is_empty());
    }

    #[test]
    fn threaded_fleet_matches_in_memory_bus() {
        // Drive identical command/step sequences through the worker-threaded
        // engine and through agents stepped one by one, and compare every
        // reading.
        let mut threaded = SoaBackend::sharded(agents(7), 3);
        let mut local = InMemoryBus::new(agents(7));
        let kw6 = |_: RackId, _: usize| Watts::from_kilowatts(6.0);

        for (secs, power) in [(30.0, true), (45.0, false), (1.0, true), (60.0, true)] {
            threaded.step_schedule(Seconds::new(secs), &[power], &kw6);
            for a in local.agents_mut() {
                a.set_offered_load(Watts::from_kilowatts(6.0));
                a.set_input_power(power);
                a.step(Seconds::new(secs));
            }
        }
        threaded.set_charge_override(RackId::new(2), Amperes::new(1.5));
        local.set_charge_override(RackId::new(2), Amperes::new(1.5));
        threaded.step_schedule(Seconds::new(10.0), &[true], &kw6);
        for a in local.agents_mut() {
            a.step(Seconds::new(10.0));
        }

        for i in 0..7 {
            let rack = RackId::new(i);
            let t = AgentBus::read(&threaded, rack).expect("threaded reading");
            let l = local.read(rack).expect("local reading");
            assert_eq!(t.bbu_state, l.bbu_state, "rack {rack}");
            assert!(
                (t.recharge_power - l.recharge_power).abs() < Watts::new(1e-6),
                "rack {rack}: {} vs {}",
                t.recharge_power,
                l.recharge_power
            );
            assert_eq!(t.event_dod, l.event_dod, "rack {rack}");
        }
        assert_eq!(threaded.rack_count(), 7);
    }

    #[test]
    fn empty_fleet_is_inert() {
        for mut fleet in [
            SoaBackend::new(Vec::new()),
            SoaBackend::sharded(Vec::new(), 4),
            SoaBackend::event(Vec::new()),
            SoaBackend::event_sharded(Vec::new(), 4),
        ] {
            fleet.step_schedule(Seconds::new(1.0), &[true; 3], &|_, _| Watts::ZERO);
            assert!(fleet.readings().is_empty());
            assert!(AgentBus::racks(&fleet).is_empty());
            assert!(fleet.bus_mut().read(RackId::new(0)).is_none());
            assert_eq!(fleet.substeps_executed(), 0);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        for mut fleet in [
            SoaBackend::sharded(agents(2), 2),
            SoaBackend::event(agents(2)),
        ] {
            let before = FleetBackend::readings(&fleet);
            fleet.step_schedule(Seconds::new(1.0), &[], &|_, _| Watts::ZERO);
            assert_eq!(FleetBackend::readings(&fleet), before);
            assert_eq!(fleet.substeps_executed(), 0);
        }
    }

    #[test]
    fn reads_are_available_before_first_step() {
        let fleet = SoaBackend::event_sharded(agents(3), 2);
        assert_eq!(AgentBus::racks(&fleet).len(), 3);
        let reading = AgentBus::read(&fleet, RackId::new(0)).expect("built from the agent");
        assert!(reading.input_power_present);
        drop(fleet); // Drop joins the workers cleanly.
    }

    #[test]
    fn unknown_rack_reads_none_and_commands_are_ignored() {
        let mut fleet = SoaBackend::event_sharded(agents(2), 2);
        assert!(AgentBus::read(&fleet, RackId::new(9)).is_none());
        fleet.cap_servers(RackId::new(9), Watts::ZERO);
        fleet.step_schedule(Seconds::new(1.0), &[true], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(FleetBackend::readings(&fleet).len(), 2);
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
