//! Event-driven fleet stepping: skip the sub-steps that provably do nothing.
//!
//! Most of a diurnal run is dead time — batteries sit full, no overload, no
//! CC→CV knee — yet the dense backends still execute every rack on every
//! sub-step. [`EventDrivenBackend`] wraps the [`SoaBackend`] arrays with a
//! per-rack sleep state and a next-event queue, and only steps the racks
//! whose event horizon or input has actually arrived.
//!
//! **Equivalence argument.** The skip authority is
//! `SoaShard::is_quiescent`, which grants sleep only when the next dense
//! sub-step would be an *exact* no-op (settled state with zero wall power, or
//! postponed charging) — never from an analytic prediction, because float
//! accumulation is step-size dependent. The battery/breaker
//! `next_event_time()` horizons stay advisory lower bounds (proptest-pinned
//! in their own crates); here they would only ever be used to *defer* a wake,
//! never to skip one. Three rules keep the arrays bit-identical to the dense
//! pass at every schedule boundary:
//!
//! 1. A rack sleeps only *after* executing a sub-step that left it
//!    quiescent, so boundary effects (the final wall-power reading of a
//!    charge, the state latch flip) are always executed densely.
//! 2. Input-power edges and bus commands wake racks before the sub-step on
//!    which they take effect: edges wake the whole fleet (power is a global
//!    input), commands wake their target via a scheduled event at the next
//!    sub-step. Sleeping racks therefore never miss an input transition.
//! 3. The only array a skipped sub-step would have written is the
//!    `offered[]` trace mirror; `touch_offered` replays the schedule's final
//!    load for every sleeping rack, which is exactly the value the dense
//!    pass would have left behind (intermediate writes are unobservable —
//!    readings happen only at schedule boundaries, DESIGN.md §11).
//!
//! Every sleep→wake transition journals a [`FlightKind::FastForward`] event
//! with the number of sub-steps skipped, so provenance of the fast-forward
//! is auditable after the fact. `sim.rack_substeps`, `sim.ticks_skipped`,
//! `sim.events_fired`, and `sim.offered_replays` counters quantify the win
//! per run.
//!
//! **The sharded case.** [`EventShardedBackend`](crate::EventShardedBackend)
//! runs one [`Lane`] + [`EventScheduler`] per SoA shard on persistent worker
//! threads, with a *merged wake queue* at the coordinator. The three rules
//! above carry over unchanged because racks never interact during physics;
//! what needs an argument is event *ordering*, and two properties pin it:
//!
//! 4. The coordinator's merged queue imposes one global `(time, seq)` order
//!    on every power edge and command wake — exactly the order the
//!    single-threaded scheduler would have used — and each shard's local
//!    scheduler receives its *projection* of that order (edges broadcast to
//!    every shard at the same integer sub-step, wakes routed to the owning
//!    shard only). A projection of a total order preserves the per-shard
//!    FIFO tie-break, so each shard pops events in the same relative order
//!    as the single-threaded backend.
//! 5. Cross-shard ordering within a sub-step is immaterial: an event only
//!    mutates its own shard's lane and arrays (a power edge is replicated
//!    per shard, and waking an already-awake slot is a no-op), so any
//!    interleaving of shard timelines yields the same arrays — which is why
//!    the workers can run them concurrently at all.

use recharge_telemetry::{flight, tcounter, tspan, FlightKind, ReasonCode, NO_BUCKET};
use recharge_units::{Amperes, RackId, Seconds, Watts};

use crate::agent::SimRackAgent;
use crate::backend::FleetBackend;
use crate::bus::AgentBus;
use crate::messages::PowerReading;
use crate::scheduler::EventScheduler;
use crate::soa::{SoaBackend, SoaShard};

/// Extra scheduler capacity beyond one pending wake per rack, covering a
/// typical batch's worth of power edges without a mid-run reallocation.
pub(crate) const EDGE_HEADROOM: usize = 64;

/// What the fleet-level event queue carries.
enum FleetEvent {
    /// Input power flips to the carried value at the event's sub-step.
    PowerEdge(bool),
    /// A bus command touched a sleeping rack; it must step again.
    Wake { shard: usize, slot: usize },
}

/// Per-shard sleep bookkeeping, parallel to the SoA arrays.
///
/// Shared by the single-threaded [`EventDrivenBackend`] and the per-worker
/// shard states of [`EventShardedBackend`](crate::EventShardedBackend): both
/// drive the same sleep/wake transitions, so the skip authority lives in
/// exactly one place. `active` and `asleep` are disjoint sorted complements
/// of the slot space, which keeps every operation — including the
/// end-of-batch offered replay — proportional to the slots it touches, not
/// to the shard size.
pub(crate) struct Lane {
    /// Whether each slot is currently fast-forwarding.
    sleeping: Vec<bool>,
    /// Clock of the last sub-step each slot actually executed.
    slept_at: Vec<u64>,
    /// Sorted slot indices still stepping densely.
    active: Vec<u32>,
    /// Sorted slot indices currently fast-forwarding (the complement of
    /// `active`), so the offered replay iterates sleepers instead of
    /// scanning the whole shard.
    asleep: Vec<u32>,
}

impl Lane {
    /// A lane over `len` slots, everyone awake.
    pub(crate) fn new(len: usize) -> Self {
        Lane {
            sleeping: vec![false; len],
            slept_at: vec![0; len],
            active: (0..u32::try_from(len).expect("shard fits u32")).collect(),
            asleep: Vec::new(),
        }
    }

    /// Whether `slot` is currently fast-forwarding.
    pub(crate) fn is_sleeping(&self, slot: usize) -> bool {
        self.sleeping[slot]
    }

    /// The sorted slots still stepping densely.
    pub(crate) fn active_slots(&self) -> &[u32] {
        &self.active
    }

    /// Wakes `slot` if it is sleeping, returning how many sub-steps it
    /// skipped. Waking an awake slot is a no-op (`None`).
    pub(crate) fn wake_one(&mut self, slot: usize, now: u64) -> Option<u64> {
        if !self.sleeping[slot] {
            return None;
        }
        self.sleeping[slot] = false;
        let skipped = now.saturating_sub(self.slept_at[slot] + 1);
        let s32 = u32::try_from(slot).expect("slot fits u32");
        if let Ok(pos) = self.asleep.binary_search(&s32) {
            self.asleep.remove(pos);
        }
        if let Err(pos) = self.active.binary_search(&s32) {
            self.active.insert(pos, s32);
        }
        Some(skipped)
    }

    /// Wakes every sleeping slot, invoking `woken(slot, skipped)` in
    /// ascending slot order (the order the dense wake scan used to report).
    pub(crate) fn wake_all(&mut self, now: u64, mut woken: impl FnMut(usize, u64)) {
        if self.asleep.is_empty() {
            return;
        }
        for &s in &self.asleep {
            let slot = s as usize;
            self.sleeping[slot] = false;
            woken(slot, now.saturating_sub(self.slept_at[slot] + 1));
        }
        self.asleep.clear();
        self.active.clear();
        self.active
            .extend(0..u32::try_from(self.sleeping.len()).expect("shard fits u32"));
    }

    /// Executes one sub-step for every active slot, retiring the ones whose
    /// executed step proved the next is a no-op. `load(slot, rack)` supplies
    /// the offered load; returns the number of sub-steps executed.
    pub(crate) fn step_active(
        &mut self,
        shard: &mut SoaShard,
        now: u64,
        power: bool,
        dt: Seconds,
        mut load: impl FnMut(usize, RackId) -> Watts,
    ) -> u64 {
        let Lane {
            sleeping,
            slept_at,
            active,
            asleep,
        } = self;
        let mut executed: u64 = 0;
        active.retain(|&s| {
            let slot = s as usize;
            let offered = load(slot, shard.rack_at(slot));
            shard.substep(slot, offered, power, dt);
            executed += 1;
            if shard.is_quiescent(slot) {
                sleeping[slot] = true;
                slept_at[slot] = now;
                if let Err(pos) = asleep.binary_search(&s) {
                    asleep.insert(pos, s);
                }
                false
            } else {
                true
            }
        });
        executed
    }

    /// Replays the schedule's final offered-load write into every sleeping
    /// slot — the one observable effect the skipped sub-steps had — and
    /// returns the number of writes (each sleeper gets exactly one).
    pub(crate) fn replay_offered(
        &self,
        shard: &mut SoaShard,
        mut load: impl FnMut(usize, RackId) -> Watts,
    ) -> u64 {
        for &s in &self.asleep {
            let slot = s as usize;
            let offered = load(slot, shard.rack_at(slot));
            shard.touch_offered(slot, offered);
        }
        self.asleep.len() as u64
    }
}

/// The event-driven execution backend: SoA arrays plus a next-event
/// scheduler that fast-forwards quiescent racks.
///
/// Readings, bus behavior, and downstream `RunMetrics` are bit-identical to
/// every dense backend; only the number of rack sub-steps executed changes.
///
/// # Examples
///
/// ```
/// use recharge_dynamo::{EventDrivenBackend, FleetBackend, SimRackAgent};
/// use recharge_units::{Priority, RackId, Seconds, Watts};
///
/// let agents = (0..4)
///     .map(|i| SimRackAgent::builder(RackId::new(i), Priority::P2).build())
///     .collect();
/// let mut fleet = EventDrivenBackend::new(agents);
/// // A 30-second open transition, then a long quiet stretch of wall power.
/// let schedule = [&[false][..], &[true; 600][..]].concat();
/// fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
///     Watts::from_kilowatts(6.0)
/// });
/// assert!(fleet.substeps_skipped() > 0);
/// ```
pub struct EventDrivenBackend {
    soa: SoaBackend,
    lanes: Vec<Lane>,
    scheduler: EventScheduler<FleetEvent>,
    /// The fleet-wide input power as of the last processed edge. Safe to
    /// start `true`: every rack begins awake, and a rack only sleeps after
    /// executing a sub-step whose power this field tracked, so sleeping
    /// racks always agree with it.
    power: bool,
    /// Global sub-step counter across schedules (the event-queue timeline).
    clock: u64,
    /// Rack sub-steps actually executed.
    executed: u64,
    /// End-of-batch offered-load replay writes (one per sleeper per batch).
    replayed: u64,
    /// Fleet size, cached for the skip arithmetic.
    total_racks: u64,
}

impl EventDrivenBackend {
    /// Creates an event-driven backend over the given agents (heterogeneous
    /// fleets follow the [`SoaBackend`] grouping pass).
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>) -> Self {
        let soa = SoaBackend::new(agents);
        let lanes: Vec<Lane> = soa.shards().iter().map(|s| Lane::new(s.len())).collect();
        let total_racks = soa.shards().iter().map(|s| s.len() as u64).sum();
        // Steady-state sizing: at most one pending wake per rack plus a
        // batch's worth of power edges — the hot loop never grows the heap.
        let capacity = usize::try_from(total_racks).expect("fleet fits usize") + EDGE_HEADROOM;
        EventDrivenBackend {
            soa,
            lanes,
            scheduler: EventScheduler::with_capacity(capacity),
            power: true,
            clock: 0,
            executed: 0,
            replayed: 0,
            total_racks,
        }
    }

    /// Rack sub-steps actually executed since construction.
    #[must_use]
    pub fn substeps_executed(&self) -> u64 {
        self.executed
    }

    /// End-of-batch offered-load replay writes since construction: exactly
    /// one write per sleeping rack per schedule, which is the same write set
    /// the dense pass's final sub-step would have produced for them.
    #[must_use]
    pub fn offered_replays(&self) -> u64 {
        self.replayed
    }

    /// Rack sub-steps fast-forwarded (what a dense backend would have run
    /// minus what this one did).
    #[must_use]
    pub fn substeps_skipped(&self) -> u64 {
        self.clock * self.total_racks - self.executed
    }

    /// Wakes one sleeping slot, journaling the fast-forward. Idempotent.
    fn wake_one(&mut self, shard: usize, slot: usize, now: u64) {
        let sh = &self.soa.shards()[shard];
        if let Some(skipped) = self.lanes[shard].wake_one(slot, now) {
            flight(
                FlightKind::FastForward,
                ReasonCode::Observed,
                sh.rack_at(slot).index(),
                sh.priority_at(slot).rank(),
                NO_BUCKET,
                skipped,
                now,
            );
        }
    }

    /// Wakes every sleeping rack (input power is a fleet-wide input, so an
    /// edge invalidates every sleep).
    fn wake_all(&mut self, now: u64) {
        for (lane, sh) in self.lanes.iter_mut().zip(self.soa.shards()) {
            lane.wake_all(now, |slot, skipped| {
                flight(
                    FlightKind::FastForward,
                    ReasonCode::Observed,
                    sh.rack_at(slot).index(),
                    sh.priority_at(slot).rank(),
                    NO_BUCKET,
                    skipped,
                    now,
                );
            });
        }
    }

    /// A bus command touched `rack`: schedule a wake at the next sub-step so
    /// the command's effect is stepped densely.
    fn wake_rack(&mut self, rack: RackId) {
        if let Some((shard, slot)) = self.soa.slot_of(rack) {
            if self.lanes[shard].is_sleeping(slot) {
                self.scheduler
                    .schedule(self.clock, FleetEvent::Wake { shard, slot });
            }
        }
    }
}

impl FleetBackend for EventDrivenBackend {
    fn name(&self) -> &'static str {
        "event"
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let _span = tspan!("fleet.event_step", "fleet");
        let n = input_power.len();
        if n == 0 {
            return;
        }

        // Power edges become scheduled events so the whole timeline — edges,
        // command wakes, and (by induction) sleeps — flows through one
        // deterministic queue.
        let mut prev = self.power;
        for (i, &p) in input_power.iter().enumerate() {
            if p != prev {
                self.scheduler
                    .schedule(self.clock + i as u64, FleetEvent::PowerEdge(p));
                prev = p;
            }
        }

        let mut executed_now: u64 = 0;
        let mut fired: u64 = 0;
        for (i, &power) in input_power.iter().enumerate() {
            let now = self.clock + i as u64;
            while let Some((_, event)) = self.scheduler.pop_due(now) {
                fired += 1;
                match event {
                    FleetEvent::PowerEdge(p) => {
                        self.power = p;
                        self.wake_all(now);
                    }
                    FleetEvent::Wake { shard, slot } => self.wake_one(shard, slot, now),
                }
            }
            debug_assert_eq!(self.power, power, "edge events must track the schedule");

            for (lane, shard) in self.lanes.iter_mut().zip(self.soa.shards_mut()) {
                executed_now += lane.step_active(shard, now, power, dt, |_, rack| load_of(rack, i));
            }
        }
        self.clock += n as u64;

        // Replay the one observable effect the skipped sub-steps had: the
        // schedule's final offered-load write (idempotent with the dense
        // pass's last write). O(sleeping), not O(racks): the lane iterates
        // its maintained sleeper list.
        let mut replays: u64 = 0;
        for (lane, shard) in self.lanes.iter_mut().zip(self.soa.shards_mut()) {
            replays += lane.replay_offered(shard, |_, rack| load_of(rack, n - 1));
        }

        self.executed += executed_now;
        self.replayed += replays;
        tcounter!("sim.rack_substeps").add(executed_now);
        tcounter!("sim.ticks_skipped").add(n as u64 * self.total_racks - executed_now);
        tcounter!("sim.events_fired").add(fired);
        tcounter!("sim.offered_replays").add(replays);
    }

    fn readings(&self) -> Vec<PowerReading> {
        FleetBackend::readings(&self.soa)
    }

    fn bus_mut(&mut self) -> &mut dyn AgentBus {
        self
    }
}

impl AgentBus for EventDrivenBackend {
    fn racks(&self) -> Vec<RackId> {
        AgentBus::racks(&self.soa)
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        AgentBus::read(&self.soa, rack)
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        self.soa.read_all(out);
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        self.soa.set_charge_override(rack, current);
        self.wake_rack(rack);
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        self.soa.clear_charge_override(rack);
        self.wake_rack(rack);
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        self.soa.set_charge_postponed(rack, postponed);
        self.wake_rack(rack);
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        self.soa.cap_servers(rack, limit);
        self.wake_rack(rack);
    }

    fn uncap_servers(&mut self, rack: RackId) {
        self.soa.uncap_servers(rack);
        self.wake_rack(rack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FleetBackendKind, SerialBackend};
    use recharge_units::Priority;

    fn agents(n: u32) -> Vec<SimRackAgent> {
        (0..n)
            .map(|i| {
                SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(6.0))
                    .build()
            })
            .collect()
    }

    /// The soa lockstep harness, pointed at the event backend: same command
    /// stream, same mixed power schedule, bit-identical readings demanded at
    /// every boundary.
    fn assert_lockstep(fleet: impl Fn() -> Vec<SimRackAgent>, rounds: usize) {
        let mut reference = SerialBackend::new(fleet());
        let mut event = EventDrivenBackend::new(fleet());
        for round in 0..rounds {
            for backend in [&mut reference as &mut dyn FleetBackend, &mut event] {
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
            event.step_schedule(Seconds::new(1.0), &schedule, &load);
            assert_eq!(
                reference.readings(),
                FleetBackend::readings(&event),
                "round {round} diverged"
            );
            for rack in reference.bus_mut().racks() {
                assert_eq!(
                    reference.bus_mut().read(rack),
                    AgentBus::read(&event, rack),
                    "round {round} rack {rack:?}"
                );
            }
        }
    }

    #[test]
    fn event_backend_matches_object_path_bit_for_bit() {
        assert_lockstep(|| agents(7), 12);
    }

    #[test]
    fn quiescent_racks_are_actually_skipped() {
        let mut fleet = EventDrivenBackend::new(agents(4));
        // One outage sub-step, then a long quiet charge-and-settle stretch.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert!(
            fleet.substeps_skipped() > 0,
            "settled racks should fast-forward"
        );
        assert_eq!(
            fleet.substeps_executed() + fleet.substeps_skipped(),
            2_001 * 4,
            "executed + skipped must cover the dense schedule exactly"
        );
        // Everyone finished the recharge and went quiet.
        assert!(FleetBackend::readings(&fleet)
            .iter()
            .all(|r| r.recharge_power == Watts::ZERO));
    }

    #[test]
    fn commands_wake_sleeping_racks() {
        let mut fleet = EventDrivenBackend::new(agents(2));
        // Postpone both racks so they sleep at zero setpoint after an outage.
        fleet.step_schedule(Seconds::new(30.0), &[false], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let bus: &mut dyn AgentBus = &mut fleet;
        bus.set_charge_postponed(RackId::new(0), true);
        bus.set_charge_postponed(RackId::new(1), true);
        fleet.step_schedule(Seconds::new(30.0), &[true; 10], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let before = fleet.substeps_executed();
        // Asleep now; an idle schedule should execute nothing.
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(fleet.substeps_executed(), before);
        // Resuming rack 0 must wake it — and only it.
        (&mut fleet as &mut dyn AgentBus).set_charge_postponed(RackId::new(0), false);
        fleet.step_schedule(Seconds::new(30.0), &[true; 3], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert!(
            fleet.substeps_executed() > before,
            "command must wake the rack"
        );
        let readings = FleetBackend::readings(&fleet);
        assert!(
            readings[0].recharge_power > Watts::ZERO,
            "rack 0 charges again"
        );
        assert_eq!(
            readings[1].recharge_power,
            Watts::ZERO,
            "rack 1 stays postponed"
        );
    }

    #[test]
    fn offered_replay_writes_exactly_one_per_sleeper() {
        let mut fleet = EventDrivenBackend::new(agents(4));
        // One outage sub-step, then a quiet stretch long enough that every
        // rack finishes its recharge and sleeps.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let settled = fleet.offered_replays();
        // A fully-asleep batch performs exactly one offered write per rack —
        // the same writes the old whole-shard scan produced, now reached via
        // the maintained sleeper list.
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(
            fleet.offered_replays() - settled,
            4,
            "one replay write per sleeping rack per batch"
        );
        // And the replay set is exactly the sleeper set: executed + skipped
        // still covers the dense schedule.
        assert_eq!(
            fleet.substeps_executed() + fleet.substeps_skipped(),
            2_006 * 4
        );
    }

    #[test]
    fn kind_builds_the_event_backend() {
        assert_eq!(FleetBackendKind::Event.build(agents(2)).name(), "event");
    }
}
