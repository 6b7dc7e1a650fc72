//! Sharded event-driven stepping: per-shard schedulers, a merged wake queue.
//!
//! [`EventDrivenBackend`](crate::EventDrivenBackend) (DESIGN.md §16) skips
//! the sub-steps that provably do nothing, but walks every shard's active
//! list on one thread. [`EventShardedBackend`] keeps the exact same skip
//! authority and sleep/wake rules — it reuses the same [`Lane`] — and fans
//! the shards out to persistent worker threads with the
//! frame-plus-countdown-latch batch protocol of
//! [`ThreadedFleet::step_batch`](crate::ThreadedFleet::step_batch), so the
//! quiescence win and multi-core scaling compose.
//!
//! # The merged wake queue
//!
//! Wake sources are global (power edges affect every rack; controller
//! commands target one), but sleep state is per shard. The coordinator owns
//! one merged [`EventScheduler`] that every wake source feeds:
//!
//! * **Power edges** found in the batch's schedule are broadcast to every
//!   shard's local scheduler at the same integer sub-step.
//! * **Bus commands** route a `Wake` to the owning shard only (the command
//!   itself is applied to the coordinator-resident arrays immediately, just
//!   like the single-threaded backend).
//!
//! Draining the merged queue in `(time, seq)` order and dispatching each
//! event to its target shard hands every shard the *projection* of one
//! global total order — so each shard's local FIFO tie-break matches the
//! single-threaded scheduler's, and cross-shard ordering is immaterial
//! because no event touches another shard's state (rules 4–5 of the
//! equivalence argument in `event.rs`).
//!
//! # Ownership ping-pong, not caches
//!
//! Between batches the coordinator owns every [`ShardState`] (arrays, lane,
//! local scheduler), so bus reads and commands see exactly what
//! [`SoaBackend`] would show — no snapshot staleness to reason about.
//! `step_schedule` moves each state to its worker inside a `Step` request
//! together with an `Arc<EventFrame>`; the worker steps its shard, sends the
//! state back, drops its frame handle, and arrives at the shared
//! [`CountdownLatch`]. After the barrier the coordinator reclaims the
//! frame's buffers for the next batch (allocation-free steady state) and
//! journals the workers' recorded sleep→wake transitions as
//! `FlightKind::FastForward` events from its own thread, which keeps the
//! flight-recorder content identical to the single-threaded backend's.
//!
//! Frames carry offered loads only for the slots that can possibly execute
//! (`active ∪ woken`, or the whole shard when a power edge lands in the
//! batch), plus one final-sub-step load per slot for the sleeping-replay —
//! the same load-evaluation economy as the single-threaded event backend,
//! which is most of the win when the trace closure is expensive.
//!
//! `sim.rack_substeps`, `sim.ticks_skipped`, and `sim.offered_replays` are
//! summed over shards by the coordinator and stay exactly equal to the
//! single-threaded event backend's. `sim.events_fired` counts per-shard
//! deliveries, so a broadcast power edge adds one count *per shard* here
//! (the merged queue genuinely fires it once per shard).

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use recharge_telemetry::{flight, tcounter, tspan, FlightKind, ReasonCode, NO_BUCKET};
use recharge_units::{Amperes, RackId, Seconds, Watts};

use crate::agent::SimRackAgent;
use crate::backend::FleetBackend;
use crate::bus::AgentBus;
use crate::event::{Lane, EDGE_HEADROOM};
use crate::messages::PowerReading;
use crate::scheduler::EventScheduler;
use crate::soa::{SoaBackend, SoaShard};
use crate::threaded::CountdownLatch;

/// What the coordinator's merged wake queue carries.
enum FleetEvent {
    /// Input power flips to the carried value at the event's sub-step.
    PowerEdge(bool),
    /// A bus command touched a sleeping rack; it must step again.
    Wake { shard: usize, slot: usize },
}

/// A shard-local event: the projection of [`FleetEvent`] onto one shard.
enum ShardEvent {
    /// Input power flips to the carried value at the event's sub-step.
    PowerEdge(bool),
    /// The slot must step again.
    Wake { slot: usize },
}

/// A sleep→wake transition recorded by a worker during a batch. The
/// coordinator journals these after the barrier so every flight-recorder
/// write happens on the simulation thread (same ambient clock, same content
/// as the single-threaded backend).
struct WakeRecord {
    slot: usize,
    skipped: u64,
    now: u64,
}

/// One shard's complete stepping state. Ownership ping-pongs between the
/// coordinator (between batches: commands, readings) and its worker thread
/// (during a batch: stepping).
struct ShardState {
    shard: SoaShard,
    lane: Lane,
    scheduler: EventScheduler<ShardEvent>,
    /// The shard's view of fleet-wide input power, tracked via edge events.
    power: bool,
    /// Rack sub-steps executed by this shard since construction.
    executed_total: u64,
    /// Rack sub-steps executed during the last batch.
    executed_batch: u64,
    /// Events popped from the local scheduler during the last batch.
    fired_batch: u64,
    /// Sleeping-slot offered replays written during the last batch.
    replays_batch: u64,
    /// Sleep→wake transitions recorded during the last batch.
    wakes: Vec<WakeRecord>,
}

impl ShardState {
    /// Steps the shard through one batch frame: pop due local events, step
    /// the active list, retire quiescent slots, replay the final offered
    /// load into sleepers — the same loop as the single-threaded backend,
    /// restricted to this shard.
    fn run_batch(&mut self, frame: &EventFrame, me: usize) {
        let sf = &frame.shards[me];
        let width = sf.awake.len();
        let mut executed: u64 = 0;
        let mut fired: u64 = 0;
        let ShardState {
            shard,
            lane,
            scheduler,
            power,
            wakes,
            ..
        } = self;
        for (i, &scheduled_power) in frame.input_power.iter().enumerate() {
            let now = frame.base + i as u64;
            while let Some((_, event)) = scheduler.pop_due(now) {
                fired += 1;
                match event {
                    ShardEvent::PowerEdge(p) => {
                        *power = p;
                        lane.wake_all(now, |slot, skipped| {
                            wakes.push(WakeRecord { slot, skipped, now });
                        });
                    }
                    ShardEvent::Wake { slot } => {
                        if let Some(skipped) = lane.wake_one(slot, now) {
                            wakes.push(WakeRecord { slot, skipped, now });
                        }
                    }
                }
            }
            debug_assert_eq!(
                *power, scheduled_power,
                "edge events must track the schedule"
            );
            let row = &sf.loads[i * width..(i + 1) * width];
            executed += lane.step_active(shard, now, *power, frame.dt, |slot, _| {
                let s32 = u32::try_from(slot).expect("slot fits u32");
                let col = sf
                    .awake
                    .binary_search(&s32)
                    .expect("active slot must be in the frame's awake set");
                row[col]
            });
        }
        let replays = lane.replay_offered(shard, |slot, _| sf.final_loads[slot]);
        self.executed_batch = executed;
        self.executed_total += executed;
        self.fired_batch = fired;
        self.replays_batch = replays;
    }
}

/// One batch of sub-steps, shared read-only with every worker and reclaimed
/// by the coordinator after the barrier (buffers reused across batches).
struct EventFrame {
    /// Duration of each sub-step.
    dt: Seconds,
    /// Global sub-step index of the batch's first sub-step.
    base: u64,
    /// Fleet-wide input-power state per sub-step.
    input_power: Vec<bool>,
    /// Per-shard load material.
    shards: Vec<ShardFrame>,
}

impl Default for EventFrame {
    fn default() -> Self {
        EventFrame {
            dt: Seconds::ZERO,
            base: 0,
            input_power: Vec::new(),
            shards: Vec::new(),
        }
    }
}

/// One shard's slice of a frame.
#[derive(Default)]
struct ShardFrame {
    /// Sorted slots that can execute this batch: `active ∪ woken`, or every
    /// slot when a power edge lands in the batch (edges wake the world).
    awake: Vec<u32>,
    /// Offered loads, sub-step-major over the `awake` columns
    /// (`loads[substep * awake.len() + column]`).
    loads: Vec<Watts>,
    /// The schedule's final offered load per slot, for the sleeping replay.
    final_loads: Vec<Watts>,
}

impl ShardFrame {
    fn clear(&mut self) {
        self.awake.clear();
        self.loads.clear();
        self.final_loads.clear();
    }
}

/// A request processed by a shard worker.
enum Request {
    /// Step the carried state through the frame, send it back, arrive.
    Step {
        state: Box<ShardState>,
        frame: Arc<EventFrame>,
    },
    Shutdown,
}

struct Worker {
    tx: Sender<Request>,
    join: Option<JoinHandle<()>>,
}

fn worker_main(
    me: usize,
    rx: &Receiver<Request>,
    done: &Sender<(usize, Box<ShardState>)>,
    latch: &CountdownLatch,
) {
    while let Ok(request) = rx.recv() {
        match request {
            Request::Step { mut state, frame } => {
                {
                    let _span = tspan!("shard.event_step", "fleet");
                    state.run_batch(&frame, me);
                }
                let _ = done.send((me, state));
                // Drop the frame handle *before* arriving so the
                // coordinator's buffer reclaim never contends.
                drop(frame);
                latch.arrive();
            }
            Request::Shutdown => break,
        }
    }
}

/// The sharded event-driven backend: one [`Lane`] + scheduler per SoA shard
/// on persistent worker threads, fed by a coordinator-side merged wake
/// queue.
///
/// Readings, bus behavior, and downstream `RunMetrics` are bit-identical to
/// every dense backend *and* to the single-threaded
/// [`EventDrivenBackend`](crate::EventDrivenBackend); only who executes the
/// sub-steps changes.
///
/// # Examples
///
/// ```
/// use recharge_dynamo::{EventShardedBackend, FleetBackend, SimRackAgent};
/// use recharge_units::{Priority, RackId, Seconds, Watts};
///
/// let agents = (0..8)
///     .map(|i| SimRackAgent::builder(RackId::new(i), Priority::P2).build())
///     .collect();
/// let mut fleet = EventShardedBackend::new(agents, 4);
/// // A 30-second open transition, then a long quiet stretch of wall power.
/// let schedule = [&[false][..], &[true; 600][..]].concat();
/// fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
///     Watts::from_kilowatts(6.0)
/// });
/// assert!(fleet.substeps_skipped() > 0);
/// ```
pub struct EventShardedBackend {
    workers: Vec<Worker>,
    /// Shard states; `Some` whenever the coordinator owns them (always,
    /// outside `step_schedule`'s fan-out window).
    states: Vec<Option<Box<ShardState>>>,
    done_rx: Receiver<(usize, Box<ShardState>)>,
    latch: Arc<CountdownLatch>,
    /// The merged wake queue: every power edge and command wake flows
    /// through here in one global `(time, seq)` order before being
    /// dispatched to the owning shard's local scheduler.
    queue: EventScheduler<FleetEvent>,
    /// Fleet order → (shard, slot), replayed by readings and rack listings.
    order: Vec<(usize, usize)>,
    /// rack → (shard, slot); commands and reads route through here.
    index: HashMap<RackId, (usize, usize)>,
    /// Fleet-wide input power as of the last scheduled edge.
    power: bool,
    /// Global sub-step counter across schedules.
    clock: u64,
    /// Rack sub-steps actually executed, summed over shards.
    executed: u64,
    /// End-of-batch offered-load replay writes, summed over shards.
    replayed: u64,
    /// Fleet size, cached for the skip arithmetic.
    total_racks: u64,
    /// The previous frame's buffers, reclaimed after the barrier for reuse.
    spare: Option<EventFrame>,
    /// Per-shard scratch: slots woken by command this batch (sorted,
    /// deduplicated), for the awake-set computation.
    woken_scratch: Vec<Vec<u32>>,
}

impl EventShardedBackend {
    /// Creates a sharded event-driven backend over the given agents,
    /// spawning one worker thread per SoA shard. `shards` clamps to
    /// `[1, agents.len()]`; a heterogeneous fleet may produce more shards
    /// than requested (at least one per homogeneous group), exactly like
    /// [`SoaBackend::sharded`].
    #[must_use]
    pub fn new(agents: Vec<SimRackAgent>, shards: usize) -> Self {
        let (soa_shards, order, index) = SoaBackend::sharded(agents, shards).into_parts();
        let total_racks: u64 = soa_shards.iter().map(|s| s.len() as u64).sum();
        let latch = Arc::new(CountdownLatch::new());
        let (done_tx, done_rx) = unbounded::<(usize, Box<ShardState>)>();

        let mut workers = Vec::with_capacity(soa_shards.len());
        let mut states = Vec::with_capacity(soa_shards.len());
        let mut woken_scratch = Vec::with_capacity(soa_shards.len());
        for (me, shard) in soa_shards.into_iter().enumerate() {
            let len = shard.len();
            let state = Box::new(ShardState {
                lane: Lane::new(len),
                scheduler: EventScheduler::with_capacity(len + EDGE_HEADROOM),
                shard,
                power: true,
                executed_total: 0,
                executed_batch: 0,
                fired_batch: 0,
                replays_batch: 0,
                wakes: Vec::new(),
            });
            let (tx, rx) = unbounded::<Request>();
            let done = done_tx.clone();
            let worker_latch = Arc::clone(&latch);
            let join = std::thread::spawn(move || worker_main(me, &rx, &done, &worker_latch));
            workers.push(Worker {
                tx,
                join: Some(join),
            });
            states.push(Some(state));
            woken_scratch.push(Vec::new());
        }

        let queue_capacity =
            usize::try_from(total_racks).expect("fleet fits usize") + EDGE_HEADROOM;
        EventShardedBackend {
            workers,
            states,
            done_rx,
            latch,
            queue: EventScheduler::with_capacity(queue_capacity),
            order,
            index,
            power: true,
            clock: 0,
            executed: 0,
            replayed: 0,
            total_racks,
            spare: None,
            woken_scratch,
        }
    }

    /// Rack sub-steps actually executed since construction, over all shards.
    #[must_use]
    pub fn substeps_executed(&self) -> u64 {
        self.executed
    }

    /// Rack sub-steps fast-forwarded (what a dense backend would have run
    /// minus what this one did).
    #[must_use]
    pub fn substeps_skipped(&self) -> u64 {
        self.clock * self.total_racks - self.executed
    }

    /// End-of-batch offered-load replay writes since construction, summed
    /// over shards: exactly one write per sleeping rack per schedule.
    #[must_use]
    pub fn offered_replays(&self) -> u64 {
        self.replayed
    }

    /// Per-shard `(executed, skipped)` sub-step accounting. Each pair
    /// satisfies `executed + skipped == substeps × shard_len` exactly.
    #[must_use]
    pub fn per_shard_substeps(&self) -> Vec<(u64, u64)> {
        self.states
            .iter()
            .map(|state| {
                let state = state.as_ref().expect("states home between batches");
                let dense = self.clock * state.shard.len() as u64;
                (state.executed_total, dense - state.executed_total)
            })
            .collect()
    }

    /// Number of shards (and worker threads) the fleet is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.states.len()
    }

    fn state(&self, shard: usize) -> &ShardState {
        self.states[shard]
            .as_deref()
            .expect("states home between batches")
    }

    /// Applies a command to the owning shard's arrays and, if the target is
    /// sleeping, schedules its wake through the merged queue — the same
    /// "apply now, step densely next sub-step" contract as the
    /// single-threaded backend.
    fn command(&mut self, rack: RackId, apply: impl FnOnce(&mut SoaShard, usize)) {
        if let Some(&(shard, slot)) = self.index.get(&rack) {
            let state = self.states[shard]
                .as_deref_mut()
                .expect("states home between batches");
            apply(&mut state.shard, slot);
            if state.lane.is_sleeping(slot) {
                self.queue
                    .schedule(self.clock, FleetEvent::Wake { shard, slot });
            }
        }
    }
}

impl FleetBackend for EventShardedBackend {
    fn name(&self) -> &'static str {
        "event-sharded"
    }

    fn step_schedule(
        &mut self,
        dt: Seconds,
        input_power: &[bool],
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let _span = tspan!("fleet.event_sharded_step", "fleet");
        let n = input_power.len();
        if n == 0 || self.workers.is_empty() {
            return;
        }

        // Power edges enter the merged queue after any pending command
        // wakes, so within a sub-step wakes keep their lower sequence
        // numbers — the same relative order the single-threaded scheduler
        // produces.
        let mut prev = self.power;
        let mut has_edge = false;
        for (i, &p) in input_power.iter().enumerate() {
            if p != prev {
                self.queue
                    .schedule(self.clock + i as u64, FleetEvent::PowerEdge(p));
                has_edge = true;
                prev = p;
            }
        }
        self.power = prev;

        // Drain the merged queue in global (time, seq) order, dispatching
        // each event to its target shard's local scheduler: every shard
        // receives its projection of one total order.
        for woken in &mut self.woken_scratch {
            woken.clear();
        }
        while let Some((at, event)) = self.queue.pop_next() {
            match event {
                FleetEvent::PowerEdge(p) => {
                    for state in &mut self.states {
                        let state = state.as_deref_mut().expect("states home between batches");
                        state.scheduler.schedule(at, ShardEvent::PowerEdge(p));
                    }
                }
                FleetEvent::Wake { shard, slot } => {
                    let state = self.states[shard]
                        .as_deref_mut()
                        .expect("states home between batches");
                    state.scheduler.schedule(at, ShardEvent::Wake { slot });
                    let s32 = u32::try_from(slot).expect("slot fits u32");
                    let woken = &mut self.woken_scratch[shard];
                    if let Err(pos) = woken.binary_search(&s32) {
                        woken.insert(pos, s32);
                    }
                }
            }
        }

        // Materialize the frame: `load_of` is not Sync, so the coordinator
        // evaluates loads — but only for the slots that can execute
        // (active ∪ woken, or everyone once an edge lands), plus the final
        // sub-step for the sleeping replay. Same evaluation economy as the
        // single-threaded event backend.
        let mut frame = self.spare.take().unwrap_or_default();
        frame.dt = dt;
        frame.base = self.clock;
        frame.input_power.clear();
        frame.input_power.extend_from_slice(input_power);
        if frame.shards.len() != self.states.len() {
            frame
                .shards
                .resize_with(self.states.len(), ShardFrame::default);
        }
        for (s, state) in self.states.iter().enumerate() {
            let state = state.as_deref().expect("states home between batches");
            let sf = &mut frame.shards[s];
            sf.clear();
            let len = state.shard.len();
            if has_edge {
                sf.awake
                    .extend(0..u32::try_from(len).expect("shard fits u32"));
            } else {
                sf.awake.extend_from_slice(state.lane.active_slots());
                for &w in &self.woken_scratch[s] {
                    if let Err(pos) = sf.awake.binary_search(&w) {
                        sf.awake.insert(pos, w);
                    }
                }
            }
            sf.loads.reserve(sf.awake.len() * n);
            for i in 0..n {
                for &slot in &sf.awake {
                    sf.loads
                        .push(load_of(state.shard.rack_at(slot as usize), i));
                }
            }
            sf.final_loads.reserve(len);
            for slot in 0..len {
                sf.final_loads
                    .push(load_of(state.shard.rack_at(slot), n - 1));
            }
        }
        let frame = Arc::new(frame);

        // Fan out: each worker gets its state and a frame handle, steps,
        // sends the state back, and arrives at the latch.
        for (s, worker) in self.workers.iter().enumerate() {
            let state = self.states[s].take().expect("states home between batches");
            worker
                .tx
                .send(Request::Step {
                    state,
                    frame: Arc::clone(&frame),
                })
                .expect("worker thread alive");
        }
        {
            let _wait = tspan!("fleet.barrier_wait", "fleet");
            self.latch.wait(self.workers.len());
        }
        // All workers dropped their handles before arriving, so the reclaim
        // succeeds in the steady state; `.ok()` tolerates a stressed drop.
        self.spare = Arc::try_unwrap(frame).ok();
        for _ in 0..self.workers.len() {
            let (s, state) = self.done_rx.recv().expect("worker returns its state");
            self.states[s] = Some(state);
        }

        // Post-batch accounting and journaling, on the coordinator thread:
        // counters sum to exactly the single-threaded backend's values, and
        // the flight-recorder writes carry the same ambient clock.
        self.clock += n as u64;
        let mut executed_now: u64 = 0;
        let mut fired: u64 = 0;
        let mut replays: u64 = 0;
        for state in &mut self.states {
            let state = state.as_deref_mut().expect("states home between batches");
            executed_now += state.executed_batch;
            fired += state.fired_batch;
            replays += state.replays_batch;
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
        self.executed += executed_now;
        self.replayed += replays;
        tcounter!("sim.rack_substeps").add(executed_now);
        tcounter!("sim.ticks_skipped").add(n as u64 * self.total_racks - executed_now);
        tcounter!("sim.events_fired").add(fired);
        tcounter!("sim.offered_replays").add(replays);
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

impl AgentBus for EventShardedBackend {
    fn racks(&self) -> Vec<RackId> {
        self.order
            .iter()
            .map(|&(s, slot)| self.state(s).shard.rack_at(slot))
            .collect()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        let &(s, slot) = self.index.get(&rack)?;
        Some(self.state(s).shard.read(slot))
    }

    fn read_all(&self, out: &mut Vec<PowerReading>) {
        out.extend(
            self.order
                .iter()
                .map(|&(s, slot)| self.state(s).shard.read(slot)),
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

impl Drop for EventShardedBackend {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.tx.send(Request::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FleetBackendKind, SerialBackend};
    use crate::event::EventDrivenBackend;
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

    /// The event-backend lockstep harness, three-way: serial reference,
    /// single-threaded event, sharded event — bit-identical readings at
    /// every boundary, commands landing on different shards mid-run.
    fn assert_lockstep(fleet: impl Fn() -> Vec<SimRackAgent>, shards: usize, rounds: usize) {
        let mut reference = SerialBackend::new(fleet());
        let mut event = EventDrivenBackend::new(fleet());
        let mut sharded = EventShardedBackend::new(fleet(), shards);
        for round in 0..rounds {
            for backend in [
                &mut reference as &mut dyn FleetBackend,
                &mut event,
                &mut sharded,
            ] {
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
            sharded.step_schedule(Seconds::new(1.0), &schedule, &load);
            assert_eq!(
                reference.readings(),
                FleetBackend::readings(&sharded),
                "round {round} diverged from serial"
            );
            assert_eq!(
                FleetBackend::readings(&event),
                FleetBackend::readings(&sharded),
                "round {round} diverged from single-threaded event"
            );
            for rack in reference.bus_mut().racks() {
                assert_eq!(
                    reference.bus_mut().read(rack),
                    AgentBus::read(&sharded, rack),
                    "round {round} rack {rack:?}"
                );
            }
            assert_eq!(
                event.substeps_executed(),
                sharded.substeps_executed(),
                "round {round}: same skip decisions, same executed count"
            );
        }
    }

    #[test]
    fn sharded_event_backend_matches_bit_for_bit() {
        for shards in [1, 2, 4] {
            assert_lockstep(|| agents(7), shards, 12);
        }
    }

    #[test]
    fn per_shard_accounting_is_exact() {
        let mut fleet = EventShardedBackend::new(agents(9), 3);
        // One outage sub-step, then a long quiet charge-and-settle stretch.
        let schedule = [&[false][..], &[true; 2_000][..]].concat();
        fleet.step_schedule(Seconds::new(30.0), &schedule, &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert!(fleet.substeps_skipped() > 0, "settled racks fast-forward");
        let per_shard = fleet.per_shard_substeps();
        assert_eq!(per_shard.len(), fleet.shard_count());
        let summed: u64 = per_shard.iter().map(|&(e, _)| e).sum();
        assert_eq!(summed, fleet.substeps_executed());
        for (s, &(executed, skipped)) in per_shard.iter().enumerate() {
            assert_eq!(
                executed + skipped,
                2_001 * 3,
                "shard {s}: executed + skipped must cover the dense schedule"
            );
        }
    }

    #[test]
    fn commands_wake_only_their_shard() {
        let mut fleet = EventShardedBackend::new(agents(4), 2);
        // Everyone settles asleep after a full recharge.
        fleet.step_schedule(Seconds::new(30.0), &[true; 2_000], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let before = fleet.substeps_executed();
        fleet.step_schedule(Seconds::new(30.0), &[true; 5], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        assert_eq!(fleet.substeps_executed(), before, "everyone sleeps");
        // Postpone one rack: only its shard executes on the next batch.
        (&mut fleet as &mut dyn AgentBus).set_charge_postponed(RackId::new(0), true);
        let per_before = fleet.per_shard_substeps();
        fleet.step_schedule(Seconds::new(30.0), &[true; 3], &|_, _| {
            Watts::from_kilowatts(6.0)
        });
        let per_after = fleet.per_shard_substeps();
        let touched: Vec<usize> = per_before
            .iter()
            .zip(&per_after)
            .enumerate()
            .filter_map(|(s, (b, a))| (a.0 > b.0).then_some(s))
            .collect();
        assert_eq!(touched.len(), 1, "exactly one shard wakes: {touched:?}");
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let mut fleet = EventShardedBackend::new(Vec::new(), 4);
        fleet.step_schedule(Seconds::new(1.0), &[true; 3], &|_, _| Watts::ZERO);
        assert!(FleetBackend::readings(&fleet).is_empty());
        assert_eq!(fleet.substeps_executed(), 0);
        assert!(AgentBus::racks(&fleet).is_empty());
    }

    #[test]
    fn kind_builds_the_sharded_event_backend() {
        assert_eq!(
            FleetBackendKind::EventSharded { shards: 2 }
                .build(agents(3))
                .name(),
            "event-sharded"
        );
    }
}
