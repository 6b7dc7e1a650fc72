//! The outside-in driver: `FleetSimulation::run`'s tick loop rebuilt from
//! public calls, with a timer around each call into a layer.
//!
//! It covers the single-controller, simulator-controlled path (no HA, no
//! backend-hosted leaf control). A run returns the same `RunMetrics` as the
//! real `run()` — the benchmark checks `==` on every traced run — so the
//! breakdown describes the program it claims to describe.
//!
//! Calls of ~20 ns get no timer of their own, since the timer would cost as
//! much as the call:
//! - Load synthesis (`rack_power`, called from inside `step_schedule`) is
//!   timed by replay: the load callback records its `(rack, sub-step)`
//!   pairs, and after the schedule the driver times recomputing exactly
//!   those calls. That replay is subtracted from the traced wall time and
//!   stands in for the inline calls inside `dynamo.step_s`.
//! - Bus reads and commands are counted by a wrapper bus handed to
//!   `Controller::tick`; their time is inside `dynamo.controller_s`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use recharge_battery::BbuState;
use recharge_core::{ChargeIndex, SlaTable};
use recharge_dynamo::{
    AgentBus, Controller, ControllerConfig, FleetBackend, PowerReading, SimRackAgent,
};
use recharge_power::{Breaker, BreakerStatus};
use recharge_sim::{RackSlaOutcome, RunMetrics, SeriesPoint};
use recharge_telemetry::{flight, FlightKind, ReasonCode};
use recharge_trace::{DiurnalModel, RackPowerTrace, SyntheticFleet, SyntheticFleetBuilder};
use recharge_units::{Amperes, DeviceId, Priority, RackId, Seconds, SimTime, Watts};

use crate::workload::Spec;

/// Busy time per layer and work counts from one traced run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Whole run, replays included.
    pub total_s: f64,
    /// Building the agents and the fleet backend (spawning the mesh), and
    /// dropping the backend at the end.
    pub backend_s: f64,
    /// Replayed load synthesis (`trace.load_s`).
    pub load_s: f64,
    /// `step_schedule`, inline load calls included.
    pub step_raw_s: f64,
    pub readings_s: f64,
    pub controller_s: f64,
    /// `Breaker::observe` plus the trip horizon.
    pub breaker_s: f64,
    /// SLA tracking, sampling and maxima.
    pub bookkeeping_s: f64,
    pub load_calls: u64,
    pub readings_rows: u64,
    pub bus_reads: u64,
    pub bus_commands: u64,
    pub overrides: u64,
    pub throttled: u64,
    pub postponed: u64,
    pub racks: u64,
    /// Physical sub-steps simulated (control ticks × `control_every`).
    pub sub_steps: u64,
    /// `Controller::tick` latency per control tick, ns.
    pub controller_ns: Vec<u64>,
    /// Whole control-interval latency per control tick, ns.
    pub interval_ns: Vec<u64>,
}

impl Trace {
    /// Traced wall time with the replay taken out.
    pub fn wall_s(&self) -> f64 {
        self.total_s - self.load_s
    }

    /// `step_schedule` without its load synthesis.
    pub fn step_s(&self) -> f64 {
        self.step_raw_s - self.load_s
    }

    /// Sum of every timed layer.
    pub fn layers_s(&self) -> f64 {
        self.backend_s
            + self.load_s
            + self.step_s()
            + self.readings_s
            + self.controller_s
            + self.breaker_s
            + self.bookkeeping_s
    }

    /// Wall time no layer timer covers: loop overhead and the timers.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s() - self.layers_s()
    }

    /// Rack-steps a dense engine would execute.
    pub fn dense_rack_steps(&self) -> u64 {
        self.racks * self.sub_steps
    }

    /// Time spent in the layers that cross the bus: stepping, readout and
    /// the controller.
    pub fn bus_layers_s(&self) -> f64 {
        self.step_s() + self.readings_s + self.controller_s
    }
}

/// The synthetic fleet `Scenario::build` generates for this spec.
fn fleet(spec: &Spec) -> SyntheticFleet {
    let (p1, p2, p3) = spec.counts;
    SyntheticFleetBuilder::new(spec.seed)
        .priority_counts(p1, p2, p3)
        .mean_rack_power(spec.mean_rack_power)
        .diurnal(DiurnalModel::standard())
        .noise_tick(spec.tick.as_secs())
        .build()
}

struct ChargeTrack {
    started: SimTime,
    priority: Priority,
    dod: recharge_units::Dod,
}

/// Runs `spec` through the traced loop. The fleet is built before the clock
/// starts, as `Scenario::build` is outside the timed `run()`.
///
/// # Panics
///
/// Panics if the RPC mesh cannot be spawned.
pub fn run(spec: &Spec) -> (RunMetrics, Trace) {
    let fleet = fleet(spec);
    let start = Instant::now();
    let mut trace = Trace::default();
    let sla = SlaTable::table2();
    let tick = spec.tick;

    let ot_start = fleet.diurnal().first_peak_after(SimTime::ZERO);
    let rack_count = fleet.fleet().len();
    let mean_rack_load = fleet.aggregate_power(ot_start) / rack_count as f64;
    let ot_duration = spec.ot_duration_for(mean_rack_load);
    let ot_end = ot_start + ot_duration;

    let agents: Vec<SimRackAgent> = fleet
        .fleet()
        .iter()
        .map(|entry| {
            SimRackAgent::builder(entry.rack, entry.priority)
                .charge_policy(spec.charge_policy)
                .offered_load(fleet.rack_power(entry.rack, SimTime::ZERO))
                .build()
        })
        .collect();
    let mut backend: Box<dyn FleetBackend> = match &spec.rpc {
        Some(mesh) => {
            recharge_net::spawn_mesh(agents, mesh, None).expect("spawning the RPC mesh backend")
        }
        None => spec.backend.build(agents),
    };
    let config = ControllerConfig::new(DeviceId::new(0), spec.power_limit);
    let mut controller = Controller::new(config, spec.strategy);
    let mut breaker = Breaker::new(spec.power_limit);
    trace.backend_s = start.elapsed().as_secs_f64();

    let mut t = ot_start - spec.warmup;
    let hard_end = ot_end + spec.max_horizon;
    let mut next_sample = t;
    let mut series = Vec::new();
    let mut max_total = Watts::ZERO;
    let mut max_recharge = Watts::ZERO;
    let mut max_capped = Watts::ZERO;
    let mut it_before_ot = Watts::ZERO;
    let mut tripped = false;
    let mut tracks: HashMap<RackId, ChargeTrack> = HashMap::new();
    let mut outcomes: Vec<RackSlaOutcome> = Vec::new();

    let control_every = spec.control_every;
    let mut times: Vec<SimTime> = Vec::with_capacity(control_every);
    let mut input_power: Vec<bool> = Vec::with_capacity(control_every);
    let calls: RefCell<Vec<(RackId, u32)>> = RefCell::new(Vec::new());

    loop {
        let t_tick = Instant::now();
        times.clear();
        input_power.clear();
        let mut t_sub = t;
        for _ in 0..control_every {
            let in_ot = t_sub >= ot_start && t_sub < ot_end;
            times.push(t_sub);
            input_power.push(!in_ot);
            t_sub += tick;
        }
        let now = times[control_every - 1];
        recharge_telemetry::set_flight_now(now.as_secs());

        calls.borrow_mut().clear();
        let t_step = Instant::now();
        backend.step_schedule(tick, &input_power, &|rack, i| {
            calls.borrow_mut().push((rack, i as u32));
            fleet.rack_power(rack, times[i])
        });
        let t_replay = Instant::now();
        let mut replayed = 0.0;
        for &(rack, i) in calls.borrow().iter() {
            replayed += fleet.rack_power(rack, times[i as usize]).as_watts();
        }
        black_box(replayed);
        let t_readings = Instant::now();
        let readings = backend.readings();
        let t_controller = Instant::now();
        let mut bus = CountingBus::new(backend.bus_mut());
        let report = controller.tick(now, &mut bus);
        let t_breaker = Instant::now();
        let (it_load, recharge, capped) =
            (report.it_load, report.recharge_power, report.capped_power);
        let total = it_load + recharge;
        if breaker.observe(total, now) == BreakerStatus::Tripped {
            tripped = true;
        }
        black_box(breaker.available_power(total));
        black_box(breaker.next_possible_trip_time(now, total));
        let t_bookkeeping = Instant::now();

        if now < ot_start {
            it_before_ot = total;
        }
        max_total = max_total.max(total);
        max_recharge = max_recharge.max(recharge);
        max_capped = max_capped.max(capped);
        if now >= next_sample {
            series.push(SeriesPoint {
                at: now,
                it_load,
                recharge_power: recharge,
                capped_power: capped,
            });
            next_sample = now + spec.sample_every;
        }
        let all_settled = track_charges(&readings, now, &sla, &mut tracks, &mut outcomes);
        t = t_sub;
        let done = tripped || (t >= ot_end + Seconds::new(60.0) && all_settled) || t >= hard_end;
        let t_end = Instant::now();

        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        trace.step_raw_s += secs(t_step, t_replay);
        trace.load_s += secs(t_replay, t_readings);
        trace.readings_s += secs(t_readings, t_controller);
        trace.controller_s += secs(t_controller, t_breaker);
        trace.breaker_s += secs(t_breaker, t_bookkeeping);
        trace.bookkeeping_s += secs(t_bookkeeping, t_end);
        let replay_ns = (t_readings - t_replay).as_nanos();
        trace
            .interval_ns
            .push(nanos((t_end - t_tick).as_nanos().saturating_sub(replay_ns)));
        trace
            .controller_ns
            .push(nanos((t_breaker - t_controller).as_nanos()));
        trace.load_calls += calls.borrow().len() as u64;
        trace.readings_rows += readings.len() as u64;
        trace.bus_reads += bus.reads.get();
        trace.bus_commands += bus.commands;
        trace.overrides += report.overrides_sent as u64;
        trace.throttled += report.racks_throttled as u64;
        trace.postponed += report.racks_postponed as u64;
        trace.sub_steps += control_every as u64;
        if done {
            break;
        }
    }

    let t_final = Instant::now();
    for (rack, track) in tracks {
        recharge_telemetry::flight_at(
            t.as_secs(),
            FlightKind::SlaOutcome,
            ReasonCode::SlaMissed,
            rack.index(),
            track.priority.rank(),
            ChargeIndex::dod_bucket(track.dod),
            f64::INFINITY.to_bits(),
            sla.charge_time_budget(track.priority).as_secs().to_bits(),
        );
        outcomes.push(RackSlaOutcome {
            rack,
            priority: track.priority,
            event_dod: track.dod,
            charge_duration: None,
            sla_met: false,
        });
    }
    outcomes.sort_by_key(|o| o.rack);
    trace.bookkeeping_s += t_final.elapsed().as_secs_f64();

    let metrics = RunMetrics {
        series,
        power_limit: spec.power_limit,
        max_total_draw: max_total,
        max_recharge_power: max_recharge,
        max_capped_power: max_capped,
        it_load_before_ot: it_before_ot,
        breaker_tripped: tripped,
        rack_outcomes: outcomes,
        ot_start,
        ot_duration,
    };
    let t_drop = Instant::now();
    drop(backend);
    trace.backend_s += t_drop.elapsed().as_secs_f64();
    trace.racks = rack_count as u64;
    trace.total_s = start.elapsed().as_secs_f64();
    (metrics, trace)
}

fn nanos(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Charge starts and completions from the readings (a copy of the
/// simulator's bookkeeping). Returns whether every rack has settled.
fn track_charges(
    readings: &[PowerReading],
    now: SimTime,
    sla: &SlaTable,
    tracks: &mut HashMap<RackId, ChargeTrack>,
    outcomes: &mut Vec<RackSlaOutcome>,
) -> bool {
    let mut all_settled = true;
    for reading in readings {
        match reading.bbu_state {
            BbuState::Charging => {
                all_settled = false;
                tracks.entry(reading.rack).or_insert(ChargeTrack {
                    started: now,
                    priority: reading.priority,
                    dod: reading.event_dod,
                });
            }
            BbuState::FullyCharged => {
                if let Some(track) = tracks.remove(&reading.rack) {
                    let duration = now - track.started;
                    let budget = sla.charge_time_budget(track.priority);
                    let sla_met = duration <= budget;
                    flight(
                        FlightKind::SlaOutcome,
                        if sla_met {
                            ReasonCode::SlaMet
                        } else {
                            ReasonCode::SlaMissed
                        },
                        reading.rack.index(),
                        track.priority.rank(),
                        ChargeIndex::dod_bucket(track.dod),
                        duration.as_secs().to_bits(),
                        budget.as_secs().to_bits(),
                    );
                    outcomes.push(RackSlaOutcome {
                        rack: reading.rack,
                        priority: track.priority,
                        event_dod: track.dod,
                        charge_duration: Some(duration),
                        sla_met,
                    });
                }
            }
            _ => all_settled = false,
        }
    }
    all_settled
}

/// Forwards every call to the backend's bus, counting reads and commands.
struct CountingBus<'a> {
    inner: &'a mut dyn AgentBus,
    reads: Cell<u64>,
    commands: u64,
}

impl<'a> CountingBus<'a> {
    fn new(inner: &'a mut dyn AgentBus) -> Self {
        CountingBus {
            inner,
            reads: Cell::new(0),
            commands: 0,
        }
    }
}

impl AgentBus for CountingBus<'_> {
    fn racks(&self) -> Vec<RackId> {
        self.inner.racks()
    }

    fn read(&self, rack: RackId) -> Option<PowerReading> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read(rack)
    }

    fn set_charge_override(&mut self, rack: RackId, current: Amperes) {
        self.commands += 1;
        self.inner.set_charge_override(rack, current);
    }

    fn clear_charge_override(&mut self, rack: RackId) {
        self.commands += 1;
        self.inner.clear_charge_override(rack);
    }

    fn set_charge_postponed(&mut self, rack: RackId, postponed: bool) {
        self.commands += 1;
        self.inner.set_charge_postponed(rack, postponed);
    }

    fn cap_servers(&mut self, rack: RackId, limit: Watts) {
        self.commands += 1;
        self.inner.cap_servers(rack, limit);
    }

    fn uncap_servers(&mut self, rack: RackId) {
        self.commands += 1;
        self.inner.uncap_servers(rack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::unix_mesh;
    use recharge_dynamo::FleetBackendKind;

    /// A 7-rack row: `Scenario::row(3, 2, 2, 7)`.
    fn row() -> Spec {
        Spec {
            counts: (3, 2, 2),
            mean_rack_power: Watts::from_kilowatts(6.0),
            power_limit: Watts::from_kilowatts(190.0),
            ..Spec::paper_msb(7)
        }
    }

    #[test]
    fn driver_equals_run_on_every_engine() {
        for (name, spec) in [
            ("serial", row()),
            (
                "soa",
                Spec {
                    backend: FleetBackendKind::Soa,
                    ..row()
                },
            ),
            (
                "event",
                Spec {
                    backend: FleetBackendKind::Event,
                    ..row()
                },
            ),
            (
                "event, control every 5",
                Spec {
                    backend: FleetBackendKind::Event,
                    control_every: 5,
                    ..row()
                },
            ),
            (
                "1-shard unix mesh",
                Spec {
                    rpc: Some(unix_mesh()),
                    ..row()
                },
            ),
        ] {
            let expected = spec.scenario().build().run();
            let (metrics, trace) = run(&spec);
            assert_eq!(metrics, expected, "{name}");
            assert_eq!(trace.racks, 7, "{name}");
        }
    }

    #[test]
    fn layers_account_for_the_traced_wall_time() {
        let spec = Spec {
            control_every: 3,
            ..row()
        };
        let (_, trace) = run(&spec);
        let wall = trace.wall_s();
        assert!(wall > 0.0);
        assert!(
            (trace.layers_s() + trace.unattributed_s() - wall).abs() <= 1e-9 * wall,
            "{trace:?}"
        );
        assert!(trace.unattributed_s() >= -1e-9, "{trace:?}");
        let ticks = trace.interval_ns.len() as u64;
        assert_eq!(trace.controller_ns.len() as u64, ticks);
        assert_eq!(trace.sub_steps, 3 * ticks);
        // The serial engine is dense: every rack loads every sub-step.
        assert_eq!(trace.load_calls, trace.dense_rack_steps());
        assert_eq!(trace.readings_rows, 7 * ticks);
        assert!(trace.bus_reads >= 7 * ticks, "{}", trace.bus_reads);
    }
}
