//! The time-ratio gates: five costs whose bounds are a share of a simulation
//! tick or a per-unit time budget, each the median of [`SAMPLES`] complete
//! measurements.
//!
//! ```text
//! bench_report [out_dir]
//! ```
//!
//! Prints one line per gate, writes them all to `<out_dir>/BENCH_gates.json`
//! (default `.`), and exits non-zero if any gate fails or the file cannot be
//! written. Every gate is core-count independent: on a 1-CPU host the
//! sharded run measures coordination tax, never a speedup. Bit-identity and
//! count gates live in the integration tests, whole-run speed in
//! `benchmark/`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use recharge_dynamo::{
    Controller, ControllerConfig, FleetBackendKind, InMemoryBus, SimRackAgent, Strategy,
};
use recharge_reliability::{table1, AorSimulation};
use recharge_sim::{DischargeLevel, Scenario};
use recharge_telemetry::{self as telemetry, FlightKind, ReasonCode};
use recharge_trace::{CampusFleet, RackPowerTrace};
use recharge_units::{DeviceId, Priority, RackId, Seconds, SimTime, Watts};

/// Measurements per gate; the gate reads their median.
const SAMPLES: usize = 5;

/// One gated quantity: it passes when `value` is below `bound`.
struct Gate {
    name: &'static str,
    value: f64,
    bound: f64,
    unit: &'static str,
}

impl Gate {
    /// Takes [`SAMPLES`] measurements and keeps their median.
    fn measure(
        name: &'static str,
        bound: f64,
        unit: &'static str,
        mut sample: impl FnMut() -> f64,
    ) -> Gate {
        let mut samples: [f64; SAMPLES] = std::array::from_fn(|_| sample());
        samples.sort_by(f64::total_cmp);
        Gate {
            name,
            value: samples[SAMPLES / 2],
            bound,
            unit,
        }
    }

    fn pass(&self) -> bool {
        self.value < self.bound
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The prototype row every tick-share probe runs: 7 racks under 190 kW.
fn row() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .max_horizon(Seconds::from_hours(2.5))
}

/// Share of a telemetry-off run spent in disabled instrumentation: the ops
/// an instrumented twin performs (spans and events recorded plus counter
/// bumps, with a short Monte-Carlo run on top) times the cost of one
/// disabled span + counter pair, over the off run's wall time.
fn telemetry_overhead() -> f64 {
    const OPS: u32 = 2_000_000;
    telemetry::set_enabled(false);
    let ((), disabled_secs) = time(|| {
        for _ in 0..OPS {
            let _span = telemetry::tspan!("bench.noop", "bench");
            telemetry::tcounter!("bench.noop_ops").inc();
        }
    });
    let (_, run_secs) = time(|| row().soa_sharded(2).build().run());

    telemetry::set_enabled(true);
    telemetry::reset_metrics();
    let _ = telemetry::take_records();
    let _ = row().soa_sharded(2).build().run();
    let _ = AorSimulation::new(table1::standard_sources()).run_trials(50.0, 4, 9);
    let records = telemetry::take_records().len() as u64;
    let counter_ops: u64 = telemetry::snapshot().counters.iter().map(|&(_, v)| v).sum();
    telemetry::set_enabled(false);
    (records + counter_ops) as f64 * (disabled_secs / f64::from(OPS)) / run_secs
}

/// Share of a recorder-off run the flight recorder would spend journaling:
/// the events a recorder-on twin journals (ring overwrites included) times
/// the steady-state cost of one `flight` call, over the off run's wall time.
fn recorder_overhead() -> f64 {
    const EVENTS: u32 = 1_000_000;
    telemetry::set_enabled(false);
    telemetry::set_recorder_enabled(false);
    let (_, off_secs) = time(|| row().soa_sharded(2).build().run());

    telemetry::set_recorder_enabled(true);
    let _ = telemetry::take_flight_events();
    let overwritten = telemetry::overwritten_events();
    let _ = row().soa_sharded(2).build().run();
    let recorded = telemetry::take_flight_events().len() as u64
        + (telemetry::overwritten_events() - overwritten);

    // The hot path the simulation pays: ambient-time `flight` into a
    // (soon wrapped) thread-local ring.
    let ((), record_secs) = time(|| {
        for i in 0..EVENTS {
            telemetry::flight(
                FlightKind::Admit,
                ReasonCode::AdmitUpgraded,
                i % 7,
                1,
                100,
                u64::from(i),
                0,
            );
        }
    });
    let _ = telemetry::take_flight_events();
    recorded as f64 * (record_secs / f64::from(EVENTS)) / off_secs
}

/// What `event-sharded:4` adds per control batch over the inline event
/// engine on the paper diurnal row (4 h warmup): frame building, channel
/// handoff, waiting for every shard, and post-batch journaling. Telemetry is
/// on in both runs so `sim.ticks` counts the batches (one per 1 s tick).
fn coordination_us_per_batch() -> f64 {
    let scenario = || row().warmup(Seconds::from_hours(4.0));
    let ticks = telemetry::counter("sim.ticks");
    telemetry::set_enabled(true);
    let (_, event_secs) = time(|| scenario().event_driven().build().run());
    let before = ticks.value();
    let (_, sharded_secs) = time(|| scenario().event_sharded(4).build().run());
    let batches = ticks.value() - before;
    telemetry::set_enabled(false);
    let _ = telemetry::take_records();
    (sharded_secs - event_secs).max(0.0) * 1e6 / batches.max(1) as f64
}

/// Every rack of `paper_campus(317, 41)`: 317 paper MSB rows, 100,172 racks.
fn campus_agents() -> Vec<SimRackAgent> {
    CampusFleet::paper_campus(317, 41)
        .fleet()
        .iter()
        .map(|e| {
            SimRackAgent::builder(e.rack, e.priority)
                .offered_load(Watts::from_kilowatts(6.0))
                .build()
        })
        .collect()
}

/// Wall time per rack sub-step of the dense SoA kernel over the campus:
/// 12 dark sub-steps discharge every rack, then power returns and the other
/// 36 charge, so both kernel branches run hot.
fn soa_ns_per_rack_step(agents: &[SimRackAgent]) -> f64 {
    const SUBSTEPS: usize = 48;
    let schedule: Vec<bool> = (0..SUBSTEPS).map(|i| i >= 12).collect();
    let load = |rack: RackId, i: usize| {
        Watts::from_kilowatts(5.5 + 0.25 * f64::from(rack.index() % 8) + 0.01 * (i % 16) as f64)
    };
    let mut soa = FleetBackendKind::Soa.build(agents.to_vec());
    let ((), secs) = time(|| soa.step_schedule(Seconds::new(1.0), &schedule, &load));
    secs * 1e9 / (agents.len() * SUBSTEPS) as f64
}

/// A leader brain tracking the full paper MSB (89 P1 / 142 P2 / 85 P3):
/// every rack discharged for 120 s, power restored, five control ticks.
fn paper_msb_leader() -> Controller {
    let mut agents = Vec::new();
    for (priority, count) in [(Priority::P1, 89), (Priority::P2, 142), (Priority::P3, 85)] {
        for _ in 0..count {
            let rack = RackId::new(agents.len() as u32);
            agents.push(
                SimRackAgent::builder(rack, priority)
                    .offered_load(Watts::from_kilowatts(6.33))
                    .build(),
            );
        }
    }
    let mut bus = InMemoryBus::new(agents);
    for a in bus.agents_mut() {
        a.set_input_power(false);
        a.step(Seconds::new(120.0));
        a.set_input_power(true);
    }
    let config = ControllerConfig::new(DeviceId::new(0), Watts::from_megawatts(2.5));
    let mut leader = Controller::new(config, Strategy::PriorityAware);
    for t in 0..5u32 {
        leader.tick(SimTime::from_secs(f64::from(t)), &mut bus);
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
    }
    leader
}

/// Share of a `paper_msb(7)` tick (control every 5 ticks) the hot-standby
/// leader spends replicating: one `snapshot().to_bytes()` per
/// `DEFAULT_SNAPSHOT_EVERY` ticks. Decode + restore runs only on takeover,
/// so it is not amortized.
fn ha_replication_overhead(leader: &Controller) -> f64 {
    const CONTROL_EVERY: usize = 5;
    const OPS: u32 = 10_000;
    telemetry::set_enabled(false);
    telemetry::set_recorder_enabled(false);
    let (single, single_secs) = time(|| {
        Scenario::paper_msb(7)
            .control_every(CONTROL_EVERY)
            .build()
            .run()
    });
    // `paper_msb` samples every 5 s: one series point per control interval.
    let tick_secs = single_secs / (single.series.len().max(1) * CONTROL_EVERY) as f64;
    let ((), snap_secs) = time(|| {
        for _ in 0..OPS {
            std::hint::black_box(leader.snapshot().to_bytes());
        }
    });
    snap_secs / f64::from(OPS) / recharge_ha::DEFAULT_SNAPSHOT_EVERY as f64 / tick_secs
}

fn main() -> ExitCode {
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_owned()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench_report: {cores} core(s), median of {SAMPLES} samples per gate");

    let agents = campus_agents();
    let leader = paper_msb_leader();
    // The recorder is on (its default) until the HA gate, which turns it off.
    let gates = [
        Gate::measure("telemetry_overhead", 0.02, "tick_frac", telemetry_overhead),
        Gate::measure("recorder_overhead", 0.02, "tick_frac", recorder_overhead),
        Gate::measure("soa_rack_step", 2_000.0, "ns/rack-step", || {
            soa_ns_per_rack_step(&agents)
        }),
        Gate::measure(
            "event_sharded_coordination",
            500.0,
            "us/batch",
            coordination_us_per_batch,
        ),
        Gate::measure("ha_replication_overhead", 0.02, "tick_frac", || {
            ha_replication_overhead(&leader)
        }),
    ];

    let mut json = format!("{{\"cores\": {cores}, \"samples\": {SAMPLES}, \"gates\": [");
    for (i, g) in gates.iter().enumerate() {
        let (name, value, bound, unit, pass) = (g.name, g.value, g.bound, g.unit, g.pass());
        let sep = if i == 0 { "" } else { "," };
        println!("{name}: {value:.6} {unit} (bound {bound}), pass: {pass}");
        let _ = write!(
            json,
            "{sep}\n  {{\"name\": \"{name}\", \"value\": {value:.9}, \"bound\": {bound}, \
             \"unit\": \"{unit}\", \"pass\": {pass}}}"
        );
    }
    json.push_str("\n]}\n");

    let path = out_dir.join("BENCH_gates.json");
    let written = std::fs::write(&path, json);
    if let Err(e) = &written {
        eprintln!("failed to write {}: {e}", path.display());
    }
    if written.is_ok() && gates.iter().all(Gate::pass) {
        ExitCode::SUCCESS
    } else {
        eprintln!("a gate failed or the report was not written; see above");
        ExitCode::FAILURE
    }
}
