//! Fast-path benchmark reporter: times each serial/fast-path pair, verifies
//! the fast path is result-equivalent, and emits one `BENCH_<name>.json` per
//! pair into the current directory.
//!
//! ```text
//! bench_report [out_dir]
//! ```
//!
//! Speedups are only meaningful relative to the recorded `cores` value: on a
//! single-core host the parallel paths measure their coordination overhead,
//! while the equivalence flags hold on any core count.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use recharge_core::SlaCurrentPolicy;
use recharge_dynamo::{FleetBackendKind, SimRackAgent, Strategy};
use recharge_reliability::{table1, AorSimulation, PhysicalAorSimulation};
use recharge_sim::{DischargeLevel, RunMetrics, Scenario};
use recharge_trace::{CampusFleet, RackPowerTrace};
use recharge_units::{Amperes, Dod, Priority, RackId, Seconds, Watts};

struct Pair {
    name: &'static str,
    serial_secs: f64,
    fast_secs: f64,
    identical: bool,
}

impl Pair {
    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"{}\",", self.name);
        let _ = writeln!(json, "  \"serial_secs\": {:.6},", self.serial_secs);
        let _ = writeln!(json, "  \"fast_secs\": {:.6},", self.fast_secs);
        let _ = writeln!(
            json,
            "  \"speedup\": {:.3},",
            self.serial_secs / self.fast_secs.max(1e-12)
        );
        let _ = writeln!(json, "  \"identical\": {},", self.identical);
        let _ = writeln!(json, "  \"cores\": {cores}");
        let _ = writeln!(json, "}}");
        let path = out_dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, json)?;
        println!(
            "{}: serial {:.3}s, fast {:.3}s, speedup {:.2}x, identical: {}",
            self.name,
            self.serial_secs,
            self.fast_secs,
            self.serial_secs / self.fast_secs.max(1e-12),
            self.identical
        );
        Ok(())
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

fn parallel_montecarlo(cores: usize) -> Pair {
    let sim = AorSimulation::new(table1::standard_sources());
    let (years, trials, seed) = (2_000.0, 16, 17);
    let (serial, serial_secs) = time(|| sim.run_trials(years, trials, seed));
    let (parallel, fast_secs) = time(|| sim.run_trials_parallel(years, trials, seed, cores));
    Pair {
        name: "parallel_montecarlo",
        serial_secs,
        fast_secs,
        identical: serial == parallel,
    }
}

fn parallel_physical_aor(cores: usize) -> Pair {
    let sim = PhysicalAorSimulation::new(
        AorSimulation::new(table1::standard_sources()),
        Watts::from_kilowatts(6.3),
    );
    let table = recharge_battery::ChargeTimeTable::production();
    let policy = SlaCurrentPolicy::production();
    let rule = |dod: Dod| policy.sla_current(Priority::P2, dod);
    let (years, trials, seed) = (1_000.0, 12, 5);
    let (serial, serial_secs) = time(|| sim.run_trials_with(years, trials, seed, table, rule));
    let (parallel, fast_secs) =
        time(|| sim.run_trials_parallel_with(years, trials, seed, cores, table, rule));
    Pair {
        name: "parallel_physical_aor",
        serial_secs,
        fast_secs,
        identical: serial == parallel,
    }
}

fn memoized_policy() -> Pair {
    let policy = SlaCurrentPolicy::production();
    let queries: Vec<(Priority, Dod)> = (0..300_000)
        .map(|i| (Priority::ALL[i % 3], Dod::new((i % 997) as f64 / 997.0)))
        .collect();
    let (exact, serial_secs) = time(|| {
        queries
            .iter()
            .map(|&(p, d)| policy.sla_current_exact(p, d).as_amps())
            .sum::<f64>()
    });
    let (memo, fast_secs) = time(|| {
        queries
            .iter()
            .map(|&(p, d)| policy.sla_current(p, d).as_amps())
            .sum::<f64>()
    });
    // The memo rounds DOD up to the next of 1024 bins, so aggregate currents
    // sit within a per-query bin-step of the exact sum (0.02 A is generous).
    let identical = (exact - memo).abs() / queries.len() as f64 <= 0.02
        && queries.iter().all(|&(p, d)| {
            policy.sla_current(p, d) >= policy.sla_current_exact(p, d)
                && policy.sla_current(p, d) >= Amperes::MIN_CHARGE
        });
    Pair {
        name: "memoized_policy",
        serial_secs,
        fast_secs,
        identical,
    }
}

fn sharded_sim(cores: usize) -> Pair {
    let base = Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .max_horizon(Seconds::from_hours(2.5));
    let (serial, serial_secs) = time(|| base.clone().build().run());
    let (sharded, fast_secs) = time(|| base.clone().soa_sharded(cores).build().run());
    Pair {
        name: "sharded_sim",
        serial_secs,
        fast_secs,
        identical: serial == sharded,
    }
}

/// The telemetry pair: what do the disabled-path no-ops cost inside the tick
/// loop, and what does an instrumented run actually record?
///
/// There is no uninstrumented build to diff against, so the overhead is
/// measured directly: time `SPAN_OPS` disabled span+counter pairs to get a
/// per-op cost, time a full (telemetry-off) scenario run to get seconds per
/// tick, count the instrumentation ops one tick performs from an instrumented
/// run's trace, and report `ops_per_tick × per_op_cost / tick_secs`. The
/// gate (< 2%) fails the exit code like a fast-path mismatch would.
struct TelemetryProbe {
    per_op_ns: f64,
    tick_secs: f64,
    ops_per_tick: f64,
    overhead_frac: f64,
    trace_events: usize,
    snapshot_json: String,
    ok: bool,
}

fn telemetry_probe() -> TelemetryProbe {
    let scenario = || {
        Scenario::row(3, 2, 2, 7)
            .power_limit(Watts::from_kilowatts(190.0))
            .strategy(Strategy::PriorityAware)
            .discharge(DischargeLevel::Low)
            .tick(Seconds::new(1.0))
            .max_horizon(Seconds::from_hours(2.5))
    };

    // Per-op cost of the disabled fast path: one span guard + one counter
    // increment, the pair every instrumented site pays when telemetry is off.
    recharge_telemetry::set_enabled(false);
    const SPAN_OPS: u32 = 2_000_000;
    let (_, disabled_secs) = time(|| {
        for _ in 0..SPAN_OPS {
            let _span = recharge_telemetry::tspan!("bench.noop", "bench");
            recharge_telemetry::tcounter!("bench.noop_ops").inc();
        }
    });
    let per_op_ns = disabled_secs * 1e9 / f64::from(SPAN_OPS);

    // Telemetry-off wall time per tick for the sharded small scenario.
    let (_, run_secs) = time(|| scenario().soa_sharded(2).build().run());

    // Instrumented run: counts real ops per tick and yields the snapshot +
    // trace that BENCH_telemetry.json publishes.
    recharge_telemetry::set_enabled(true);
    recharge_telemetry::reset_metrics();
    let _ = recharge_telemetry::take_records();
    let metrics = scenario().soa_sharded(2).build().run();
    let _ = AorSimulation::new(table1::standard_sources()).run_trials(50.0, 4, 9);
    let records = recharge_telemetry::take_records();
    let snapshot = recharge_telemetry::snapshot();
    recharge_telemetry::set_enabled(false);

    let ticks = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "sim.ticks")
        .map_or(0, |&(_, v)| v);
    let counter_ops: u64 = snapshot.counters.iter().map(|&(_, v)| v).sum();
    let tick_secs = run_secs / (ticks.max(1) as f64);
    // Spans/events recorded plus counter bumps, averaged over the tick loop.
    let ops_per_tick = (records.len() as u64 + counter_ops) as f64 / ticks.max(1) as f64;
    let overhead_frac = ops_per_tick * per_op_ns * 1e-9 / tick_secs.max(1e-12);

    let ok = overhead_frac < 0.02 && !metrics.breaker_tripped && !records.is_empty();
    TelemetryProbe {
        per_op_ns,
        tick_secs,
        ops_per_tick,
        overhead_frac,
        trace_events: records.len(),
        snapshot_json: snapshot.to_json(),
        ok,
    }
}

impl TelemetryProbe {
    fn emit(&self, out_dir: &Path) -> std::io::Result<()> {
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"telemetry\",");
        let _ = writeln!(json, "  \"disabled_per_op_ns\": {:.3},", self.per_op_ns);
        let _ = writeln!(json, "  \"tick_secs\": {:.9},", self.tick_secs);
        let _ = writeln!(json, "  \"ops_per_tick\": {:.2},", self.ops_per_tick);
        let _ = writeln!(
            json,
            "  \"disabled_overhead_frac\": {:.9},",
            self.overhead_frac
        );
        let _ = writeln!(json, "  \"overhead_gate\": 0.02,");
        let _ = writeln!(json, "  \"trace_events\": {},", self.trace_events);
        let _ = writeln!(json, "  \"pass\": {},", self.ok);
        let _ = writeln!(json, "  \"telemetry\": {}", self.snapshot_json);
        let _ = writeln!(json, "}}");
        let path = out_dir.join("BENCH_telemetry.json");
        std::fs::write(&path, json)?;
        println!(
            "telemetry: disabled op {:.1} ns, {:.1} ops/tick, overhead {:.5}%, \
             {} trace events, pass: {}",
            self.per_op_ns,
            self.ops_per_tick,
            self.overhead_frac * 100.0,
            self.trace_events,
            self.ok
        );
        Ok(())
    }
}

/// The flight-recorder pair: the black box must be invisible twice over —
/// `RunMetrics` bit-identical with the recorder on and off, and steady-state
/// journaling cost at most 2 % of a simulation tick.
///
/// The overhead is measured like the telemetry probe's: a recorder-off run
/// gives seconds per tick, the recorder-on twin gives journaled events per
/// tick (ring overwrites included), and a hot loop over `flight()` gives the
/// per-event recording cost; the gate is their product over the tick time.
struct ObsProbe {
    per_event_ns: f64,
    tick_secs: f64,
    events_per_tick: f64,
    overhead_frac: f64,
    journal_window: usize,
    recorded_events: u64,
    identical: bool,
    ok: bool,
}

const OBS_OVERHEAD_GATE: f64 = 0.02;

fn obs_probe() -> ObsProbe {
    use recharge_telemetry::{FlightKind, ReasonCode};

    let scenario = || {
        Scenario::row(3, 2, 2, 7)
            .power_limit(Watts::from_kilowatts(190.0))
            .strategy(Strategy::PriorityAware)
            .discharge(DischargeLevel::Low)
            .tick(Seconds::new(1.0))
            .max_horizon(Seconds::from_hours(2.5))
            .soa_sharded(2)
    };
    recharge_telemetry::set_enabled(false);

    // Reference: the recorder off, timing the tick loop.
    recharge_telemetry::set_recorder_enabled(false);
    let (off, off_secs) = time(|| scenario().build().run());

    // The twin with the recorder at its default (on), journaling everything.
    recharge_telemetry::set_recorder_enabled(true);
    let _ = recharge_telemetry::take_flight_events();
    let over_before = recharge_telemetry::overwritten_events();
    let (on, _) = time(|| scenario().build().run());
    let journal = recharge_telemetry::take_flight_events();
    let recorded_events =
        journal.len() as u64 + (recharge_telemetry::overwritten_events() - over_before);

    // Steady-state per-event cost on the exact hot path the simulation pays:
    // ambient-time `flight` into a (soon wrapped) thread-local ring.
    const EVENTS: u32 = 1_000_000;
    let (_, record_secs) = time(|| {
        for i in 0..EVENTS {
            recharge_telemetry::flight(
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
    let _ = recharge_telemetry::take_flight_events();
    let per_event_ns = record_secs * 1e9 / f64::from(EVENTS);

    let ticks = off.series.len().max(1);
    let tick_secs = off_secs / ticks as f64;
    let events_per_tick = recorded_events as f64 / ticks as f64;
    let overhead_frac = events_per_tick * per_event_ns * 1e-9 / tick_secs.max(1e-12);

    let identical = on == off;
    ObsProbe {
        per_event_ns,
        tick_secs,
        events_per_tick,
        overhead_frac,
        journal_window: journal.len(),
        recorded_events,
        identical,
        ok: identical && overhead_frac < OBS_OVERHEAD_GATE,
    }
}

impl ObsProbe {
    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"obs\",");
        let _ = writeln!(json, "  \"per_event_ns\": {:.3},", self.per_event_ns);
        let _ = writeln!(json, "  \"tick_secs\": {:.9},", self.tick_secs);
        let _ = writeln!(json, "  \"events_per_tick\": {:.3},", self.events_per_tick);
        let _ = writeln!(
            json,
            "  \"recorder_overhead_frac\": {:.9},",
            self.overhead_frac
        );
        let _ = writeln!(json, "  \"overhead_gate\": {OBS_OVERHEAD_GATE},");
        let _ = writeln!(json, "  \"recorded_events\": {},", self.recorded_events);
        let _ = writeln!(json, "  \"journal_window\": {},", self.journal_window);
        let _ = writeln!(json, "  \"metrics_identical\": {},", self.identical);
        let _ = writeln!(json, "  \"pass\": {},", self.ok);
        let _ = writeln!(json, "  \"cores\": {cores}");
        let _ = writeln!(json, "}}");
        std::fs::write(out_dir.join("BENCH_obs.json"), json)?;
        println!(
            "obs: {:.1} ns/event, {:.1} events/tick, overhead {:.5}% of a {:.1} µs tick, \
             metrics identical: {}, pass: {}",
            self.per_event_ns,
            self.events_per_tick,
            self.overhead_frac * 100.0,
            self.tick_secs * 1e6,
            self.identical,
            self.ok
        );
        Ok(())
    }
}

/// The mesh probe: one scenario with `control_every(5)` over the serial
/// backend, over the mesh at 1, 2 and 4 shards on a clean loopback link, and
/// over the default (1-shard) mesh under the chaos profile.
///
/// Gates: every clean-link row is bit-identical to serial (`identical`); the
/// batched wire ops keep traffic at most 3 RPCs per shard per control tick
/// (`rpc_economy_ok`; the implementation spends one `ReadAllReadings` plus
/// one `ApplyCommandBatch` when commands are pending); and the chaos run
/// (10 % drops, tail delays, one 60-tick partition) keeps the breaker closed
/// (`chaos_breaker_held`). Timings and the fan-out comparison are
/// informational: on a single-core host the concurrent shard threads
/// measure coordination overhead, not latency hiding.
struct NetRow {
    shards: usize,
    secs: f64,
    rpc_calls: u64,
    identical: bool,
}

struct NetProbe {
    serial_secs: f64,
    control_ticks: u64,
    control_every: usize,
    rows: Vec<NetRow>,
    chaos_secs: f64,
    chaos_retries: u64,
    identical: bool,
    rpc_economy_ok: bool,
    chaos_ok: bool,
}

const NET_RPC_GATE: f64 = 3.0;

fn net_probe() -> NetProbe {
    use recharge_net::{FaultPlan, Partition, RpcMeshConfig};

    let control_every = 5;
    let base = || {
        Scenario::row(3, 2, 2, 7)
            .power_limit(Watts::from_kilowatts(190.0))
            .strategy(Strategy::PriorityAware)
            .discharge(DischargeLevel::Low)
            .tick(Seconds::new(1.0))
            .max_horizon(Seconds::from_hours(2.5))
            .control_every(control_every)
    };

    // Counters gate on the global enable flag; keep it on for every run so
    // serial and mesh pay the same (sub-2 %) instrumentation cost.
    recharge_telemetry::set_enabled(true);
    let ticks_counter = recharge_telemetry::counter("sim.ticks");
    let calls = recharge_telemetry::counter("net.rpc_calls");
    let retries = recharge_telemetry::counter("net.rpc_retries");

    let ticks_before = ticks_counter.value();
    let (serial, serial_secs) = time(|| base().build().run());
    let control_ticks = (ticks_counter.value() - ticks_before) / control_every as u64;

    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let calls_before = calls.value();
        let (metrics, secs) = time(|| base().rpc(RpcMeshConfig::shard_count(shards)).build().run());
        rows.push(NetRow {
            shards,
            secs,
            rpc_calls: calls.value() - calls_before,
            identical: metrics == serial,
        });
    }

    let retries_before = retries.value();
    let chaos_plan = FaultPlan::chaos(0x000C_4A05, 0.10, vec![Partition::all(600, 660)]);
    let (chaos, chaos_secs) = time(|| {
        base()
            .rpc(RpcMeshConfig::with_fault(chaos_plan))
            .build()
            .run()
    });
    let chaos_retries = retries.value() - retries_before;
    recharge_telemetry::set_enabled(false);

    let identical = rows.iter().all(|r| r.identical);
    let rpc_economy_ok = rows.iter().all(|r| {
        r.rpc_calls as f64 <= NET_RPC_GATE * (r.shards as u64 * control_ticks.max(1)) as f64
    });
    NetProbe {
        serial_secs,
        control_ticks,
        control_every,
        rows,
        chaos_secs,
        chaos_retries,
        identical,
        rpc_economy_ok,
        chaos_ok: !chaos.breaker_tripped,
    }
}

impl NetProbe {
    fn ok(&self) -> bool {
        self.identical && self.rpc_economy_ok && self.chaos_ok
    }

    fn rpcs_per_shard_per_control_tick(&self, row: &NetRow) -> f64 {
        row.rpc_calls as f64 / (row.shards as f64 * self.control_ticks.max(1) as f64)
    }

    fn secs_at(&self, shards: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.shards == shards)
            .map_or(f64::NAN, |r| r.secs)
    }

    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let control_ticks = self.control_ticks.max(1) as f64;
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"net\",");
        let _ = writeln!(json, "  \"serial_secs\": {:.6},", self.serial_secs);
        let _ = writeln!(json, "  \"control_ticks\": {},", self.control_ticks);
        let _ = writeln!(json, "  \"control_every\": {},", self.control_every);
        let _ = writeln!(json, "  \"shards\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let per_shard_tick = self.rpcs_per_shard_per_control_tick(row);
            let overhead_us = (row.secs - self.serial_secs) * 1e6 / control_ticks;
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"shards\": {}, \"secs\": {:.6}, \"rpc_calls\": {}, \
                 \"rpcs_per_shard_per_control_tick\": {per_shard_tick:.3}, \
                 \"overhead_us_per_control_tick\": {overhead_us:.3}, \
                 \"identical\": {}}}{comma}",
                row.shards, row.secs, row.rpc_calls, row.identical
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(
            json,
            "  \"rpc_gate_per_shard_per_control_tick\": {NET_RPC_GATE},"
        );
        let _ = writeln!(json, "  \"rpc_economy_ok\": {},", self.rpc_economy_ok);
        let _ = writeln!(
            json,
            "  \"fanout_no_worse_than_single\": {},",
            self.secs_at(4) <= self.secs_at(1)
        );
        let _ = writeln!(json, "  \"identical\": {},", self.identical);
        let _ = writeln!(json, "  \"chaos_secs\": {:.6},", self.chaos_secs);
        let _ = writeln!(json, "  \"chaos_retries\": {},", self.chaos_retries);
        let _ = writeln!(json, "  \"chaos_breaker_held\": {},", self.chaos_ok);
        let _ = writeln!(json, "  \"cores\": {cores}");
        let _ = writeln!(json, "}}");
        let path = out_dir.join("BENCH_net.json");
        std::fs::write(&path, json)?;
        println!(
            "net: serial {:.3}s; identical: {}, rpc economy ok: {}; chaos {:.3}s \
             ({} retries), breaker held: {}",
            self.serial_secs,
            self.identical,
            self.rpc_economy_ok,
            self.chaos_secs,
            self.chaos_retries,
            self.chaos_ok
        );
        for row in &self.rows {
            println!(
                "  {} shard(s): {:.3}s, {} calls ({:.2} rpcs/shard/control-tick)",
                row.shards,
                row.secs,
                row.rpc_calls,
                self.rpcs_per_shard_per_control_tick(row)
            );
        }
        Ok(())
    }
}

/// The campus-scale probe: the struct-of-arrays kernel stepped over a
/// ≥100k-rack campus (317 paper MSB rows), with the object path timed on the
/// same schedule for the speedup headline.
///
/// Wall-clock throughput is core-count dependent, so on this probe the gates
/// are core-count *independent*: (1) the SoA readings after the schedule are
/// bit-identical to the object path's at full campus scale, (2) a small
/// full-simulation run produces bit-identical `RunMetrics` on the serial,
/// SoA, and sharded-SoA backends, and (3) the SoA kernel's ns-per-rack-step
/// stays within a generous single-core budget. Racks × ticks/sec and the
/// speedup over the object path are reported for reference.
struct ScaleProbe {
    racks: usize,
    substeps: usize,
    soa_secs: f64,
    soa_sharded_secs: f64,
    object_secs: f64,
    ns_per_rack_step: f64,
    identical_at_scale: bool,
    sim_identical: bool,
    pass: bool,
}

/// Single-core budget for one SoA rack sub-step (generous: the kernel
/// measures in the low hundreds of nanoseconds).
const SCALE_NS_BUDGET: f64 = 2_000.0;
/// The tentpole floor: the probe must exercise at least this many racks.
const SCALE_RACKS_GATE: usize = 100_000;

fn scale_probe(cores: usize) -> ScaleProbe {
    // 317 paper rows × 316 racks = 100,172 racks — just past the 100k floor.
    let campus = CampusFleet::paper_campus(317, 41);
    let agents: Vec<SimRackAgent> = campus
        .fleet()
        .iter()
        .map(|e| {
            SimRackAgent::builder(e.rack, e.priority)
                .offered_load(Watts::from_kilowatts(6.0))
                .build()
        })
        .collect();
    let racks = agents.len();

    // 12 dark sub-steps discharge every rack (~4% DOD), then power returns
    // and the rest of the schedule charges — both kernel branches run hot.
    let substeps = 48usize;
    let schedule: Vec<bool> = (0..substeps).map(|i| i >= 12).collect();
    let load = |rack: RackId, i: usize| {
        Watts::from_kilowatts(5.5 + 0.25 * f64::from(rack.index() % 8) + 0.01 * (i % 16) as f64)
    };

    let mut soa = FleetBackendKind::Soa.build(agents.clone());
    let ((), soa_secs) = time(|| soa.step_schedule(Seconds::new(1.0), &schedule, &load));
    let mut soa_sharded = FleetBackendKind::SoaSharded {
        shards: cores.max(2),
    }
    .build(agents.clone());
    let ((), soa_sharded_secs) =
        time(|| soa_sharded.step_schedule(Seconds::new(1.0), &schedule, &load));
    let mut object = FleetBackendKind::Serial.build(agents);
    let ((), object_secs) = time(|| object.step_schedule(Seconds::new(1.0), &schedule, &load));

    let reference = object.readings();
    let identical_at_scale = soa.readings() == reference && soa_sharded.readings() == reference;

    // Full-simulation equivalence at a size the object path can afford: the
    // controller, telemetry sampling, and metrics pipeline all ride on top of
    // the backend, and the SoA run must not move a single bit of RunMetrics.
    let sim = || {
        Scenario::row(30, 30, 30, 13)
            .power_limit(Watts::from_kilowatts(600.0))
            .discharge(DischargeLevel::Medium)
            .allow_postponing()
            .max_horizon(Seconds::new(600.0))
    };
    let serial_metrics = sim().build().run();
    let sim_identical = sim().soa().build().run() == serial_metrics
        && sim().soa_sharded(2).build().run() == serial_metrics;

    let ns_per_rack_step = soa_secs * 1e9 / (racks * substeps) as f64;
    let pass = identical_at_scale
        && sim_identical
        && racks >= SCALE_RACKS_GATE
        && ns_per_rack_step <= SCALE_NS_BUDGET;
    ScaleProbe {
        racks,
        substeps,
        soa_secs,
        soa_sharded_secs,
        object_secs,
        ns_per_rack_step,
        identical_at_scale,
        sim_identical,
        pass,
    }
}

impl ScaleProbe {
    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let rack_steps = (self.racks * self.substeps) as f64;
        let rack_ticks_per_sec = rack_steps / self.soa_secs.max(1e-12);
        let speedup = self.object_secs / self.soa_secs.max(1e-12);
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"scale\",");
        let _ = writeln!(json, "  \"racks\": {},", self.racks);
        let _ = writeln!(json, "  \"racks_gate\": {SCALE_RACKS_GATE},");
        let _ = writeln!(json, "  \"substeps\": {},", self.substeps);
        let _ = writeln!(json, "  \"soa_secs\": {:.6},", self.soa_secs);
        let _ = writeln!(
            json,
            "  \"soa_sharded_secs\": {:.6},",
            self.soa_sharded_secs
        );
        let _ = writeln!(json, "  \"object_secs\": {:.6},", self.object_secs);
        let _ = writeln!(json, "  \"soa_speedup_over_object\": {speedup:.3},");
        let _ = writeln!(
            json,
            "  \"ns_per_rack_step\": {:.3},",
            self.ns_per_rack_step
        );
        let _ = writeln!(json, "  \"ns_per_rack_step_budget\": {SCALE_NS_BUDGET},");
        let _ = writeln!(json, "  \"rack_ticks_per_sec\": {rack_ticks_per_sec:.0},");
        let _ = writeln!(
            json,
            "  \"identical_at_scale\": {},",
            self.identical_at_scale
        );
        let _ = writeln!(json, "  \"sim_metrics_identical\": {},", self.sim_identical);
        let _ = writeln!(json, "  \"pass\": {},", self.pass);
        let _ = writeln!(json, "  \"cores\": {cores}");
        let _ = writeln!(json, "}}");
        std::fs::write(out_dir.join("BENCH_scale.json"), json)?;
        println!(
            "scale: {} racks × {} sub-steps; soa {:.3}s ({:.0} ns/rack-step, \
             {rack_ticks_per_sec:.2e} rack-ticks/s), object {:.3}s (speedup {speedup:.2}x), \
             identical at scale: {}, sim metrics identical: {}, pass: {}",
            self.racks,
            self.substeps,
            self.soa_secs,
            self.ns_per_rack_step,
            self.object_secs,
            self.identical_at_scale,
            self.sim_identical,
            self.pass
        );
        Ok(())
    }
}

/// Shard count the sharded event engine is probed at.
const EVENT_SHARDED_SHARDS: usize = 4;

/// Racks in the probe scenario (`Scenario::row(3, 2, 2, _)`), used to turn
/// the dense sub-step count back into a batch count.
const EVENT_SHARDED_RACKS: u64 = 3 + 2 + 2;

/// Per-batch coordination budget for the sharded event engine, in
/// microseconds: frame building, channel handoff, waiting for every shard
/// state to come back, and post-batch journaling across all shards.
/// Generous on purpose — the gate exists to catch regressions to per-rack or
/// per-sub-step coordination work, not to benchmark thread wakeup latency on
/// a shared CI runner.
const EVENT_SHARDED_COORD_BUDGET_US: f64 = 500.0;

/// One run of the event probe scenario with the engine's counter deltas.
struct EventRun {
    metrics: RunMetrics,
    secs: f64,
    executed: u64,
    skipped: u64,
    events_fired: u64,
    offered_replays: u64,
}

impl EventRun {
    /// Runs `scenario` with telemetry on (the counters gate on the global
    /// enable flag; `RunMetrics` are bit-identical either way).
    fn measure(scenario: Scenario) -> EventRun {
        let counters = [
            "sim.rack_substeps",
            "sim.ticks_skipped",
            "sim.events_fired",
            "sim.offered_replays",
        ]
        .map(recharge_telemetry::counter);
        recharge_telemetry::set_enabled(true);
        let before = counters.each_ref().map(|c| c.value());
        let (metrics, secs) = time(|| scenario.build().run());
        let [executed, skipped, events_fired, offered_replays] =
            std::array::from_fn(|i| counters[i].value() - before[i]);
        recharge_telemetry::set_enabled(false);
        EventRun {
            metrics,
            secs,
            executed,
            skipped,
            events_fired,
            offered_replays,
        }
    }

    fn dense(&self) -> u64 {
        self.executed + self.skipped
    }

    fn reduction(&self) -> f64 {
        self.dense() as f64 / self.executed.max(1) as f64
    }
}

/// The event-stepping probes, `BENCH_event.json` and
/// `BENCH_event_sharded.json`, over one dense, one inline event, and one
/// `event-sharded` run of the paper diurnal profile. A 4 h warmup puts most
/// of the horizon in the quiet wall-power regime the engine skips; the
/// counters come from the engine itself (executed + skipped always equals
/// the dense sub-step count, so the dense denominator needs no second
/// instrumented run).
///
/// Inline, event mode must be bit-identical to dense and execute at least
/// 5x fewer rack sub-steps. On 4 shard workers it must also match, skip at
/// least as much, and keep coordination within
/// [`EVENT_SHARDED_COORD_BUDGET_US`] per batch. Every gate is
/// core-count-independent: on a 1-CPU runner the sharded run records pure
/// coordination tax, never a speedup.
struct EventProbe {
    dense_secs: f64,
    event: EventRun,
    sharded: EventRun,
    event_identical: bool,
    sharded_identical: bool,
}

fn event_probe() -> EventProbe {
    let scenario = || {
        Scenario::row(3, 2, 2, 7)
            .power_limit(Watts::from_kilowatts(190.0))
            .strategy(Strategy::PriorityAware)
            .discharge(DischargeLevel::Low)
            .tick(Seconds::new(1.0))
            .warmup(Seconds::from_hours(4.0))
            .max_horizon(Seconds::from_hours(2.5))
    };
    let (dense, dense_secs) = time(|| scenario().soa().build().run());
    let event = EventRun::measure(scenario().event_driven());
    let sharded = EventRun::measure(scenario().event_sharded(EVENT_SHARDED_SHARDS));
    EventProbe {
        dense_secs,
        event_identical: event.metrics == dense,
        sharded_identical: sharded.metrics == dense && event.metrics == dense,
        event,
        sharded,
    }
}

impl EventProbe {
    fn event_ok(&self) -> bool {
        self.event_identical && self.event.reduction() >= 5.0
    }

    /// One batch per control interval; the probe's control cadence is every
    /// tick, so batches is exactly the dense per-rack sub-step count.
    fn batches(&self) -> u64 {
        self.sharded.dense() / EVENT_SHARDED_RACKS
    }

    fn coord_overhead_us_per_batch(&self) -> f64 {
        (self.sharded.secs - self.event.secs).max(0.0) * 1e6 / self.batches().max(1) as f64
    }

    fn sharded_ok(&self) -> bool {
        self.sharded_identical
            && self.sharded.reduction() >= self.event.reduction()
            && self.coord_overhead_us_per_batch() <= EVENT_SHARDED_COORD_BUDGET_US
    }

    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let (event, sharded) = (&self.event, &self.sharded);
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"event\",");
        let _ = writeln!(json, "  \"cores\": {cores},");
        let _ = writeln!(json, "  \"dense_secs\": {:.6},", self.dense_secs);
        let _ = writeln!(json, "  \"event_secs\": {:.6},", event.secs);
        let _ = writeln!(json, "  \"rack_substeps_dense\": {},", event.dense());
        let _ = writeln!(json, "  \"rack_substeps_executed\": {},", event.executed);
        let _ = writeln!(json, "  \"rack_substeps_skipped\": {},", event.skipped);
        let _ = writeln!(json, "  \"events_fired\": {},", event.events_fired);
        let _ = writeln!(json, "  \"substep_reduction\": {:.3},", event.reduction());
        let _ = writeln!(json, "  \"reduction_gate\": 5.0,");
        let _ = writeln!(json, "  \"metrics_identical\": {},", self.event_identical);
        let _ = writeln!(json, "  \"pass\": {}", self.event_ok());
        let _ = writeln!(json, "}}");
        std::fs::write(out_dir.join("BENCH_event.json"), json)?;
        println!(
            "event: {} of {} sub-steps executed ({:.1}x reduction, {} skipped), \
             identical: {}, pass: {}",
            event.executed,
            event.dense(),
            event.reduction(),
            event.skipped,
            self.event_identical,
            self.event_ok()
        );

        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"event_sharded\",");
        let _ = writeln!(json, "  \"cores\": {cores},");
        let _ = writeln!(json, "  \"shards\": {EVENT_SHARDED_SHARDS},");
        let _ = writeln!(json, "  \"dense_secs\": {:.6},", self.dense_secs);
        let _ = writeln!(json, "  \"event_secs\": {:.6},", event.secs);
        let _ = writeln!(json, "  \"sharded_secs\": {:.6},", sharded.secs);
        let _ = writeln!(json, "  \"rack_substeps_dense\": {},", sharded.dense());
        let _ = writeln!(json, "  \"rack_substeps_executed\": {},", sharded.executed);
        let _ = writeln!(json, "  \"rack_substeps_skipped\": {},", sharded.skipped);
        let _ = writeln!(json, "  \"offered_replays\": {},", sharded.offered_replays);
        let _ = writeln!(json, "  \"events_fired\": {},", sharded.events_fired);
        let _ = writeln!(
            json,
            "  \"substep_reduction_event\": {:.3},",
            event.reduction()
        );
        let _ = writeln!(
            json,
            "  \"substep_reduction_sharded\": {:.3},",
            sharded.reduction()
        );
        let _ = writeln!(json, "  \"batches\": {},", self.batches());
        let _ = writeln!(
            json,
            "  \"coord_overhead_us_per_batch\": {:.3},",
            self.coord_overhead_us_per_batch()
        );
        let _ = writeln!(
            json,
            "  \"coord_budget_us_per_batch\": {EVENT_SHARDED_COORD_BUDGET_US},"
        );
        let _ = writeln!(json, "  \"metrics_identical\": {},", self.sharded_identical);
        let _ = writeln!(json, "  \"pass\": {}", self.sharded_ok());
        let _ = writeln!(json, "}}");
        std::fs::write(out_dir.join("BENCH_event_sharded.json"), json)?;
        println!(
            "event_sharded: {} of {} sub-steps executed on {} shards \
             ({:.1}x vs {:.1}x single-threaded), {:.1} us/batch coordination \
             over {} batches, identical: {}, pass: {}",
            sharded.executed,
            sharded.dense(),
            EVENT_SHARDED_SHARDS,
            sharded.reduction(),
            event.reduction(),
            self.coord_overhead_us_per_batch(),
            self.batches(),
            self.sharded_identical,
            self.sharded_ok()
        );
        Ok(())
    }
}

/// The controller-HA probe: hot-standby control plane cost and failover
/// behaviour.
///
/// Gates on three claims from the HA design (DESIGN.md §17): the fault-free
/// hot-standby run is bit-identical to the single-controller run; the
/// steady-state replication cost — serializing the paper-scale MSB brain,
/// amortized over the snapshot cadence — is at most 2 % of a simulation
/// tick; and a kill-the-leader run completes its takeover within one lease
/// width plus one control interval of detection slack, with the breaker
/// closed and every SLA met throughout. Decode + restore runs only on the
/// takeover path, so it is reported (`restore_ns`) but not amortized.
struct HaProbe {
    snapshot_ns: f64,
    restore_ns: f64,
    snapshot_bytes: usize,
    tick_secs: f64,
    overhead_frac: f64,
    failover_ticks: f64,
    failover_budget_ticks: u64,
    failovers: u64,
    identical: bool,
    chaos_clean: bool,
    ok: bool,
}

const HA_OVERHEAD_GATE: f64 = 0.02;

fn ha_probe() -> HaProbe {
    use recharge_dynamo::{Controller, ControllerConfig, InMemoryBus};
    use recharge_ha::{ControllerSet, HaConfig};
    use recharge_net::ProcessFault;
    use recharge_telemetry::FlightKind;
    use recharge_units::{DeviceId, SimTime};

    const CONTROL_EVERY: usize = 5;
    // Paper scale: the 316-rack MSB of §V-B, so the snapshot cost and the
    // tick cost amortize at a realistic tracked-population size.
    let scenario = || Scenario::paper_msb(7).control_every(CONTROL_EVERY);
    let ha_cfg = || HaConfig::default().seed(0x0000_4A5E);
    recharge_telemetry::set_enabled(false);
    recharge_telemetry::set_recorder_enabled(false);

    // Fault-free equivalence, timing the single-controller twin for the
    // per-simulation-tick denominator (one series point per control
    // interval of `CONTROL_EVERY` one-second ticks).
    let (single, single_secs) = time(|| scenario().build().run());
    let (ha_run, _) = time(|| scenario().ha(ha_cfg()).build().run());
    let identical = single == ha_run;
    let sim_ticks = single.series.len().max(1) * CONTROL_EVERY;
    let tick_secs = single_secs / sim_ticks as f64;

    // A leader brain with the full MSB tracked population: discharge every
    // rack, restore power, and let the controller admit the fleet.
    let fleet = || {
        let mut agents = Vec::new();
        let (p1, p2, p3) = (89usize, 142, 85);
        for (priority, count) in [(Priority::P1, p1), (Priority::P2, p2), (Priority::P3, p3)] {
            for _ in 0..count {
                agents.push(
                    SimRackAgent::builder(RackId::new(agents.len() as u32), priority)
                        .offered_load(Watts::from_kilowatts(6.33))
                        .build(),
                );
            }
        }
        InMemoryBus::new(agents)
    };
    let mut bus = fleet();
    for a in bus.agents_mut() {
        a.set_input_power(false);
    }
    for a in bus.agents_mut() {
        a.step(Seconds::new(120.0));
    }
    for a in bus.agents_mut() {
        a.set_input_power(true);
    }
    let config = ControllerConfig::new(DeviceId::new(0), Watts::from_megawatts(2.5));
    let mut leader = Controller::new(config.clone(), Strategy::PriorityAware);
    for t in 0..5u64 {
        leader.tick(SimTime::from_secs(t as f64), &mut bus);
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
    }
    let snapshot_bytes = leader.snapshot().to_bytes().len();

    // Steady state is serialize-only: the leader's per-cadence hot path is
    // `snapshot().to_bytes()` plus handing the buffer to the standby store.
    const OPS: u32 = 10_000;
    let mut stored = Vec::new();
    let (_, snap_secs) = time(|| {
        for _ in 0..OPS {
            stored = leader.snapshot().to_bytes();
        }
    });
    let snapshot_ns = snap_secs * 1e9 / f64::from(OPS);

    // Decode + restore: paid once per takeover, never per tick.
    const RESTORES: u32 = 1_000;
    let mut standby = Controller::new(config, Strategy::PriorityAware);
    let (_, restore_secs) = time(|| {
        for _ in 0..RESTORES {
            let decoded = recharge_dynamo::ControllerSnapshot::from_bytes(&stored)
                .expect("snapshot bytes must decode");
            standby.restore(&decoded);
        }
    });
    let restore_ns = restore_secs * 1e9 / f64::from(RESTORES);

    // One snapshot per `snapshot_every` simulation ticks.
    let overhead_frac = snapshot_ns * 1e-9 / ha_cfg().snapshot_every as f64 / tick_secs.max(1e-12);

    // Kill-the-leader: crash the deterministic tick-0 winner mid-recharge
    // and read the takeover window off the flight journal.
    let first = {
        let mut probe = ControllerSet::new(
            ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
            Strategy::PriorityAware,
            ha_cfg(),
        );
        let mut bus = fleet();
        probe.tick(0, SimTime::ZERO, &mut bus);
        probe.leader().expect("probe election must succeed")
    };
    recharge_telemetry::set_recorder_enabled(true);
    let _ = recharge_telemetry::take_flight_events();
    let chaos_cfg = ha_cfg().fault(ProcessFault::CrashController {
        controller: first,
        at_tick: 600,
    });
    let lease = chaos_cfg.lease_ticks;
    let (chaos, _) = time(|| scenario().ha(chaos_cfg).build().run());
    recharge_telemetry::set_recorder_enabled(false);
    let events = recharge_telemetry::take_flight_events();

    let lost_at = events
        .iter()
        .find(|e| e.kind == FlightKind::LeaderLost)
        .map(|e| e.at());
    let takeover_at = events
        .iter()
        .find(|e| e.kind == FlightKind::TakeoverComplete)
        .map(|e| e.at());
    let failover_ticks = match (lost_at, takeover_at) {
        (Some(lost), Some(takeover)) => takeover - lost, // 1 s ticks
        _ => f64::INFINITY,
    };
    let failover_budget_ticks = lease + CONTROL_EVERY as u64;
    let failovers = events
        .iter()
        .filter(|e| e.kind == FlightKind::TakeoverComplete)
        .count() as u64;
    let chaos_clean = !chaos.breaker_tripped && chaos.rack_outcomes.iter().all(|o| o.sla_met);

    HaProbe {
        snapshot_ns,
        restore_ns,
        snapshot_bytes,
        tick_secs,
        overhead_frac,
        failover_ticks,
        failover_budget_ticks,
        failovers,
        identical,
        chaos_clean,
        ok: identical
            && chaos_clean
            && overhead_frac < HA_OVERHEAD_GATE
            && failovers == 1
            && failover_ticks > 0.0
            && failover_ticks <= failover_budget_ticks as f64,
    }
}

impl HaProbe {
    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"ha\",");
        let _ = writeln!(json, "  \"cores\": {cores},");
        let _ = writeln!(json, "  \"snapshot_ns\": {:.3},", self.snapshot_ns);
        let _ = writeln!(json, "  \"restore_ns\": {:.3},", self.restore_ns);
        let _ = writeln!(json, "  \"snapshot_bytes\": {},", self.snapshot_bytes);
        let _ = writeln!(json, "  \"tick_secs\": {:.9},", self.tick_secs);
        let _ = writeln!(
            json,
            "  \"replication_overhead_frac\": {:.9},",
            self.overhead_frac
        );
        let _ = writeln!(json, "  \"overhead_gate\": {HA_OVERHEAD_GATE},");
        let _ = writeln!(json, "  \"failover_ticks\": {:.3},", self.failover_ticks);
        let _ = writeln!(
            json,
            "  \"failover_budget_ticks\": {},",
            self.failover_budget_ticks
        );
        let _ = writeln!(json, "  \"failovers\": {},", self.failovers);
        let _ = writeln!(json, "  \"metrics_identical\": {},", self.identical);
        let _ = writeln!(json, "  \"chaos_clean\": {},", self.chaos_clean);
        let _ = writeln!(json, "  \"pass\": {}", self.ok);
        let _ = writeln!(json, "}}");
        std::fs::write(out_dir.join("BENCH_ha.json"), json)?;
        println!(
            "ha: snapshot {:.1} ns / restore {:.1} ns ({} B), replication overhead \
             {:.5}% of a tick, failover {:.0}/{} ticks, identical: {}, chaos clean: {}, \
             pass: {}",
            self.snapshot_ns,
            self.restore_ns,
            self.snapshot_bytes,
            self.overhead_frac * 100.0,
            self.failover_ticks,
            self.failover_budget_ticks,
            self.identical,
            self.chaos_clean,
            self.ok
        );
        Ok(())
    }
}

/// One consolidated `BENCH_summary.json` over every probe: name, pass flag,
/// and the probe's headline figure, so CI can gate (and humans skim) one
/// file instead of seven.
struct Summary {
    entries: Vec<(String, bool, String)>,
}

impl Summary {
    fn new() -> Self {
        Summary {
            entries: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, pass: bool, headline: String) {
        self.entries.push((name.to_owned(), pass, headline));
    }

    fn emit(&self, out_dir: &Path, cores: usize) -> std::io::Result<()> {
        let all_pass = self.entries.iter().all(|&(_, pass, _)| pass);
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"report\": \"bench_summary\",");
        let _ = writeln!(json, "  \"cores\": {cores},");
        let _ = writeln!(json, "  \"pass\": {all_pass},");
        let _ = writeln!(json, "  \"benchmarks\": [");
        for (i, (name, pass, headline)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"name\": \"{name}\", \"pass\": {pass}, {headline}}}{comma}"
            );
        }
        let _ = writeln!(json, "  ]");
        let _ = writeln!(json, "}}");
        std::fs::write(out_dir.join("BENCH_summary.json"), json)
    }
}

fn main() -> ExitCode {
    let out = std::env::args().nth(1).unwrap_or_else(|| ".".to_owned());
    let out_dir = Path::new(&out).to_path_buf();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_report: {cores} core(s), writing to {}",
        out_dir.display()
    );

    let mut summary = Summary::new();
    let pairs = [
        parallel_montecarlo(cores),
        parallel_physical_aor(cores),
        memoized_policy(),
        sharded_sim(cores),
    ];
    let mut ok = true;
    for pair in &pairs {
        if let Err(e) = pair.emit(&out_dir, cores) {
            eprintln!("failed to write BENCH_{}.json: {e}", pair.name);
            ok = false;
        }
        ok &= pair.identical;
        summary.push(
            pair.name,
            pair.identical,
            format!(
                "\"speedup\": {:.3}",
                pair.serial_secs / pair.fast_secs.max(1e-12)
            ),
        );
    }

    let probe = telemetry_probe();
    if let Err(e) = probe.emit(&out_dir) {
        eprintln!("failed to write BENCH_telemetry.json: {e}");
        ok = false;
    }
    ok &= probe.ok;
    summary.push(
        "telemetry",
        probe.ok,
        format!("\"disabled_overhead_frac\": {:.9}", probe.overhead_frac),
    );

    let obs = obs_probe();
    if let Err(e) = obs.emit(&out_dir, cores) {
        eprintln!("failed to write BENCH_obs.json: {e}");
        ok = false;
    }
    ok &= obs.ok;
    summary.push(
        "obs",
        obs.ok,
        format!("\"recorder_overhead_frac\": {:.9}", obs.overhead_frac),
    );

    let net = net_probe();
    if let Err(e) = net.emit(&out_dir, cores) {
        eprintln!("failed to write BENCH_net.json: {e}");
        ok = false;
    }
    ok &= net.ok();
    summary.push(
        "net",
        net.ok(),
        format!(
            "\"max_rpcs_per_shard_per_control_tick\": {:.3}",
            net.rows
                .iter()
                .map(|r| net.rpcs_per_shard_per_control_tick(r))
                .fold(0.0, f64::max)
        ),
    );

    let scale = scale_probe(cores);
    if let Err(e) = scale.emit(&out_dir, cores) {
        eprintln!("failed to write BENCH_scale.json: {e}");
        ok = false;
    }
    ok &= scale.pass;
    summary.push(
        "scale",
        scale.pass,
        format!(
            "\"racks\": {}, \"ns_per_rack_step\": {:.3}",
            scale.racks, scale.ns_per_rack_step
        ),
    );

    let event = event_probe();
    if let Err(e) = event.emit(&out_dir, cores) {
        eprintln!("failed to write BENCH_event*.json: {e}");
        ok = false;
    }
    ok &= event.event_ok() && event.sharded_ok();
    summary.push(
        "event",
        event.event_ok(),
        format!("\"substep_reduction\": {:.3}", event.event.reduction()),
    );
    summary.push(
        "event_sharded",
        event.sharded_ok(),
        format!(
            "\"substep_reduction\": {:.3}, \"coord_overhead_us_per_batch\": {:.3}",
            event.sharded.reduction(),
            event.coord_overhead_us_per_batch()
        ),
    );

    let ha = ha_probe();
    if let Err(e) = ha.emit(&out_dir, cores) {
        eprintln!("failed to write BENCH_ha.json: {e}");
        ok = false;
    }
    ok &= ha.ok;
    summary.push(
        "ha",
        ha.ok,
        format!(
            "\"replication_overhead_frac\": {:.9}, \"failover_ticks\": {:.3}",
            ha.overhead_frac, ha.failover_ticks
        ),
    );

    if let Err(e) = summary.emit(&out_dir, cores) {
        eprintln!("failed to write BENCH_summary.json: {e}");
        ok = false;
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("fast-path mismatch or write failure — see output above");
        ExitCode::from(1)
    }
}
