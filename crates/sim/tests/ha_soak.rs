//! Kill-the-leader chaos soak over the hot-standby control plane: the
//! headline controller-HA claims.
//!
//! 1. **Fault-free equivalence**: with no process faults injected, a full
//!    scenario run over a 3-replica [`ControllerSet`] — with the telemetry
//!    registry *and* the flight recorder enabled — produces **bit-identical**
//!    `RunMetrics` to the plain single-controller run with all telemetry
//!    off. Election, snapshotting, and journaling never touch the bus.
//! 2. **Kill the leader mid-recharge**: crash the elected leader deep inside
//!    the recharge period. A standby must take over within one lease width
//!    (plus one control interval of detection slack), the run must end with
//!    zero breaker trips and every Table II SLA met, and the flight recorder
//!    must journal the full failover timeline.
//!
//! `quick_kill_the_leader_soak` (sparse control ticks) runs in every test
//! pass; the per-tick-control full profile is `#[ignore]`d and run by the
//! `ha-soak` CI job.

use std::sync::{Mutex, MutexGuard, PoisonError};

use recharge_dynamo::Strategy;
use recharge_ha::{ControllerSet, HaConfig, ProcessFault};
use recharge_sim::{DischargeLevel, RunMetrics, Scenario};
use recharge_telemetry::{FlightKind, ReasonCode};
use recharge_units::{Seconds, Watts};

/// Serializes the soaks: they flip the global telemetry flags and drain the
/// global flight-recorder rings.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scenario() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .max_horizon(Seconds::from_hours(2.5))
}

fn ha_config() -> HaConfig {
    HaConfig::default().seed(0x0000_4A5E)
}

/// The deterministic tick-0 election winner for [`ha_config`], probed on a
/// throwaway set (the draw depends only on the seed, never on the bus), so
/// the chaos schedule can aim its crash at the replica that actually leads.
fn elected_leader() -> u32 {
    use recharge_dynamo::{ControllerConfig, InMemoryBus, SimRackAgent};
    use recharge_units::{DeviceId, Priority, RackId, SimTime};
    let agents = vec![SimRackAgent::builder(RackId::new(0), Priority::P1)
        .offered_load(Watts::from_kilowatts(6.0))
        .build()];
    let mut bus = InMemoryBus::new(agents);
    let mut probe = ControllerSet::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
        Strategy::PriorityAware,
        ha_config(),
    );
    probe.tick(0, SimTime::ZERO, &mut bus);
    probe.leader().expect("probe election must succeed")
}

fn assert_clean(metrics: &RunMetrics) {
    assert!(
        !metrics.breaker_tripped,
        "breaker tripped under controller chaos (max draw {})",
        metrics.max_total_draw
    );
    for outcome in &metrics.rack_outcomes {
        assert!(
            outcome.sla_met,
            "rack {} ({:?}) missed its SLA across the failover: charged in {:?}",
            outcome.rack, outcome.priority, outcome.charge_duration
        );
    }
}

/// Runs the kill-the-leader scenario and asserts the takeover window from
/// the journaled failover timeline. Callers hold [`telemetry_lock`].
fn kill_the_leader(control_every: usize) -> RunMetrics {
    recharge_telemetry::set_enabled(true);
    recharge_telemetry::set_recorder_enabled(true);
    let _ = recharge_telemetry::take_flight_events();
    let failovers = recharge_telemetry::counter("ha.failovers_total");
    let failovers_before = failovers.value();

    // Crash the leader at tick 600: one warmup minute plus the open
    // transition puts that deep inside the recharge period for the Low
    // discharge profile, with charging coordination in full swing.
    let crash_tick = 600u64;
    let ha = ha_config().fault(ProcessFault::CrashController {
        controller: elected_leader(),
        at_tick: crash_tick,
    });
    let lease = ha.lease_ticks;
    let metrics = scenario().ha(ha).control_every(control_every).build().run();

    recharge_telemetry::set_recorder_enabled(false);
    recharge_telemetry::set_enabled(false);
    let events = recharge_telemetry::take_flight_events();

    // The chaos actually bit, and exactly once.
    assert_eq!(failovers.value() - failovers_before, 1, "one failover");

    // The journaled timeline: leader lost to the crash, a standby elected,
    // takeover completed within one lease width plus one control interval
    // (the standby can only detect expiry at its next control tick).
    let lost = events
        .iter()
        .find(|e| e.kind == FlightKind::LeaderLost && e.reason == ReasonCode::HaCrashed)
        .expect("crash must journal LeaderLost");
    let takeover = events
        .iter()
        .find(|e| e.kind == FlightKind::TakeoverComplete)
        .expect("a standby must complete takeover");
    let elapsed_ticks = takeover.at() - lost.at(); // 1 s ticks
    let slack = lease + control_every as u64;
    assert!(
        elapsed_ticks > 0.0 && elapsed_ticks <= slack as f64,
        "takeover took {elapsed_ticks} ticks; budget is lease {lease} + interval {control_every}"
    );
    assert_eq!(takeover.v1, 2, "takeover lands in term 2");
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightKind::SnapshotRestored),
        "takeover must restore the replicated brain snapshot"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightKind::SnapshotTaken && e.v0 == 2),
        "the new leader must resume snapshot replication in its own term"
    );

    assert_clean(&metrics);
    metrics
}

/// Fault-free HA is bit-identical to the single-controller run, with the
/// whole observability plane (registry + flight recorder) enabled on the HA
/// side only — journaling is provably free of simulation side effects.
#[test]
fn fault_free_ha_run_is_bit_identical_to_single_controller() {
    let _lock = telemetry_lock();
    recharge_telemetry::set_enabled(false);
    recharge_telemetry::set_recorder_enabled(false);
    let single = scenario().control_every(5).build().run();

    recharge_telemetry::set_enabled(true);
    recharge_telemetry::set_recorder_enabled(true);
    let _ = recharge_telemetry::take_flight_events();
    let ha = scenario().ha(ha_config()).control_every(5).build().run();
    recharge_telemetry::set_recorder_enabled(false);
    recharge_telemetry::set_enabled(false);
    let events = recharge_telemetry::take_flight_events();

    assert_eq!(single, ha, "HA run must be bit-identical when fault-free");
    // One election, no failovers, snapshots on cadence.
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == FlightKind::LeaderElected)
            .count(),
        1
    );
    assert!(!events.iter().any(|e| e.kind == FlightKind::LeaderLost));
    assert!(events.iter().any(|e| e.kind == FlightKind::SnapshotTaken));
}

#[test]
fn quick_kill_the_leader_soak() {
    let _lock = telemetry_lock();
    kill_the_leader(5);
}

/// The full profile: per-tick control traffic across the failover. Slower
/// (every tick is a full control round); run by the `ha-soak` CI job or
/// `cargo test -p recharge-sim --test ha_soak -- --ignored`.
#[test]
#[ignore = "full per-tick-control soak; run by the ha-soak CI job"]
fn full_kill_the_leader_soak() {
    let _lock = telemetry_lock();
    kill_the_leader(1);
}
