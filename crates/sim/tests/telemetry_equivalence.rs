//! Telemetry must be a pure observer: enabling it cannot change simulation
//! results by a single bit.
//!
//! This is a single-test integration binary because it toggles the global
//! telemetry enable flag and drains the global trace buffers — state no other
//! concurrently running test may share.

use recharge_dynamo::Strategy;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::{Seconds, Watts};

fn scenario() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .max_horizon(Seconds::from_hours(2.5))
}

#[test]
fn run_metrics_are_bit_identical_with_telemetry_on_or_off() {
    // Baseline: telemetry off.
    recharge_telemetry::set_enabled(false);
    let off_serial = scenario().build().run();
    let off_sharded = scenario().soa_sharded(2).build().run();

    // Instrumented: telemetry on. Spans only read clocks, so every metric —
    // series samples, SLA outcomes, float power maxima — must match exactly.
    recharge_telemetry::set_enabled(true);
    recharge_telemetry::reset_metrics();
    let _ = recharge_telemetry::take_records();
    let on_serial = scenario().build().run();
    let on_sharded = scenario().soa_sharded(2).build().run();
    let records = recharge_telemetry::take_records();
    let snapshot = recharge_telemetry::snapshot();
    recharge_telemetry::set_enabled(false);

    assert_eq!(on_serial, off_serial, "telemetry perturbed the serial run");
    assert_eq!(
        on_sharded, off_sharded,
        "telemetry perturbed the sharded run"
    );
    assert_eq!(on_sharded, on_serial, "backends diverged");
    assert!(
        !on_serial.breaker_tripped,
        "the instrumented run tripped the breaker"
    );

    // The instrumented runs actually recorded the end-to-end span set.
    let span_names: std::collections::BTreeSet<&str> = records.iter().map(|r| r.name).collect();
    for expected in [
        "sim.run",
        "sim.tick",
        "controller.tick",
        "controller.gather",
        "controller.assign",
        "fleet.step",
        "fleet.barrier_wait",
        "shard.step",
    ] {
        assert!(
            span_names.contains(expected),
            "missing span {expected:?}; saw {span_names:?}"
        );
    }

    // Counters saw both runs; the SLA gauge family was published.
    let ticks = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "sim.ticks")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    assert!(ticks > 0, "sim.ticks counter never incremented");
    for gauge in ["sim.sla_met.p1", "sim.sla_met.p2", "sim.sla_met.p3"] {
        let value = snapshot
            .gauges
            .iter()
            .find(|(name, _)| name == gauge)
            .map(|&(_, v)| v);
        match value {
            Some(v) => assert!((0.0..=1.0).contains(&v), "{gauge} = {v} out of range"),
            None => panic!("gauge {gauge} never published"),
        }
    }
}
