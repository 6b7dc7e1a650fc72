//! The event engine journals the same fast-forwards however many shards it
//! runs on.
//!
//! Every sleep→wake transition becomes a `FlightKind::FastForward` flight
//! event, journaled on the calling thread after each batch in every
//! configuration. Inline and on worker threads the set of events must be
//! identical; only the order shards are visited in may differ, so the
//! comparison sorts by `FlightEvent::timeline_cmp` first.
//!
//! This is a single-test integration binary because it drains the global
//! flight recorder — state no other concurrently running test may share.

use recharge_dynamo::Strategy;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_telemetry::{FlightEvent, FlightKind};
use recharge_units::{Seconds, Watts};

fn scenario() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .control_every(5)
        .max_horizon(Seconds::from_hours(2.5))
}

/// Runs `scenario` and returns its fast-forward events in timeline order.
fn fast_forwards(scenario: Scenario) -> Vec<FlightEvent> {
    let _ = recharge_telemetry::take_flight_events();
    let overwritten = recharge_telemetry::overwritten_events();
    let _ = scenario.build().run();
    assert_eq!(
        recharge_telemetry::overwritten_events(),
        overwritten,
        "the ring wrapped; the journal is incomplete"
    );
    let mut events: Vec<FlightEvent> = recharge_telemetry::take_flight_events()
        .into_iter()
        .filter(|e| e.kind == FlightKind::FastForward)
        .collect();
    events.sort_by(FlightEvent::timeline_cmp);
    events
}

#[test]
fn fast_forward_journal_is_shard_count_independent() {
    recharge_telemetry::set_recorder_enabled(true);
    let inline = fast_forwards(scenario().event_driven());
    assert!(!inline.is_empty(), "the event run fast-forwarded nothing");
    for shards in [2, 4] {
        let sharded = fast_forwards(scenario().event_sharded(shards));
        assert_eq!(
            sharded, inline,
            "event-sharded:{shards} journaled different fast-forwards"
        );
    }
}
