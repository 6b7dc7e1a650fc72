//! The event engine's economy gate: on the paper diurnal row with a 4 h
//! warmup, most of the horizon sits in the quiet wall-power regime the
//! engine skips, and it must execute at least 5x fewer rack sub-steps than a
//! dense engine, at every shard count.
//!
//! The same runs pin the engine's deliveries (`sim.events_fired`): every
//! shard sees each of the schedule's two power edges, so `event-sharded:N`
//! delivers exactly the inline count plus `(N − 1) × 2`. A second row, whose
//! limit caps fully charged, sleeping racks, makes the controller's commands
//! land on sleepers, so command wakes are counted too.
//!
//! This is a single-test integration binary because it toggles the global
//! telemetry enable flag, whose counters are the engine's own tally.

use recharge_dynamo::Strategy;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_telemetry::Counter;
use recharge_units::{Seconds, Watts};

/// Racks in each scenario's row.
const RACKS: u64 = 3 + 2 + 2;

/// Input-power edges in each schedule: the open transition's start and end.
const EDGES: u64 = 2;

/// The row in the quiet regime: ample headroom, a low discharge.
fn ample() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .warmup(Seconds::from_hours(4.0))
        .max_horizon(Seconds::from_hours(2.5))
}

/// The row under a limit that caps racks whose batteries are full and
/// asleep, so capping commands wake them.
fn capping() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(43.0))
        .strategy(Strategy::Uncoordinated)
        .discharge(DischargeLevel::Medium)
        .tick(Seconds::new(1.0))
        .warmup(Seconds::from_hours(4.0))
        .max_horizon(Seconds::from_hours(2.5))
}

/// Runs `scenario` inline and at 2 and 4 shards; returns each run's shard
/// count and its `[ticks, executed, skipped, fired]` counter deltas.
fn tally(scenario: fn() -> Scenario, counters: &[Counter; 4]) -> Vec<(u64, [u64; 4])> {
    [
        (1, scenario().event_driven()),
        (2, scenario().event_sharded(2)),
        (4, scenario().event_sharded(4)),
    ]
    .into_iter()
    .map(|(shards, run)| {
        let before = counters.each_ref().map(Counter::value);
        let _ = run.build().run();
        (
            shards,
            std::array::from_fn(|i| counters[i].value() - before[i]),
        )
    })
    .collect()
}

#[test]
fn event_engine_cuts_dense_substeps_at_least_fivefold_at_every_shard_count() {
    let counters = [
        "sim.ticks",
        "sim.rack_substeps",
        "sim.ticks_skipped",
        "sim.events_fired",
    ]
    .map(recharge_telemetry::counter);
    recharge_telemetry::set_enabled(true);
    let ample_runs = tally(ample, &counters);
    let capping_runs = tally(capping, &counters);
    recharge_telemetry::set_enabled(false);

    let [_, inline_executed, _, _] = ample_runs[0].1;
    for &(shards, [ticks, executed, skipped, _]) in &ample_runs {
        let dense = RACKS * ticks;
        assert_eq!(
            executed + skipped,
            dense,
            "{shards} shards: executed + skipped must be the dense sub-step count"
        );
        assert!(
            dense >= 5 * executed,
            "{shards} shards: executed {executed} of {dense} dense sub-steps, under the 5x reduction"
        );
        assert_eq!(
            executed, inline_executed,
            "{shards} shards executed a different sub-step count than the inline engine"
        );
    }

    for (label, runs) in [("ample", &ample_runs), ("capping", &capping_runs)] {
        let [.., inline_fired] = runs[0].1;
        for &(shards, [.., fired]) in &runs[1..] {
            assert_eq!(
                fired,
                inline_fired + (shards - 1) * EDGES,
                "{label} row, {shards} shards: every shard sees each edge, commands wake once"
            );
        }
    }
    let [.., capping_fired] = capping_runs[0].1;
    assert!(
        capping_fired > EDGES,
        "the capping row delivered {capping_fired}: no command woke a sleeping rack"
    );
}
