//! The event engine's economy gate: on the paper diurnal row with a 4 h
//! warmup, most of the horizon sits in the quiet wall-power regime the
//! engine skips, and it must execute at least 5x fewer rack sub-steps than a
//! dense engine, at every shard count.
//!
//! This is a single-test integration binary because it toggles the global
//! telemetry enable flag, whose counters are the engine's own tally.

use recharge_dynamo::Strategy;
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::{Seconds, Watts};

/// Racks in [`scenario`]'s row.
const RACKS: u64 = 3 + 2 + 2;

fn scenario() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .warmup(Seconds::from_hours(4.0))
        .max_horizon(Seconds::from_hours(2.5))
}

#[test]
fn event_engine_cuts_dense_substeps_at_least_fivefold_at_every_shard_count() {
    let counters =
        ["sim.ticks", "sim.rack_substeps", "sim.ticks_skipped"].map(recharge_telemetry::counter);
    recharge_telemetry::set_enabled(true);
    let mut executed_by_run = Vec::new();
    for (label, run) in [
        ("event", scenario().event_driven()),
        ("event-sharded:2", scenario().event_sharded(2)),
        ("event-sharded:4", scenario().event_sharded(4)),
    ] {
        let before = counters.each_ref().map(|c| c.value());
        let _ = run.build().run();
        let [ticks, executed, skipped]: [u64; 3] =
            std::array::from_fn(|i| counters[i].value() - before[i]);
        let dense = RACKS * ticks;
        assert_eq!(
            executed + skipped,
            dense,
            "{label}: executed + skipped must be the dense sub-step count"
        );
        assert!(
            dense >= 5 * executed,
            "{label}: executed {executed} of {dense} dense sub-steps, under the 5x reduction"
        );
        executed_by_run.push((label, executed));
    }
    recharge_telemetry::set_enabled(false);

    let (_, inline) = executed_by_run[0];
    for &(label, executed) in &executed_by_run[1..] {
        assert_eq!(
            executed, inline,
            "{label} executed a different sub-step count than the inline engine"
        );
    }
}
