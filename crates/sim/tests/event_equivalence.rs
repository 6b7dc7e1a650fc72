//! Dense vs event-driven bit-identity under randomized schedules.
//!
//! The event-driven backend's whole contract is "skip only what provably
//! does nothing". These properties randomize the inputs that could break
//! that claim — load-transition timings, input-power edge placement, and
//! command streams that postpone/override/cap racks at arbitrary boundaries
//! — and pin readings and `RunMetrics` bit-identical to [`SerialBackend`].
//! The sharded event backend rides along at a randomized shard count
//! (1/2/4 by default, pinned via `RECHARGE_TEST_SHARDS`), with the command
//! stream deliberately landing on racks owned by different shards
//! mid-batch. On failure, proptest shrinks to the minimal divergent
//! schedule.

use proptest::prelude::*;

use recharge_dynamo::{FleetBackend, SerialBackend, SimRackAgent, SoaBackend};
use recharge_sim::{DischargeLevel, Scenario};
use recharge_units::{Amperes, Priority, RackId, Seconds, Watts};

const FLEET: u32 = 6;

/// Shard counts the sharded event backend is exercised at: `[1, 2, 4]` by
/// default, or a single pinned count from `RECHARGE_TEST_SHARDS` (the CI
/// `engine-sharded` matrix pins 1 and 4).
fn shard_counts() -> Vec<usize> {
    match std::env::var("RECHARGE_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1, 2, 4],
    }
}

fn agents() -> Vec<SimRackAgent> {
    (0..FLEET)
        .map(|i| {
            SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                .offered_load(Watts::from_kilowatts(6.0))
                .build()
        })
        .collect()
}

fn apply_command(bus: &mut dyn recharge_dynamo::AgentBus, op: u8, rack: u32, magnitude: f64) {
    let rack = RackId::new(rack % FLEET);
    match op % 6 {
        0 => bus.set_charge_override(rack, Amperes::new(magnitude)),
        1 => bus.clear_charge_override(rack),
        2 => bus.set_charge_postponed(rack, true),
        3 => bus.set_charge_postponed(rack, false),
        4 => bus.cap_servers(rack, Watts::from_kilowatts(magnitude)),
        _ => bus.uncap_servers(rack),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Backend-level lockstep: arbitrary power-edge placement, per-round
    /// load levels, and command streams must leave the event backend
    /// bit-identical to serial at every schedule boundary.
    #[test]
    fn readings_are_bit_identical_under_random_schedules(
        rounds in proptest::collection::vec(
            (
                0u8..6,                                          // command op
                0u32..FLEET,                                     // target rack
                0.5f64..8.0,                                     // magnitude
                proptest::collection::vec(proptest::bool::ANY, 1..10), // power schedule
                3.0f64..8.0,                                     // base load (kW)
            ),
            1..16,
        ),
        dt in 1.0f64..45.0,
        shard_sel in 0usize..64,
    ) {
        let counts = shard_counts();
        let shards = counts[shard_sel % counts.len()];
        let mut reference = SerialBackend::new(agents());
        let mut event = SoaBackend::event(agents());
        let mut sharded = SoaBackend::event_sharded(agents(), shards);
        for (round, (op, rack, magnitude, schedule, base_kw)) in
            rounds.iter().enumerate()
        {
            // Successive rounds target different racks, so with 2 or 4
            // shards the command stream lands on different shards mid-run.
            for backend in
                [&mut reference as &mut dyn FleetBackend, &mut event, &mut sharded]
            {
                apply_command(backend.bus_mut(), *op, *rack, *magnitude);
            }
            let base = *base_kw;
            let load = move |rack: RackId, i: usize| {
                Watts::from_kilowatts(
                    base + 0.3 * f64::from(rack.index()) + 0.1 * i as f64,
                )
            };
            reference.step_schedule(Seconds::new(dt), schedule, &load);
            event.step_schedule(Seconds::new(dt), schedule, &load);
            sharded.step_schedule(Seconds::new(dt), schedule, &load);
            prop_assert_eq!(
                reference.readings(),
                FleetBackend::readings(&event),
                "round {} diverged (schedule {:?})",
                round,
                schedule
            );
            prop_assert_eq!(
                reference.readings(),
                FleetBackend::readings(&sharded),
                "round {} diverged on {} shards (schedule {:?})",
                round,
                shards,
                schedule
            );
        }
        // Accounting must cover the dense schedule exactly — globally for
        // both event backends, and shard-by-shard for the sharded one.
        let total: u64 = rounds.iter().map(|r| r.3.len() as u64).sum();
        prop_assert_eq!(
            event.substeps_executed() + event.substeps_skipped(),
            total * u64::from(FLEET)
        );
        prop_assert_eq!(sharded.substeps_executed(), event.substeps_executed());
        // Per shard, executed + skipped must equal the dense schedule times
        // the shard's slot count — i.e. a whole multiple of `total` — and
        // the shards together must cover the fleet exactly.
        let mut fleet_executed = 0;
        let mut fleet_covered = 0;
        for (shard, (executed, skipped)) in
            sharded.per_shard_substeps().into_iter().enumerate()
        {
            prop_assert_eq!(
                (executed + skipped) % total,
                0,
                "shard {} of {} accounting", shard, shards
            );
            fleet_executed += executed;
            fleet_covered += executed + skipped;
        }
        prop_assert_eq!(fleet_executed, sharded.substeps_executed());
        prop_assert_eq!(fleet_covered, total * u64::from(FLEET));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: whole-run `RunMetrics` (series, SLA outcomes, peaks)
    /// bit-identical between dense, event-driven, and sharded event-driven
    /// stepping across random fleets, discharge depths, control cadences,
    /// and shard counts.
    #[test]
    fn run_metrics_are_bit_identical_end_to_end(
        seed in 0u64..1_000,
        control_every in 1usize..6,
        dod in 0.1f64..0.8,
        warmup in 0.0f64..600.0,
        shard_sel in 0usize..64,
    ) {
        let counts = shard_counts();
        let shards = counts[shard_sel % counts.len()];
        let base = Scenario::row(3, 2, 2, seed)
            .power_limit(Watts::from_kilowatts(190.0))
            .discharge(DischargeLevel::Custom(dod))
            .warmup(Seconds::new(warmup))
            .control_every(control_every)
            .max_horizon(Seconds::from_hours(2.5));
        let dense = base.clone().build().run();
        let event = base.clone().event_driven().build().run();
        prop_assert_eq!(
            &event,
            &dense,
            "seed {} control_every {} dod {} warmup {}",
            seed,
            control_every,
            dod,
            warmup
        );
        let sharded = base.event_sharded(shards).build().run();
        prop_assert_eq!(
            &sharded,
            &dense,
            "event-sharded:{} seed {} control_every {} dod {} warmup {}",
            shards,
            seed,
            control_every,
            dod,
            warmup
        );
    }
}
