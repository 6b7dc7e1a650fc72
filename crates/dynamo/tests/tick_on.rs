//! `Controller::tick_on` over the rows an in-process backend already read is
//! `Controller::tick`: same report, same brain, same commands.
//!
//! Twin fleets of each engine run the same random power and load schedule.
//! One controller reads its fleet through the bus (`tick`); its twin decides
//! on `FleetBackend::readings()` (`tick_on`), the one read per interval the
//! simulator makes. Every tick the reports, the snapshot bytes, the
//! commanded currents and the two fleets' readings must be `==`, for every
//! strategy with postponing on and off. The sharded engines run at the
//! shard count `RECHARGE_TEST_SHARDS` pins (2 by default).

use proptest::prelude::*;

use recharge_dynamo::{Controller, ControllerConfig, FleetBackendKind, SimRackAgent, Strategy};
use recharge_units::{DeviceId, Priority, RackId, Seconds, SimTime, Watts};

const FLEET: u32 = 9;

fn shards() -> usize {
    std::env::var("RECHARGE_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn kinds() -> [FleetBackendKind; 5] {
    let shards = shards();
    [
        FleetBackendKind::Serial,
        FleetBackendKind::Soa,
        FleetBackendKind::SoaSharded { shards },
        FleetBackendKind::Event,
        FleetBackendKind::EventSharded { shards },
    ]
}

fn agents() -> Vec<SimRackAgent> {
    (0..FLEET)
        .map(|i| {
            SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                .offered_load(Watts::from_kilowatts(5.6 + 0.1 * f64::from(i)))
                .build()
        })
        .collect()
}

fn controller(strategy: Strategy, postpone: bool, limit_kw: f64) -> Controller {
    let mut config = ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(limit_kw));
    if postpone {
        config = config.with_postponing();
    }
    Controller::new(config, strategy)
}

/// Steps twin fleets of one engine through `rounds` and checks the twins'
/// controllers after every tick.
fn twins_agree(
    kind: FleetBackendKind,
    strategy: Strategy,
    postpone: bool,
    limit_kw: f64,
    dt: f64,
    rounds: &[(Vec<bool>, f64)],
) -> Result<(), TestCaseError> {
    let mut by_bus = kind.build(agents());
    let mut by_rows = kind.build(agents());
    let mut reads = controller(strategy, postpone, limit_kw);
    let mut decides = controller(strategy, postpone, limit_kw);
    let mut t = 0.0;
    for (round, (power, rise_kw)) in rounds.iter().enumerate() {
        let rise = *rise_kw;
        let load = move |rack: RackId, i: usize| {
            Watts::from_kilowatts(5.6 + rise + 0.1 * f64::from(rack.index()) + 0.02 * i as f64)
        };
        by_bus.step_schedule(Seconds::new(dt), power, &load);
        by_rows.step_schedule(Seconds::new(dt), power, &load);
        t += dt * power.len() as f64;
        let now = SimTime::from_secs(t);

        let want = reads.tick(now, by_bus.bus_mut());
        let rows = by_rows.readings();
        let got = decides.tick_on(now, &rows, by_rows.bus_mut());

        let at = format!("{kind} {strategy} postpone {postpone} round {round}");
        prop_assert_eq!(got, want, "report, {}", &at);
        let bytes = reads.snapshot().to_bytes();
        prop_assert_eq!(
            decides.snapshot().to_bytes(),
            bytes.clone(),
            "snapshot, {}",
            &at
        );
        prop_assert_eq!(
            decides.snapshot_bytes(),
            bytes,
            "one-pass snapshot, {}",
            &at
        );
        prop_assert_eq!(
            decides.commanded_currents(),
            reads.commanded_currents(),
            "currents, {}",
            &at
        );
        prop_assert_eq!(by_rows.readings(), by_bus.readings(), "fleets, {}", &at);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random outages (each sub-step's input power), IT-load rises and
    /// limits around the fleet's ≈58 kW IT load drive admission, Algorithm
    /// 1, throttling, postponing, capping and cap release.
    #[test]
    fn tick_on_the_backends_rows_equals_tick(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0u8..10, 1..6), 0.0f64..1.5),
            1..40,
        ),
        limit_kw in 55.0f64..75.0,
        dt in 1.0f64..30.0,
        postpone in proptest::bool::ANY,
    ) {
        // Input power is out on three sub-steps in ten.
        let rounds: Vec<(Vec<bool>, f64)> = rounds
            .into_iter()
            .map(|(power, rise)| (power.into_iter().map(|p| p >= 3).collect(), rise))
            .collect();
        for kind in kinds() {
            for strategy in [Strategy::PriorityAware, Strategy::Global, Strategy::Uncoordinated] {
                twins_agree(kind, strategy, postpone, limit_kw, dt, &rounds)?;
            }
        }
    }
}
