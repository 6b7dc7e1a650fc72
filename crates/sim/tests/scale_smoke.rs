//! Campus-scale smoke: the struct-of-arrays backend must reproduce the
//! object path's `RunMetrics` exactly, at sizes where only the SoA kernel is
//! practical to run routinely.
//!
//! The small matrix below runs on every `cargo test`; the 10k-rack case and
//! the ≥100k-rack campus readings check are `#[ignore]`d and executed by the
//! `engine-sharded` CI job with `--release -- --include-ignored`.

use recharge_dynamo::{FleetBackendKind, SimRackAgent};
use recharge_sim::{DischargeLevel, RunMetrics, Scenario};
use recharge_trace::{CampusFleet, RackPowerTrace};
use recharge_units::{RackId, Seconds, Watts};

fn small_scenario() -> Scenario {
    // ~200 racks, short horizon, postponing enabled so the SoA postpone and
    // override flag paths both see controller traffic.
    Scenario::row(70, 70, 60, 11)
        .power_limit(Watts::from_kilowatts(1_300.0))
        .discharge(DischargeLevel::Medium)
        .allow_postponing()
        .max_horizon(Seconds::new(600.0))
}

fn campus_scenario() -> Scenario {
    // 10k racks under a proportionally scaled breaker; a short horizon keeps
    // the object-path reference run affordable in CI.
    Scenario::row(2_900, 4_300, 2_800, 23)
        .power_limit(Watts::from_megawatts(65.0))
        .discharge(DischargeLevel::Low)
        .max_horizon(Seconds::new(300.0))
}

#[test]
fn soa_backends_match_serial_at_row_scale() {
    let reference: RunMetrics = small_scenario().build().run();
    let soa = small_scenario().soa().build().run();
    assert_eq!(soa, reference, "soa diverged from serial");
    let sharded = small_scenario().soa_sharded(3).build().run();
    assert_eq!(sharded, reference, "soa-sharded diverged from serial");
}

#[test]
#[ignore = "campus-scale; run by the engine-sharded CI job with --release -- --ignored"]
fn soa_backends_match_serial_at_campus_scale() {
    let reference: RunMetrics = campus_scenario().build().run();
    let soa = campus_scenario().soa().build().run();
    assert_eq!(soa, reference, "soa diverged from serial at 10k racks");
    let sharded = campus_scenario().soa_sharded(4).build().run();
    assert_eq!(
        sharded, reference,
        "soa-sharded diverged from serial at 10k racks"
    );
}

/// The 100k-rack floor the campus check must clear.
const CAMPUS_RACKS_FLOOR: usize = 100_000;

#[test]
#[ignore = "100k-rack campus; run by the engine-sharded CI job with --release -- --include-ignored"]
fn soa_readings_match_serial_on_the_paper_campus() {
    // 317 paper MSB rows × 316 racks = 100,172 racks.
    let agents: Vec<SimRackAgent> = CampusFleet::paper_campus(317, 41)
        .fleet()
        .iter()
        .map(|e| {
            SimRackAgent::builder(e.rack, e.priority)
                .offered_load(Watts::from_kilowatts(6.0))
                .build()
        })
        .collect();
    assert!(
        agents.len() >= CAMPUS_RACKS_FLOOR,
        "campus has {} racks, under the {CAMPUS_RACKS_FLOOR} floor",
        agents.len()
    );

    // 12 dark sub-steps discharge every rack, then power returns and the
    // other 36 charge, so both kernel branches run.
    let schedule: Vec<bool> = (0..48).map(|i| i >= 12).collect();
    let load = |rack: RackId, i: usize| {
        Watts::from_kilowatts(5.5 + 0.25 * f64::from(rack.index() % 8) + 0.01 * (i % 16) as f64)
    };
    let readings = |kind: FleetBackendKind| {
        let mut backend = kind.build(agents.clone());
        backend.step_schedule(Seconds::new(1.0), &schedule, &load);
        backend.readings()
    };
    let reference = readings(FleetBackendKind::Serial);
    assert!(
        readings(FleetBackendKind::Soa) == reference,
        "soa readings diverged from serial on the campus"
    );
    assert!(
        readings(FleetBackendKind::SoaSharded { shards: 4 }) == reference,
        "soa-sharded:4 readings diverged from serial on the campus"
    );
}
