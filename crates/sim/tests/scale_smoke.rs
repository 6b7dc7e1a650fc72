//! Campus-scale smoke: the struct-of-arrays backend must reproduce the
//! object path's `RunMetrics` exactly, at sizes where only the SoA kernel is
//! practical to run routinely.
//!
//! The small matrix below runs on every `cargo test`; the 10k-rack case is
//! `#[ignore]`d and executed by the `engine-sharded` CI job with
//! `--release -- --ignored`.

use recharge_sim::{DischargeLevel, RunMetrics, Scenario};
use recharge_units::{Seconds, Watts};

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
