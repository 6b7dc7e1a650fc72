//! Every fleet backend must produce bit-identical [`RunMetrics`].
//!
//! The matrix covers {serial, struct-of-arrays serial, struct-of-arrays
//! sharded, event-driven, event-sharded, RPC mesh over loopback TCP at
//! 1/2/4 shards} × {telemetry off, telemetry on} × {controller every tick,
//! controller every 5 ticks}, plus a flight-recorder on/off leg: the
//! recorder journals every decision but must never feed back into the
//! result.
//! Batching, sharding, and the wire may only change who executes the
//! sub-step schedule and what transport the controller's reads and commands
//! cross — never a single bit of the result. The mesh batches reads
//! (`ReadAllReadings` snapshot) and defers commands (`ApplyCommandBatch`
//! flushed at the next schedule boundary), and must *still* be
//! bit-identical: nothing observes agent state between a controller tick
//! and the next schedule's first sub-step. This is the mesh's headline
//! clean-link guarantee: the framed codec carries every `f64` as its exact
//! bit pattern and the lease never expires under a healthy link. With
//! telemetry on, each mesh run is also held to at most 3 RPCs per shard per
//! control tick (`net.rpc_calls` against `sim.ticks`).
//!
//! This is a single-test integration binary because it toggles the global
//! telemetry enable flag — state no other concurrently running test may
//! share. The in-process shard count defaults to 2 and can be raised via the
//! `RECHARGE_TEST_SHARDS` environment variable (CI runs the matrix at 4 to
//! exercise real multi-core interleavings).

use recharge_dynamo::{FleetBackendKind, Strategy};
use recharge_net::RpcMeshConfig;
use recharge_sim::{DischargeLevel, RunMetrics, Scenario};
use recharge_units::{Seconds, Watts};

fn scenario() -> Scenario {
    Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .max_horizon(Seconds::from_hours(2.5))
}

fn test_shards() -> usize {
    std::env::var("RECHARGE_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn run_matrix_row(backend: FleetBackendKind, control_every: usize) -> RunMetrics {
    scenario()
        .backend(backend)
        .control_every(control_every)
        .build()
        .run()
}

#[test]
fn run_metrics_are_bit_identical_across_backends() {
    let shards = test_shards();
    let backends = [
        FleetBackendKind::Serial,
        FleetBackendKind::Soa,
        FleetBackendKind::SoaSharded { shards },
        FleetBackendKind::Event,
        FleetBackendKind::EventSharded { shards },
    ];
    // Counters move only while telemetry is on.
    let calls = recharge_telemetry::counter("net.rpc_calls");
    let ticks = recharge_telemetry::counter("sim.ticks");

    for telemetry in [false, true] {
        recharge_telemetry::set_enabled(telemetry);
        for control_every in [1, 5] {
            let reference = run_matrix_row(backends[0], control_every);
            for &backend in &backends[1..] {
                let metrics = run_matrix_row(backend, control_every);
                assert_eq!(
                    metrics, reference,
                    "{backend:?} diverged from serial \
                     (telemetry={telemetry}, control_every={control_every}, \
                     shards={shards})"
                );
            }
            // The RPC mesh over a clean loopback link: every controller read
            // and command crosses real TCP sockets — one server by default,
            // then 2 and 4 with concurrent fan-out — yet the metrics must be
            // bit-identical to the in-process run.
            for mesh_shards in [1, 2, 4] {
                let before = [calls.value(), ticks.value()];
                let rpc = scenario()
                    .rpc(RpcMeshConfig::shard_count(mesh_shards))
                    .control_every(control_every)
                    .build()
                    .run();
                assert_eq!(
                    rpc, reference,
                    "rpc mesh diverged from serial \
                     (telemetry={telemetry}, control_every={control_every}, \
                     mesh_shards={mesh_shards})"
                );
                // The batched wire ops: one `ReadAllReadings` per shard per
                // control tick plus one `ApplyCommandBatch` when commands are
                // pending, so at most 3 RPCs per shard per control tick.
                if telemetry {
                    let rpcs = calls.value() - before[0];
                    let control_ticks = (ticks.value() - before[1]) / control_every as u64;
                    assert!(
                        rpcs <= 3 * mesh_shards as u64 * control_ticks,
                        "{rpcs} RPCs over {control_ticks} control ticks on {mesh_shards} \
                         shard(s) exceed 3 per shard per control tick \
                         (control_every={control_every})"
                    );
                }
            }
        }
    }
    recharge_telemetry::set_enabled(false);

    // The flight recorder must be a pure observer: turning it off may not
    // change a bit of the result. The reference row above ran with the
    // recorder at its default (on); rerun a backend spread with it off.
    let reference = run_matrix_row(FleetBackendKind::Serial, 5);
    recharge_telemetry::set_recorder_enabled(false);
    for backend in [
        FleetBackendKind::Serial,
        FleetBackendKind::Soa,
        FleetBackendKind::SoaSharded { shards },
        FleetBackendKind::Event,
        FleetBackendKind::EventSharded { shards },
    ] {
        let metrics = run_matrix_row(backend, 5);
        assert_eq!(
            metrics, reference,
            "{backend:?} diverged with the flight recorder off"
        );
    }
    let rpc = scenario()
        .rpc(RpcMeshConfig::default())
        .control_every(5)
        .build()
        .run();
    assert_eq!(
        rpc, reference,
        "rpc mesh diverged with the flight recorder off"
    );
    recharge_telemetry::set_recorder_enabled(true);
    let _ = recharge_telemetry::take_flight_events();
}
