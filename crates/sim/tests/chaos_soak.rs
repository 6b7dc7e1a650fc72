//! Seeded chaos soak over the RPC mesh (one server by default, two for the
//! single-shard partition): the headline degraded-mode claim.
//!
//! With 10 % request drops, tail delays, duplicated frames, and a 60-tick
//! total controller partition injected into the link, a full scenario run
//! must still end with **zero breaker trips** and **every reachable rack
//! meeting its Table II SLA** — drops are absorbed by the bounded retries,
//! and the partition only pushes racks into the standalone variable-charger
//! fallback until the controller heals and re-coordinates them.
//!
//! `quick_chaos_soak` (drops and a partition, no injected latency, sparse
//! control ticks) runs in every test pass; the full profile — per-attempt
//! delay injection at a 50 ms p99 and per-tick control — is `#[ignore]`d and
//! run by the `mesh` CI job.

use std::sync::{Mutex, MutexGuard, PoisonError};

use recharge_dynamo::Strategy;
use recharge_net::{FaultPlan, Partition, RpcMeshConfig};
use recharge_sim::{DischargeLevel, RunMetrics, Scenario};
use recharge_units::{Seconds, Watts};

/// Serializes the soaks: both flip the global telemetry flag and read the
/// global counter registry.
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

/// The run starts one warmup minute before the open transition, so step 600
/// is deep inside the recharge period for the Low discharge profile: the
/// 60-tick window partitions the controller away mid-charge and expires
/// every rack's coordination lease.
fn partition_mid_recharge() -> Vec<Partition> {
    vec![Partition::all(600, 660)]
}

fn soak(plan: FaultPlan, control_every: usize) -> RunMetrics {
    soak_mesh(RpcMeshConfig::with_fault(plan), control_every)
}

/// Callers hold [`telemetry_lock`] for the whole test, so counter deltas
/// observed around this run cannot race a concurrent soak.
fn soak_mesh(mesh: RpcMeshConfig, control_every: usize) -> RunMetrics {
    recharge_telemetry::set_enabled(true);
    let retries = recharge_telemetry::counter("net.rpc_retries");
    let fallbacks = recharge_telemetry::counter("net.standalone_fallbacks");
    let rejoins = recharge_telemetry::counter("net.rejoins");
    let (retries_before, fallbacks_before, rejoins_before) =
        (retries.value(), fallbacks.value(), rejoins.value());

    let metrics = scenario()
        .rpc(mesh)
        .control_every(control_every)
        .build()
        .run();
    recharge_telemetry::set_enabled(false);

    // The chaos actually bit: drops forced retries, the partition expired
    // leases into standalone fallback, and the heal re-coordinated racks.
    assert!(retries.value() > retries_before, "no retries injected");
    assert!(
        fallbacks.value() > fallbacks_before,
        "partition never pushed a rack standalone"
    );
    assert!(
        rejoins.value() > rejoins_before,
        "no rack rejoined after the heal"
    );

    // The degraded-mode guarantees: no breaker trip, every rack (all are
    // reachable once the partition lifts) still meets its charging SLA.
    assert!(
        !metrics.breaker_tripped,
        "breaker tripped under chaos (max draw {})",
        metrics.max_total_draw
    );
    for outcome in &metrics.rack_outcomes {
        assert!(
            outcome.sla_met,
            "rack {} ({:?}) missed its SLA under chaos: charged in {:?}",
            outcome.rack, outcome.priority, outcome.charge_duration
        );
    }
    metrics
}

/// The sharded-mesh degraded-mode claim: partition exactly one shard of a
/// two-shard mesh mid-recharge (plus fleet-wide drops) and only *that*
/// shard's racks fall back to standalone and later rejoin — the other shard
/// stays coordinated throughout — while the run still ends with zero breaker
/// trips and every Table II SLA met.
#[test]
fn sharded_single_shard_partition_soak() {
    use recharge_units::RackId;

    let _lock = telemetry_lock();
    // 7 racks under ShardPlan::Count(2) partition as [0,1,2] / [3,4,5,6];
    // the rack-scoped window projects to a total partition of shard 0 and is
    // dropped entirely from shard 1's plan.
    let shard0: Vec<RackId> = (0..3).map(RackId::new).collect();
    let plan = FaultPlan {
        seed: 0x000C_4A05,
        drop_request: 0.10,
        drop_response: 0.05,
        duplicate: 0.05,
        partitions: vec![Partition::racks(600, 660, shard0)],
        ..FaultPlan::default()
    };

    let fallbacks = recharge_telemetry::counter("net.standalone_fallbacks");
    let rejoins = recharge_telemetry::counter("net.rejoins");
    let (fallbacks_before, rejoins_before) = (fallbacks.value(), rejoins.value());

    soak_mesh(RpcMeshConfig::shard_count(2).faulted(plan), 5);

    // Exactly the partitioned shard's three racks fell back and rejoined;
    // shard 1 never missed a lease renewal, so no other rack transitioned.
    // (Every rack starts standalone, so the rejoin counter records the seven
    // initial joins plus the three post-heal rejoins.)
    assert_eq!(
        fallbacks.value() - fallbacks_before,
        3,
        "only shard 0's racks may fall back"
    );
    assert_eq!(
        rejoins.value() - rejoins_before,
        7 + 3,
        "all of shard 0's racks must rejoin after the heal"
    );
}

#[test]
fn quick_chaos_soak() {
    let _lock = telemetry_lock();
    let plan = FaultPlan {
        seed: 0x000C_4A05,
        drop_request: 0.10,
        drop_response: 0.05,
        duplicate: 0.05,
        partitions: partition_mid_recharge(),
        ..FaultPlan::default()
    };
    soak(plan, 5);
}

/// The full profile from the issue: 10 % drops, injected delays with a 50 ms
/// p99, and one 60-tick total partition, under per-tick control traffic.
/// Seconds of wall clock (the delays are real sleeps) — run via the `mesh`
/// CI job or `cargo test -p recharge-sim --test chaos_soak -- --ignored`.
#[test]
#[ignore = "full soak with real injected latency; run by the mesh CI job"]
fn full_chaos_soak() {
    let _lock = telemetry_lock();
    soak(
        FaultPlan::chaos(0x000C_4A05, 0.10, partition_mid_recharge()),
        1,
    );
}
