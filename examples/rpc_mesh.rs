//! The RPC mesh's degraded modes, tick by tick: four racks recharge behind a
//! real loopback TCP server while the controller is partitioned away
//! mid-charge, falls back to standalone charging, and rejoins on heal.
//!
//! ```text
//! cargo run --example rpc_mesh
//! ```

use recharge::dynamo::{Controller, ControllerConfig, FleetBackend, SimRackAgent, Strategy};
use recharge::net::{FaultPlan, Partition, RpcMeshConfig, ShardedRpcFleetBackend};
use recharge::prelude::*;

fn main() {
    // Four racks ride out a 60 s open transition before the mesh comes up.
    let mut agents: Vec<SimRackAgent> = (0..4u32)
        .map(|i| {
            SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                .offered_load(Watts::from_kilowatts(6.0))
                .build()
        })
        .collect();
    for a in &mut agents {
        a.set_input_power(false);
    }
    for a in &mut agents {
        a.step(Seconds::new(60.0));
    }
    for a in &mut agents {
        a.set_input_power(true);
    }

    // Cut the controller away for ticks [120, 240): with the default
    // 30-tick coordination lease, every rack falls standalone around tick
    // 150 and rejoins at the first contact after 240.
    let mesh =
        RpcMeshConfig::with_fault(FaultPlan::partitions_only(vec![Partition::all(120, 240)]));
    let mut backend = ShardedRpcFleetBackend::spawn(agents, &mesh).expect("spawning");
    let host = std::sync::Arc::clone(backend.host(0));
    println!(
        "mesh up: {} server(s), {} racks\n",
        backend.shard_count(),
        host.racks().len()
    );

    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
        Strategy::PriorityAware,
    );

    let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
    let mut last = None;
    for s in 0..300u32 {
        // The step applies the commands the controller batched last tick,
        // so this is the state the agents actually run with at tick `s`.
        backend.step_schedule(Seconds::new(1.0), &[true], &load);

        let coordinated = (0..4u32)
            .filter(|&i| host.is_coordinated(RackId::new(i)))
            .count();
        let (overridden, setpoint) = host.with_agents(|agents| {
            (
                agents
                    .iter()
                    .filter(|a| a.battery().bbu().charger().override_current().is_some())
                    .count(),
                agents[0].battery().setpoint(),
            )
        });
        if last != Some((coordinated, overridden)) {
            println!(
                "tick {s:>3}: {coordinated}/4 coordinated, {overridden}/4 overridden, \
                 rack-0 setpoint {setpoint}"
            );
            last = Some((coordinated, overridden));
        }

        controller.tick(SimTime::from_secs(f64::from(s)), backend.bus_mut());
    }

    println!(
        "\nafter heal: {} commanded currents, partition transparent to the run",
        controller.commanded_currents().len()
    );
}
