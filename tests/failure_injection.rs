//! Failure-injection tests: what happens when the mitigation layers are
//! absent, degraded, or stressed by compound events.

use recharge::battery::{BbuState, ChargePolicy};
use recharge::dynamo::{
    AgentBus, Controller, ControllerConfig, FleetBackend, InMemoryBus, RackAgent, SimRackAgent,
    Strategy,
};
use recharge::net::{FaultPlan, Partition, RpcMeshConfig, ShardedRpcFleetBackend};
use recharge::prelude::*;
use recharge::sim::{DischargeLevel, Scenario};

fn small_bus(n: usize) -> InMemoryBus<SimRackAgent> {
    let agents = (0..n as u32)
        .map(|i| {
            SimRackAgent::builder(RackId::new(i), Priority::ALL[(i % 3) as usize])
                .offered_load(Watts::from_kilowatts(6.0))
                .build()
        })
        .collect();
    InMemoryBus::new(agents)
}

fn open_transition(bus: &mut InMemoryBus<SimRackAgent>, secs: f64) {
    for a in bus.agents_mut() {
        a.set_input_power(false);
    }
    for a in bus.agents_mut() {
        a.step(Seconds::new(secs));
    }
    for a in bus.agents_mut() {
        a.set_input_power(true);
    }
}

#[test]
fn unmitigated_recharge_spike_trips_the_breaker() {
    // No Dynamo at all: the original charger's spike exceeds 130% of a tight
    // limit for more than 30 s and the breaker opens — the §I failure mode.
    let probe = Scenario::row(2, 2, 2, 3).build().run();
    let tight = probe.it_load_before_ot.as_kilowatts() * 0.85;
    let metrics = Scenario::row(2, 2, 2, 3)
        .power_limit(Watts::from_kilowatts(tight))
        .charge_policy(ChargePolicy::Original)
        .strategy(Strategy::Uncoordinated)
        .discharge(DischargeLevel::Medium)
        .build()
        .without_mitigation()
        .run();
    assert!(
        metrics.breaker_tripped,
        "max draw was {}",
        metrics.max_total_draw
    );
}

#[test]
fn mitigated_run_never_trips_even_when_capping() {
    let probe = Scenario::row(2, 2, 2, 3).build().run();
    let tight = probe.it_load_before_ot.as_kilowatts() * 0.9;
    let metrics = Scenario::row(2, 2, 2, 3)
        .power_limit(Watts::from_kilowatts(tight))
        .charge_policy(ChargePolicy::Original)
        .strategy(Strategy::Uncoordinated)
        .discharge(DischargeLevel::Medium)
        .build()
        .run();
    assert!(!metrics.breaker_tripped);
    assert!(
        metrics.max_capped_power > Watts::ZERO,
        "Dynamo should have capped"
    );
}

#[test]
fn controller_survives_unreachable_agents() {
    let mut bus = small_bus(6);
    bus.disconnect(RackId::new(2));
    bus.disconnect(RackId::new(5));
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
        Strategy::PriorityAware,
    );
    open_transition(&mut bus, 60.0);
    for s in 0..1_800 {
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
        controller.tick(SimTime::from_secs(f64::from(s)), &mut bus);
    }
    // Reachable racks were coordinated and finish; unreachable ones still
    // charge on their local automatic policy.
    for a in bus.agents() {
        assert!(
            matches!(
                a.battery().state(),
                BbuState::FullyCharged | BbuState::Charging
            ),
            "rack {} in state {:?}",
            a.rack(),
            a.battery().state()
        );
    }
}

#[test]
fn second_transition_mid_charge_restarts_coordination() {
    let mut bus = small_bus(4);
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
        Strategy::PriorityAware,
    );
    open_transition(&mut bus, 45.0);
    for s in 0..120 {
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
        controller.tick(SimTime::from_secs(f64::from(s)), &mut bus);
    }
    let dod_after_first: Vec<f64> = bus
        .agents()
        .map(|a| a.battery().event_dod().value())
        .collect();

    // A second, deeper transition before charging completes.
    open_transition(&mut bus, 90.0);
    for s in 120..240 {
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
        controller.tick(SimTime::from_secs(f64::from(s)), &mut bus);
    }
    for (agent, before) in bus.agents().zip(dod_after_first) {
        assert!(
            agent.battery().event_dod().value() > before,
            "second event must re-latch a deeper DOD"
        );
        assert_eq!(agent.battery().state(), BbuState::Charging);
    }
    // The controller issued fresh overrides for the new, deeper event.
    assert_eq!(controller.commanded_currents().len(), 4);
}

#[test]
fn override_during_cv_phase_is_safe() {
    // Throttling a rack that has already tapered into CV must not disturb
    // termination.
    let mut agent = SimRackAgent::builder(RackId::new(0), Priority::P3)
        .offered_load(Watts::from_kilowatts(6.0))
        .build();
    agent.set_input_power(false);
    agent.step(Seconds::new(30.0));
    agent.set_input_power(true);
    // Charge until the wall power confirms the CV taper has begun.
    let mut guard = 0;
    loop {
        agent.step(Seconds::new(1.0));
        let reading = agent.read();
        if !reading.is_charging() || reading.recharge_power < Watts::new(500.0) {
            break;
        }
        guard += 1;
        assert!(guard < 7_200, "never reached CV");
    }
    agent.set_charge_override(Amperes::MIN_CHARGE);
    let mut remaining = 0;
    while agent.read().is_charging() {
        agent.step(Seconds::new(1.0));
        remaining += 1;
        assert!(
            remaining < 7_200,
            "charge did not terminate after CV override"
        );
    }
    assert_eq!(agent.battery().state(), BbuState::FullyCharged);
}

#[test]
fn controller_partition_during_recharge_falls_back_then_rejoins() {
    // Agents ride out a 60 s open transition before the mesh comes up, so
    // the partition hits them mid-recharge.
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

    // Total controller loss for ticks [120, 240): every rack's coordination
    // lease (30 ticks) expires mid-recharge.
    let mesh =
        RpcMeshConfig::with_fault(FaultPlan::partitions_only(vec![Partition::all(120, 240)]));
    let mut backend = ShardedRpcFleetBackend::spawn(agents, &mesh).expect("spawning");
    assert_eq!(backend.shard_count(), 1);
    let host = std::sync::Arc::clone(backend.host(0));
    let racks: Vec<RackId> = (0..4).map(RackId::new).collect();
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
        Strategy::PriorityAware,
    );

    let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
    for s in 0..420u32 {
        backend.step_schedule(Seconds::new(1.0), &[true], &load);
        controller.tick(SimTime::from_secs(f64::from(s)), backend.bus_mut());

        if s == 100 {
            // Before the partition: fully coordinated, every rack under an
            // explicit override.
            assert_eq!(controller.commanded_currents().len(), 4);
            for &rack in &racks {
                assert!(host.is_coordinated(rack), "{rack} not joined");
            }
            host.with_agents(|agents| {
                for a in agents {
                    assert!(a.battery().bbu().charger().override_current().is_some());
                }
            });
        }
        if s == 200 {
            // Deep in the partition, past lease expiry: every rack fell back
            // to standalone and charges on its local automatic policy — the
            // same current the uncoordinated variable charger would pick.
            for &rack in &racks {
                assert!(
                    !host.is_coordinated(rack),
                    "{rack} still coordinated mid-partition"
                );
            }
            host.with_agents(|agents| {
                for a in agents {
                    let battery = a.battery();
                    assert!(a.battery().bbu().charger().override_current().is_none());
                    assert!(!battery.is_postponed());
                    assert_eq!(battery.state(), BbuState::Charging);
                    assert_eq!(
                        battery.setpoint(),
                        ChargePolicy::Variable.automatic_current(battery.event_dod()),
                        "standalone rack must run its local automatic policy"
                    );
                }
            });
        }
    }

    // Healed: every rack rejoined, was re-overridden, and none is left
    // postponed or stuck.
    assert_eq!(controller.commanded_currents().len(), 4);
    for &rack in &racks {
        assert!(host.is_coordinated(rack), "{rack} never rejoined");
    }
    host.with_agents(|agents| {
        for a in agents {
            assert!(
                !a.battery().is_postponed(),
                "rack left postponed after heal"
            );
            assert!(matches!(
                a.battery().state(),
                BbuState::Charging | BbuState::FullyCharged
            ));
            if a.battery().state() == BbuState::Charging {
                assert!(
                    a.battery().bbu().charger().override_current().is_some(),
                    "controller must re-issue overrides after the heal"
                );
            }
        }
    });
}

#[test]
fn single_shard_partition_degrades_only_that_shard() {
    // Same shape as the whole-mesh partition test, but over a two-shard
    // mesh (racks [0,1] on shard 0, [2,3] on shard 1) with the partition
    // scoped to shard 0's racks: only that shard's leases may expire; shard
    // 1 must keep its overrides through the whole window.
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

    let shard0_racks: Vec<RackId> = (0..2).map(RackId::new).collect();
    let mesh =
        RpcMeshConfig::shard_count(2).faulted(FaultPlan::partitions_only(vec![Partition::racks(
            120,
            240,
            shard0_racks.clone(),
        )]));
    let mut backend = ShardedRpcFleetBackend::spawn(agents, &mesh).expect("spawning");
    let shard1_racks: Vec<RackId> = (2..4).map(RackId::new).collect();
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(190.0)),
        Strategy::PriorityAware,
    );

    let overridden = |backend: &ShardedRpcFleetBackend, rack: RackId| {
        backend
            .with_agent(rack, |a| {
                a.battery().bbu().charger().override_current().is_some()
            })
            .expect("rack hosted")
    };

    let load = |_: RackId, _: usize| Watts::from_kilowatts(6.0);
    for s in 0..420u32 {
        backend.step_schedule(Seconds::new(1.0), &[true], &load);
        controller.tick(SimTime::from_secs(f64::from(s)), backend.bus_mut());

        if s == 100 {
            // Before the partition: both shards fully coordinated.
            assert_eq!(controller.commanded_currents().len(), 4);
            for i in 0..4 {
                let rack = RackId::new(i);
                assert!(backend.is_coordinated(rack), "{rack} not joined");
                assert!(overridden(&backend, rack), "{rack} missing override");
            }
        }
        if s == 200 {
            // Deep in the window, past lease expiry: shard 0 fell back to
            // standalone variable charging...
            for &rack in &shard0_racks {
                assert!(
                    !backend.is_coordinated(rack),
                    "{rack} still coordinated mid-partition"
                );
                backend
                    .with_agent(rack, |a| {
                        let battery = a.battery();
                        assert!(battery.bbu().charger().override_current().is_none());
                        assert!(!battery.is_postponed());
                        assert_eq!(battery.state(), BbuState::Charging);
                        assert_eq!(
                            battery.setpoint(),
                            ChargePolicy::Variable.automatic_current(battery.event_dod()),
                            "standalone rack must run its local automatic policy"
                        );
                    })
                    .expect("rack hosted");
            }
            // ...while shard 1 never missed an override.
            for &rack in &shard1_racks {
                assert!(
                    backend.is_coordinated(rack),
                    "{rack} lost coordination though its shard was healthy"
                );
                assert!(overridden(&backend, rack), "{rack} dropped its override");
            }
        }
        if (120..300).contains(&s) {
            // Throughout the partition *and* the rejoin transient, the
            // healthy shard's racks stay coordinated.
            for &rack in &shard1_racks {
                assert!(backend.is_coordinated(rack), "{rack} flapped at t={s}");
            }
        }
    }

    // Healed: shard 0 rejoined and was re-overridden; nothing left postponed.
    assert_eq!(controller.commanded_currents().len(), 4);
    for i in 0..4 {
        let rack = RackId::new(i);
        assert!(backend.is_coordinated(rack), "{rack} never rejoined");
        backend
            .with_agent(rack, |a| {
                assert!(!a.battery().is_postponed());
                assert!(matches!(
                    a.battery().state(),
                    BbuState::Charging | BbuState::FullyCharged
                ));
                if a.battery().state() == BbuState::Charging {
                    assert!(
                        a.battery().bbu().charger().override_current().is_some(),
                        "controller must re-issue overrides after the heal"
                    );
                }
            })
            .expect("rack hosted");
    }
}

#[test]
fn agent_flap_leaves_no_rack_postponed() {
    // A limit tight enough that the postponing extension engages — 6 racks ×
    // 6 kW IT leaves 2 kW of charging headroom, below the ~2.25 kW the fleet
    // draws even at the 1 A hardware floor — yet loose enough that headroom
    // reappears as chargers taper, so parked racks can legitimately resume.
    let mut bus = small_bus(6);
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_kilowatts(38.0)).with_postponing(),
        Strategy::PriorityAware,
    );
    open_transition(&mut bus, 90.0);

    let mut any_postponed = false;
    let mut done_at = None;
    for s in 0..20_000u32 {
        for a in bus.agents_mut() {
            a.step(Seconds::new(1.0));
        }
        controller.tick(SimTime::from_secs(f64::from(s)), &mut bus);
        any_postponed |= !controller.postponed_racks().is_empty();

        // Two flap cycles, the first one long. Racks 2 and 5 are the P3
        // (lowest-priority) racks the deficit postpones, so at least one
        // flaps *while postponed* — exactly the state nobody can clear on
        // the agent while it is unreachable.
        match s {
            120 => {
                bus.disconnect(RackId::new(2));
                bus.disconnect(RackId::new(5));
            }
            300 => bus.reconnect(RackId::new(2)),
            360 => bus.disconnect(RackId::new(2)),
            420 => {
                bus.reconnect(RackId::new(2));
                bus.reconnect(RackId::new(5));
            }
            _ => {}
        }

        if s > 420
            && bus
                .agents()
                .all(|a| a.battery().state() == BbuState::FullyCharged)
        {
            done_at = Some(s);
            break;
        }
    }

    assert!(
        any_postponed,
        "the tight limit should have postponed at least one rack"
    );
    let done_at = done_at.expect("fleet never finished charging");
    assert!(controller.postponed_racks().is_empty());
    for a in bus.agents() {
        assert!(
            !a.battery().is_postponed(),
            "rack {} left postponed after the flaps healed (t={done_at})",
            a.rack()
        );
    }
}

#[test]
fn cap_then_uncap_round_trip_preserves_offered_load() {
    let mut bus = small_bus(3);
    bus.cap_servers(RackId::new(0), Watts::from_kilowatts(3.0));
    assert_eq!(
        bus.read(RackId::new(0)).unwrap().it_load,
        Watts::from_kilowatts(3.0)
    );
    bus.uncap_servers(RackId::new(0));
    assert_eq!(
        bus.read(RackId::new(0)).unwrap().it_load,
        Watts::from_kilowatts(6.0)
    );
    assert_eq!(bus.read(RackId::new(0)).unwrap().capped_power, Watts::ZERO);
}
