//! The `AgentBus::read_all` contract: every bus that overrides the bulk read
//! must return exactly `racks().filter_map(read)`, in that order.

use recharge_battery::ChargePolicy;
use recharge_dynamo::{
    AgentBus, FleetBackend, InMemoryBus, PowerReading, RackAgent, SimRackAgent, SoaBackend,
};
use recharge_units::{Priority, RackId, Seconds, Watts};

/// A mixed fleet with ids out of fleet order: two charge policies
/// interleaved, so the SoA grouping pass puts racks into shard slots in an
/// order that differs from the fleet's.
fn fleet(n: u32) -> Vec<SimRackAgent> {
    (0..n)
        .map(|i| {
            let id = (i * 5) % n;
            let mut builder =
                SimRackAgent::builder(RackId::new(id), Priority::ALL[(i % 3) as usize])
                    .offered_load(Watts::from_kilowatts(5.0 + 0.2 * f64::from(i)));
            if i % 2 == 0 {
                builder = builder.charge_policy(ChargePolicy::Original);
            }
            builder.build()
        })
        .collect()
}

fn load(rack: RackId, i: usize) -> Watts {
    Watts::from_kilowatts(5.0 + 0.3 * f64::from(rack.index()) + 0.01 * i as f64)
}

/// Asserts the contract on `bus` and returns the bulk readings.
fn assert_contract(bus: &dyn AgentBus) -> Vec<PowerReading> {
    let expected: Vec<PowerReading> = bus
        .racks()
        .into_iter()
        .filter_map(|r| bus.read(r))
        .collect();
    let mut bulk = Vec::new();
    bus.read_all(&mut bulk);
    assert_eq!(
        bulk, expected,
        "read_all diverged from racks().filter_map(read)"
    );
    // It appends: earlier contents survive.
    let mut appended = bulk[..1].to_vec();
    bus.read_all(&mut appended);
    assert_eq!(appended[1..], expected[..]);
    bulk
}

#[test]
fn in_memory_bus_skips_disconnected_racks() {
    let mut bus = InMemoryBus::new(fleet(9));
    for a in bus.agents_mut() {
        a.set_input_power(false);
        a.step(Seconds::new(40.0));
        a.set_input_power(true);
        a.step(Seconds::new(1.0));
    }
    assert_eq!(assert_contract(&bus).len(), 9);
    bus.disconnect(RackId::new(0));
    bus.disconnect(RackId::new(7));
    let readings = assert_contract(&bus);
    assert_eq!(readings.len(), 7);
    assert!(readings
        .iter()
        .all(|r| r.rack != RackId::new(0) && r.rack != RackId::new(7)));
}

#[test]
fn heterogeneous_soa_reads_in_fleet_order() {
    let mut soa = SoaBackend::new(fleet(9));
    assert!(soa.shard_count() >= 2, "the fleet must split into groups");
    let racks: Vec<RackId> = fleet(9).iter().map(RackAgent::rack).collect();
    assert_eq!(AgentBus::racks(&soa), racks);
    soa.step_schedule(Seconds::new(30.0), &[false, true, true], &load);
    let readings = assert_contract(&soa);
    assert_eq!(readings, FleetBackend::readings(&soa));
    assert_eq!(readings.iter().map(|r| r.rack).collect::<Vec<_>>(), racks);
}

/// Runs an event-mode engine until every rack sleeps, then wakes one with a
/// command, checking the contract at each stage.
fn check_event_backend(backend: &mut SoaBackend) {
    let quiet = [&[false][..], &[true; 2_000][..]].concat();
    backend.step_schedule(Seconds::new(30.0), &quiet, &load);
    let before = backend.substeps_executed();
    backend.step_schedule(Seconds::new(30.0), &[true; 5], &load);
    assert_eq!(
        backend.substeps_executed(),
        before,
        "every rack should be asleep"
    );
    assert_contract(backend);

    // Rack 4 wakes; the rest keep sleeping.
    backend.set_charge_postponed(RackId::new(4), true);
    backend.step_schedule(Seconds::new(30.0), &[true; 3], &load);
    assert!(
        backend.substeps_executed() > before,
        "the command must wake its rack"
    );
    let readings = assert_contract(backend);
    assert_eq!(readings, FleetBackend::readings(backend));
}

#[test]
fn event_backend_reads_sleeping_racks() {
    check_event_backend(&mut SoaBackend::event(fleet(9)));
}

#[test]
fn sharded_event_backend_reads_sleeping_racks() {
    for shards in [1, 2, 4] {
        check_event_backend(&mut SoaBackend::event_sharded(fleet(9), shards));
    }
}
