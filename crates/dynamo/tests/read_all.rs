//! The `AgentBus::read_all` contract: every bus that overrides the bulk read
//! must return exactly `racks().filter_map(read)`, in that order.

use recharge_battery::{BbuState, ChargePolicy};
use recharge_dynamo::{
    AgentBus, FleetBackend, InMemoryBus, PowerReading, RackAgent, SerialBackend, SimRackAgent,
    SoaBackend,
};
use recharge_units::{Amperes, Priority, RackId, Seconds, Watts};

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

/// A homogeneous fleet (one charge policy, as in every scenario) with ids
/// out of fleet order: the grouping pass keeps fleet order, so each shard's
/// slots are a contiguous run of the fleet.
fn homogeneous(n: u32) -> Vec<SimRackAgent> {
    (0..n)
        .map(|i| {
            SimRackAgent::builder(RackId::new((i * 7) % n), Priority::ALL[(i % 3) as usize])
                .offered_load(Watts::from_kilowatts(5.0 + 0.2 * f64::from(i)))
                .build()
        })
        .collect()
}

/// Every field of a reading as bits, so `-0.0` and `0.0` (or two NaNs)
/// cannot compare equal by accident.
type ReadingBits = (u32, u8, bool, u64, u64, BbuState, u64, u64, u64);

fn bits(readings: &[PowerReading]) -> Vec<ReadingBits> {
    readings
        .iter()
        .map(|r| {
            (
                r.rack.index(),
                r.priority.rank(),
                r.input_power_present,
                r.it_load.as_watts().to_bits(),
                r.recharge_power.as_watts().to_bits(),
                r.bbu_state,
                r.event_dod.value().to_bits(),
                r.dod.value().to_bits(),
                r.capped_power.as_watts().to_bits(),
            )
        })
        .collect()
}

/// The serial oracle and the engines under test, driven in lockstep.
struct Lockstep {
    oracle: SerialBackend,
    engines: Vec<SoaBackend>,
}

impl Lockstep {
    /// Applies `command` to every bus, steps every backend through
    /// `schedule`, then checks every read path of each engine against the
    /// oracle's readings, field by field.
    fn drive(
        &mut self,
        stage: &str,
        dt: f64,
        schedule: &[bool],
        command: impl Fn(&mut dyn AgentBus),
    ) {
        command(self.oracle.bus_mut());
        self.oracle.step_schedule(Seconds::new(dt), schedule, &load);
        let expected = bits(&self.oracle.readings());
        for engine in &mut self.engines {
            command(engine);
            engine.step_schedule(Seconds::new(dt), schedule, &load);
            let name = engine.name();
            let mut bulk = Vec::new();
            engine.read_all(&mut bulk);
            let per_rack: Vec<PowerReading> = AgentBus::racks(engine)
                .into_iter()
                .filter_map(|r| AgentBus::read(engine, r))
                .collect();
            assert_eq!(bits(&bulk), expected, "{stage}: {name} read_all");
            assert_eq!(
                bits(&FleetBackend::readings(engine)),
                expected,
                "{stage}: {name} readings()"
            );
            assert_eq!(bits(&per_rack), expected, "{stage}: {name} per-rack read");
        }
    }
}

/// The readout of homogeneous fleets, bit for bit against the serial
/// oracle, on every SoA kind: through an outage, a recharge with capped,
/// overridden and postponed racks, a long quiet stretch in which event mode
/// puts racks to sleep, and commands that wake them.
#[test]
fn homogeneous_readout_matches_the_serial_oracle_bit_for_bit() {
    const RACKS: u32 = 23;
    let mut fleets = Lockstep {
        oracle: SerialBackend::new(homogeneous(RACKS)),
        engines: vec![
            SoaBackend::new(homogeneous(RACKS)),
            SoaBackend::sharded(homogeneous(RACKS), 2),
            SoaBackend::sharded(homogeneous(RACKS), 4),
            SoaBackend::event(homogeneous(RACKS)),
            SoaBackend::event_sharded(homogeneous(RACKS), 2),
        ],
    };
    assert_eq!(fleets.engines[2].shard_count(), 4);
    fleets.drive("before any step", 1.0, &[], |_| {});
    fleets.drive("outage", 20.0, &[false; 3], |_| {});
    fleets.drive("recharge under commands", 30.0, &[true; 4], |bus| {
        bus.cap_servers(RackId::new(3), Watts::from_kilowatts(4.0));
        bus.cap_servers(RackId::new(11), Watts::from_kilowatts(1.0));
        bus.set_charge_override(RackId::new(5), Amperes::new(1.5));
        bus.set_charge_override(RackId::new(17), Amperes::new(9.0));
        bus.set_charge_postponed(RackId::new(8), true);
    });
    fleets.drive("quiet", 30.0, &[true; 2_000], |_| {});
    for engine in &fleets.engines[3..] {
        assert!(
            engine.substeps_skipped() > 0,
            "{} never slept",
            engine.name()
        );
    }
    // An empty schedule reads the commands' effect before any step:
    // CapServers moves `it_load` at once.
    fleets.drive("commands on sleeping racks", 30.0, &[], |bus| {
        bus.uncap_servers(RackId::new(11));
        bus.cap_servers(RackId::new(20), Watts::from_kilowatts(2.0));
        bus.clear_charge_override(RackId::new(5));
        bus.set_charge_postponed(RackId::new(8), false);
    });
    fleets.drive("after the wake", 30.0, &[true; 3], |_| {});
    fleets.drive("second outage", 10.0, &[true, false, false, true], |_| {});
}
