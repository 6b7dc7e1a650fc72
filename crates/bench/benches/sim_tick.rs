//! Criterion benches for the control-plane tick over the paper's 316-rack
//! MSB fleet: steady state and mid-charge.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use recharge_dynamo::{Controller, ControllerConfig, InMemoryBus, SimRackAgent, Strategy};
use recharge_units::{DeviceId, Priority, RackId, Seconds, SimTime, Watts};

fn msb_agents() -> Vec<SimRackAgent> {
    let mut agents = Vec::new();
    let mut id = 0u32;
    for (priority, count) in [(Priority::P1, 89), (Priority::P2, 142), (Priority::P3, 85)] {
        for _ in 0..count {
            agents.push(
                SimRackAgent::builder(RackId::new(id), priority)
                    .offered_load(Watts::from_kilowatts(6.33))
                    .build(),
            );
            id += 1;
        }
    }
    agents
}

fn msb_bus() -> InMemoryBus<SimRackAgent> {
    InMemoryBus::new(msb_agents())
}

fn bench_steady_tick(c: &mut Criterion) {
    let mut bus = msb_bus();
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_megawatts(2.5)),
        Strategy::PriorityAware,
    );
    let mut t = SimTime::ZERO;
    c.bench_function("controller_tick_steady_316racks", |b| {
        b.iter(|| {
            t += Seconds::new(1.0);
            black_box(controller.tick(t, &mut bus))
        });
    });
}

fn bench_charging_tick(c: &mut Criterion) {
    let mut bus = msb_bus();
    for a in bus.agents_mut() {
        a.set_input_power(false);
    }
    for a in bus.agents_mut() {
        a.step(Seconds::new(141.0)); // ≈50% DOD
    }
    for a in bus.agents_mut() {
        a.set_input_power(true);
    }
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_megawatts(2.3)),
        Strategy::PriorityAware,
    );
    let mut t = SimTime::ZERO;
    c.bench_function("controller_tick_charging_316racks", |b| {
        b.iter(|| {
            for a in bus.agents_mut() {
                a.step(Seconds::new(1.0));
            }
            t += Seconds::new(1.0);
            black_box(controller.tick(t, &mut bus))
        });
    });
}

fn bench_steady_tick_telemetry(c: &mut Criterion) {
    // bench_steady_tick with telemetry recording enabled: the delta against
    // the plain variant is the live span/counter cost per controller tick.
    // Buffers are drained afterwards so other benches see a clean slate.
    let mut bus = msb_bus();
    let mut controller = Controller::new(
        ControllerConfig::new(DeviceId::new(0), Watts::from_megawatts(2.5)),
        Strategy::PriorityAware,
    );
    let mut t = SimTime::ZERO;
    recharge_telemetry::set_enabled(true);
    c.bench_function("controller_tick_steady_316racks_telemetry", |b| {
        b.iter(|| {
            t += Seconds::new(1.0);
            black_box(controller.tick(t, &mut bus))
        });
    });
    recharge_telemetry::set_enabled(false);
    let _ = recharge_telemetry::take_records();
    recharge_telemetry::reset_metrics();
}

criterion_group!(
    benches,
    bench_steady_tick,
    bench_charging_tick,
    bench_steady_tick_telemetry
);
criterion_main!(benches);
