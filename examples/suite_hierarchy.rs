//! Suite-scale hierarchy: leaf controllers per RPP and upper monitors per
//! SB/MSB, driving the struct-of-arrays fleet engine — the deployed two-level
//! shape of §IV-C, with a constraint injected at SB level where only an upper
//! monitor can see it.
//!
//! ```text
//! cargo run --release --example suite_hierarchy
//! ```

use recharge::dynamo::{FleetBackend, HierarchicalControl, SimRackAgent, SoaBackend, Strategy};
use recharge::power::facebook;
use recharge::prelude::*;

fn main() {
    // A small MSB: 56 racks in rows of 4 across four SBs.
    let plan = facebook::single_msb_with_row_size(56, 4);
    let agents: Vec<SimRackAgent> = plan
        .racks
        .iter()
        .map(|&rack| {
            SimRackAgent::builder(rack, Priority::ALL[(rack.index() % 3) as usize])
                .offered_load(Watts::from_kilowatts(6.2))
                .build()
        })
        .collect();

    // Agents live in the engine's contiguous per-rack arrays.
    let mut fleet = SoaBackend::new(agents);
    let mut control = HierarchicalControl::from_topology(&plan.topology, Strategy::PriorityAware);
    println!(
        "control tree: {} leaf controllers (RPPs), {} upper monitors (SBs + MSB)",
        control.leaf_count(),
        control.upper_count()
    );

    let load = |_: RackId, _: usize| Watts::from_kilowatts(6.2);
    // A 90-second open transition over the whole MSB.
    fleet.step_schedule(Seconds::new(90.0), &[false], &load);
    fleet.step_schedule(Seconds::new(1.0), &[true], &load);

    let mut total_capped = Watts::ZERO;
    for s in 0..3_600u32 {
        total_capped += control.tick(SimTime::from_secs(f64::from(s)), &mut fleet);
        fleet.step_schedule(Seconds::new(1.0), &[true], &load);
        let readings = fleet.readings();
        if s % 600 == 0 {
            let recharge: Watts = readings.iter().map(|r| r.recharge_power).sum();
            println!(
                "t+{:>2} min  fleet recharge power {:>7.1} kW",
                s / 60,
                recharge.as_kilowatts()
            );
        }
        let all_done = readings.iter().all(|reading| !reading.is_charging());
        if all_done && s > 10 {
            println!(
                "all batteries recharged after {:.0} min",
                f64::from(s) / 60.0
            );
            // One more interval so the controllers observe the completions
            // and clear their overrides.
            control.tick(SimTime::from_secs(f64::from(s) + 1.0), &mut fleet);
            break;
        }
    }
    println!(
        "server power capped along the way: {:.1} kW",
        total_capped.as_kilowatts()
    );

    let commanded = control.commanded_currents();
    println!(
        "racks still under coordination at exit: {}",
        commanded.len()
    );
}
