//! End-to-end telemetry demo: runs a small sharded scenario with tracing
//! enabled, then parses the Chrome-trace file it produced and prints a span
//! summary plus the metrics snapshot.
//!
//! ```text
//! RECHARGE_TRACE=trace.json cargo run --release --example trace_demo
//! ```
//!
//! When `RECHARGE_TRACE` is unset the demo defaults it to
//! `trace_demo.json` in the current directory. Open the file in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see controller-tick
//! phases, sim ticks, and shard steps on their worker threads.

use std::collections::BTreeMap;

use recharge::dynamo::Strategy;
use recharge::sim::{DischargeLevel, Scenario};
use recharge::telemetry;
use recharge::units::{Seconds, Watts};

fn main() {
    let trace_path = match telemetry::export::env_trace_path() {
        Some(path) => path,
        None => {
            let default = std::path::PathBuf::from("trace_demo.json");
            std::env::set_var(telemetry::export::TRACE_ENV_VAR, &default);
            default
        }
    };

    // A small but fully featured run: the event engine on two shard workers
    // (so the workers' shard.step spans appear) under the priority-aware
    // controller.
    // FleetSimulation::run sees RECHARGE_TRACE, enables telemetry, and writes
    // the Chrome trace on completion.
    let metrics = Scenario::row(3, 2, 2, 7)
        .power_limit(Watts::from_kilowatts(190.0))
        .strategy(Strategy::PriorityAware)
        .discharge(DischargeLevel::Low)
        .tick(Seconds::new(1.0))
        .max_horizon(Seconds::from_hours(2.5))
        .event_sharded(2)
        .build()
        .run();

    println!(
        "run: {} racks charged, {} met SLA, peak draw {:.1} kW (limit {:.1} kW), tripped: {}",
        metrics.rack_outcomes.len(),
        metrics.total_sla_met(),
        metrics.max_total_draw.as_kilowatts(),
        metrics.power_limit.as_kilowatts(),
        metrics.breaker_tripped,
    );

    // Round-trip the exported trace through the bundled JSON parser and
    // aggregate complete ("X") events by span name.
    let raw = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", trace_path.display()));
    let doc = telemetry::json::parse(&raw).expect("trace file must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("trace must contain a traceEvents array");
    assert!(!events.is_empty(), "trace contains no events");

    let mut by_name: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for event in events {
        let ph = event.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        if ph != "X" {
            continue;
        }
        let name = event
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("?")
            .to_owned();
        let dur_us = event.get("dur").and_then(|d| d.as_num()).unwrap_or(0.0);
        assert!(dur_us >= 0.0, "negative span duration in trace");
        let entry = by_name.entry(name).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += dur_us;
    }

    println!(
        "\ntrace: {} events in {} ({} distinct spans)",
        events.len(),
        trace_path.display(),
        by_name.len()
    );
    let mut rows: Vec<(&String, &(u64, f64))> = by_name.iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    println!(
        "{:<24} {:>8} {:>12} {:>10}",
        "span", "count", "total ms", "mean µs"
    );
    for (name, &(count, total_us)) in rows {
        println!(
            "{name:<24} {count:>8} {:>12.3} {:>10.2}",
            total_us / 1e3,
            total_us / count.max(1) as f64
        );
    }

    println!("\nmetrics snapshot:\n{}", telemetry::snapshot().to_json());
}
