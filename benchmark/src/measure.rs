//! What a child process measures for one workload.
//!
//! Runs are closed-loop: one at a time, each started when the previous one
//! ended. Every run's `RunMetrics` is compared with the workload's first
//! run; a panic or a difference counts as a failed run.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::driver::{self, Trace};
use crate::report::Outcome;
use crate::stats::{self, median, median_of, percentile};
use crate::workload::Spec;

/// Fewest timed runs, however short `--seconds` is.
const MIN_RUNS: usize = 5;
/// Fewest rounds of an untraced and a traced run, however short
/// `--seconds` is.
const MIN_TRACED: usize = 3;
/// Largest share of the traced wall time the layers may leave unexplained.
const MAX_UNATTRIBUTED: f64 = 0.05;

fn attempt<T>(f: impl FnOnce() -> T) -> Option<T> {
    panic::catch_unwind(AssertUnwindSafe(f)).ok()
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

/// The end-to-end metrics: `run()` timed with tracing off.
pub fn end_to_end(spec: &Spec, seconds: f64, out: &mut Outcome) {
    // The first run warms up and is the reference for every later run.
    let Some(reference) = attempt(|| spec.scenario().build().run()) else {
        out.check(false, "reference run panicked");
        return;
    };
    out.check(true, "reference run");
    if !spec.is_oracle() {
        let oracle = attempt(|| spec.oracle().scenario().build().run());
        out.check(
            oracle.as_ref() == Some(&reference),
            "run differs from the serial oracle",
        );
    }
    // The driver gives this seed's exact rack-step count, and checks itself.
    let traced = attempt(|| driver::run(spec));
    out.check(
        matches!(&traced, Some((m, _)) if *m == reference),
        "driver differs from run()",
    );
    let rack_steps = traced.map_or(f64::NAN, |(_, t)| t.dense_rack_steps() as f64);

    let steal_before = stats::steal_s();
    let mut run_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut waits_us = Vec::new();
    let end = deadline(seconds);
    while run_s.len() < MIN_RUNS || Instant::now() < end {
        let scenario = spec.scenario();
        let wait_before = stats::runq_wait_ns();
        let t0 = Instant::now();
        let sim = scenario.build();
        let t1 = Instant::now();
        let metrics = attempt(|| sim.run());
        let t2 = Instant::now();
        waits_us.push(stats::runq_wait_ns().saturating_sub(wait_before) as f64 / 1e3);
        setup_s.push((t1 - t0).as_secs_f64());
        run_s.push((t2 - t1).as_secs_f64());
        out.check(metrics.as_ref() == Some(&reference), "timed run differs");
    }
    let steal_s = match (steal_before, stats::steal_s()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };

    let run_p25 = percentile(&run_s, 0.25);
    let charged = reference.rack_outcomes.len() as f64;
    out.push("run_s", run_p25, "s");
    out.push("rack_steps_per_s", rack_steps / run_p25, "1/s");
    out.push("setup_s", median(&setup_s), "s");
    out.push(
        "peak_rss_kb",
        stats::peak_rss_kb().unwrap_or(f64::NAN),
        "KiB",
    );
    out.push(
        "sla_met_frac",
        reference.total_sla_met() as f64 / charged,
        "ratio",
    );
    out.push(
        "max_capped_kw",
        reference.max_capped_power.as_kilowatts(),
        "kW",
    );
    out.push(
        "breaker_trips",
        f64::from(u8::from(reference.breaker_tripped)),
        "count",
    );
    out.push("run_s_p50", median(&run_s), "s");
    out.push("run_s_p75", percentile(&run_s, 0.75), "s");
    out.push("runs", run_s.len() as f64, "count");
    out.push("rack_steps", rack_steps, "count");
    out.push("host.nproc", stats::nproc() as f64, "count");
    out.push("host.steal_s", steal_s, "s");
    out.push("host.runq_wait_us_p50", median(&waits_us), "us");
}

/// The per-layer metrics: traced driver runs, alternated with untraced
/// `run()` calls so both see the same host conditions.
pub fn layers(spec: &Spec, seconds: f64, out: &mut Outcome) {
    let Some(reference) = attempt(|| spec.scenario().build().run()) else {
        out.check(false, "reference run panicked");
        return;
    };
    out.check(true, "reference run");
    // Over the mesh, the same scenario in process is the baseline the
    // wire's overhead is measured against.
    let in_process = spec.rpc.is_some().then(|| Spec {
        rpc: None,
        ..spec.clone()
    });

    let mut untraced_s = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    let mut baselines: Vec<Trace> = Vec::new();
    let end = deadline(seconds);
    while untraced_s.len() < MIN_TRACED || Instant::now() < end {
        let sim = spec.scenario().build();
        let t0 = Instant::now();
        let metrics = attempt(|| sim.run());
        untraced_s.push(t0.elapsed().as_secs_f64());
        out.check(metrics.as_ref() == Some(&reference), "untraced run differs");

        let Some((metrics, trace)) = attempt(|| driver::run(spec)) else {
            out.check(false, "traced run panicked");
            continue;
        };
        out.check(metrics == reference, "driver differs from run()");
        if let Some(local) = &in_process {
            let baseline = attempt(|| driver::run(local));
            out.check(
                matches!(&baseline, Some((m, b)) if *m == reference
                    && (b.bus_reads, b.bus_commands) == (trace.bus_reads, trace.bus_commands)),
                "in-process baseline differs from the mesh run",
            );
            baselines.extend(baseline.map(|(_, b)| b));
        }
        traces.push(trace);
    }
    if traces.is_empty() {
        return;
    }

    let med = |f: &dyn Fn(&Trace) -> f64| median_of(&traces, f);
    let per_call_ns = |s: f64, t: &Trace| s / t.load_calls as f64 * 1e9;
    let us = |samples: &[u64], p: f64| {
        let samples: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
        percentile(&samples, p)
    };
    let wall_s = med(&Trace::wall_s);
    let unattributed_s = med(&Trace::unattributed_s);
    out.check(
        unattributed_s <= MAX_UNATTRIBUTED * wall_s,
        "layers leave more than 5% of the traced wall time unattributed",
    );
    let net_overhead_s = if baselines.is_empty() {
        0.0
    } else {
        med(&Trace::bus_layers_s) - median_of(&baselines, Trace::bus_layers_s)
    };

    out.push("dynamo.backend_s", med(&|t| t.backend_s), "s");
    out.push("trace.load_s", med(&|t| t.load_s), "s");
    out.push("trace.load_calls", med(&|t| t.load_calls as f64), "count");
    out.push("trace.load_ns", med(&|t| per_call_ns(t.load_s, t)), "ns");
    out.push("dynamo.step_s", med(&Trace::step_s), "s");
    out.push("dynamo.step_ns", med(&|t| per_call_ns(t.step_s(), t)), "ns");
    out.push(
        "dynamo.active_frac",
        med(&|t| t.load_calls as f64 / t.dense_rack_steps() as f64),
        "ratio",
    );
    out.push("dynamo.readings_s", med(&|t| t.readings_s), "s");
    out.push(
        "dynamo.readings_rows",
        med(&|t| t.readings_rows as f64),
        "count",
    );
    out.push("dynamo.controller_s", med(&|t| t.controller_s), "s");
    out.push(
        "dynamo.controller_us_p50",
        med(&|t| us(&t.controller_ns, 0.5)),
        "us",
    );
    out.push(
        "dynamo.controller_us_p99",
        med(&|t| us(&t.controller_ns, 0.99)),
        "us",
    );
    out.push(
        "dynamo.controller_ticks",
        med(&|t| t.controller_ns.len() as f64),
        "count",
    );
    out.push("dynamo.bus_reads", med(&|t| t.bus_reads as f64), "count");
    out.push(
        "dynamo.bus_commands",
        med(&|t| t.bus_commands as f64),
        "count",
    );
    out.push("dynamo.overrides", med(&|t| t.overrides as f64), "count");
    out.push("dynamo.throttled", med(&|t| t.throttled as f64), "count");
    out.push("dynamo.postponed", med(&|t| t.postponed as f64), "count");
    out.push("power.breaker_s", med(&|t| t.breaker_s), "s");
    out.push("sim.bookkeeping_s", med(&|t| t.bookkeeping_s), "s");
    out.push(
        "sim.interval_us_p50",
        med(&|t| us(&t.interval_ns, 0.5)),
        "us",
    );
    out.push(
        "sim.interval_us_p99",
        med(&|t| us(&t.interval_ns, 0.99)),
        "us",
    );
    out.push("net.overhead_s", net_overhead_s, "s");
    out.push("traced.wall_s", wall_s, "s");
    out.push("traced.unattributed_s", unattributed_s, "s");
    out.push(
        "traced.overhead_frac",
        wall_s / median(&untraced_s) - 1.0,
        "ratio",
    );
    out.push("traced.runs", traces.len() as f64, "count");
}
