//! Hand-rolled observability for the `recharge` workspace: a global metrics
//! registry for aggregates, a flight recorder for single events, lightweight
//! span tracing, and exporters for a metrics snapshot (JSON) and the Chrome
//! trace-event format.
//!
//! The build environment is offline, so — like the `vendor/` stand-ins —
//! this crate is dependency-free (std only). It is designed to stay
//! compiled-in everywhere:
//!
//! * **Disabled by default.** Every record path starts with one relaxed
//!   atomic load of the global `enabled` flag; when off, counters, gauges,
//!   histograms and spans all return immediately, so the hot loops
//!   pay well under 2% (`bench_report`'s `telemetry_overhead` gate).
//! * **Atomic fast path when on.** Metric handles are `Arc`s over atomics;
//!   span records go into per-thread buffers behind uncontended mutexes and
//!   are only merged when [`take_records`] drains them at export time.
//! * **Instrumentation cannot change results.** Nothing here feeds back into
//!   simulation state; the sim test-suite pins `RunMetrics` bit-identical
//!   with telemetry enabled vs disabled.
//!
//! # Quick tour
//!
//! ```
//! use recharge_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::tspan!("work.phase", "demo");
//!     telemetry::tcounter!("work.items").add(3);
//! }
//! let records = telemetry::take_records();
//! assert!(records.iter().any(|r| r.name == "work.phase"));
//! let json = telemetry::chrome_trace_json(&records);
//! assert!(telemetry::json::parse(&json).is_ok());
//! telemetry::set_enabled(false);
//! ```
//!
//! Setting `RECHARGE_TRACE=<path>` makes instrumented runs (the fleet
//! simulator, the `trace_demo` example) enable telemetry and write their
//! Chrome trace to `<path>` on completion; open it at <https://ui.perfetto.dev>.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod export;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use export::{
    chrome_trace_json, env_trace_path, env_trace_scope, export_env_trace, write_chrome_trace,
    EnvTraceGuard, TRACE_ENV_VAR,
};
pub use recorder::{
    blackbox_json, env_blackbox_path, flight, flight_at, install_panic_blackbox_hook,
    overwritten_events, parse_blackbox, recorder_enabled, reset_blackbox_trigger, set_flight_now,
    set_recorder_enabled, snapshot_flight_events, take_flight_events, trigger_blackbox,
    write_blackbox, BlackboxDump, FlightEvent, FlightKind, ReasonCode, BLACKBOX_ENV_VAR, NO_BUCKET,
    NO_RACK, RING_CAPACITY,
};
pub use registry::{
    counter, gauge, histogram, histogram_named, reset_metrics, snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use trace::{
    dropped_records, now_ns, span, take_records, SpanGuard, TraceRecord, MAX_RECORDS_PER_THREAD,
};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry recording on or off globally (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether telemetry recording is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a span recorded on guard drop: `tspan!("name")` or
/// `tspan!("name", "category")`. Bind the result (`let _span = ...`) — an
/// unbound guard drops immediately and measures nothing.
#[macro_export]
macro_rules! tspan {
    ($name:expr) => {
        $crate::span($name, "app")
    };
    ($name:expr, $cat:expr) => {
        $crate::span($name, $cat)
    };
}

/// A process-wide cached [`Counter`] handle: registry lookup happens once
/// per call site, increments are lock-free afterwards.
#[macro_export]
macro_rules! tcounter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// A process-wide cached [`Gauge`] handle (see [`tcounter!`]).
#[macro_export]
macro_rules! tgauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// A process-wide cached [`Histogram`] handle (see [`tcounter!`]); the
/// bucket bounds of the first registration win.
#[macro_export]
macro_rules! thistogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::histogram($name, $bounds))
    }};
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that flip the global `enabled` flag or drain the
    /// global trace buffers, so they cannot race within this test binary.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn guard() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = test_support::guard();
        set_enabled(false);
        let _ = take_records();
        reset_metrics();

        let c = counter("test.disabled.counter");
        let ga = gauge("test.disabled.gauge");
        let h = histogram("test.disabled.hist", &[1.0, 2.0]);
        {
            let _span = tspan!("test.disabled.span");
            c.inc();
            ga.set(42.0);
            h.record(1.5);
        }
        assert_eq!(c.value(), 0);
        assert_eq!(ga.value(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(take_records().is_empty());
    }

    #[test]
    fn span_enabled_at_creation_governs_recording() {
        let _g = test_support::guard();
        set_enabled(false);
        let _ = take_records();

        // Disabled at creation → inert even if enabled before drop.
        let span = tspan!("test.flip.span");
        set_enabled(true);
        drop(span);
        assert!(take_records().iter().all(|r| r.name != "test.flip.span"));
        set_enabled(false);
    }

    #[test]
    fn histogram_bounds_are_validated_and_saturating() {
        let _g = test_support::guard();
        set_enabled(true);
        let h = histogram("test.hist.sat", &[1.0, 10.0, 100.0]);
        // Bounds monotone by construction; recording anything is panic-free.
        for v in [-5.0, 0.5, 1.0, 9.9, 55.0, 1e18, f64::INFINITY, f64::NAN] {
            h.record(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts, vec![3, 1, 1, 3]); // NaN and inf saturate into overflow.
        assert_eq!(h.count(), 8);
        assert!(h.sum().is_finite());
        set_enabled(false);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_non_monotone_bounds() {
        let _ = histogram("test.hist.bad", &[1.0, 1.0]);
    }

    #[test]
    fn chrome_trace_round_trips_as_valid_json() {
        let _g = test_support::guard();
        set_enabled(true);
        let _ = take_records();
        {
            let _outer = tspan!("test.json.outer", "cat\"with\\escapes");
            let _inner = tspan!("test.json.inner");
        }
        let records = take_records();
        set_enabled(false);
        assert!(records.len() >= 2);

        let doc = chrome_trace_json(&records);
        let parsed = json::parse(&doc).expect("exporter must emit valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), records.len());
        for e in events {
            let ts = e.get("ts").and_then(json::Json::as_num).expect("ts");
            assert!(ts >= 0.0, "negative ts {ts}");
            if e.get("ph").and_then(json::Json::as_str) == Some("X") {
                let dur = e.get("dur").and_then(json::Json::as_num).expect("dur");
                assert!(dur >= 0.0, "negative dur {dur}");
            }
        }
    }

    #[test]
    fn metrics_snapshot_round_trips_as_valid_json() {
        let _g = test_support::guard();
        set_enabled(true);
        reset_metrics();
        counter("test.snap.count").add(12);
        gauge("test.snap.gauge").set(0.75);
        histogram("test.snap.hist", &[1.0, 2.0]).record(1.5);
        let snap = snapshot();
        set_enabled(false);

        let parsed = json::parse(&snap.to_json()).expect("snapshot JSON");
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("test.snap.count")
                .unwrap()
                .as_num(),
            Some(12.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("test.snap.gauge")
                .unwrap()
                .as_num(),
            Some(0.75)
        );
        let hist = parsed
            .get("histograms")
            .unwrap()
            .get("test.snap.hist")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let a = counter("test.same.counter");
        let b = counter("test.same.counter");
        set_enabled(true);
        a.inc();
        set_enabled(false);
        assert_eq!(b.value(), a.value());
    }
}
