//! Exporters: a metrics-snapshot JSON document and the Chrome trace-event
//! format (openable directly in Perfetto / `chrome://tracing`).
//!
//! Everything is hand-rolled over `std::fmt::Write` — the vendored `serde`
//! stand-in is derive-only, so the writers here are the workspace's real
//! serializers.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::registry::MetricsSnapshot;
use crate::trace::{dropped_records, take_records, TraceRecord};

/// Environment variable naming the Chrome-trace output path; when set,
/// instrumented runs (e.g. `FleetSimulation::run`) enable telemetry and
/// export their trace there on completion.
pub const TRACE_ENV_VAR: &str = "RECHARGE_TRACE";

/// Escapes a string for embedding in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal point
        // or exponent, so the output re-parses as the same float.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a self-contained JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            let _ = write!(out, "\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            out.push_str("\":");
            number_into(&mut out, *value);
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, &h.name);
            out.push_str("\":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                number_into(&mut out, *b);
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"count\":{},\"sum\":", h.count);
            number_into(&mut out, h.sum);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Rewrites a metric name as a Prometheus-legal identifier: every character
/// outside `[A-Za-z0-9_:]` becomes `_` (so `net.rpc_latency_us.shard003`
/// exposes as `net_rpc_latency_us_shard003`).
fn prometheus_name(out: &mut String, name: &str) {
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format —
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum`/`_count`. This is the payload
    /// the mesh's `ReadHealth` wire op serves.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        for (name, value) in &self.counters {
            out.push_str("# TYPE ");
            prometheus_name(&mut out, name);
            out.push_str(" counter\n");
            prometheus_name(&mut out, name);
            let _ = writeln!(out, " {value}");
        }
        for (name, value) in &self.gauges {
            out.push_str("# TYPE ");
            prometheus_name(&mut out, name);
            out.push_str(" gauge\n");
            prometheus_name(&mut out, name);
            out.push(' ');
            if value.is_finite() {
                let _ = writeln!(out, "{value:?}");
            } else {
                out.push_str("NaN\n");
            }
        }
        for h in &self.histograms {
            out.push_str("# TYPE ");
            prometheus_name(&mut out, &h.name);
            out.push_str(" histogram\n");
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                prometheus_name(&mut out, &h.name);
                let _ = writeln!(out, "_bucket{{le=\"{bound:?}\"}} {cumulative}");
            }
            cumulative += h.counts.last().copied().unwrap_or(0);
            prometheus_name(&mut out, &h.name);
            let _ = writeln!(out, "_bucket{{le=\"+Inf\"}} {cumulative}");
            prometheus_name(&mut out, &h.name);
            let _ = write!(out, "_sum ");
            if h.sum.is_finite() {
                let _ = writeln!(out, "{:?}", h.sum);
            } else {
                out.push_str("NaN\n");
            }
            prometheus_name(&mut out, &h.name);
            let _ = writeln!(out, "_count {}", h.count);
        }
        out
    }
}

/// Renders trace records as a Chrome trace-event JSON document.
///
/// Spans become complete (`ph: "X"`) events; timestamps and durations are
/// microseconds with nanosecond fractions, relative to the process trace
/// epoch.
#[must_use]
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        escape_into(&mut out, r.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, r.cat);
        let ts_us = r.ts_ns as f64 / 1_000.0;
        let dur_us = r.dur_ns as f64 / 1_000.0;
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"pid\":1,\"tid\":{}}}",
            r.tid
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_records\":{}}}}}",
        dropped_records()
    );
    out
}

/// The Chrome-trace output path configured via [`TRACE_ENV_VAR`], if any.
#[must_use]
pub fn env_trace_path() -> Option<PathBuf> {
    std::env::var_os(TRACE_ENV_VAR)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Drains all buffered trace records and writes them as Chrome trace JSON to
/// `path`. Returns the number of events written.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let records = take_records();
    std::fs::write(path, chrome_trace_json(&records))?;
    Ok(records.len())
}

/// If [`TRACE_ENV_VAR`] is set, drains the trace buffers and writes the
/// Chrome trace there (overwriting a previous run's file). Returns the path
/// and event count when a file was written.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn export_env_trace() -> std::io::Result<Option<(PathBuf, usize)>> {
    match env_trace_path() {
        Some(path) => {
            let events = write_chrome_trace(&path)?;
            Ok(Some((path, events)))
        }
        None => Ok(None),
    }
}

/// Nesting depth of live [`env_trace_scope`] guards; only the outermost
/// scope exports, so a harness wrapping many runs gets one combined trace.
static TRACE_SCOPE_DEPTH: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A drop guard that exports the env-configured Chrome trace when the
/// *outermost* scope ends — including on unwind, so a panicking or aborted
/// run still flushes its partial per-thread span buffers into a valid JSON
/// trace file instead of losing them.
#[must_use = "the guard exports on drop; binding it to _ drops it immediately"]
pub struct EnvTraceGuard {
    active: bool,
}

impl Drop for EnvTraceGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        if TRACE_SCOPE_DEPTH.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
            let _ = export_env_trace();
        }
    }
}

/// Enters an env-trace scope: if [`TRACE_ENV_VAR`] is set, enables telemetry
/// and returns a guard that writes the Chrome trace when the outermost scope
/// drops (normally or by unwind). Inert when the variable is unset.
///
/// Every entry point that can own a traced run — `FleetSimulation::run`, the
/// Monte-Carlo trial runners, soak harnesses — takes one of these; nesting
/// is free because only the outermost guard exports.
pub fn env_trace_scope() -> EnvTraceGuard {
    if env_trace_path().is_none() {
        return EnvTraceGuard { active: false };
    }
    crate::set_enabled(true);
    TRACE_SCOPE_DEPTH.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    EnvTraceGuard { active: true }
}
