//! Span tracing: RAII guards recording monotonic start/duration plus a small
//! thread id into per-thread buffers, drained at export time. Single events
//! belong to the flight recorder ([`crate::recorder`]), aggregates to the
//! registry ([`crate::registry`]).
//!
//! The record path takes one uncontended per-thread mutex; nothing global is
//! touched until [`take_records`] drains the buffers. While telemetry is
//! disabled, creating a span is a single relaxed atomic load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::enabled;

/// Hard cap on records buffered per thread; one record is 56 bytes, so the
/// cap bounds a runaway trace at a few hundred MB fleet-wide. Records beyond
/// it are counted in [`dropped_records`] instead of growing the buffer.
pub const MAX_RECORDS_PER_THREAD: usize = 1 << 22;

/// One buffered span (a Chrome `ph: "X"` complete event).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Span name.
    pub name: &'static str,
    /// Category (Chrome trace `cat`).
    pub cat: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

type Buffer = Arc<Mutex<Vec<TraceRecord>>>;

static SINKS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: (u64, Buffer) = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        SINKS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&buffer));
        (NEXT_TID.fetch_add(1, Ordering::Relaxed), buffer)
    };
}

/// Nanoseconds since the (lazily initialized) process trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn push(record: TraceRecord) {
    LOCAL.with(|(tid, buffer)| {
        let mut buf = buffer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if buf.len() < MAX_RECORDS_PER_THREAD {
            let mut record = record;
            record.tid = *tid;
            buf.push(record);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Records buffered-then-dropped because a thread hit
/// [`MAX_RECORDS_PER_THREAD`].
#[must_use]
pub fn dropped_records() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// An RAII span: created by [`span`] (or the [`tspan!`](crate::tspan) macro),
/// it records one [`TraceRecord`] covering its lifetime when dropped.
///
/// Spans created while telemetry is disabled are inert and record nothing,
/// even if telemetry is enabled before the guard drops.
#[must_use = "a span guard measures until it is dropped; binding it to _ drops it immediately"]
pub struct SpanGuard {
    inner: Option<(&'static str, &'static str, u64, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, cat, ts_ns, start)) = self.inner.take() {
            push(TraceRecord {
                name,
                cat,
                ts_ns,
                dur_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                tid: 0,
            });
        }
    }
}

/// Starts a span; the returned guard records it on drop.
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    SpanGuard {
        inner: Some((name, cat, now_ns(), Instant::now())),
    }
}

/// Drains every thread's buffer and returns all records sorted by start time.
///
/// Spans still open (guards not yet dropped) are not included; they land in
/// the next drain.
#[must_use]
pub fn take_records() -> Vec<TraceRecord> {
    let sinks = SINKS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut all = Vec::new();
    for buffer in sinks.iter() {
        let mut buf = buffer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        all.append(&mut *buf);
    }
    drop(sinks);
    all.sort_by_key(|r| r.ts_ns);
    all
}
