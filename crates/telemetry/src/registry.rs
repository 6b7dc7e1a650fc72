//! The global metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles are cheap [`Arc`]s over atomics; the registry itself is only
//! locked at registration and snapshot time, never on the record path. Every
//! mutation first checks the crate-wide [`enabled`] flag, so
//! a disabled build pays one relaxed atomic load per call site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::enabled;

/// A monotonically increasing event count.
///
/// Increments are relaxed atomic adds; concurrent increments from any number
/// of threads sum exactly.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point measurement.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge. A no-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Strictly increasing upper bounds; values above the last bound land in
    /// the saturating overflow bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets (the last one is the overflow bucket).
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Bit-packed f64 running sum, updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Bucket `i` counts observations `v <= bounds[i]` (first matching bound);
/// anything larger — including `NaN`/`inf` — saturates into the overflow
/// bucket, so recording can never panic.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation. A no-op while telemetry is disabled.
    pub fn record(&self, value: f64) {
        if !enabled() {
            return;
        }
        let inner = &*self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            let mut bits = inner.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(bits) + value).to_bits();
                match inner.sum_bits.compare_exchange_weak(
                    bits,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => bits = seen,
                }
            }
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// The bucket upper bounds (overflow bucket excluded).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts, overflow bucket last.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[derive(Default)]
struct Registry {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    histograms: Vec::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Registers (or retrieves) the counter named `name`.
#[must_use]
pub fn counter(name: &'static str) -> Counter {
    let mut reg = registry();
    if let Some((_, c)) = reg.counters.iter().find(|(n, _)| n == name) {
        return c.clone();
    }
    let c = Counter(Arc::new(AtomicU64::new(0)));
    reg.counters.push((name.to_owned(), c.clone()));
    c
}

/// Registers (or retrieves) the gauge named `name`.
#[must_use]
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = registry();
    if let Some((_, g)) = reg.gauges.iter().find(|(n, _)| n == name) {
        return g.clone();
    }
    let g = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
    reg.gauges.push((name.to_owned(), g.clone()));
    g
}

/// Registers (or retrieves) the histogram named `name` with the given bucket
/// upper bounds. The bounds of the first registration win.
///
/// # Panics
///
/// Panics if `bounds` is empty or not strictly increasing.
#[must_use]
pub fn histogram(name: &'static str, bounds: &[f64]) -> Histogram {
    histogram_named(name.to_owned(), bounds)
}

/// Registers (or retrieves) a histogram under a runtime-built name — the
/// registration path for label-bearing metrics such as the per-shard RPC
/// latency series `net.rpc_latency_us.shard000`. Snapshots sort by name, so
/// zero-padded labels keep shard order deterministic and numeric.
///
/// # Panics
///
/// Panics if `bounds` is empty or not strictly increasing.
#[must_use]
pub fn histogram_named(name: String, bounds: &[f64]) -> Histogram {
    let mut reg = registry();
    if let Some((_, h)) = reg.histograms.iter().find(|(n, _)| *n == name) {
        return h.clone();
    }
    assert!(!bounds.is_empty(), "histogram needs at least one bucket");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram bounds must be strictly increasing"
    );
    let inner = HistogramInner {
        bounds: bounds.to_vec(),
        counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        count: AtomicU64::new(0),
        sum_bits: AtomicU64::new(0f64.to_bits()),
    };
    let h = Histogram(Arc::new(inner));
    reg.histograms.push((name, h.clone()));
    h
}

/// Zeroes every registered metric in place (handles held by call sites stay
/// valid). Intended for tests and benchmark harnesses.
pub fn reset_metrics() {
    let reg = registry();
    for (_, c) in &reg.counters {
        c.0.store(0, Ordering::Relaxed);
    }
    for (_, g) in &reg.gauges {
        g.0.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for (_, h) in &reg.histograms {
        for bucket in &h.0.counts {
            bucket.store(0, Ordering::Relaxed);
        }
        h.0.count.store(0, Ordering::Relaxed);
        h.0.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds (overflow excluded).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, overflow last (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Takes a snapshot of the registry (values copied, metrics left running).
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut snap = MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(n, c)| ((*n).to_owned(), c.value()))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(n, g)| ((*n).to_owned(), g.value()))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: (*n).to_owned(),
                bounds: h.bounds().to_vec(),
                counts: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
            })
            .collect(),
    };
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}
