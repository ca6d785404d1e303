//! Observability substrate for the maritime surveillance pipeline.
//!
//! The paper's system was operated as a live monitor, and its evaluation
//! reports per-window latency, critical-point compression, and recognition
//! throughput as the headline operational figures (§5, Figures 6–11). This
//! crate is the substrate that makes those figures visible on a *running*
//! pipeline rather than only in benchmark harnesses:
//!
//! * [`Counter`] / [`Gauge`] — lock-free monotone and level metrics
//!   (single relaxed atomic op on the hot path);
//! * [`Histogram`] — fixed-bucket log-linear (HDR-style) histograms for
//!   latencies and sizes, with percentile read-out at ≤ ~3 % relative
//!   error and no allocation on record;
//! * [`SpanTimer`] and the [`span!`] macro — RAII stage timers that feed
//!   a histogram on drop;
//! * [`MetricsRegistry`] — the process-wide registry, pre-seeded with the
//!   canonical metric catalog ([`names::CATALOG`]); snapshots encode to
//!   Prometheus text ([`encode::prometheus_text`]) or JSON
//!   ([`encode::json`]);
//! * a global kill switch ([`set_enabled`]) so a pipeline configured with
//!   metrics off pays only a predicted branch per would-be update;
//! * a crash-dump [`flight`] recorder — a fixed-capacity ring of recent
//!   structured trace events that dumps to JSON on anomaly triggers
//!   (deadline overrun, chaos-oracle violation, panic) or on demand;
//! * a [`chrome`] Trace Event timeline — named spans double as Perfetto
//!   slices when the collector is installed, at no extra clock reads.
//!
//! Every metric name is declared once, in [`names`], and documented in
//! `OBSERVABILITY.md` at the repository root; a test diffs the two so the
//! catalog and the operator's handbook cannot drift apart.
//!
//! This crate deliberately has **zero dependencies** (std only): it is
//! linked by every runtime crate, including the lowest layers (`geo`,
//! `stream`), so it must never introduce a dependency cycle or pull codec
//! machinery into the hot paths it measures.

#![deny(missing_docs)]

pub mod chrome;
pub mod encode;
pub mod flight;
pub mod histogram;
pub mod metric;
pub mod names;
pub mod registry;
pub mod span;
pub mod timeseries;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge};
pub use registry::{
    Descriptor, FamilyDescriptor, LazyCounter, LazyGauge, LazyHistogram, MetricKind, MetricValue,
    MetricsRegistry, Snapshot, SnapshotEntry,
};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use span::SpanTimer;
pub use timeseries::{GaugeWindow, RatePoint, Sample, SampleRing};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global recording switch. `true` at startup so standalone components
/// (tests, benches, examples) observe themselves without ceremony; the
/// pipeline sets it from `SurveillanceConfig.metrics`.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns metric recording on or off process-wide. When off, every update
/// degrades to one relaxed load and a predicted branch (< 1 % of tracker
/// throughput — asserted by `obs_overhead` in `crates/bench`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global counter registered under `name` (must be in the catalog or
/// already registered). Prefer a cached [`LazyCounter`] on hot paths.
pub fn counter(name: &'static str) -> &'static Counter {
    MetricsRegistry::global().counter(name)
}

/// The global gauge registered under `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    MetricsRegistry::global().gauge(name)
}

/// The global histogram registered under `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    MetricsRegistry::global().histogram(name)
}

/// A snapshot of the global registry, sorted by metric name.
pub fn snapshot() -> Snapshot {
    MetricsRegistry::global().snapshot()
}
