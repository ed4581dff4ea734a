//! Low-overhead observability for the Data Triage runtime.
//!
//! The whole point of Data Triage is *behavior under overload* — and a
//! runtime that sheds load is exactly the runtime you cannot afford to
//! slow down by watching it. This crate is the compromise the
//! production stream processors make: an instrumentation layer whose
//! hot-path cost is a handful of uncontended atomic operations, and
//! whose *disabled* cost is a branch on an `Option`.
//!
//! Components:
//!
//! * [`MetricsRegistry`] — the cheap, cloneable handle everything hangs
//!   off. A registry built with [`MetricsRegistry::new`] records; one
//!   built with [`MetricsRegistry::disabled`] hands out no-op
//!   instruments (no allocation, no atomics, no `Instant` reads).
//! * [`Counter`] / [`Gauge`] — lock-free monotonic counts and
//!   set/add/sub levels (queue depths, shed totals, ingest bytes).
//! * [`Histogram`] — a log-linear (HDR-style) histogram over `u64`
//!   values: 16 linear sub-buckets per power of two, so relative error
//!   is bounded at ~6 % across the full range while recording stays a
//!   single atomic increment. Quantile extraction ([`Histogram::quantile`])
//!   serves p50/p90/p99; the exact observed max is tracked separately.
//! * Exposition — [`MetricsRegistry::render_prometheus`] emits the
//!   Prometheus text format (`text/plain; version=0.0.4`);
//!   [`MetricsRegistry::render_table`] a human-readable snapshot table.
//!
//! Conventions: counters end in `_total`; time histograms record
//! **microseconds** and end in `_us`; label sets are small and static
//! (stream names, shed modes). Registering the same name + label set
//! twice returns a handle to the same underlying cell.
//!
//! The instrument families themselves live with the code they measure:
//! `dt-triage` registers the per-stream triage counters and the
//! adaptive controller's `dt_triage_threshold` /
//! `dt_triage_estimated_delay_ms` / `dt_triage_shed_fraction` gauges
//! (DESIGN.md §11), `dt-server` the runtime counters and latency
//! histograms. DESIGN.md §9 is the full metric index.

mod histogram;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{
    Counter, Gauge, MetricKind, MetricSnapshot, MetricValue, MetricsRegistry, Snapshot,
};
