//! The metrics registry and its scalar instruments.
//!
//! Registration (naming a metric) takes a mutex —
//! it happens at pipeline/server construction. The instruments handed
//! back are `Option<Arc<atomic>>` handles: recording on an enabled
//! handle is one relaxed atomic op, recording on a disabled handle is
//! a branch. Cloning a handle or the registry is an `Arc` clone.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing count. Cloneable; disabled handles are
/// inert.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Counter { cell: None }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A settable level (queue depth, lag). Cloneable; disabled handles
/// are inert.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Gauge { cell: None }
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative via `sub`).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// What kind of instrument a registered metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Settable level.
    Gauge,
    /// Log-linear distribution.
    Histogram,
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Histogram),
}

#[derive(Debug)]
struct MetricEntry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

#[derive(Debug)]
struct RegistryInner {
    metrics: Mutex<Vec<MetricEntry>>,
}

/// The cloneable observability handle. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// A recording registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner {
                metrics: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A registry whose every instrument is a no-op.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// True when instruments actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
        kind: MetricKind,
    ) -> Cell {
        let Some(inner) = &self.inner else {
            return make_disabled(kind);
        };
        let mut metrics = inner.metrics.lock().expect("metrics registry");
        if let Some(e) = metrics
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
        {
            if cell_kind(&e.cell) == kind {
                return e.cell.clone();
            }
            // Same name, different kind: hand back a detached cell so
            // the caller still works; it just won't be exported.
            return make();
        }
        let cell = make();
        metrics.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell: cell.clone(),
        });
        cell
    }

    /// Register (or look up) a counter. Counter names end in `_total`
    /// by convention.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        if self.inner.is_none() {
            return Counter::disabled();
        }
        match self.register(
            name,
            help,
            labels,
            || Cell::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Counter,
        ) {
            Cell::Counter(cell) => Counter { cell: Some(cell) },
            _ => Counter::disabled(),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        if self.inner.is_none() {
            return Gauge::disabled();
        }
        match self.register(
            name,
            help,
            labels,
            || Cell::Gauge(Arc::new(AtomicI64::new(0))),
            MetricKind::Gauge,
        ) {
            Cell::Gauge(cell) => Gauge { cell: Some(cell) },
            _ => Gauge::disabled(),
        }
    }

    /// Register (or look up) a histogram. Time histograms record
    /// microseconds and end in `_us` by convention.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        if self.inner.is_none() {
            return Histogram::disabled();
        }
        match self.register(
            name,
            help,
            labels,
            || Cell::Histogram(Histogram::live()),
            MetricKind::Histogram,
        ) {
            Cell::Histogram(h) => h,
            _ => Histogram::disabled(),
        }
    }

    /// Freeze every metric.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let metrics = inner.metrics.lock().expect("metrics registry");
        Snapshot {
            metrics: metrics
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.cell {
                        Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                        Cell::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                        Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }

    /// Prometheus text exposition (`text/plain; version=0.0.4`).
    ///
    /// Counters and gauges are one sample each; histograms expose
    /// cumulative `_bucket{le=…}` series at power-of-two boundaries
    /// (the internal resolution is 16× finer; the coarser exposition
    /// keeps scrapes small) plus `_sum`, `_count`, and quantile
    /// estimate gauges (`_p50` / `_p90` / `_p99`).
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let metrics = inner.metrics.lock().expect("metrics registry");
        let mut out = String::new();
        let mut seen_types: Vec<(String, &'static str)> = Vec::new();
        for e in metrics.iter() {
            match &e.cell {
                Cell::Counter(c) => {
                    type_line(&mut out, &mut seen_types, &e.name, &e.help, "counter");
                    sample(
                        &mut out,
                        &e.name,
                        &e.labels,
                        &[],
                        &fmt_u64(c.load(Ordering::Relaxed)),
                    );
                }
                Cell::Gauge(g) => {
                    type_line(&mut out, &mut seen_types, &e.name, &e.help, "gauge");
                    sample(
                        &mut out,
                        &e.name,
                        &e.labels,
                        &[],
                        &g.load(Ordering::Relaxed).to_string(),
                    );
                }
                Cell::Histogram(h) => {
                    type_line(&mut out, &mut seen_types, &e.name, &e.help, "histogram");
                    let total = h.count();
                    for (le, cum) in h.cumulative_pow2() {
                        sample(
                            &mut out,
                            &format!("{}_bucket", e.name),
                            &e.labels,
                            &[("le", &fmt_u64(le))],
                            &fmt_u64(cum),
                        );
                    }
                    sample(
                        &mut out,
                        &format!("{}_bucket", e.name),
                        &e.labels,
                        &[("le", "+Inf")],
                        &fmt_u64(total),
                    );
                    sample(
                        &mut out,
                        &format!("{}_sum", e.name),
                        &e.labels,
                        &[],
                        &fmt_u64(h.sum()),
                    );
                    sample(
                        &mut out,
                        &format!("{}_count", e.name),
                        &e.labels,
                        &[],
                        &fmt_u64(total),
                    );
                    let snap = h.snapshot();
                    for (suffix, v) in [("p50", snap.p50), ("p90", snap.p90), ("p99", snap.p99)] {
                        let qname = format!("{}_{suffix}", e.name);
                        type_line(
                            &mut out,
                            &mut seen_types,
                            &qname,
                            &format!("{} ({suffix} estimate)", e.help),
                            "gauge",
                        );
                        sample(&mut out, &qname, &e.labels, &[], &fmt_u64(v));
                    }
                }
            }
        }
        out
    }

    /// A human-readable snapshot table (the `--obs` output).
    pub fn render_table(&self) -> String {
        self.snapshot().render_table()
    }
}

fn make_disabled(kind: MetricKind) -> Cell {
    match kind {
        MetricKind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
        MetricKind::Gauge => Cell::Gauge(Arc::new(AtomicI64::new(0))),
        MetricKind::Histogram => Cell::Histogram(Histogram::disabled()),
    }
}

fn cell_kind(cell: &Cell) -> MetricKind {
    match cell {
        Cell::Counter(_) => MetricKind::Counter,
        Cell::Gauge(_) => MetricKind::Gauge,
        Cell::Histogram(_) => MetricKind::Histogram,
    }
}

fn label_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

fn fmt_u64(v: u64) -> String {
    v.to_string()
}

/// Emit `# HELP` / `# TYPE` once per metric family.
fn type_line(
    out: &mut String,
    seen: &mut Vec<(String, &'static str)>,
    name: &str,
    help: &str,
    ty: &'static str,
) {
    if seen.iter().any(|(n, _)| n == name) {
        return;
    }
    seen.push((name.to_string(), ty));
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
}

/// Emit one sample line with the entry's labels plus extras.
fn sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A frozen view of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

/// One metric, frozen.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric family name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Static label set.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram digest.
    Histogram(HistogramSnapshot),
}

impl MetricSnapshot {
    /// `name{k=v,…}` for display.
    pub fn display_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

impl Snapshot {
    /// Find a metric by family name and an optional label filter.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && labels
                    .iter()
                    .all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v))
        })
    }

    /// The human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .metrics
            .iter()
            .map(|m| m.display_name().len())
            .max()
            .unwrap_or(0)
            .max(6);
        out.push_str(&format!("{:<width$}  value\n", "metric"));
        for m in &self.metrics {
            let value = match &m.value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Gauge(v) => v.to_string(),
                MetricValue::Histogram(h) => format!(
                    "count={} mean={:.1} p50={} p90={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                ),
            };
            out.push_str(&format!("{:<width$}  {value}\n", m.display_name()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "a counter", &[("stream", "R")]);
        let b = reg.counter("x_total", "a counter", &[("stream", "R")]);
        let c = reg.counter("x_total", "a counter", &[("stream", "S")]);
        a.inc();
        b.add(2);
        c.inc();
        assert_eq!(a.get(), 3, "same cell behind both handles");
        assert_eq!(c.get(), 1);
        assert_eq!(reg.snapshot().metrics.len(), 2);
    }

    #[test]
    fn kind_conflicts_hand_back_detached_cells() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("x_total", "a counter", &[]);
        let g = reg.gauge("x_total", "now a gauge?", &[]);
        g.set(7);
        assert_eq!(g.get(), 7, "detached cell still works");
        assert_eq!(reg.snapshot().metrics.len(), 1, "but is not exported");
    }

    #[test]
    fn disabled_registry_is_fully_inert() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("x_total", "c", &[]);
        let g = reg.gauge("y", "g", &[]);
        let h = reg.histogram("z_us", "h", &[]);
        c.inc();
        g.set(5);
        h.observe(10);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(reg.snapshot().metrics.is_empty());
        assert!(reg.render_prometheus().is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn prometheus_rendering_has_types_labels_and_quantiles() {
        let reg = MetricsRegistry::new();
        reg.counter("dt_x_total", "tuples", &[("stream", "R")])
            .add(5);
        reg.gauge("dt_depth", "queue depth", &[("stream", "R")])
            .set(-2);
        let h = reg.histogram("dt_lat_us", "latency", &[]);
        for v in [10u64, 100, 1000] {
            h.observe(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE dt_x_total counter"), "{text}");
        assert!(text.contains("dt_x_total{stream=\"R\"} 5"), "{text}");
        assert!(text.contains("dt_depth{stream=\"R\"} -2"), "{text}");
        assert!(text.contains("# TYPE dt_lat_us histogram"), "{text}");
        assert!(text.contains("dt_lat_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("dt_lat_us_count 3"), "{text}");
        assert!(text.contains("dt_lat_us_sum 1110"), "{text}");
        assert!(text.contains("dt_lat_us_p50"), "{text}");
        assert!(text.contains("dt_lat_us_p99"), "{text}");
        // Every cumulative bucket count is ≤ the +Inf count.
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v <= 3, "{line}");
        }
    }

    #[test]
    fn snapshot_find_filters_by_label() {
        let reg = MetricsRegistry::new();
        reg.counter("n_total", "n", &[("mode", "data-triage")])
            .add(4);
        reg.counter("n_total", "n", &[("mode", "drop-only")]).add(9);
        let snap = reg.snapshot();
        match snap
            .find("n_total", &[("mode", "drop-only")])
            .unwrap()
            .value
        {
            MetricValue::Counter(v) => assert_eq!(v, 9),
            ref other => panic!("{other:?}"),
        }
        assert!(snap.find("n_total", &[("mode", "nope")]).is_none());
        assert!(!snap.render_table().is_empty());
    }
}
