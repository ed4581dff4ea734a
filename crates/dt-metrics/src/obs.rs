//! Observability snapshots as JSON.
//!
//! [`dt_obs::Snapshot`] is the frozen view of every registered metric;
//! this module gives it a JSON form so the final snapshot a server (or
//! an instrumented simulation) takes at drain time travels inside the
//! same report as the [`crate::RunSummary`] — nothing observable is
//! lost between the last scrape and shutdown.

use dt_obs::{HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot};
use dt_types::{json, Json, ToJson};

/// Serialize a frozen observability snapshot.
///
/// Shape: `{"metrics": [{name, labels, kind, value}…]}` — counters
/// and gauges carry a scalar `value`, histograms a digest object.
pub fn obs_to_json(snap: &Snapshot) -> Json {
    let metrics: Vec<Json> = snap.metrics.iter().map(metric_to_json).collect();
    json::obj(vec![("metrics", Json::Arr(metrics))])
}

fn metric_to_json(m: &MetricSnapshot) -> Json {
    let labels = Json::Obj(
        m.labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    );
    let (kind, value) = match &m.value {
        MetricValue::Counter(v) => ("counter", v.to_json()),
        MetricValue::Gauge(v) => ("gauge", v.to_json()),
        MetricValue::Histogram(h) => ("histogram", histogram_to_json(h)),
    };
    json::obj(vec![
        ("name", m.name.to_json()),
        ("labels", labels),
        ("kind", kind.to_json()),
        ("value", value),
    ])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    json::obj(vec![
        ("count", h.count.to_json()),
        ("sum", h.sum.to_json()),
        ("max", h.max.to_json()),
        ("p50", h.p50.to_json()),
        ("p90", h.p90.to_json()),
        ("p99", h.p99.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_obs::MetricsRegistry;

    #[test]
    fn snapshot_serializes_every_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("n_total", "n", &[("stream", "R")]).add(3);
        reg.gauge("depth", "d", &[]).set(-4);
        let h = reg.histogram("lat_us", "l", &[]);
        h.observe(10);
        h.observe(90);

        let j = obs_to_json(&reg.snapshot());
        let metrics = j.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            metrics[0].get("kind").and_then(Json::as_str),
            Some("counter")
        );
        assert_eq!(metrics[0].get("value").and_then(Json::as_i64), Some(3));
        assert_eq!(
            metrics[0]
                .get("labels")
                .unwrap()
                .get("stream")
                .and_then(Json::as_str),
            Some("R")
        );
        assert_eq!(metrics[1].get("value").and_then(Json::as_i64), Some(-4));
        let hist = metrics[2].get("value").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_i64), Some(2));
        assert_eq!(hist.get("sum").and_then(Json::as_i64), Some(100));
        // Round-trips through the renderer.
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }

    #[test]
    fn empty_snapshot_is_still_valid_json() {
        let j = obs_to_json(&Snapshot::default());
        assert_eq!(j.render(), r#"{"metrics":[]}"#);
    }
}
