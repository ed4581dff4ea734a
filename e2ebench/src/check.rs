//! Accounting and correctness checks on the untraced run, and the
//! end-to-end figures derived from its report.
//!
//! Every check that fails is recorded as a message; any message makes
//! the run incorrect.

use std::collections::BTreeMap;

use dt_metrics::{ideal_map, rms_error, ResultMap};
use dt_triage::{WindowPayload, WindowResult};
use dt_types::{DtError, DtResult, FxHashMap, Row, Value, WindowId};

use crate::live::{LiveRun, MAX_LAG_US};
use crate::stats::{quantile, ratio};
use crate::workload::{Inputs, Workload, WINDOW_US};

/// At most this many failed query-windows are described one by one.
const MAX_DETAILS: usize = 5;

/// What the checks found.
pub struct Verdict {
    pub failures: Vec<String>,
    /// Expected `(query, window)` pairs.
    pub attempted: u64,
    /// Pairs missing, degraded, or unshed yet different from the ideal.
    pub failed: u64,
    /// One latency per expected window that was emitted, milliseconds.
    pub latencies_ms: Vec<f64>,
    pub deadline_miss_frac: f64,
    pub rms_error: f64,
    pub kept_frac: f64,
    pub lost_tuple_frac: f64,
    pub lag_p99_ms: f64,
    pub lag_max_ms: f64,
    /// Windows of the expected range in which some stream shed tuples.
    pub shed_windows: u64,
}

/// Prefix every group key with the query id, so several queries'
/// results share one [`ResultMap`] for a single RMS figure.
fn tag(q: usize, key: &Row) -> Row {
    let mut v = Vec::with_capacity(key.arity() + 1);
    v.push(Value::Int(q as i64));
    v.extend_from_slice(key.values());
    Row::new(v)
}

pub fn evaluate(w: &Workload, inputs: &Inputs, live: &LiveRun) -> DtResult<Verdict> {
    let mut failures = Vec::new();
    let report = &live.report;
    let n = inputs.len() as u64;

    // Accounting: every frame sent was offered, every offered tuple was
    // kept or shed, none arrived after its window sealed.
    let offered: u64 = report.streams.iter().map(|s| s.offered).sum();
    let kept: u64 = report.streams.iter().map(|s| s.kept).sum();
    let late: u64 = report.streams.iter().map(|s| s.late).sum();
    if live.frames_sent != n {
        failures.push(format!("generator sent {} of {n} frames", live.frames_sent));
    }
    if offered != live.frames_sent {
        failures.push(format!(
            "frames sent {} != offered {offered} ({} parse errors)",
            live.frames_sent, live.parse_errors
        ));
    }
    for s in &report.streams {
        if s.offered != s.kept + s.shed {
            failures.push(format!(
                "stream {}: offered {} != kept {} + shed {}",
                s.name, s.offered, s.kept, s.shed
            ));
        }
    }
    if late > 0 {
        failures.push(format!("{late} late tuples"));
    }
    if report.windows_degraded > 0 {
        failures.push(format!("{} degraded windows", report.windows_degraded));
    }

    // Generator honesty: a generator that fell behind did not offer
    // the workload's load.
    let mut lags: Vec<f64> = live.lag_us.iter().map(|&l| l as f64 / 1000.0).collect();
    let lag_p99_ms = quantile(&mut lags, 0.99);
    let lag_max_ms = lags.last().copied().unwrap_or(0.0);
    if lag_max_ms * 1000.0 > MAX_LAG_US as f64 {
        failures.push(format!(
            "invalid run: generator lag reached {lag_max_ms:.1} ms (bound {} ms)",
            MAX_LAG_US / 1000
        ));
    }

    // Per query-window correctness against the offline ideal.
    let exec = w.server_config().compile()?;
    let (first, last) = (inputs.first_window(), inputs.last_window());
    let windows = last - first + 1;
    let mut failed = 0u64;
    let mut shed_windows = 0u64;
    let mut details = 0usize;
    let mut ideal_all = ResultMap::default();
    let mut actual_all = ResultMap::default();
    let mut latencies_ms = Vec::with_capacity(windows as usize);
    let mut misses = 0u64;
    for q in 0..exec.num_queries() {
        let plan = exec.plan(q).expect("compiled query");
        w.expect_catalog_order(plan.streams.iter().map(|b| b.stream.as_str()))?;
        let ideal = ideal_map(plan, &inputs.arrivals)?;
        let mut ideal_by_window: BTreeMap<WindowId, FxHashMap<Row, Vec<f64>>> = BTreeMap::new();
        for ((win, key), vals) in ideal {
            ideal_all.insert((win, tag(q, &key)), vals.clone());
            ideal_by_window.entry(win).or_default().insert(key, vals);
        }
        let results: BTreeMap<WindowId, &WindowResult> = report
            .reports
            .get(q)
            .map(|r| r.windows.iter().map(|wr| (wr.window, wr)).collect())
            .unwrap_or_default();
        let empty = FxHashMap::default();
        for win in first..=last {
            let Some(wr) = results.get(&win) else {
                failed += 1;
                if q == 0 {
                    misses += 1;
                }
                if details < MAX_DETAILS {
                    failures.push(format!("query {q} window {win}: never emitted"));
                    details += 1;
                }
                continue;
            };
            if q == 0 {
                let lat = wr
                    .emitted_at
                    .micros()
                    .saturating_sub(Workload::spec().window_end(win).micros());
                latencies_ms.push(lat as f64 / 1000.0);
                if lat > WINDOW_US {
                    misses += 1;
                }
                if wr.dropped > 0 {
                    shed_windows += 1;
                }
            }
            let WindowPayload::Groups(groups) = &wr.payload else {
                return Err(DtError::engine("workload queries must aggregate"));
            };
            for (key, vals) in groups {
                actual_all.insert((win, tag(q, key)), vals.clone());
            }
            let bad = if wr.degraded {
                Some("degraded".to_string())
            } else if wr.dropped == 0 && groups != ideal_by_window.get(&win).unwrap_or(&empty) {
                Some(format!(
                    "nothing shed but {} groups differ from the ideal's {}",
                    groups.len(),
                    ideal_by_window.get(&win).map_or(0, |g| g.len())
                ))
            } else {
                None
            };
            if let Some(why) = bad {
                failed += 1;
                if details < MAX_DETAILS {
                    failures.push(format!("query {q} window {win}: {why}"));
                    details += 1;
                }
            }
        }
    }
    if failed as usize > details {
        failures.push(format!("{failed} failed query-windows in all"));
    }
    let attempted = exec.num_queries() as u64 * windows;
    Ok(Verdict {
        failures,
        attempted,
        failed,
        latencies_ms,
        deadline_miss_frac: ratio(misses as f64, windows as f64),
        rms_error: rms_error(&ideal_all, &actual_all),
        kept_frac: ratio(kept as f64, offered as f64),
        lost_tuple_frac: ratio(
            (live.frames_sent as f64 - offered as f64) + late as f64,
            live.frames_sent as f64,
        ),
        lag_p99_ms,
        lag_max_ms,
        shed_windows,
    })
}
