//! End-to-end behavior of the adaptive delay controller in the
//! virtual-clock pipeline (DESIGN.md §11).
//!
//! Everything here is deterministic: arrivals are a fixed-interval
//! sequence, the drop RNG is seeded, and the controller's shed ramp
//! uses error diffusion rather than randomness — so the assertions are
//! exact, not statistical.

use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_triage::{DelayConstraint, Pipeline, PipelineConfig, RunReport, ShedMode};
use dt_types::{DataType, Row, Schema, Timestamp, Tuple};

fn plan() -> QueryPlan {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    Planner::new(&catalog)
        .plan(&parse_select("SELECT a, COUNT(*) FROM R GROUP BY a").unwrap())
        .unwrap()
}

/// 2× overload: one tuple every 500 µs against a ~1 ms/tuple engine.
fn arrivals(n: u64) -> impl Iterator<Item = (usize, Tuple)> {
    (0..n).map(|i| {
        (
            0,
            Tuple::new(
                Row::from_ints(&[(i % 10) as i64]),
                Timestamp::from_micros(500 * (i + 1)),
            ),
        )
    })
}

fn run(delay_ms: Option<u64>) -> RunReport {
    let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
    cfg.seed = 42;
    cfg.delay = delay_ms.map(|ms| DelayConstraint::from_millis(ms).unwrap());
    Pipeline::run(plan(), cfg, arrivals(6_000)).unwrap()
}

/// Field-by-field equality of two reports, including virtual emission
/// times and every merged group — "bit-identical" in the sense that
/// matters to a regression.
fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.windows.len(), b.windows.len());
    for (x, y) in a.windows.iter().zip(&b.windows) {
        assert_eq!(x.window, y.window);
        assert_eq!(x.emitted_at, y.emitted_at, "window {}", x.window);
        assert_eq!(
            (x.arrived, x.kept, x.dropped, x.degraded),
            (y.arrived, y.kept, y.dropped, y.degraded),
            "window {}",
            x.window
        );
        assert_eq!(x.groups(), y.groups(), "window {}", x.window);
    }
}

#[test]
fn generous_constraint_is_bit_identical_to_no_constraint() {
    // A one-minute constraint derives a threshold far above the
    // 100-tuple queue capacity: the controller's verdict is Keep on
    // every offer, it consumes no randomness, and the run must replay
    // the uncontrolled pipeline's decisions exactly.
    let baseline = run(None);
    let generous = run(Some(60_000));
    assert!(baseline.totals.dropped > 0, "the workload must overload");
    assert_reports_identical(&baseline, &generous);
}

#[test]
fn tightening_the_constraint_monotonically_increases_drops() {
    // Every dropped tuple is folded into the window's dropped synopsis
    // in DataTriage mode, so `totals.dropped` counts exactly the
    // dropped-to-synopsis tuples.
    let sweep = [None, Some(80), Some(40), Some(10)];
    let dropped: Vec<u64> = sweep.iter().map(|&d| run(d).totals.dropped).collect();
    for pair in dropped.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "tightening the constraint reduced shedding: {dropped:?}"
        );
    }
    // And the tight end really bites.
    assert!(dropped[3] > dropped[0], "{dropped:?}");
}

#[test]
fn constrained_runs_never_miss_a_deadline_by_more_than_one_tick() {
    for ms in [80u64, 40, 10] {
        let report = run(Some(ms));
        let cfg = PipelineConfig::new(ShedMode::DataTriage);
        // One engine tick: the busy time of the tuple in service when
        // the window closes (service + kept-synopsis fold).
        let tick_us = (cfg.cost.service_time + cfg.cost.synopsis_insert_time).micros();
        let deadline_us = ms * 1_000 + tick_us;
        for w in &report.windows {
            let lat = w.latency(report.window_spec).micros();
            assert!(
                lat <= deadline_us,
                "constraint {ms} ms: window {} sealed {lat} µs late (deadline {deadline_us} µs)",
                w.window
            );
        }
        // The bound is not vacuous: results actually arrive, and the
        // estimates stay usable (every window still reports groups).
        assert!(!report.windows.is_empty());
        assert!(report.windows.iter().all(|w| w.groups().is_some()));
    }
}

/// A join over two streams, each arriving at the engine's full rate:
/// one tuple every 1 ms per stream, interleaved 500 µs apart, against
/// a ~1 ms/tuple engine that drains both queues.
fn two_stream_run(delay_ms: u64) -> RunReport {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    catalog.add_stream("S", Schema::from_pairs(&[("b", DataType::Int)]));
    let plan = Planner::new(&catalog)
        .plan(&parse_select("SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a").unwrap())
        .unwrap();
    let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
    cfg.seed = 42;
    // Far above any backlog the run builds: only the controller sheds.
    cfg.queue_capacity = 1_000_000;
    cfg.delay = Some(DelayConstraint::from_millis(delay_ms).unwrap());
    let arrivals = (0..6_000u64).map(|i| {
        (
            (i % 2) as usize,
            Tuple::new(
                Row::from_ints(&[(i / 2 % 10) as i64]),
                Timestamp::from_micros(500 * (i + 1)),
            ),
        )
    });
    Pipeline::run(plan, cfg, arrivals).unwrap()
}

#[test]
fn two_streams_shed_on_their_total_backlog() {
    // Under D = 40 ms the threshold is T = 38 tuples. The controller
    // holds the *total* backlog near T, so each stream's own queue
    // stays near T/2, below even the ramp's floor. A controller fed
    // only its own queue's depth would let each queue grow to T and
    // the total backlog, hence the window latency, to about 2·D.
    let ms = 40;
    let report = two_stream_run(ms);
    assert!(report.totals.dropped > 0, "the controller must shed");
    let cfg = PipelineConfig::new(ShedMode::DataTriage);
    let tick_us = (cfg.cost.service_time + cfg.cost.synopsis_insert_time).micros();
    let deadline_us = ms * 1_000 + tick_us;
    assert!(!report.windows.is_empty());
    for w in &report.windows {
        let lat = w.latency(report.window_spec).micros();
        assert!(
            lat <= deadline_us,
            "window {} sealed {lat} µs late (deadline {deadline_us} µs)",
            w.window
        );
    }
}
