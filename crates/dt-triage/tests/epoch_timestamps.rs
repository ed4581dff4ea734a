//! The simulator seals only windows some stream holds state for. A
//! trace stamped in epoch microseconds (~1.7e15, window ids near
//! 1.7e9) must therefore run as fast as the same trace rebased to
//! zero, and emit the same windows with their ids shifted.
//!
//! Sealing every window from id 0 up to the first arrival would take
//! hours; the epoch run is bounded by a timeout so such a regression
//! fails instead of hanging.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dt_engine::CostModel;
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_synopsis::SynopsisConfig;
use dt_triage::{Pipeline, PipelineConfig, RunReport, ShedMode};
use dt_types::{DataType, Row, Schema, Timestamp, Tuple};

/// 1.7e15 µs — a 2023 wall-clock timestamp — and a whole number of
/// one-second windows.
const EPOCH_US: u64 = 1_700_000_000_000_000;
const WIDTH_US: u64 = 1_000_000;

fn plan() -> QueryPlan {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    Planner::new(&c)
        .plan(&parse_select("SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a").unwrap())
        .unwrap()
}

/// Overloaded bursts in windows 0, 1, 5 and 40 — with idle gaps
/// between them — shifted by `base` µs.
fn trace(base: u64) -> Vec<(usize, Tuple)> {
    let mut out = Vec::new();
    for (k, &w) in [0u64, 1, 5, 40].iter().enumerate() {
        for i in 0..400u64 {
            let ts = base + w * WIDTH_US + i * 1_500;
            let v = ((i * 7 + k as u64) % 9) as i64;
            let t = if i % 2 == 0 {
                (
                    0,
                    Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(ts)),
                )
            } else {
                let row = Row::from_ints(&[v, v % 3]);
                (1, Tuple::new(row, Timestamp::from_micros(ts)))
            };
            out.push(t);
        }
    }
    out
}

fn run(base: u64) -> RunReport {
    let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
    cfg.cost = CostModel::from_capacity(300.0).unwrap();
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 2 };
    Pipeline::run(plan(), cfg, trace(base)).unwrap()
}

#[test]
fn epoch_timestamps_run_as_fast_as_rebased_ones() {
    let t0 = Instant::now();
    let rebased = run(0);
    let rebased_time = t0.elapsed();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let report = run(EPOCH_US);
        let _ = tx.send((report, t0.elapsed()));
    });
    let budget = rebased_time * 10 + Duration::from_secs(2);
    let (epoch, epoch_time) = rx
        .recv_timeout(budget)
        .unwrap_or_else(|_| panic!("epoch-stamped run exceeded {budget:?}"));
    assert!(
        epoch_time <= rebased_time * 4 + Duration::from_millis(250),
        "epoch run {epoch_time:?} vs rebased {rebased_time:?}"
    );

    assert!(rebased.totals.dropped > 0, "the trace must shed");
    assert_eq!(epoch.totals, rebased.totals);
    // Only windows with arrivals are emitted.
    let ids: Vec<u64> = rebased.windows.iter().map(|w| w.window).collect();
    assert_eq!(ids, vec![0, 1, 5, 40]);
    assert!(rebased.windows.iter().all(|w| w.arrived > 0));
    let shift = EPOCH_US / WIDTH_US;
    assert_eq!(epoch.windows.len(), rebased.windows.len());
    for (e, r) in epoch.windows.iter().zip(&rebased.windows) {
        assert_eq!(e.window, r.window + shift);
        assert_eq!(
            (e.arrived, e.kept, e.dropped),
            (r.arrived, r.kept, r.dropped)
        );
        assert_eq!(e.groups(), r.groups(), "window {}", r.window);
        assert_eq!(
            e.emitted_at.micros() - EPOCH_US,
            r.emitted_at.micros(),
            "window {}",
            r.window
        );
    }
}
