//! Overflow edge cases for the triage queue and drop policies:
//! bursts landing exactly at capacity, zero-capacity configurations,
//! and tuples offered while (or after) their window seals.

use dt_query::{parse_select, Catalog, Planner};
use dt_synopsis::SynopsisConfig;
use dt_triage::{DropPolicy, Pipeline, PipelineConfig, ShedMode, StreamTriage, TriageQueue};
use dt_types::{DataType, Row, Schema, Timestamp, Tuple, VDuration, WindowSpec};

fn tup(v: i64, us: u64) -> Tuple {
    Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us))
}

#[test]
fn burst_exactly_at_capacity_sheds_nothing() {
    for policy in DropPolicy::all() {
        let mut q = TriageQueue::new(8, policy, 7).unwrap();
        for i in 0..8 {
            assert!(
                q.push(tup(i, i as u64 * 10), None).is_none(),
                "{policy:?}: tuple {i} of a capacity-sized burst must not shed"
            );
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.total_dropped(), 0, "{policy:?}");
        // One past capacity sheds exactly one victim, never more.
        assert!(q.push(tup(99, 1_000), None).is_some(), "{policy:?}");
        assert_eq!(q.len(), 8, "{policy:?}: queue stays at capacity");
        assert_eq!(q.total_dropped(), 1, "{policy:?}");
        assert_eq!(q.total_pushed(), 9, "{policy:?}");
    }
}

#[test]
fn newest_policy_keeps_queue_contents_at_the_boundary() {
    let mut q = TriageQueue::new(2, DropPolicy::Newest, 0).unwrap();
    q.push(tup(1, 10), None);
    q.push(tup(2, 20), None);
    let victim = q.push(tup(3, 30), None).expect("overflow");
    // The incoming tuple is the victim; the queue is untouched.
    assert_eq!(victim.row, Row::from_ints(&[3]));
    assert_eq!(q.pop().unwrap().row, Row::from_ints(&[1]));
    assert_eq!(q.pop().unwrap().row, Row::from_ints(&[2]));
    assert!(q.pop().is_none());
}

#[test]
fn zero_capacity_is_rejected_at_every_layer() {
    assert!(TriageQueue::new(0, DropPolicy::Random, 0).is_err());

    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let plan = Planner::new(&catalog)
        .plan(&parse_select("SELECT a, COUNT(*) FROM R GROUP BY a").unwrap())
        .unwrap();
    let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
    cfg.queue_capacity = 0;
    assert!(
        Pipeline::new(plan, cfg).is_err(),
        "a pipeline must refuse a zero-capacity triage queue"
    );
}

#[test]
fn offers_during_and_after_a_seal_are_late_not_lost() {
    let spec = WindowSpec::new(VDuration::from_secs(1)).unwrap();
    let mut t = StreamTriage::new(
        0,
        1,
        ShedMode::DataTriage,
        SynopsisConfig::Sparse { cell_width: 1 },
        spec,
    );
    // Window 0 gets one kept and one shed tuple, then seals.
    assert!(t.keep_seq(&tup(1, 100_000), 0).unwrap());
    assert!(t.shed_seq(&tup(2, 200_000), 1).unwrap());
    let sealed = t.seal_through(0).unwrap();
    assert_eq!(sealed.len(), 1);
    assert_eq!(sealed[0].kept, 1);
    assert_eq!(sealed[0].dropped, 1);

    // A straggler for the sealed window is counted late and never
    // folded; the seal's results are immutable.
    assert!(!t.keep_seq(&tup(3, 300_000), 2).unwrap());
    assert!(!t.shed_seq(&tup(4, 400_000), 3).unwrap());
    assert_eq!(t.late(), 2);

    // Concurrent-looking interleave: a tuple for the *next* window
    // offered between seals lands in that window.
    assert!(t.keep_seq(&tup(5, 1_500_000), 4).unwrap());
    let sealed = t.seal_all().unwrap();
    assert_eq!(sealed.len(), 1);
    assert_eq!(sealed[0].window, 1);
    assert_eq!(sealed[0].kept, 1);

    // Sealing the same range again emits nothing (idempotent).
    assert!(t.seal_through(1).unwrap().is_empty());
}

#[test]
fn pipeline_burst_at_exact_capacity_drops_nothing() {
    // End-to-end: a window whose arrivals exactly fill the queue must
    // survive intact even with a stopped engine (all drains happen at
    // window close).
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let plan = Planner::new(&catalog)
        .plan(&parse_select("SELECT a, COUNT(*) FROM R GROUP BY a").unwrap())
        .unwrap();
    let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
    cfg.queue_capacity = 16;
    let mut p = Pipeline::new(plan, cfg).unwrap();
    // 16 tuples at the same instant: a burst the queue exactly holds.
    for i in 0..16 {
        p.offer(0, tup(i % 4, 1_000)).unwrap();
    }
    let report = p.finish().unwrap();
    assert_eq!(report.totals.arrived, 16);
    assert_eq!(report.totals.dropped, 0, "burst at capacity sheds nothing");
    assert_eq!(report.totals.kept, 16);
}
