//! End-to-end pipeline runs with every synopsis structure: each kind
//! must survive heavy shedding on the paper's join query, conserve
//! mass, and beat drop-only on RMS error (or at least produce finite,
//! sane estimates).

use dt_engine::CostModel;
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_synopsis::SynopsisConfig;
use dt_triage::{Pipeline, PipelineConfig, ShedMode};
use dt_types::{DataType, Schema, VDuration, WindowSpec};
use dt_workload::{generate, WorkloadConfig};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    c.add_stream("T", Schema::from_pairs(&[("d", DataType::Int)]));
    c
}

fn paper_plan() -> QueryPlan {
    let mut plan = Planner::new(&catalog())
        .plan(
            &parse_select(
                "SELECT a, COUNT(*) as count FROM R,S,T \
                 WHERE R.a = S.b AND S.c = T.d GROUP BY a",
            )
            .unwrap(),
        )
        .unwrap();
    let spec = WindowSpec::new(VDuration::from_millis(500)).unwrap();
    for s in &mut plan.streams {
        s.window = spec;
    }
    plan
}

fn all_synopsis_configs() -> Vec<SynopsisConfig> {
    vec![
        SynopsisConfig::Sparse { cell_width: 10 },
        SynopsisConfig::MHist {
            max_buckets: 16,
            alignment: None,
        },
        SynopsisConfig::MHist {
            max_buckets: 16,
            alignment: Some(10),
        },
        SynopsisConfig::Reservoir {
            capacity: 64,
            seed: 5,
        },
        SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 40,
        },
    ]
}

#[test]
fn adaptive_synopsis_bounds_peak_memory_under_bursts() {
    // Fixed-width fine grid vs adaptive grid on the same burst: the
    // adaptive one must respect its per-synopsis cell budget, at some
    // accuracy cost; the fine grid grows unboundedly with the data.
    let workload = WorkloadConfig::paper_bursty(100.0, 8_000, 29);
    let arrivals = generate(&workload).unwrap();
    let run = |synopsis: SynopsisConfig| {
        let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
        cfg.cost = CostModel::from_capacity(800.0).unwrap();
        cfg.queue_capacity = 40;
        cfg.synopsis = synopsis;
        cfg.seed = 29;
        Pipeline::run(paper_plan(), cfg, arrivals.iter().cloned()).unwrap()
    };
    let fine = run(SynopsisConfig::Sparse { cell_width: 1 });
    let adaptive = run(SynopsisConfig::AdaptiveSparse {
        base_width: 1,
        max_cells: 20,
    });
    assert!(fine.totals.dropped > 0);
    // 6 synopses per window (kept+dropped × 3 streams), each ≤ 20 cells.
    assert!(
        adaptive.totals.peak_synopsis_units <= 6 * 20,
        "budget violated: {}",
        adaptive.totals.peak_synopsis_units
    );
    assert!(
        fine.totals.peak_synopsis_units > adaptive.totals.peak_synopsis_units,
        "fine {} vs adaptive {}",
        fine.totals.peak_synopsis_units,
        adaptive.totals.peak_synopsis_units
    );
}

#[test]
fn every_synopsis_kind_survives_overload_end_to_end() {
    let workload = WorkloadConfig::paper_constant(4_000.0, 6_000, 17);
    let arrivals = generate(&workload).unwrap();
    let ideal = dt_metrics_free_total(&arrivals);
    for cfg in all_synopsis_configs() {
        let mut pcfg = PipelineConfig::new(ShedMode::DataTriage);
        pcfg.cost = CostModel::from_capacity(1_000.0).unwrap();
        pcfg.queue_capacity = 50;
        pcfg.synopsis = cfg;
        pcfg.seed = 17;
        let report = Pipeline::run(paper_plan(), pcfg, arrivals.iter().cloned()).unwrap();
        assert!(report.totals.dropped > 1_000, "{}: must shed", cfg.label());
        // Every window produced merged groups with finite values.
        let mut est_total = 0.0;
        for w in &report.windows {
            for vals in w.groups().unwrap().values() {
                for v in vals {
                    assert!(v.is_finite(), "{}: non-finite estimate", cfg.label());
                    assert!(*v >= 0.0, "{}: negative count {v}", cfg.label());
                    est_total += v;
                }
            }
        }
        // The estimated result volume must be in the right ballpark of
        // the true join volume (within 4x either way — coarse synopses
        // are inexact, but not wild).
        assert!(
            est_total > ideal / 4.0 && est_total < ideal * 4.0,
            "{}: estimated result mass {est_total} vs ideal {ideal}",
            cfg.label()
        );
    }
}

/// True total join-result count across all windows, computed directly
/// (avoiding a dt-metrics dev-dependency cycle).
fn dt_metrics_free_total(arrivals: &[(usize, dt_types::Tuple)]) -> f64 {
    use dt_engine::execute_window;
    use std::collections::BTreeMap;
    let plan = paper_plan();
    let spec = plan.streams[0].window;
    let mut windows: BTreeMap<u64, Vec<Vec<dt_types::Row>>> = BTreeMap::new();
    for (stream, t) in arrivals {
        windows
            .entry(spec.window_of(t.ts))
            .or_insert_with(|| vec![Vec::new(); 3])[*stream]
            .push(t.row.clone());
    }
    let mut total = 0.0;
    for inputs in windows.values() {
        let out = execute_window(&plan, inputs).unwrap();
        for vals in out.groups().unwrap().values() {
            total += vals[0].value;
        }
    }
    total
}

#[test]
fn summarize_only_works_with_every_synopsis_kind() {
    let workload = WorkloadConfig::paper_constant(2_000.0, 3_000, 23);
    let arrivals = generate(&workload).unwrap();
    for cfg in all_synopsis_configs() {
        let mut pcfg = PipelineConfig::new(ShedMode::SummarizeOnly);
        pcfg.synopsis = cfg;
        pcfg.seed = 23;
        let report = Pipeline::run(paper_plan(), pcfg, arrivals.iter().cloned()).unwrap();
        assert_eq!(report.totals.kept, 0, "{}", cfg.label());
        assert!(!report.windows.is_empty(), "{}", cfg.label());
        let mass: f64 = report
            .windows
            .iter()
            .flat_map(|w| w.groups().unwrap().values())
            .map(|v| v[0])
            .sum();
        assert!(mass > 0.0, "{}: empty estimate", cfg.label());
    }
}
