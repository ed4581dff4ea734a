//! Engine and pipeline throughput: exact window execution at several
//! window sizes, and the full pipeline per shedding mode on one
//! fixed workload.

use criterion::{criterion_group, criterion_main, Criterion};
use dt_engine::{execute_window, execute_window_cols, CostModel};
use dt_metrics::{report_to_map, SweepConfig};
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_synopsis::SynopsisConfig;
use dt_triage::{Pipeline, PipelineConfig, ShedMode};
use dt_types::{ColumnBatch, DataType, Row, Schema};
use dt_workload::{generate, WorkloadConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn paper_plan() -> QueryPlan {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    catalog.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    catalog.add_stream("T", Schema::from_pairs(&[("d", DataType::Int)]));
    Planner::new(&catalog)
        .plan(
            &parse_select("SELECT a, COUNT(*) FROM R,S,T WHERE R.a = S.b AND S.c = T.d GROUP BY a")
                .unwrap(),
        )
        .unwrap()
}

fn window_inputs(per_stream: usize, seed: u64) -> Vec<Vec<Row>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut gen = |arity: usize| -> Vec<Row> {
        (0..per_stream)
            .map(|_| {
                Row::from_ints(
                    &(0..arity)
                        .map(|_| rng.gen_range(1..=100))
                        .collect::<Vec<i64>>(),
                )
            })
            .collect()
    };
    vec![gen(1), gen(2), gen(1)] // R(a), S(b, c), T(d)
}

fn bench_window_exec(c: &mut Criterion) {
    let plan = paper_plan();
    let mut group = c.benchmark_group("window_exec_3way_join");
    group.sample_size(10);
    for per_stream in [100usize, 400, 1_600] {
        let inputs = window_inputs(per_stream, per_stream as u64);
        // The row entry point; well-shaped rows take the columnar path.
        group.bench_function(&format!("batch/{per_stream}_per_stream"), |b| {
            b.iter(|| execute_window(&plan, &inputs).unwrap().len())
        });
        // The server's close: convert each stream once, then run the
        // vectorized executor.
        group.bench_function(&format!("columnar/{per_stream}_per_stream"), |b| {
            b.iter(|| {
                let cols: Vec<ColumnBatch> = inputs
                    .iter()
                    .zip([1, 2, 1])
                    .map(|(rows, arity)| ColumnBatch::from_rows(arity, rows))
                    .collect();
                let refs: Vec<&ColumnBatch> = cols.iter().collect();
                execute_window_cols(&plan, &refs).unwrap().len()
            })
        });
    }
    group.finish();
}

fn bench_pipeline_modes(c: &mut Criterion) {
    let workload = WorkloadConfig::paper_constant(4_000.0, 8_000, 5);
    let arrivals = generate(&workload).unwrap();
    let sweep = SweepConfig::paper_default();
    let _ = &sweep; // documents where the defaults come from
    let mut group = c.benchmark_group("pipeline_8k_tuples_4x_overload");
    group.sample_size(10);
    for mode in ShedMode::all() {
        group.bench_function(mode.label(), |b| {
            b.iter(|| {
                let mut cfg = PipelineConfig::new(mode);
                cfg.cost = CostModel::from_capacity(1_000.0).unwrap();
                cfg.synopsis = SynopsisConfig::Sparse { cell_width: 10 };
                let report = Pipeline::run(paper_plan(), cfg, arrivals.iter().cloned()).unwrap();
                report_to_map(&report).len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_exec, bench_pipeline_modes);
criterion_main!(benches);
