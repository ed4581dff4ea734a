//! Engine and pipeline throughput: exact window execution at several
//! window sizes, the registry's close of the fanout-ingest query set
//! over one window, the merger's fold of two shards' seals, and the
//! full pipeline per shedding mode on one fixed workload.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dt_engine::{execute_window, execute_window_cols, CostModel};
use dt_metrics::{report_to_map, SweepConfig};
use dt_obs::MetricsRegistry;
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig, WindowInputs};
use dt_synopsis::SynopsisConfig;
use dt_triage::{merge_sealed, Pipeline, PipelineConfig, SealedWindow, ShedMode, SynPair};
use dt_types::{ColumnBatch, DataType, Row, Schema, VDuration, WindowSpec};
use dt_workload::{generate, ArrivalModel, Gaussian, StreamSpec, WorkloadConfig};
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

/// The e2e benchmark's fanout-ingest close, without the server: its
/// 16 single-stream aggregates over `R(a, b)`, registered in one
/// [`QueryRegistry`], each closing one 10k-row window together with
/// the stream's sealed sparse kept/dropped synopses (nothing shed).
fn bench_window_exec_fanout(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    catalog.add_stream(
        "R",
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
    );
    let reg = QueryRegistry::new(
        RegistryConfig {
            catalog,
            mode: ShedMode::DataTriage,
            spec: WindowSpec::new(VDuration::from_millis(100)).unwrap(),
            override_windows: true,
        },
        MetricsRegistry::disabled(),
    )
    .unwrap();
    for k in 0..8 {
        let cut = 20 + 5 * k;
        for sql in [
            format!("SELECT a, COUNT(*) FROM R WHERE b > {cut} GROUP BY a"),
            format!("SELECT a, SUM(b) FROM R WHERE b < {} GROUP BY a", cut + 40),
        ] {
            reg.register(QuerySpec::new(&sql)).unwrap();
        }
    }
    let rows: Vec<Row> = generate(&WorkloadConfig {
        streams: vec![StreamSpec::uniform_bursts(2, Gaussian::paper_default())],
        arrival: ArrivalModel::Constant { rate: 100_000.0 },
        total_tuples: 10_000,
        seed: 7,
    })
    .unwrap()
    .into_iter()
    .map(|(_, t)| t.row)
    .collect();
    let synopsis = SynopsisConfig::default_sparse();
    let mut pair = SynPair {
        kept: synopsis.build(2).unwrap(),
        dropped: synopsis.build(2).unwrap(),
    };
    for r in &rows {
        let point: Vec<i64> = r.values().iter().map(|v| v.as_i64().unwrap()).collect();
        pair.kept.insert(&point).unwrap();
    }
    pair.kept.seal();
    pair.dropped.seal();
    let (kept, pairs, counts) = ([rows], [pair], [(10_000u64, 0u64)]);
    let close = || {
        let inputs = WindowInputs {
            rows: &kept,
            pairs: Some(&pairs),
            counts: &counts,
        };
        reg.close_window(0, inputs).unwrap().len()
    };
    assert_eq!(close(), 16, "every query closes the window");
    let mut group = c.benchmark_group("window_exec_fanout");
    group.sample_size(10);
    group.bench_function("16_queries/10k_rows", |b| b.iter(close));
    group.finish();
}

/// Two shards' seals of one 10k-row window, as `merge_sealed` receives
/// them: each tuple's ingest sequence is routed to a random shard, and
/// every 8th 64-tuple batch a shard queues loses its newer half to the
/// other shard, which seals those stolen tuples right after its own
/// batch — so each part is ascending except for short out-of-order
/// runs.
fn sealed_parts(seed: u64) -> Vec<SealedWindow> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut queues: [Vec<u64>; 2] = Default::default();
    for seq in 0..10_000u64 {
        queues[rng.gen_range(0..2usize)].push(seq);
    }
    let mut parts: [Vec<u64>; 2] = Default::default();
    let batches = queues
        .iter()
        .map(|q| q.len().div_ceil(64))
        .max()
        .unwrap_or(0);
    for i in 0..batches {
        for s in 0..2 {
            let Some(batch) = queues[s].chunks(64).nth(i) else {
                continue;
            };
            if i % 8 == 7 && batch.len() > 32 {
                let (own, stolen) = batch.split_at(32);
                parts[s].extend_from_slice(own);
                parts[1 - s].extend_from_slice(stolen);
            } else {
                parts[s].extend_from_slice(batch);
            }
        }
    }
    parts
        .into_iter()
        .enumerate()
        .map(|(shard, seqs)| {
            let mut part = SealedWindow::empty(
                0,
                0,
                ShedMode::DropOnly,
                &SynopsisConfig::default_sparse(),
                2,
            )
            .unwrap();
            part.shard = shard;
            part.rows = seqs
                .iter()
                .map(|&q| Row::from_ints(&[q as i64 % 97, q as i64]))
                .collect();
            part.kept = seqs.len() as u64;
            part.arrived = part.kept;
            part.seqs = seqs;
            part
        })
        .collect()
}

/// The merger's fold of one window's two shard seals (rows back into
/// ingest order). Cloning the parts and freeing the merged window's
/// 10k rows both fall outside `iter_batched`'s timed region, so only
/// the merge is measured.
fn bench_shard_merge(c: &mut Criterion) {
    let parts = sealed_parts(11);
    let merged = merge_sealed(parts.clone()).unwrap();
    assert!(merged.seqs.windows(2).all(|w| w[0] < w[1]), "arrival order");
    assert_eq!(merged.rows.len(), 10_000);
    let mut group = c.benchmark_group("shard_merge");
    group.sample_size(10);
    group.bench_function("2_parts/10k_rows", |b| {
        b.iter_batched(
            || parts.clone(),
            |parts| merge_sealed(parts).unwrap(),
            BatchSize::LargeInput,
        )
    });
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

criterion_group!(
    benches,
    bench_window_exec,
    bench_window_exec_fanout,
    bench_shard_merge,
    bench_pipeline_modes
);
criterion_main!(benches);
