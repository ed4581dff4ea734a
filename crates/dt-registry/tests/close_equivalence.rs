//! The registry's columnar close against the row reference: for each
//! query shape below, `close_window`'s payload and mass accounting must
//! equal `dt_engine::execute_window_rows` followed by
//! `QueryExecutor::payload`, with and without dropped synopses.

use dt_engine::{execute_window_rows, WindowOutput};
use dt_obs::MetricsRegistry;
use dt_query::{parse_select, Catalog, Planner};
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig, WindowInputs};
use dt_synopsis::SynopsisConfig;
use dt_triage::{QueryClose, QueryExecutor, ShedMode, SynPair, WindowPayload};
use dt_types::{DataType, Row, Schema, VDuration, WindowSpec};

const QUERIES: [&str; 5] = [
    // The paper's Fig. 7 three-way join.
    "SELECT a, COUNT(*) FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY a",
    "SELECT b, SUM(c) FROM S WHERE c > 1 GROUP BY b",
    "SELECT b, COUNT(*) FROM S GROUP BY b HAVING SUM(c) >= 8",
    "SELECT b, c FROM S WHERE b < 3",
    // Two FROM positions reading one physical stream.
    "SELECT x.a, COUNT(*) FROM R x, R y WHERE x.a = y.a GROUP BY x.a",
];

const STREAMS: [(&str, usize); 3] = [("R", 1), ("S", 2), ("T", 1)];

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

/// `n` seeded rows of `arity` values in `0..5`, so joins match often.
fn rows(seed: u64, n: usize, arity: usize) -> Vec<Row> {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % 5) as i64
    };
    (0..n)
        .map(|_| Row::from_ints(&(0..arity).map(|_| next()).collect::<Vec<_>>()))
        .collect()
}

fn phys(name: &str) -> usize {
    STREAMS.iter().position(|(n, _)| *n == name).unwrap()
}

/// Summed |value| mass of a payload, nested as the executor sums it.
fn mass(p: &WindowPayload) -> f64 {
    match p {
        WindowPayload::Groups(g) => g
            .values()
            .map(|vals| vals.iter().map(|v| v.abs()).sum::<f64>())
            .sum(),
        WindowPayload::Rows { rows, lost } => {
            rows.len() as f64 + lost.as_ref().map_or(0.0, |s| s.total_mass())
        }
    }
}

/// The row-path close of `sql`: row execution, then `payload`. The
/// merged mass comes from a HAVING-free copy of the plan, since the
/// executor measures it before HAVING filters groups.
fn reference(sql: &str, rows: &[Vec<Row>], pairs: Option<&[SynPair]>) -> QueryClose {
    let plan = Planner::new(&catalog())
        .plan(&parse_select(sql).unwrap())
        .unwrap();
    let inputs: Vec<Vec<&Row>> = plan
        .streams
        .iter()
        .map(|b| rows[phys(&b.stream)].iter().collect())
        .collect();
    let exact = execute_window_rows(&plan, &inputs).unwrap();
    let exact_mass = match &exact {
        WindowOutput::Groups(g) => g
            .values()
            .map(|aggs| aggs.iter().map(|a| a.value.abs()).sum::<f64>())
            .sum(),
        WindowOutput::Rows(r) => r.len() as f64,
    };
    let mut unfiltered = plan.clone();
    unfiltered.having.clear();
    let exec = QueryExecutor::new(vec![plan, unfiltered], ShedMode::DataTriage).unwrap();
    let pairs: Option<Vec<SynPair>> = pairs.map(|p| {
        exec.streams()
            .iter()
            .map(|s| p[phys(&s.name)].clone())
            .collect()
    });
    let merged = exec.payload(1, exact.clone(), pairs.as_deref()).unwrap();
    QueryClose {
        payload: exec.payload(0, exact, pairs.as_deref()).unwrap(),
        exact_mass,
        merged_mass: mass(&merged),
    }
}

#[test]
fn close_window_matches_row_reference() {
    let reg = QueryRegistry::new(
        RegistryConfig {
            catalog: catalog(),
            mode: ShedMode::DataTriage,
            spec: WindowSpec::new(VDuration::from_secs(1)).unwrap(),
            override_windows: true,
        },
        MetricsRegistry::disabled(),
    )
    .unwrap();
    for sql in QUERIES {
        reg.register(QuerySpec::new(sql)).unwrap();
    }
    let cfg = SynopsisConfig::Sparse { cell_width: 1 };
    for w in 0..4u64 {
        let mut kept = Vec::new();
        let mut pairs = Vec::new();
        let mut counts = Vec::new();
        for (s, &(_, arity)) in STREAMS.iter().enumerate() {
            let seed = w * 10 + s as u64;
            let k = rows(seed, 10 + 4 * s, arity);
            let d = rows(seed + 100, 2 * w as usize + s, arity);
            let mut pair = SynPair {
                kept: cfg.build(arity).unwrap(),
                dropped: cfg.build(arity).unwrap(),
            };
            for (side, rows) in [(&mut pair.kept, &k), (&mut pair.dropped, &d)] {
                for r in rows {
                    let point: Vec<i64> = r.values().iter().map(|v| v.as_i64().unwrap()).collect();
                    side.insert(&point).unwrap();
                }
                side.seal();
            }
            counts.push((k.len() as u64, d.len() as u64));
            kept.push(k);
            pairs.push(pair);
        }
        for with_dropped in [false, true] {
            let pairs = with_dropped.then_some(pairs.as_slice());
            let inputs = WindowInputs {
                rows: &kept,
                pairs,
                counts: &counts,
            };
            let closes = reg.close_window(w, inputs).unwrap();
            assert_eq!(closes.len(), QUERIES.len());
            for ((_, got), sql) in closes.iter().zip(QUERIES) {
                let want = reference(sql, &kept, pairs);
                let ctx = format!("window {w}, dropped {with_dropped}: {sql}");
                match (&got.payload, &want.payload) {
                    (WindowPayload::Groups(a), WindowPayload::Groups(b)) => {
                        assert_eq!(a, b, "{ctx}")
                    }
                    (
                        WindowPayload::Rows { rows: a, lost: la },
                        WindowPayload::Rows { rows: b, lost: lb },
                    ) => assert!(a == b && la == lb, "{ctx}"),
                    other => panic!("{ctx}: {other:?}"),
                }
                assert_eq!(got.exact_mass, want.exact_mass, "{ctx}");
                assert_eq!(got.merged_mass, want.merged_mass, "{ctx}");
                assert_eq!(got.estimated_share(), want.estimated_share(), "{ctx}");
            }
        }
    }
}
