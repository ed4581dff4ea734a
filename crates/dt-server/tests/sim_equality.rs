//! The server and the simulator fold, seal, merge and close windows
//! through the same `StreamTriage`, `merge_sealed` and
//! `QueryExecutor`, so whenever both shed the same tuples they must
//! agree exactly: for every registered query, the server's windows
//! equal `SharedPipeline`'s on payload and on the arrived/kept/dropped
//! counts, whatever the plan mix and the `--shards` width. Two cases
//! fix the shed set: nothing is shed (capacities on both sides hold
//! the whole run), or everything is (summarize-only, under every
//! synopsis kind).
//!
//! The server runs under a `VirtualClock` parked at zero and unpaced,
//! so its workers consume at once, the seal watermark never moves, and
//! every window seals in the shutdown drain.

use std::sync::Arc;

use dt_engine::CostModel;
use dt_query::{parse_select, Catalog, Planner};
use dt_server::{Server, ServerConfig, VirtualClock};
use dt_synopsis::SynopsisConfig;
use dt_triage::{PipelineConfig, SharedPipeline, ShedMode, WindowPayload, WindowResult};
use dt_types::{DataType, Row, Schema, Timestamp, Tuple, VDuration};
use proptest::prelude::*;

/// Query templates over R(a), S(b, c) and T(d), with the streams each
/// reads: one-, two- and three-stream plans, grouped aggregates and a
/// projection.
const QUERIES: &[(&str, &[&str])] = &[
    ("SELECT a, COUNT(*) FROM R GROUP BY a", &["R"]),
    ("SELECT a, SUM(a) FROM R GROUP BY a", &["R"]),
    ("SELECT b, COUNT(*) FROM S GROUP BY b", &["S"]),
    ("SELECT c, SUM(b) FROM S GROUP BY c", &["S"]),
    ("SELECT d, COUNT(*) FROM T GROUP BY d", &["T"]),
    (
        "SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a",
        &["R", "S"],
    ),
    (
        "SELECT a, COUNT(*) FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY a",
        &["R", "S", "T"],
    ),
    ("SELECT a FROM R", &["R"]),
];

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

/// One arrival: stream name and row.
type Arrival = (&'static str, Row, Timestamp);

/// The simulator's windows per query, and how many tuples it shed.
fn simulate_shedding(
    sqls: &[&str],
    mode: ShedMode,
    synopsis: SynopsisConfig,
    arrivals: &[Arrival],
) -> (Vec<Vec<WindowResult>>, u64) {
    let catalog = catalog();
    let planner = Planner::new(&catalog);
    let plans = sqls
        .iter()
        .map(|sql| planner.plan(&parse_select(sql).unwrap()).unwrap())
        .collect();
    let mut cfg = PipelineConfig::new(mode);
    cfg.synopsis = synopsis;
    cfg.queue_capacity = 1 << 20;
    cfg.cost = CostModel::from_capacity(1e6).unwrap();
    let mut p = SharedPipeline::new(plans, cfg).unwrap();
    for (name, row, ts) in arrivals {
        let s = p.streams().iter().position(|s| s.name == *name).unwrap();
        p.offer(s, Tuple::new(row.clone(), *ts)).unwrap();
    }
    let reports = p.finish().unwrap();
    let dropped = reports[0].totals.dropped;
    (reports.into_iter().map(|r| r.windows).collect(), dropped)
}

fn simulate(
    sqls: &[&str],
    mode: ShedMode,
    synopsis: SynopsisConfig,
    arrivals: &[Arrival],
) -> Vec<Vec<WindowResult>> {
    let (windows, dropped) = simulate_shedding(sqls, mode, synopsis, arrivals);
    assert_eq!(dropped, 0, "the simulator must not shed");
    windows
}

/// The server's windows per query, and how many tuples it shed.
fn serve_shedding(
    sqls: &[&str],
    mode: ShedMode,
    synopsis: SynopsisConfig,
    shards: usize,
    arrivals: &[Arrival],
) -> (Vec<Vec<WindowResult>>, u64) {
    let mut cfg = ServerConfig::new(sqls[0], catalog());
    cfg.queries = sqls.iter().map(|s| s.to_string()).collect();
    cfg.mode = mode;
    cfg.synopsis = synopsis;
    cfg.window = Some(VDuration::from_secs(1));
    cfg.channel_capacity = 1 << 16;
    cfg.pace_by_timestamp = false;
    cfg.shards = shards;
    let server = Server::start(&cfg, None, Arc::new(VirtualClock::new())).unwrap();
    let handle = server.handle();
    for (name, row, ts) in arrivals {
        let s = handle.stream_index(name).unwrap();
        handle.offer(s, Tuple::new(row.clone(), *ts)).unwrap();
    }
    let report = server.shutdown().unwrap();
    let shed = report.streams.iter().map(|s| s.shed).sum();
    (
        report.reports.into_iter().map(|r| r.windows).collect(),
        shed,
    )
}

fn serve(
    sqls: &[&str],
    mode: ShedMode,
    synopsis: SynopsisConfig,
    shards: usize,
    arrivals: &[Arrival],
) -> Vec<Vec<WindowResult>> {
    let (windows, shed) = serve_shedding(sqls, mode, synopsis, shards, arrivals);
    assert_eq!(shed, 0, "the server must not shed");
    windows
}

fn same_payload(a: &WindowPayload, b: &WindowPayload) -> bool {
    match (a, b) {
        (WindowPayload::Groups(x), WindowPayload::Groups(y)) => x == y,
        (WindowPayload::Rows { rows: x, lost: lx }, WindowPayload::Rows { rows: y, lost: ly }) => {
            x == y && lx.as_ref().map(|s| s.total_mass()) == ly.as_ref().map(|s| s.total_mass())
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn server_windows_equal_simulator_windows_without_shedding(
        picks in prop::collection::vec(0usize..QUERIES.len(), 1..4),
        data_triage in any::<bool>(),
        cell_width in 1i64..8,
        // (stream pick, value, value, gap µs) per arrival.
        raw in prop::collection::vec((0usize..3, 0i64..6, 0i64..6, 0u64..300_000), 1..120),
    ) {
        let mut sqls: Vec<&str> = Vec::new();
        // Traffic only on streams some picked query reads: the
        // simulator has no other physical streams.
        let mut read: Vec<&'static str> = Vec::new();
        for &i in &picks {
            let (sql, streams) = QUERIES[i];
            if !sqls.contains(&sql) {
                sqls.push(sql);
            }
            for s in streams.iter() {
                if !read.contains(s) {
                    read.push(s);
                }
            }
        }
        let mut ts = 0u64;
        let arrivals: Vec<Arrival> = raw
            .iter()
            .map(|&(pick, x, y, gap)| {
                ts += gap;
                let name = read[pick % read.len()];
                let row = if name == "S" {
                    Row::from_ints(&[x, y])
                } else {
                    Row::from_ints(&[x])
                };
                (name, row, Timestamp::from_micros(ts))
            })
            .collect();
        let mode = if data_triage { ShedMode::DataTriage } else { ShedMode::DropOnly };
        let synopsis = SynopsisConfig::Sparse { cell_width };

        let sim = simulate(&sqls, mode, synopsis, &arrivals);
        for shards in [1, 2, 4] {
            let srv = serve(&sqls, mode, synopsis, shards, &arrivals);
            prop_assert_eq!(srv.len(), sim.len());
            for (q, (srv_q, sim_q)) in srv.iter().zip(&sim).enumerate() {
                // The server seals every window from 0 on; the
                // simulator emits only windows with arrivals.
                let (busy, idle): (Vec<&WindowResult>, Vec<&WindowResult>) =
                    srv_q.iter().partition(|w| w.arrived > 0);
                prop_assert!(idle.iter().all(|w| w.kept == 0 && w.dropped == 0));
                prop_assert_eq!(busy.len(), sim_q.len(), "query {} shards {}", q, shards);
                for (a, b) in busy.iter().zip(sim_q) {
                    prop_assert_eq!(a.window, b.window);
                    prop_assert_eq!(
                        (a.arrived, a.kept, a.dropped),
                        (b.arrived, b.kept, b.dropped),
                        "query {} window {} shards {}", q, a.window, shards
                    );
                    prop_assert!(
                        same_payload(&a.payload, &b.payload),
                        "query {} window {} shards {}: {:?} vs {:?}",
                        q, a.window, shards, a.payload, b.payload
                    );
                }
            }
        }
    }
}

/// The picked queries (deduplicated) and `raw` turned into arrivals on
/// the streams they read.
fn workload(picks: &[usize], raw: &[(usize, i64, i64, u64)]) -> (Vec<&'static str>, Vec<Arrival>) {
    let mut sqls: Vec<&'static str> = Vec::new();
    let mut read: Vec<&'static str> = Vec::new();
    for &i in picks {
        let (sql, streams) = QUERIES[i];
        if !sqls.contains(&sql) {
            sqls.push(sql);
        }
        for s in streams.iter() {
            if !read.contains(s) {
                read.push(s);
            }
        }
    }
    let mut ts = 0u64;
    let arrivals = raw
        .iter()
        .map(|&(pick, x, y, gap)| {
            ts += gap;
            let name = read[pick % read.len()];
            let row = if name == "S" {
                Row::from_ints(&[x, y])
            } else {
                Row::from_ints(&[x])
            };
            (name, row, Timestamp::from_micros(ts))
        })
        .collect();
    (sqls, arrivals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summarize-only sheds every tuple in both runtimes, each with its
    /// per-stream arrival index as sequence number, so every synopsis
    /// kind — order-sensitive MHIST and the bottom-k reservoir too —
    /// must build the same synopses and close the same windows.
    #[test]
    fn server_windows_equal_simulator_windows_when_everything_is_summarized(
        picks in prop::collection::vec(0usize..QUERIES.len(), 1..4),
        raw in prop::collection::vec((0usize..3, 0i64..6, 0i64..6, 0u64..300_000), 1..120),
    ) {
        let (sqls, arrivals) = workload(&picks, &raw);
        let mode = ShedMode::SummarizeOnly;
        let configs = [
            SynopsisConfig::Sparse { cell_width: 2 },
            SynopsisConfig::MHist { max_buckets: 4, alignment: None },
            SynopsisConfig::AdaptiveSparse { base_width: 1, max_cells: 4 },
            SynopsisConfig::Reservoir { capacity: 4, seed: 3 },
        ];
        let total = arrivals.len() as u64;
        for synopsis in configs {
            let kind = synopsis.label();
            let (sim, dropped) = simulate_shedding(&sqls, mode, synopsis, &arrivals);
            prop_assert_eq!(dropped, total, "{}: the simulator sheds everything", kind);
            for shards in [1, 2, 4] {
                let (srv, shed) = serve_shedding(&sqls, mode, synopsis, shards, &arrivals);
                prop_assert_eq!(shed, total, "{} shards {}: the server sheds everything", kind, shards);
                prop_assert_eq!(srv.len(), sim.len());
                for (q, (srv_q, sim_q)) in srv.iter().zip(&sim).enumerate() {
                    let busy: Vec<&WindowResult> = srv_q.iter().filter(|w| w.arrived > 0).collect();
                    prop_assert_eq!(busy.len(), sim_q.len(), "{} query {} shards {}", kind, q, shards);
                    for (a, b) in busy.iter().zip(sim_q) {
                        prop_assert_eq!(a.window, b.window);
                        prop_assert_eq!(
                            (a.arrived, a.kept, a.dropped),
                            (b.arrived, b.kept, b.dropped),
                            "{} query {} window {} shards {}", kind, q, a.window, shards
                        );
                        prop_assert!(
                            same_payload(&a.payload, &b.payload),
                            "{} query {} window {} shards {}: {:?} vs {:?}",
                            kind, q, a.window, shards, a.payload, b.payload
                        );
                    }
                }
            }
        }
    }
}
