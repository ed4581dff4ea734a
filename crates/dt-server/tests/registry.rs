//! Acceptance tests for the runtime query registry (ISSUE 6): queries
//! registered over the wire, fan-out correctness against single-query
//! baselines, the shared-triage invariant, register/unregister churn
//! while windows seal, and the HTTP 404/405 surface.
//!
//! Everything runs under a frozen [`VirtualClock`]: the runtime never
//! advances time on its own, so the tests decide exactly when windows
//! close and the tuple → window assignment is deterministic.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{
    fetch_metrics, fetch_stats, Client, MetricsRegistry, QuerySpec, Server, ServerConfig,
    VirtualClock,
};
use dt_synopsis::SynopsisConfig;
use dt_triage::{RunReport, ShedMode};
use dt_types::{DataType, Row, Schema, Timestamp, VDuration};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn poll(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

fn two_stream_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c.add_stream("S", Schema::from_pairs(&[("b", DataType::Int)]));
    c
}

/// The deterministic two-window tuple schedule every comparison run
/// replays: values are skewed so coarse-synopsis estimates are
/// non-trivial, timestamps pace both windows.
fn feed_two_windows(client: &mut Client, clock: &Arc<VirtualClock>, addr: SocketAddr) {
    // Window 0: 12 tuples on R, 9 on S.
    for i in 0..12u64 {
        let ts = Timestamp::from_micros(100_000 + i * 50_000);
        let v = [0, 0, 0, 1, 1, 2, 3, 7][i as usize % 8];
        client
            .send("R", &Row::from_ints(&[v]), Some(ts))
            .expect("send R");
    }
    for i in 0..9u64 {
        let ts = Timestamp::from_micros(120_000 + i * 60_000);
        let v = [5, 5, 6, 8, 5, 6, 5, 9][i as usize % 8];
        client
            .send("S", &Row::from_ints(&[v]), Some(ts))
            .expect("send S");
    }
    poll("window 0 ingest", || {
        let s = fetch_stats(addr).unwrap();
        s.stream("R").unwrap().offered == 12 && s.stream("S").unwrap().offered == 9
    });
    clock.set(Timestamp::from_micros(1_200_000));
    poll("window 0 emitted", || {
        fetch_stats(addr).unwrap().windows_emitted >= 1
    });

    // Window 1: 8 tuples on R, 6 on S.
    for i in 0..8u64 {
        let ts = Timestamp::from_micros(1_300_000 + i * 60_000);
        let v = [2, 2, 3, 0, 2, 1, 9, 2][i as usize % 8];
        client
            .send("R", &Row::from_ints(&[v]), Some(ts))
            .expect("send R");
    }
    for i in 0..6u64 {
        let ts = Timestamp::from_micros(1_350_000 + i * 80_000);
        let v = [6, 7, 7, 5, 7, 6][i as usize % 6];
        client
            .send("S", &Row::from_ints(&[v]), Some(ts))
            .expect("send S");
    }
    poll("window 1 ingest", || {
        let s = fetch_stats(addr).unwrap();
        s.stream("R").unwrap().offered == 20 && s.stream("S").unwrap().offered == 15
    });
    clock.set(Timestamp::from_micros(2_200_000));
    poll("window 1 emitted", || {
        fetch_stats(addr).unwrap().windows_emitted >= 2
    });
}

fn base_config(sql: &str, mode: ShedMode) -> ServerConfig {
    let mut cfg = ServerConfig::new(sql, two_stream_catalog());
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 5 };
    cfg.mode = mode;
    cfg
}

/// A window's merged groups as a canonical, bit-exact form: rows
/// (debug-printed) sorted, aggregate floats as raw bits.
fn canonical_groups(run: &RunReport, w: usize) -> Vec<(String, Vec<u64>)> {
    let mut out: Vec<(String, Vec<u64>)> = run.windows[w]
        .groups()
        .expect("aggregating query")
        .iter()
        .map(|(row, aggs)| {
            (
                format!("{row:?}"),
                aggs.iter().map(|a| a.to_bits()).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The three statements registered over the wire, spanning both
/// streams.
const WIRE_SQL: [&str; 3] = [
    "SELECT a, COUNT(*) FROM R GROUP BY a",
    "SELECT a, SUM(a) FROM R GROUP BY a",
    "SELECT b, SUM(b) FROM S GROUP BY b",
];

/// Run the multi-query server: one startup query plus [`WIRE_SQL`]
/// registered through the wire protocol; returns the per-query runs
/// for the wire-registered ids.
fn multi_query_run(mode: ShedMode) -> Vec<RunReport> {
    let cfg = base_config("SELECT a, COUNT(*) FROM R GROUP BY a", mode);
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut client = Client::connect(addr).expect("client connects");

    let mut ids = Vec::new();
    for sql in WIRE_SQL {
        ids.push(
            client
                .register_query(sql, None, None, None)
                .expect("wire registration"),
        );
    }
    assert_eq!(ids, vec![1, 2, 3], "dense ids after the startup query");
    let listed = client.list_queries().expect("list");
    assert_eq!(listed.len(), 4);
    assert!(listed.iter().all(|q| q.active));
    assert_eq!(listed[2].sql, WIRE_SQL[1]);

    feed_two_windows(&mut client, &clock, addr);
    client.close().expect("close");
    let mut report = server.shutdown().expect("shutdown");
    assert_eq!(report.reports.len(), 4);
    report.reports.drain(..1); // drop the startup query
    report.reports
}

/// Run one statement alone, in its own single-query server, over the
/// identical tuple schedule.
fn single_query_run(sql: &str, mode: ShedMode) -> RunReport {
    let cfg = base_config(sql, mode);
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut client = Client::connect(addr).expect("client connects");
    feed_two_windows(&mut client, &clock, addr);
    client.close().expect("close");
    let mut report = server.shutdown().expect("shutdown");
    report.reports.remove(0)
}

/// Acceptance (a): every wire-registered query's merged output is
/// bit-identical to running the same statement alone at the same
/// input — on the exact path (no shedding) *and* on the estimate
/// path (summarize-only sheds every tuple into the shared synopses
/// deterministically).
#[test]
fn wire_registered_queries_match_single_query_runs() {
    for mode in [ShedMode::DataTriage, ShedMode::SummarizeOnly] {
        let multi = multi_query_run(mode);
        for (run, sql) in multi.iter().zip(WIRE_SQL) {
            let solo = single_query_run(sql, mode);
            let ids: Vec<u64> = run.windows.iter().map(|w| w.window).collect();
            assert_eq!(ids, vec![0, 1], "{mode:?} {sql}: both windows, in order");
            assert_eq!(solo.windows.len(), run.windows.len());
            for w in 0..run.windows.len() {
                assert_eq!(
                    canonical_groups(run, w),
                    canonical_groups(&solo, w),
                    "{mode:?} window {w} of {sql}: shared-pipeline output \
                     must be bit-identical to the single-query run"
                );
            }
        }
    }
}

fn synopsis_inserts(metrics_text: &str, stream: &str) -> u64 {
    let needle = format!("dt_triage_synopsis_inserts_total{{stream=\"{stream}\"}} ");
    metrics_text
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("no synopsis-insert series for {stream}:\n{metrics_text}"))
        .trim()
        .parse()
        .expect("counter value")
}

/// Acceptance (b): per-stream synopsis-insert work is independent of
/// how many queries are attached — triage is paid once per stream.
#[test]
fn synopsis_insert_work_is_independent_of_query_count() {
    let run = |extra_queries: usize| -> u64 {
        let mut cfg = base_config(
            "SELECT a, COUNT(*) FROM R GROUP BY a",
            ShedMode::SummarizeOnly,
        );
        cfg.metrics = MetricsRegistry::new();
        let clock = Arc::new(VirtualClock::new());
        let server =
            Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
        let addr = server.addr().expect("bound address");
        let handle = server.handle();
        for _ in 0..extra_queries {
            handle
                .register(QuerySpec::new("SELECT a, SUM(a) FROM R GROUP BY a"))
                .expect("register");
        }
        let mut client = Client::connect(addr).expect("client connects");
        feed_two_windows(&mut client, &clock, addr);
        let inserts = synopsis_inserts(&fetch_metrics(addr).expect("scrape"), "R");
        client.close().expect("close");
        server.shutdown().expect("shutdown");
        inserts
    };
    let alone = run(0);
    let crowded = run(3);
    assert!(alone > 0, "summarize-only folds every tuple into synopses");
    assert_eq!(
        alone, crowded,
        "synopsis inserts per stream must not scale with attached queries"
    );
}

/// Satellite: registering and unregistering concurrently with window
/// sealing neither deadlocks nor loses windows, and a removed query's
/// results stop cleanly at a window boundary.
#[test]
fn concurrent_churn_while_windows_seal() {
    let mut cfg = base_config("SELECT a, COUNT(*) FROM R GROUP BY a", ShedMode::DataTriage);
    cfg.window = Some(VDuration::from_secs(1));
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");

    const WINDOWS: u64 = 5;
    const CYCLES: usize = 8;
    let churners: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("churn client connects");
                for _ in 0..CYCLES {
                    let id = c
                        .register_query("SELECT a, SUM(a) FROM R GROUP BY a", None, None, None)
                        .expect("churn register");
                    std::thread::sleep(Duration::from_millis(1));
                    c.unregister_query(id).expect("churn unregister");
                }
            })
        })
        .collect();

    let mut client = Client::connect(addr).expect("client connects");
    for w in 0..WINDOWS {
        for i in 0..10u64 {
            let ts = Timestamp::from_micros(w * 1_000_000 + 100_000 + i * 50_000);
            client
                .send("R", &Row::from_ints(&[(i % 3) as i64]), Some(ts))
                .expect("send");
        }
        let offered = (w + 1) * 10;
        poll("ingest", || {
            fetch_stats(addr).unwrap().stream("R").unwrap().offered == offered
        });
        clock.set(Timestamp::from_micros((w + 1) * 1_000_000 + 200_000));
        poll("window sealed", || {
            fetch_stats(addr).unwrap().windows_emitted > w
        });
    }
    for t in churners {
        t.join().expect("churn thread panicked");
    }
    let report = server.shutdown().expect("shutdown");

    // The long-lived startup query saw every window, in order — churn
    // lost nothing.
    let ids: Vec<u64> = report.reports[0].windows.iter().map(|w| w.window).collect();
    assert_eq!(ids, (0..WINDOWS).collect::<Vec<_>>());
    assert_eq!(report.queries.len(), 1 + 2 * CYCLES);

    // Every churned query's results stop cleanly at its boundaries:
    // contiguous window ids inside [active_from, active_to).
    for q in &report.queries[1..] {
        let to = q.active_to.expect("churned queries all unregistered");
        assert!(q.active_from <= to);
        let run = &report.reports[q.id as usize];
        let got: Vec<u64> = run.windows.iter().map(|w| w.window).collect();
        let expect: Vec<u64> = (q.active_from..to.min(WINDOWS)).collect();
        assert_eq!(
            got, expect,
            "query {} must cover exactly its registered span",
            q.id
        );
        assert_eq!(q.windows_emitted, expect.len() as u64);
    }
}

/// Compile and command errors come back over the wire as structured
/// error replies — actionable (line/column) and non-fatal to the
/// connection.
#[test]
fn wire_errors_are_structured_and_nonfatal() {
    let cfg = base_config("SELECT a, COUNT(*) FROM R GROUP BY a", ShedMode::DataTriage);
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut client = Client::connect(addr).expect("client connects");

    let err = client
        .register_query("SELECT a,\n COUNT( FROM R GROUP BY a", None, None, None)
        .expect_err("bad SQL must fail");
    assert!(err.to_string().contains("line 2"), "{err}");
    let err = client
        .register_query("SELECT z, COUNT(*) FROM R GROUP BY z", None, None, None)
        .expect_err("unknown column must fail");
    assert!(err.to_string().contains('z'), "{err}");
    let err = client.unregister_query(99).expect_err("unknown id");
    assert!(err.to_string().contains("99"), "{err}");

    // The connection survived all three rejections, and none of them
    // burned the frame-parse error budget.
    let listed = client.list_queries().expect("list still works");
    assert_eq!(listed.len(), 1);
    assert_eq!(fetch_stats(addr).unwrap().parse_errors, 0);
    client.close().expect("close");
    server.shutdown().expect("shutdown");
}

fn raw_request(addr: SocketAddr, first_line: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(format!("{first_line}\r\n\r\n").as_bytes())
        .expect("request");
    s.shutdown(std::net::Shutdown::Write).expect("shutdown");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("reply");
    reply
}

/// Satellite: the HTTP-ish probe surface answers unknown paths with
/// 404 and non-GET methods with 405 instead of treating them as
/// broken tuple frames.
#[test]
fn http_probe_answers_404_and_405() {
    let cfg = base_config("SELECT a, COUNT(*) FROM R GROUP BY a", ShedMode::DataTriage);
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");

    let reply = raw_request(addr, "GET /nope HTTP/1.0");
    assert!(reply.starts_with("HTTP/1.0 404 Not Found\r\n"), "{reply}");
    for method in [
        "POST /stats HTTP/1.0",
        "PUT /metrics HTTP/1.0",
        "DELETE / HTTP/1.0",
    ] {
        let reply = raw_request(addr, method);
        assert!(
            reply.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"),
            "{method}: {reply}"
        );
        assert!(reply.contains("only GET"), "{reply}");
    }
    // HTTP rejections never count against frame parsing.
    assert_eq!(fetch_stats(addr).unwrap().parse_errors, 0);
    server.shutdown().expect("shutdown");
}
