//! The acceptance test: a full server on a loopback socket, driven
//! deterministically by a virtual clock.
//!
//! A real multi-threaded server, a real TCP client, and yet a
//! reproducible run: nothing in the runtime advances a
//! [`VirtualClock`], so the test decides when windows close and when
//! the engine is allowed to consume. Freezing the clock during the
//! burst stops the paced worker cold, which makes channel overflow —
//! i.e. triage shedding — a certainty rather than a race.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{
    fetch_metrics, fetch_stats, Client, MetricsRegistry, Server, ServerConfig, VirtualClock,
    MAX_LINE_BYTES, MAX_WINDOWS_AHEAD,
};
use dt_synopsis::SynopsisConfig;
use dt_triage::RunReport;
use dt_types::{DataType, Row, Schema, Timestamp, VDuration};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPACITY: usize = 64;
const BURST: usize = 300;

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

/// Sum of the first aggregate (COUNT(*)) across a window's groups.
fn total_count(report: &RunReport, w: usize) -> f64 {
    report.windows[w]
        .groups()
        .expect("aggregating query")
        .values()
        .map(|aggs| aggs[0])
        .sum()
}

#[test]
fn loopback_burst_sheds_then_drains_gracefully() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.channel_capacity = CAPACITY;
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.grace = VDuration::from_millis(100);

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut client = Client::connect(addr).expect("client connects");

    // Phase 1 — pre-burst: 10 tuples inside window 0, well under the
    // channel capacity. Nothing may be shed.
    for i in 0..10u64 {
        let ts = Timestamp::from_micros(100_000 + i * 40_000);
        client
            .send("R", &Row::from_ints(&[(i % 3) as i64]), Some(ts))
            .expect("send");
    }
    poll("pre-burst ingest", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 10
    });
    let s = fetch_stats(addr).unwrap();
    assert_eq!(
        s.stream("R").unwrap().shed,
        0,
        "no shedding before the burst"
    );
    assert_eq!(s.stream("R").unwrap().kept, 10);

    // Close window 0: move the clock past its end plus the grace
    // period and wait for the merger to emit it.
    clock.set(Timestamp::from_micros(1_200_000));
    poll("window 0 emitted", || {
        fetch_stats(addr).unwrap().windows_emitted >= 1
    });

    // Phase 2 — burst: 300 tuples inside window 1, all timestamped
    // ahead of the (now frozen) clock. The paced worker cannot consume
    // them, so at most `capacity` fit in the channel plus one parked
    // tuple — everything else overflows into triage shedding.
    for i in 0..BURST as u64 {
        let ts = Timestamp::from_micros(1_300_000 + i * 1_990);
        client
            .send("R", &Row::from_ints(&[(i % 3) as i64]), Some(ts))
            .expect("send");
    }
    poll("burst ingest", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 10 + BURST as u64
    });
    let s = fetch_stats(addr).unwrap().stream("R").unwrap().clone();
    assert!(
        s.shed >= (BURST - CAPACITY - 1) as u64,
        "burst must overflow the bounded channel (shed {})",
        s.shed
    );
    assert_eq!(
        s.kept + s.shed,
        10 + BURST as u64,
        "every tuple kept or shed"
    );

    // Close window 1.
    clock.set(Timestamp::from_micros(2_200_000));
    poll("window 1 emitted", || {
        fetch_stats(addr).unwrap().windows_emitted >= 2
    });

    // Phase 3 — tail: 5 tuples in window 2, plus two bad lines the
    // server must count (not crash on). The clock never advances past
    // window 2; only graceful shutdown may emit it.
    client.send_line("this is not a frame").expect("send");
    client
        .send_line(r#"{"stream":"NOPE","row":[1]}"#)
        .expect("send");
    for i in 0..5u64 {
        let ts = Timestamp::from_micros(2_300_000 + i * 50_000);
        client
            .send("R", &Row::from_ints(&[7]), Some(ts))
            .expect("send");
    }
    poll("tail ingest", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 15 + BURST as u64
    });
    assert_eq!(fetch_stats(addr).unwrap().parse_errors, 2);

    client.close().expect("client close");
    let report = server.shutdown().expect("graceful shutdown");

    // (a) Every window emitted, strictly in order, exact + estimate
    // merged. The cell-width-1 sparse synopsis loses nothing for
    // COUNT, so the burst window's merged total must be exact even
    // though most of its tuples were shed.
    assert_eq!(report.reports.len(), 1);
    let run = &report.reports[0];
    let ids: Vec<u64> = run.windows.iter().map(|w| w.window).collect();
    assert_eq!(ids, vec![0, 1, 2], "windows in order, none missing");
    assert_eq!(total_count(run, 0), 10.0);
    assert_eq!(total_count(run, 1), BURST as f64);
    assert_eq!(total_count(run, 2), 5.0);

    // (b) Shedding happened exactly where the burst was.
    assert_eq!(run.windows[0].dropped, 0);
    assert!(run.windows[1].dropped > 0, "burst window must shed");
    assert_eq!(run.windows[2].dropped, 0);
    assert_eq!(
        run.windows[1].kept + run.windows[1].dropped,
        BURST as u64,
        "burst tuples all accounted for"
    );

    // (c) Graceful shutdown drained the in-flight window without any
    // clock help, and the final counters line up.
    assert_eq!(report.windows_emitted, 3);
    let r = &report.streams[0];
    assert_eq!(r.name, "R");
    assert_eq!(r.offered, 315);
    assert_eq!(r.offered, r.kept + r.shed);
    assert_eq!(run.totals.arrived, 315);
    assert_eq!(run.totals.dropped, r.shed);
}

/// One raw HTTP-ish GET, headers included.
fn raw_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("request");
    s.shutdown(std::net::Shutdown::Write).expect("shutdown");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("reply");
    reply
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.metrics = MetricsRegistry::new();

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");

    // An idle server already exposes the full series set, zero-valued.
    let idle = fetch_metrics(addr).expect("idle scrape");
    assert!(idle.contains("dt_server_ingest_frames_total 0"), "{idle}");
    assert!(
        idle.contains("dt_server_queue_depth{stream=\"R\"} 0"),
        "{idle}"
    );

    let mut client = Client::connect(addr).expect("client connects");
    for i in 0..20u64 {
        let ts = Timestamp::from_micros(100_000 + i * 10_000);
        client
            .send("R", &Row::from_ints(&[(i % 3) as i64]), Some(ts))
            .expect("send");
    }
    poll("ingest", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 20
    });
    clock.set(Timestamp::from_micros(1_200_000));
    poll("window 0 emitted", || {
        fetch_stats(addr).unwrap().windows_emitted >= 1
    });

    let text = fetch_metrics(addr).expect("scrape");
    // Acceptance surface: queue-depth gauges, per-mode shed counters,
    // and a window-execution latency histogram with quantiles.
    assert!(
        text.contains("# TYPE dt_server_queue_depth gauge"),
        "{text}"
    );
    assert!(
        text.contains("dt_server_queue_depth{stream=\"R\"}"),
        "{text}"
    );
    assert!(
        text.contains(
            "dt_triage_stream_tuples_total{stream=\"R\",mode=\"data-triage\",outcome=\"kept\"} 20"
        ),
        "{text}"
    );
    assert!(
        text.contains("# TYPE dt_engine_window_exec_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("dt_engine_window_exec_us_bucket{le=\"+Inf\"} 1"),
        "{text}"
    );
    assert!(text.contains("dt_engine_window_exec_us_p99"), "{text}");
    // The merger closed the window through the columnar executor: one
    // batch of all 20 kept rows.
    assert!(text.contains("dt_engine_batch_rows_count 1"), "{text}");
    assert!(text.contains("dt_engine_batch_rows_sum 20"), "{text}");
    assert!(text.contains("dt_server_windows_emitted_total 1"), "{text}");
    assert!(text.contains("dt_server_ingest_frames_total 20"), "{text}");

    // Satellite: explicit Content-Type headers on both endpoints.
    let stats_raw = raw_get(addr, "/stats");
    assert!(stats_raw.starts_with("HTTP/1.0 200 OK\r\n"), "{stats_raw}");
    assert!(
        stats_raw.contains("Content-Type: application/json\r\n"),
        "{stats_raw}"
    );
    let metrics_raw = raw_get(addr, "/metrics");
    assert!(
        metrics_raw.contains("Content-Type: text/plain; version=0.0.4\r\n"),
        "{metrics_raw}"
    );
    assert!(
        raw_get(addr, "/nope").starts_with("HTTP/1.0 404"),
        "unknown path 404s"
    );

    client.close().expect("client close");
    let report = server.shutdown().expect("graceful shutdown");
    // Satellite: the drain-time snapshot survives shutdown.
    let snap = report.obs.as_ref().expect("snapshot flushed at drain");
    assert!(snap
        .find("dt_server_ingest_frames_total", &[])
        .is_some_and(|m| m.value == dt_obs::MetricValue::Counter(20)));
    assert!(snap.find("dt_server_window_latency_us", &[]).is_some());
}

/// Hostile lines cost one rejected frame each:
/// 200,000-deep `[` nests — bare, inside a tuple frame's unknown key,
/// and inside a command — which unbounded recursion would turn into a
/// stack overflow that aborts the process, and a line past
/// `MAX_LINE_BYTES` that arrives over many reads. The same connection
/// then goes on ingesting, and the server keeps serving.
#[test]
fn hostile_lines_are_rejected_frames_not_crashes() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");

    let deep = "[".repeat(200_000);
    for (k, line) in [
        deep.clone(),
        format!(r#"{{"stream":"R","row":[1],"x":{deep}}}"#),
        format!(r#"{{"cmd":"list","x":{deep}}}"#),
    ]
    .iter()
    .enumerate()
    {
        conn.write_all(format!("{line}\n").as_bytes())
            .expect("deep line");
        poll("deep line rejected", || {
            fetch_stats(addr).unwrap().parse_errors == k as u64 + 1
        });
    }
    let long = vec![b'x'; MAX_LINE_BYTES + 4096];
    for chunk in long.chunks(64 * 1024) {
        conn.write_all(chunk).expect("long line");
    }
    poll("long line rejected", || {
        fetch_stats(addr).unwrap().parse_errors == 4
    });
    conn.write_all(b"rest of the long line\n{\"stream\":\"R\",\"row\":[1],\"ts\":5}\n")
        .expect("frame");
    poll("frame after the hostile lines", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 1
    });
    assert_eq!(fetch_stats(addr).unwrap().parse_errors, 4);

    drop(conn);
    let report = server.shutdown().expect("graceful shutdown");
    assert_eq!(report.streams[0].offered, 1);
}

/// A timestamp far past the clock (1e12 µs against a clock at zero,
/// a million one-second windows ahead) is a counted rejected frame,
/// not a tuple: the connection keeps serving, and the shutdown drain
/// does not seal the million windows in between.
#[test]
fn far_future_timestamp_is_rejected_and_drain_stays_fast() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(b"{\"stream\":\"R\",\"row\":[1],\"ts\":1000000000000}\n")
        .expect("far-future frame");
    poll("far-future frame rejected", || {
        fetch_stats(addr).unwrap().parse_errors == 1
    });
    // The last window still accepted, then one ordinary frame.
    let edge = (MAX_WINDOWS_AHEAD + 1) * 1_000_000 - 1;
    conn.write_all(format!("{{\"stream\":\"R\",\"row\":[2],\"ts\":{edge}}}\n").as_bytes())
        .expect("edge frame");
    conn.write_all(b"{\"stream\":\"R\",\"row\":[1],\"ts\":5}\n")
        .expect("frame");
    poll("frames after the rejected one", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 2
    });
    assert_eq!(fetch_stats(addr).unwrap().parse_errors, 1);

    drop(conn);
    let t0 = Instant::now();
    let report = server.shutdown().expect("graceful shutdown");
    let drain = t0.elapsed();
    assert!(drain < Duration::from_secs(1), "drain took {drain:?}");
    assert_eq!(report.streams[0].offered, 2);
    let last = report.reports[0].windows.last().expect("windows");
    assert_eq!(last.window, MAX_WINDOWS_AHEAD);
}

#[test]
fn summarize_only_sheds_everything_but_still_answers() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.mode = dt_triage::ShedMode::SummarizeOnly;

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, None, clock.clone()).expect("server starts");
    let handle = server.handle();
    let r = handle.stream_index("R").expect("stream R");
    for i in 0..8u64 {
        let t = dt_types::Tuple::new(
            Row::from_ints(&[(i % 2) as i64]),
            Timestamp::from_micros(i * 1_000),
        );
        handle.offer(r, t).expect("offer");
    }
    let report = server.shutdown().expect("shutdown");
    let run = &report.reports[0];
    assert_eq!(report.streams[0].shed, 8, "summarize-only sheds everything");
    assert_eq!(report.streams[0].kept, 0);
    assert_eq!(
        total_count(run, 0),
        8.0,
        "…but the estimate still counts them"
    );
}
