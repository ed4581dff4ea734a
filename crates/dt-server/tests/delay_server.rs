//! The adaptive delay controller inside the live server (DESIGN.md
//! §11): a frozen [`VirtualClock`] makes the run deterministic — the
//! paced worker cannot consume, so ingest depth grows monotonically
//! and the controller's seeded threshold is the only thing deciding
//! who gets shed.
//!
//! The channel is deliberately much larger than the derived threshold:
//! without the controller this burst would not shed a single tuple
//! (compare the pre-burst phase of the loopback test), so every shed
//! observed here is the controller's doing.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{fetch_metrics, MetricsRegistry, Server, ServerConfig, VirtualClock};
use dt_synopsis::SynopsisConfig;
use dt_triage::DelayConstraint;
use dt_types::{DataType, Row, Schema, Timestamp, Tuple, VDuration};
use std::io::{Read, Write};
use std::sync::Arc;

const BURST: u64 = 40;
const CHANNEL: usize = 64;
/// 10 ms constraint against the default 1.02 ms/tuple cost hint:
/// threshold = floor((10_000 − 20)/1_020) − 1 = 8.
const SEEDED_THRESHOLD: u64 = 8;

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
fn delay_constraint_sheds_below_channel_capacity() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.channel_capacity = CHANNEL;
    cfg.metrics = MetricsRegistry::new();
    cfg.delay = Some(DelayConstraint::from_millis(10).expect("constraint"));

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");
    let handle = server.handle();
    let r = handle.stream_index("R").expect("stream R");

    // The controller's gauges exist from startup, seeded from the cost
    // hint — before a single tuple arrives.
    let idle = fetch_metrics(addr).expect("idle scrape");
    assert!(
        idle.contains(&format!(
            "dt_triage_threshold{{stream=\"R\"}} {SEEDED_THRESHOLD}"
        )),
        "{idle}"
    );
    assert!(idle.contains("dt_triage_estimated_delay_ms"), "{idle}");
    assert!(idle.contains("dt_triage_shed_fraction"), "{idle}");

    // Offer a burst timestamped far ahead of the frozen clock: the
    // worker stays parked, depth only grows, and the outcome of every
    // offer is a pure function of the depth at that instant.
    for i in 0..BURST {
        let t = Tuple::new(
            Row::from_ints(&[(i % 3) as i64]),
            Timestamp::from_micros(100_000 + i * 1_000),
        );
        handle.offer(r, t).expect("offer");
    }

    let stats = raw_get(addr, "/stats");
    // /stats now carries a controllers block with the live state.
    assert!(stats.contains("\"controllers\""), "{stats}");
    assert!(stats.contains("\"threshold\""), "{stats}");
    assert!(stats.contains("\"estimated_delay_ms\""), "{stats}");
    assert!(stats.contains("\"shed_fraction\""), "{stats}");

    let report = server.shutdown().expect("graceful shutdown");
    let s = &report.streams[0];
    assert_eq!(s.offered, BURST);
    assert_eq!(s.kept + s.shed, BURST, "every tuple kept or shed");
    // The channel (64 slots) never filled; the controller did all the
    // shedding at its 8-tuple threshold. The 25% headroom ramp may
    // keep one extra tuple around the boundary, never more.
    assert!(
        s.kept <= SEEDED_THRESHOLD + 1,
        "kept {} exceeds the controller threshold",
        s.kept
    );
    assert!(
        s.shed >= BURST - SEEDED_THRESHOLD - 1,
        "controller shed too little ({})",
        s.shed
    );
    // Shed tuples still land in the dropped synopsis: the single
    // drained window accounts for all forty.
    let run = &report.reports[0];
    assert_eq!(run.totals.arrived, BURST);
    assert_eq!(run.totals.dropped, s.shed);
    let total: f64 = run.windows[0]
        .groups()
        .expect("aggregating query")
        .values()
        .map(|aggs| aggs[0])
        .sum();
    assert_eq!(total, BURST as f64, "estimate still counts shed tuples");
}

#[test]
fn no_delay_constraint_means_no_controller_surface() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.metrics = MetricsRegistry::new();

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");

    let metrics = fetch_metrics(addr).expect("scrape");
    assert!(
        !metrics.contains("dt_triage_threshold"),
        "controller gauges must not exist without a constraint"
    );
    assert!(
        !raw_get(addr, "/stats").contains("\"controllers\""),
        "/stats must not grow a controllers block without a constraint"
    );
    server.shutdown().expect("shutdown");
}
