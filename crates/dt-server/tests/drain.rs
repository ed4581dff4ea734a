//! Graceful-drain latency of the TCP ingest plane.
//!
//! An idle connection parks in epoll with *no* data ever arriving.
//! Shutdown must not wait for peers to hang up: the reactor
//! observes the stop flag at its next wakeup (forced by an eventfd
//! kick) and closes every connection in one sweep — holdbacks
//! flushed, interest deregistered, then the socket dropped. This test
//! pins that drain promptness end to end with live sockets.

#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_query::Catalog;
use dt_server::{
    fetch_metrics, fetch_stats, render_frame, Client, ClientConfig, MetricsRegistry, RetryPolicy,
    Server, ServerConfig,
};
use dt_synopsis::SynopsisConfig;
use dt_types::{DataType, Row, Schema, Timestamp, VDuration, VirtualClock};

const IDLE_CONNS: usize = 8;

fn drain_config() -> ServerConfig {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.metrics = MetricsRegistry::new();
    cfg
}

fn idle_client(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
        },
    )
    .expect("client connects")
}

/// Sum every sample of a metric family in a Prometheus exposition.
fn series_sum(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(name) && !l.starts_with("# "))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Shutdown with open, idle connections completes within the drain
/// bound instead of waiting on peers that will never speak again, and
/// every parked client observes an orderly EOF.
#[test]
fn drain_closes_idle_connections_promptly() {
    let cfg = drain_config();
    let clock = Arc::new(VirtualClock::new());
    clock.set(Timestamp::from_micros(600_000));
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");

    // Park IDLE_CONNS clients: one frame each (so the reactors have
    // adopted and read them), then silence.
    let mut clients: Vec<Client> = Vec::new();
    for i in 0..IDLE_CONNS {
        let mut c = idle_client(addr);
        let line = render_frame(
            "R",
            &Row::from_ints(&[i as i64 % 5]),
            Some(Timestamp::from_micros(100_000 + i as u64)),
        )
        .expect("render");
        c.send_line(&line).expect("send");
        clients.push(c);
    }

    // Every connection adopted and every frame through the engine.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = fetch_stats(addr).expect("stats");
        if s.stream("R").expect("stream R").offered >= IDLE_CONNS as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "frames never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = fetch_metrics(addr).expect("metrics");
        // The stats/metrics probe connections come and go, so the
        // gauge is exactly the parked clients once they're all
        // adopted and the probe has hung up.
        if series_sum(&m, "dt_server_reactor_conns") >= IDLE_CONNS as u64 {
            assert!(
                series_sum(&m, "dt_server_readiness_wakeups_total") > 0,
                "{m}"
            );
            assert!(m.contains("dt_server_ingest_read_burst_bytes"), "{m}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reactors never adopted the idle conns"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The drain itself: the reactor tick is 10 ms, so even with
    // thread joins and the final report this must be near-instant.
    // The bound is generous for CI noise but far below the blocking
    // alternative of waiting out eight silent peers.
    let t0 = Instant::now();
    let report = server.shutdown().expect("graceful shutdown");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "drain took {elapsed:?} with {IDLE_CONNS} idle connections open"
    );

    // Orderly close: every parked client sees EOF, not a reset.
    for mut c in clients {
        assert_eq!(c.recv_line().expect("clean EOF"), None);
    }

    // Nothing lost on the way down.
    let run = &report.reports[0];
    let arrived: u64 = run.windows.iter().map(|w| w.arrived).sum();
    assert_eq!(arrived, IDLE_CONNS as u64);
}
