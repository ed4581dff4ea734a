//! Progress sealing over loopback TCP: a window seals as soon as every
//! ingest connection has pushed past its end, and at its end plus the
//! grace at the latest (DESIGN.md §7).
//!
//! Every test freezes a [`VirtualClock`] between the end of window 0
//! (100 ms) and its grace deadline (160 ms), so window 0 can only be
//! emitted early by source progress; moving the clock to 160 ms lets
//! the grace seal it.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{
    fetch_metrics, fetch_stats, Client, FaultPlan, MetricsRegistry, Server, ServerConfig,
    VirtualClock,
};
use dt_triage::RunReport;
use dt_types::{DataType, Row, Schema, Timestamp, VDuration};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Past window 0's end, before its end plus the grace.
const FROZEN_MS: u64 = 130;
/// Window 0's grace deadline.
const GRACE_DUE_MS: u64 = 160;
/// How long a test watches for an emission that must not happen.
const QUIET: Duration = Duration::from_millis(150);

fn ms(v: u64) -> Timestamp {
    Timestamp::from_micros(v * 1000)
}

fn poll(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// 100 ms tumbling windows, a 60 ms grace, metrics on.
fn config() -> ServerConfig {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_millis(100));
    cfg.grace = VDuration::from_millis(60);
    cfg.metrics = MetricsRegistry::new();
    cfg
}

/// A server on loopback with its clock frozen at [`FROZEN_MS`].
fn start(cfg: &ServerConfig) -> (Server, Arc<VirtualClock>, SocketAddr) {
    let clock = Arc::new(VirtualClock::new());
    clock.set(ms(FROZEN_MS));
    let server = Server::start(cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");
    (server, clock, addr)
}

fn send(client: &mut Client, ts_ms: u64) {
    client
        .send("R", &Row::from_ints(&[1]), Some(ms(ts_ms)))
        .expect("send");
}

fn offered(addr: SocketAddr) -> u64 {
    fetch_stats(addr).unwrap().stream("R").unwrap().offered
}

fn late(addr: SocketAddr) -> u64 {
    fetch_stats(addr).unwrap().stream("R").unwrap().late
}

fn emitted(addr: SocketAddr) -> u64 {
    fetch_stats(addr).unwrap().windows_emitted
}

/// Assert that nothing is emitted for a while.
fn assert_held(addr: SocketAddr, what: &str) {
    std::thread::sleep(QUIET);
    assert_eq!(emitted(addr), 0, "{what}: window 0 must wait for the grace");
}

/// The value of one unlabelled or fully labelled series.
fn series(addr: SocketAddr, name: &str) -> i64 {
    let text = fetch_metrics(addr).expect("scrape");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no series {name} in:\n{text}"))
        .trim()
        .parse()
        .expect("integer series")
}

/// Seal broadcasts so far with cause `cause`.
fn seals(addr: SocketAddr, cause: &str) -> i64 {
    series(addr, &format!("dt_server_seals_total{{cause=\"{cause}\"}}"))
}

/// COUNT(*) of window `w`.
fn count(report: &RunReport, w: u64) -> f64 {
    let win = report
        .windows
        .iter()
        .find(|r| r.window == w)
        .unwrap_or_else(|| panic!("window {w} missing"));
    win.groups()
        .expect("aggregating query")
        .values()
        .map(|aggs| aggs[0])
        .sum()
}

#[test]
fn the_only_source_passing_a_window_end_seals_it_before_the_grace() {
    let (server, _clock, addr) = start(&config());
    let mut client = Client::connect(addr).expect("connect");
    send(&mut client, 10);
    send(&mut client, 50);
    poll("window 0 ingest", || offered(addr) == 2);
    assert_held(addr, "no source has passed 100 ms");
    send(&mut client, 120);
    poll("window 0 emitted on progress", || emitted(addr) == 1);
    std::thread::sleep(QUIET);
    assert_eq!(emitted(addr), 1, "window 1 has not ended on the clock");
    assert_eq!(seals(addr, "progress"), 1);
    assert_eq!(seals(addr, "grace"), 0);
    client.close().expect("close");
    let report = server.shutdown().expect("shutdown");
    assert_eq!(count(&report.reports[0], 0), 2.0);
    assert_eq!(count(&report.reports[0], 1), 1.0);
    assert!(report.streams.iter().all(|s| s.late == 0));
}

#[test]
fn one_lagging_source_holds_the_window_until_the_grace() {
    let (server, clock, addr) = start(&config());
    let mut lead = Client::connect(addr).expect("connect");
    let mut lag = Client::connect(addr).expect("connect");
    send(&mut lead, 10);
    send(&mut lag, 20);
    poll("both sources tracked", || offered(addr) == 2);
    send(&mut lead, 120);
    poll("lead past window 0", || offered(addr) == 3);
    assert_held(addr, "the lagging source is still in window 0");
    clock.set(ms(GRACE_DUE_MS));
    poll("window 0 emitted on the grace", || emitted(addr) == 1);
    assert_eq!(seals(addr, "grace"), 1);
    assert_eq!(seals(addr, "progress"), 0);
    // A published frontier that lags holds the same way: `lag` is
    // past window 0 only, so window 1 (due at 260 ms) waits.
    send(&mut lag, 110);
    send(&mut lead, 220);
    poll("window 1 ingest", || offered(addr) == 5);
    clock.set(ms(230));
    std::thread::sleep(QUIET);
    assert_eq!(emitted(addr), 1, "the lagging source is still in window 1");
    clock.set(ms(260));
    poll("window 1 emitted on the grace", || emitted(addr) == 2);
    assert_eq!(seals(addr, "grace"), 2);
    assert_eq!(seals(addr, "progress"), 0);
    drop((lead, lag));
    let report = server.shutdown().expect("shutdown");
    assert_eq!(count(&report.reports[0], 0), 2.0);
    assert_eq!(count(&report.reports[0], 1), 2.0);
}

#[test]
fn a_closed_source_holds_until_the_grace_and_its_resend_is_not_late() {
    let (server, clock, addr) = start(&config());
    let mut lead = Client::connect(addr).expect("connect");
    send(&mut lead, 10);
    // A source that dies mid-window 0 ...
    let mut torn = Client::connect(addr).expect("connect");
    send(&mut torn, 30);
    send(&mut torn, 40);
    poll("torn source ingest", || offered(addr) == 3);
    torn.close().expect("close");
    send(&mut lead, 120);
    poll("lead past window 0", || offered(addr) == 4);
    assert_held(addr, "the closed source stopped inside window 0");
    // ... and resends its suffix on a fresh connection.
    let mut resend = Client::connect(addr).expect("connect");
    send(&mut resend, 50);
    send(&mut resend, 60);
    send(&mut resend, 125);
    poll("resend ingest", || offered(addr) == 7);
    assert_held(addr, "the closed source holds until the grace");
    clock.set(ms(GRACE_DUE_MS));
    poll("window 0 emitted on the grace", || emitted(addr) == 1);
    assert_eq!(late(addr), 0);
    drop((lead, resend));
    let report = server.shutdown().expect("shutdown");
    assert_eq!(count(&report.reports[0], 0), 5.0);
    assert!(report.streams.iter().all(|s| s.late == 0));
}

/// Lines `0..w0` lie in window 0 and `w0..n` in window 1. The fault
/// plan holds line `i` back for `delay(i)` more lines; everything
/// still held after the last line is released when the connection
/// goes idle. True when, at the last line, a window-1 line has been
/// pushed while a window-0 line is still held: a frontier published
/// then would seal window 0 under the held line.
fn straddles(plan: &FaultPlan, w0: u64, n: u64) -> bool {
    let released_by_end = |i: u64| plan.delay(0, i).is_none_or(|k| i + k < n);
    (0..w0).any(|i| !released_by_end(i)) && (w0..n).any(released_by_end)
}

#[test]
fn a_delay_fault_across_a_window_boundary_counts_no_late_tuple() {
    const W0: u64 = 20;
    const N: u64 = 22;
    let plan = (0..1000)
        .map(|seed| {
            let mut plan = FaultPlan::disabled().with_seed(seed);
            plan.delay_rate = 0.3;
            plan
        })
        .find(|p| straddles(p, W0, N))
        .expect("some seed holds a window-0 line past a window-1 push");
    let mut cfg = config();
    cfg.fault = plan;
    let (server, _clock, addr) = start(&cfg);
    // One write, so one read burst carries every line.
    let frames: String = (0..N)
        .map(|i| {
            let ts = if i < W0 { 10 + i } else { 100 + i };
            format!("{{\"stream\":\"R\",\"row\":[1],\"ts\":{}}}\n", ts * 1000)
        })
        .collect();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(frames.as_bytes()).expect("write");
    poll("window 0 emitted on progress", || emitted(addr) == 1);
    assert_eq!(offered(addr), N);
    assert_eq!(late(addr), 0);
    drop(conn);
    let report = server.shutdown().expect("shutdown");
    assert_eq!(count(&report.reports[0], 0), W0 as f64);
    assert!(report.streams.iter().all(|s| s.late == 0));
}

#[test]
fn a_new_source_older_than_a_progress_seal_is_late_and_reemits_nothing() {
    let (server, _clock, addr) = start(&config());
    let mut lead = Client::connect(addr).expect("connect");
    send(&mut lead, 10);
    send(&mut lead, 120);
    poll("window 0 emitted on progress", || emitted(addr) == 1);
    let mut straggler = Client::connect(addr).expect("connect");
    send(&mut straggler, 50);
    poll("the straggler's tuple is late", || late(addr) == 1);
    drop((lead, straggler));
    let report = server.shutdown().expect("shutdown");
    let windows: Vec<u64> = report.reports[0].windows.iter().map(|r| r.window).collect();
    assert_eq!(windows, vec![0, 1], "window 0 emitted once");
    assert_eq!(count(&report.reports[0], 0), 1.0);
}

#[test]
fn an_in_process_offer_makes_the_server_wait_for_the_grace() {
    let (server, clock, addr) = start(&config());
    server
        .handle()
        .offer(0, dt_types::Tuple::new(Row::from_ints(&[1]), ms(10)))
        .expect("offer");
    let mut client = Client::connect(addr).expect("connect");
    send(&mut client, 20);
    send(&mut client, 120);
    poll("tcp ingest", || offered(addr) == 3);
    assert_held(addr, "an in-process caller publishes no progress");
    clock.set(ms(GRACE_DUE_MS));
    poll("window 0 emitted on the grace", || emitted(addr) == 1);
    drop(client);
    let report = server.shutdown().expect("shutdown");
    assert_eq!(count(&report.reports[0], 0), 2.0);
}

#[test]
fn an_open_control_only_connection_holds_nothing_back() {
    let (server, _clock, addr) = start(&config());
    let mut control = Client::connect(addr).expect("connect");
    assert_eq!(control.list_queries().expect("list").len(), 1);
    let mut client = Client::connect(addr).expect("connect");
    send(&mut client, 10);
    send(&mut client, 120);
    poll("window 0 emitted on progress", || emitted(addr) == 1);
    assert_eq!(series(addr, "dt_server_ingest_sources"), 1);
    drop((control, client));
    server.shutdown().expect("shutdown");
}

#[test]
fn the_sources_gauge_drains_once_every_connection_closed_and_the_grace_passed() {
    let (server, clock, addr) = start(&config());
    // Registered at start: an idle scrape shows both families.
    assert_eq!(series(addr, "dt_server_ingest_sources"), 0);
    assert_eq!(seals(addr, "grace"), 0);
    let (mut a, mut b) = (
        Client::connect(addr).expect("connect"),
        Client::connect(addr).expect("connect"),
    );
    send(&mut a, 10);
    send(&mut a, 105);
    send(&mut b, 210);
    poll("window 0 emitted on progress", || emitted(addr) == 1);
    assert_eq!(series(addr, "dt_server_ingest_sources"), 2);
    a.close().expect("close");
    b.close().expect("close");
    // Both closed, still holding: `a` until the grace seals window 1
    // (it pushed up to 105 ms), `b` until it seals window 2 (210 ms).
    std::thread::sleep(QUIET);
    assert_eq!(series(addr, "dt_server_ingest_sources"), 2);
    clock.set(ms(260));
    poll("a pruned", || series(addr, "dt_server_ingest_sources") == 1);
    clock.set(ms(360));
    poll("b pruned", || series(addr, "dt_server_ingest_sources") == 0);
    server.shutdown().expect("shutdown");
}
