//! The sharded server plane (DESIGN.md §15): a `--shards k` worker
//! group must produce **bit-identical** reports to the classic
//! single-worker plane, and under adversarial single-key skew the
//! idle workers must steal batches without losing or duplicating a
//! single tuple.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{MetricsRegistry, Server, ServerConfig, VirtualClock};
use dt_synopsis::SynopsisConfig;
use dt_types::{DataType, Row, Schema, Timestamp, ToJson, Tuple, VDuration};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "SELECT a, COUNT(*) FROM R GROUP BY a";

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c
}

fn config(shards: usize, synopsis: SynopsisConfig) -> ServerConfig {
    let mut cfg = ServerConfig::new(QUERY, catalog());
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = synopsis;
    cfg.channel_capacity = 4096;
    cfg.shards = shards;
    // Unpaced, with the virtual clock parked at zero: workers consume
    // immediately, the watermark never advances, so nothing is ever
    // late and every window seals in the shutdown drain — the run is
    // deterministic end to end.
    cfg.pace_by_timestamp = false;
    cfg
}

/// Run the same in-process workload through a `shards`-wide worker
/// group and render the final report.
fn run_report(shards: usize, synopsis: SynopsisConfig) -> String {
    let cfg = config(shards, synopsis);
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, None, clock).expect("server starts");
    let handle = server.handle();
    let r = handle.stream_index("R").expect("stream R");
    // 600 tuples over three windows, keys spread over 7 groups —
    // keyed routing spreads them across the group's shards.
    for i in 0..600u64 {
        let t = Tuple::new(
            Row::from_ints(&[(i % 7) as i64]),
            Timestamp::from_micros(i * 5_000),
        );
        handle.offer(r, t).expect("offer");
    }
    let report = server.shutdown().expect("graceful shutdown");
    let run = &report.reports[0];
    assert_eq!(run.totals.arrived, 600);
    assert_eq!(run.totals.kept, 600, "capacity holds the whole run");
    assert_eq!(run.totals.dropped, 0);
    assert!(run.windows.iter().all(|w| !w.degraded));
    report.to_json().render_pretty()
}

/// A 4-shard group's report — windows, per-group aggregates, synopsis
/// masses, counters — is byte-identical to the single-worker plane's,
/// for a fixed grid and for an adaptive one whose 2-cell budget the 7
/// keys force to coarsen.
#[test]
fn sharded_report_is_bit_identical_to_single_worker() {
    for synopsis in [
        SynopsisConfig::Sparse { cell_width: 5 },
        SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 2,
        },
    ] {
        let single = run_report(1, synopsis);
        let sharded = run_report(4, synopsis);
        assert_eq!(
            single,
            sharded,
            "{}: shards=4 diverged from shards=1",
            synopsis.label()
        );
    }
}

/// Adversarial single-key skew routes every tuple to one shard; the
/// three idle workers steal batches off it. Whatever the steal
/// schedule, nothing is lost or duplicated: every offered tuple is
/// either kept (and lands in exactly one window's rows) or shed into
/// a dropped synopsis, and the per-window counts partition arrivals.
#[test]
fn steals_under_skew_conserve_every_tuple() {
    const N: u64 = 30_000;
    let mut cfg = config(4, SynopsisConfig::Sparse { cell_width: 5 });
    cfg.metrics = MetricsRegistry::new();
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock).expect("server starts");
    let addr = server.addr().expect("bound address");
    let handle = server.handle();
    let r = handle.stream_index("R").expect("stream R");
    for i in 0..N {
        // One hot key: every tuple hashes to the same shard.
        let t = Tuple::new(Row::from_ints(&[42]), Timestamp::from_micros(i * 100));
        handle.offer(r, t).expect("offer");
    }
    // The thieves poll every 500µs; with a deep hot queue they steal
    // long before the burst ends, but give CI scheduling a margin.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !steal_happened(addr) {
        assert!(Instant::now() < deadline, "no steal observed under skew");
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = server.shutdown().expect("graceful shutdown");
    let s = &report.streams[0];
    assert_eq!(s.offered, N);
    assert_eq!(s.kept + s.shed, N, "every tuple kept or shed, never both");
    let run = &report.reports[0];
    let (mut kept, mut dropped, mut mass) = (0u64, 0u64, 0.0f64);
    for w in &run.windows {
        assert_eq!(w.arrived, w.kept + w.dropped, "window {}", w.window);
        assert!(!w.degraded);
        kept += w.kept;
        dropped += w.dropped;
        mass += w
            .groups()
            .expect("aggregating query")
            .values()
            .map(|aggs| aggs[0])
            .sum::<f64>();
    }
    assert_eq!(kept, s.kept, "no window lost or duplicated a batch");
    assert_eq!(dropped, s.shed);
    // COUNT(*) over the estimates still accounts for every arrival —
    // kept rows exactly, shed mass through the dropped synopses. A
    // width-5 cell spreads its mass over the groups it covers as
    // fractions, so the total is summed as a float, not truncated per
    // group.
    assert!(
        (mass - N as f64).abs() < 1e-6,
        "aggregate mass {mass} accounts for every tuple"
    );
}

/// Did any worker record a nonzero steal counter yet?
fn steal_happened(addr: std::net::SocketAddr) -> bool {
    dt_server::fetch_metrics(addr)
        .expect("metrics scrape")
        .lines()
        .filter(|l| l.starts_with("dt_server_steal_items_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum::<u64>()
        > 0
}
