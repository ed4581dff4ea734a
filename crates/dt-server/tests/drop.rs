//! Dropping a [`Server`] without calling `shutdown` still stops every
//! thread it started: acceptor, reactors, workers and merger; and a
//! failed `Server::start` leaves none running.
//!
//! The check reads the names of this process's threads, so this file
//! holds a single test: a second test running alongside would add
//! server threads of its own.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{Client, Server, ServerConfig, VirtualClock};
use dt_types::{DataType, Row, Schema, Timestamp, VDuration};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Names of this process's live threads that the server started
/// (every server thread's name begins with `dt-`).
fn server_threads() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let comm = task.expect("task entry").path().join("comm");
        // A thread may exit between the listing and the read.
        if let Ok(name) = std::fs::read_to_string(comm) {
            let name = name.trim_end().to_string();
            if name.starts_with("dt-") {
                names.push(name);
            }
        }
    }
    names.sort();
    names
}

/// Poll the server thread names for up to 2 s until `done` holds.
/// A new thread names itself once it runs, so even the threads a
/// server starts show up a moment after `Server::start` returns.
fn wait_for(what: &str, done: impl Fn(&[String]) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let names = server_threads();
        if done(&names) {
            return;
        }
        assert!(Instant::now() < deadline, "{what} within 2 s: {names:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn count(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

fn config(shards: usize) -> ServerConfig {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_millis(100));
    cfg.shards = shards;
    cfg
}

#[test]
fn dropping_a_server_stops_all_its_threads() {
    wait_for("no server threads before the test", <[String]>::is_empty);

    // In-process: workers and merger only. The workers hold the
    // merger's inbox open, so nothing but an explicit stop ends them.
    let server =
        Server::start(&config(2), None, Arc::new(VirtualClock::new())).expect("server starts");
    server
        .handle()
        .offer_frame(r#"{"stream":"R","row":[1],"ts":0}"#)
        .expect("frame offered");
    wait_for("merger and two workers up", |n| {
        count(n, "dt-merger") == 1 && count(n, "dt-worker") == 2
    });
    drop(server);
    wait_for("in-process server's threads gone", <[String]>::is_empty);

    // Over TCP, with a client connection still open: the acceptor
    // blocks in `accept` and the connection's reactor in `epoll_wait`
    // until the server stops them.
    let server = Server::start(
        &config(1),
        Some("127.0.0.1:0"),
        Arc::new(VirtualClock::new()),
    )
    .expect("server starts");
    let addr = server.addr().expect("bound");
    let mut client = Client::connect(addr).expect("client connects");
    client
        .send("R", &Row::from_ints(&[1]), Some(Timestamp::ZERO))
        .expect("frame sent");
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.stats().snapshot()[0].offered == 0 {
        assert!(Instant::now() < deadline, "frame never offered");
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_for("acceptor up", |n| count(n, "dt-acceptor") == 1);

    drop(server);
    wait_for("TCP server's threads gone", <[String]>::is_empty);
    drop(client);

    // A start that fails (here on an occupied port) leaves no thread
    // running.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = taken.local_addr().expect("bound").to_string();
    let failed = Server::start(&config(2), Some(&port), Arc::new(VirtualClock::new()));
    assert!(failed.is_err(), "start on an occupied port must fail");
    wait_for("failed start's threads gone", <[String]>::is_empty);
}
