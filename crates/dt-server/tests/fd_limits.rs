//! The server when the process runs out of file descriptors.
//!
//! The test lowers the process-wide `RLIMIT_NOFILE` soft limit, so
//! this file holds a single test: a second test running alongside
//! would fail to open files of its own. The limit is restored before
//! every assertion.

#![cfg(target_os = "linux")]

use dt_query::Catalog;
use dt_server::{Client, Server, ServerConfig, VirtualClock};
use dt_types::{DataType, DtResult, Row, Schema, Timestamp, VDuration};
use std::net::TcpStream;
use std::os::raw::{c_int, c_ulong};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// `struct rlimit`.
#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}

const RLIMIT_NOFILE: c_int = 7;
const F_GETFD: c_int = 1;

fn nofile() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid `struct rlimit` for the call to fill.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile(lim: RLimit) {
    // SAFETY: `lim` is a valid `struct rlimit`.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

/// Lower the soft limit so that exactly `free` descriptors can still
/// be opened: the kernel hands out the lowest unused number below the
/// limit, so the limit is the `free + 1`-th unused number.
fn leave_free(full: RLimit, free: usize) {
    let mut left = free;
    let mut fd: c_int = 0;
    loop {
        // SAFETY: F_GETFD only reads the descriptor flags of `fd`.
        let unused = unsafe { fcntl(fd, F_GETFD) } == -1;
        if unused {
            if left == 0 {
                break;
            }
            left -= 1;
        }
        fd += 1;
    }
    set_nofile(RLimit {
        cur: fd as c_ulong,
        ..full
    });
}

fn start() -> DtResult<Server> {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_millis(100));
    Server::start(&cfg, Some("127.0.0.1:0"), Arc::new(VirtualClock::new()))
}

#[test]
fn running_out_of_fds_neither_hangs_shutdown_nor_starts_a_dead_reactor() {
    let full = nofile();

    // Shutdown returns while `accept` keeps failing. Of the two free
    // fds the client takes one and the acceptor the other (a blocked
    // `accept` reserves its fd before it waits), so every later
    // `accept` fails with EMFILE at once, and shutdown has no fd left
    // for a connection of its own to wake the acceptor.
    let server = start().expect("server starts");
    let addr = server.addr().expect("bound");
    leave_free(full, 2);
    let client = TcpStream::connect(addr);
    let (done_tx, done_rx) = mpsc::channel();
    let t0 = Instant::now();
    std::thread::spawn(move || {
        let _ = server.shutdown();
        let _ = done_tx.send(());
    });
    let returned = done_rx.recv_timeout(Duration::from_secs(3)).is_ok();
    let waited = t0.elapsed();
    set_nofile(full);
    drop(client.expect("client connects with the last fd"));
    assert!(returned, "shutdown still running after {waited:?}");

    // With too few fds a start either fails or serves every
    // connection: round-robin hands connection `i` to reactor
    // `i % pool`, so four connections reach every reactor. The limit
    // stays low for a while after `start` returns, for any fd a
    // server thread might still open as it starts.
    let mut started = 0;
    for free in 0..=8 {
        leave_free(full, free);
        let server = start();
        std::thread::sleep(Duration::from_millis(50));
        set_nofile(full);
        let Ok(server) = server else { continue };
        started += 1;
        let addr = server.addr().expect("bound");
        let mut clients: Vec<Client> = (0..4)
            .map(|_| Client::connect(addr).expect("client connects"))
            .collect();
        for c in &mut clients {
            c.send("R", &Row::from_ints(&[1]), Some(Timestamp::ZERO))
                .expect("frame sent");
        }
        let offered = || server.stats().snapshot()[0].offered;
        let deadline = Instant::now() + Duration::from_secs(2);
        while offered() < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let n = offered();
        drop(clients);
        server.shutdown().expect("shutdown");
        assert_eq!(n, 4, "started with {free} free fds, but frames went unread");
    }
    assert!(started > 0, "no start succeeded with up to 8 free fds");
}
