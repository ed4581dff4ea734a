//! Concurrent-connection sweep over the TCP ingest plane (DESIGN.md
//! §14): accepted-connection and ingest-throughput points for the
//! epoll event loop at its default reactor pool, a connection-churn
//! point, and the graceful-drain latency with every connection still
//! open.
//!
//! The process fd ceiling (20 000 here) caps how many sockets one
//! process may hold, so load comes from child *worker processes*
//! (`conn_sweep --worker`, spawned from the same binary): each worker
//! opens up to [`WORKER_CONN_CAP`] connections and is driven over
//! stdin/stdout with a four-word protocol — it prints `ready <k>`
//! once connected, waits for `go`, blasts its frame quota round-robin
//! across its connections, prints `sent <n> <nanos>` (or
//! `churned <n> <nanos>` in churn mode), and parks until `quit`. The
//! park matters: the orchestrator times `Server::shutdown()` *while
//! the connections are still open*, which is exactly the drain path
//! the event loop must not serialize behind silent peers.
//!
//! ```sh
//! cargo run --release -p dt-bench --bin conn_sweep            # full
//! cargo run --release -p dt-bench --bin conn_sweep -- --quick # CI
//! ```
//!
//! The committed `CONN_sweep.json` at the repo root is the full
//! sweep's output on a 1-vCPU container, from when the sweep also ran
//! a thread-per-connection plane and a 1/2/4-reactor ablation; those
//! rows are the measurement that removed both (EXPERIMENTS.md).

use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_bench::write_json;
use dt_obs::MetricsRegistry;
use dt_query::Catalog;
use dt_server::{Server, ServerConfig};
use dt_types::{json, DataType, Json, MonotonicClock, Schema, ToJson, VDuration};

/// One NDJSON tuple frame; no `ts`, so the server stamps its clock.
const FRAME: &str = "{\"stream\":\"R\",\"row\":[3]}\n";

/// Per-worker connection ceiling, comfortably under the 20 000-fd
/// process limit (the orchestrator holds the server-side twins, so it
/// is the binding side at the 16 k point).
const WORKER_CONN_CAP: usize = 4_000;

/// Frames written per connection visit: small enough that many
/// connections hold readable data at once (the multiplexing under
/// test), large enough to amortize the syscall.
const VISIT_FRAMES: usize = 25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        worker(&args[1..]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    sweep(quick);
}

// ----------------------------------------------------------------
// Worker side (child process)
// ----------------------------------------------------------------

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn connect_retry(addr: &str) -> Option<TcpStream> {
    for attempt in 0u64..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            // Backlog overflow under the connect storm: back off.
            Err(_) => std::thread::sleep(Duration::from_millis(attempt.min(20))),
        }
    }
    None
}

fn await_line(lines: &mut impl Iterator<Item = std::io::Result<String>>, want: &str) {
    match lines.next() {
        Some(Ok(l)) if l.trim() == want => {}
        other => panic!("worker expected {want:?}, got {other:?}"),
    }
}

fn worker(args: &[String]) {
    let addr = flag(args, "--addr").expect("--addr");
    let conns: usize = flag(args, "--conns")
        .expect("--conns")
        .parse()
        .expect("conns");
    let frames: usize = flag(args, "--frames")
        .expect("--frames")
        .parse()
        .expect("frames");
    let churn: usize = flag(args, "--churn")
        .expect("--churn")
        .parse()
        .expect("churn");

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    if churn > 0 {
        writeln!(out, "ready 0").expect("stdout");
        out.flush().expect("flush");
        await_line(&mut lines, "go");
        let t0 = Instant::now();
        let mut done = 0usize;
        for _ in 0..churn {
            if let Some(mut s) = connect_retry(&addr) {
                if s.write_all(FRAME.as_bytes()).is_ok() {
                    done += 1;
                }
                // Half-close, then wait for the server's FIN: the
                // frame is known-consumed before the next connect,
                // and the close is orderly on both sides.
                let _ = s.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 16];
                use std::io::Read;
                while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
            }
        }
        writeln!(out, "churned {done} {}", t0.elapsed().as_nanos()).expect("stdout");
        out.flush().expect("flush");
        await_line(&mut lines, "quit");
        return;
    }

    let mut socks: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        match connect_retry(&addr) {
            Some(s) => socks.push(s),
            None => break,
        }
    }
    writeln!(out, "ready {}", socks.len()).expect("stdout");
    out.flush().expect("flush");
    await_line(&mut lines, "go");

    // Chunked round-robin: every connection gets VISIT_FRAMES per
    // visit until the quota is spent, so readable data piles up on
    // many connections simultaneously. A blocked write is the
    // server's backpressure doing its job — just wait it out.
    let chunk: Vec<u8> = FRAME.as_bytes().repeat(VISIT_FRAMES);
    let t0 = Instant::now();
    let mut sent = 0usize;
    if !socks.is_empty() {
        'quota: loop {
            for s in &mut socks {
                if sent >= frames {
                    break 'quota;
                }
                let take = VISIT_FRAMES.min(frames - sent);
                if s.write_all(&chunk[..take * FRAME.len()]).is_ok() {
                    sent += take;
                }
            }
        }
    }
    writeln!(out, "sent {sent} {}", t0.elapsed().as_nanos()).expect("stdout");
    out.flush().expect("flush");
    // Park with every connection open until the orchestrator has
    // timed the server's drain.
    await_line(&mut lines, "quit");
}

// ----------------------------------------------------------------
// Orchestrator side
// ----------------------------------------------------------------

struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl WorkerProc {
    fn spawn(addr: &str, conns: usize, frames: usize, churn: usize) -> WorkerProc {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .args([
                "--worker",
                "--addr",
                addr,
                "--conns",
                &conns.to_string(),
                "--frames",
                &frames.to_string(),
                "--churn",
                &churn.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        let stdin = child.stdin.take().expect("worker stdin");
        let stdout = BufReader::new(child.stdout.take().expect("worker stdout"));
        WorkerProc {
            child,
            stdin,
            stdout,
        }
    }

    fn read_report(&mut self, verb: &str) -> (usize, u128) {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("worker report");
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some(verb), "worker said {line:?}");
        let n = parts.next().expect("count").parse().expect("count");
        let nanos = parts.next().map_or(0, |p| p.parse().expect("nanos"));
        (n, nanos)
    }

    fn say(&mut self, word: &str) {
        writeln!(self.stdin, "{word}").expect("worker stdin");
        self.stdin.flush().expect("worker stdin flush");
    }

    fn finish(mut self) {
        self.say("quit");
        let _ = self.child.wait();
    }
}

fn server_config() -> ServerConfig {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.metrics = MetricsRegistry::new();
    cfg
}

/// The reactor pool a server started on `cfg` runs: one
/// `dt_server_reactor_conns` series per reactor.
fn reactor_count(cfg: &ServerConfig) -> usize {
    cfg.metrics
        .snapshot()
        .metrics
        .iter()
        .filter(|m| m.name == "dt_server_reactor_conns")
        .count()
}

struct Point {
    label: String,
    reactors: usize,
    conns_target: usize,
    conns_accepted: usize,
    frames_sent: usize,
    frames_ingested: u64,
    elapsed_s: f64,
    ingest_fps: f64,
    drain_ms: f64,
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("label", self.label.to_json()),
            ("reactors", self.reactors.to_json()),
            ("conns_target", self.conns_target.to_json()),
            ("conns_accepted", self.conns_accepted.to_json()),
            ("frames_sent", self.frames_sent.to_json()),
            ("frames_ingested", self.frames_ingested.to_json()),
            ("elapsed_s", self.elapsed_s.to_json()),
            ("ingest_fps", self.ingest_fps.to_json()),
            ("drain_ms", self.drain_ms.to_json()),
        ])
    }
}

/// Split `total` across workers of at most [`WORKER_CONN_CAP`].
fn shares(total: usize, cap: usize) -> Vec<usize> {
    let n = total.div_ceil(cap).max(1);
    (0..n)
        .map(|i| total / n + usize::from(i < total % n))
        .collect()
}

fn throughput_point(label: &str, conns: usize, frames: usize) -> Point {
    let cfg = server_config();
    let server =
        Server::start(&cfg, Some("127.0.0.1:0"), Arc::new(MonotonicClock::new())).expect("server");
    let addr = server.addr().expect("bound").to_string();

    let conn_shares = shares(conns, WORKER_CONN_CAP);
    let frame_shares = shares(frames, frames.div_ceil(conn_shares.len()));
    let mut workers: Vec<WorkerProc> = conn_shares
        .iter()
        .zip(frame_shares.iter().chain(std::iter::repeat(&0)))
        .map(|(&c, &f)| WorkerProc::spawn(&addr, c, f, 0))
        .collect();

    let mut accepted = 0usize;
    for w in &mut workers {
        accepted += w.read_report("ready").0;
    }

    let t0 = Instant::now();
    for w in &mut workers {
        w.say("go");
    }
    let mut sent = 0usize;
    for w in &mut workers {
        sent += w.read_report("sent").0;
    }
    // The workers' writes may still sit in kernel buffers; the point
    // is done when the *server* has ingested them (or visibly cannot
    // within the cap — the degradation this sweep exists to show).
    let offered = &server.stats().stream(0).offered;
    let cap = Duration::from_secs(120);
    while offered.load(Ordering::SeqCst) < sent as u64 && t0.elapsed() < cap {
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let ingested = offered.load(Ordering::SeqCst);

    // Drain with every connection still open and silent.
    let td = Instant::now();
    let _report = server.shutdown().expect("shutdown");
    let drain_ms = td.elapsed().as_secs_f64() * 1e3;

    for w in workers {
        w.finish();
    }
    let p = Point {
        label: label.to_string(),
        reactors: reactor_count(&cfg),
        conns_target: conns,
        conns_accepted: accepted,
        frames_sent: sent,
        frames_ingested: ingested,
        elapsed_s: elapsed,
        ingest_fps: ingested as f64 / elapsed.max(1e-9),
        drain_ms,
    };
    println!(
        "{:<28} {:>6} conns {:>8}/{:<8} frames {:>9.0} fps {:>8.1} ms drain",
        p.label, p.conns_accepted, p.frames_ingested, p.frames_sent, p.ingest_fps, p.drain_ms
    );
    p
}

fn churn_point(total: usize, nworkers: usize) -> Point {
    let cfg = server_config();
    let server =
        Server::start(&cfg, Some("127.0.0.1:0"), Arc::new(MonotonicClock::new())).expect("server");
    let addr = server.addr().expect("bound").to_string();

    let per = total / nworkers;
    let mut workers: Vec<WorkerProc> = (0..nworkers)
        .map(|i| {
            let n = per + usize::from(i < total % nworkers);
            WorkerProc::spawn(&addr, 0, 0, n)
        })
        .collect();
    for w in &mut workers {
        w.read_report("ready");
    }
    let t0 = Instant::now();
    for w in &mut workers {
        w.say("go");
    }
    let mut done = 0usize;
    for w in &mut workers {
        done += w.read_report("churned").0;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let td = Instant::now();
    let _report = server.shutdown().expect("shutdown");
    let drain_ms = td.elapsed().as_secs_f64() * 1e3;
    for w in workers {
        w.finish();
    }
    let p = Point {
        label: format!("churn-{total}"),
        reactors: reactor_count(&cfg),
        conns_target: total,
        conns_accepted: done,
        frames_sent: done,
        frames_ingested: done as u64,
        elapsed_s: elapsed,
        ingest_fps: done as f64 / elapsed.max(1e-9),
        drain_ms,
    };
    println!(
        "{:<28} {:>6} conns churned at {:>9.0} conn/s ({:>6.1}s)",
        p.label, p.conns_accepted, p.ingest_fps, p.elapsed_s
    );
    p
}

fn sweep(quick: bool) {
    let (small, big, xl, frames, churn_total) = if quick {
        (16, 48, 64, 2_000, 200)
    } else {
        (1_000, 10_000, 16_000, 100_000, 100_000)
    };

    println!("Concurrent-connection sweep (frames/point: {frames})");
    let mut points = Vec::new();
    // The largest count is the most one process pair holds under the
    // fd ceiling.
    for conns in [small, big, xl] {
        points.push(throughput_point(
            &format!("eventloop-{conns}"),
            conns,
            frames,
        ));
    }
    // Accept-churn: every connection lives for exactly one frame.
    points.push(churn_point(churn_total, if quick { 2 } else { 4 }));

    if let Err(e) = write_json("conn_sweep.json", &points) {
        eprintln!("note: could not write conn_sweep.json: {e}");
    } else {
        println!("(series written to conn_sweep.json)");
    }
}
