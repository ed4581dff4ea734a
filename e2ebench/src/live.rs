//! The untraced run: a real `dt_server::Server` on loopback, driven by
//! an open-loop generator over one TCP connection.
//!
//! Server CPU is attributed from outside the program: every thread's
//! on-CPU time is read from `/proc/self/task/*/schedstat` before and
//! after the run and grouped by the thread-name prefixes the server
//! assigns (`dt-reactor`, `dt-worker`, `dt-merger`, `dt-acceptor`).

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_server::{Server, ServerReport};
use dt_types::{Clock, DtError, DtResult, MonotonicClock};

use crate::workload::{Inputs, Workload, GRACE_US, START_US};

/// Throwaway servers started per run to time set-up; the median is
/// reported.
const SETUP_SAMPLES: usize = 21;
/// Frames handed to one `write` call at most.
const MAX_BATCH: usize = 1024;
/// The generator wakes once per tick and sends every frame due by then
/// in one write: one syscall per tick rather than per frame keeps the
/// client's own CPU use (and the reactor wake-ups it causes) small next
/// to the server's on a 2-core host.
const TICK_US: u64 = 1_000;
/// A run whose generator fell this far behind its schedule at any
/// point is invalid: the server was not offered the load the workload
/// names, and frames that late could be counted late because of the
/// client rather than the server. Equal to the seal grace.
pub const MAX_LAG_US: u64 = GRACE_US;
/// How long past the last window's due emission the run waits for it.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Server CPU in nanoseconds, grouped by thread role.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuGroups {
    pub reactor: u64,
    pub worker: u64,
    pub merger: u64,
    pub acceptor: u64,
    /// Any other `dt-*` thread.
    pub other: u64,
}

impl CpuGroups {
    pub fn total(&self) -> u64 {
        self.reactor + self.worker + self.merger + self.acceptor + self.other
    }
}

/// What the untraced run measured.
pub struct LiveRun {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    pub report: ServerReport,
    pub frames_sent: u64,
    pub parse_errors: u64,
    /// Per-frame generator lag (send time minus due time), microseconds.
    pub lag_us: Vec<u64>,
    pub cpu: CpuGroups,
    /// Server-clock time from the first due frame to the CPU snapshot,
    /// seconds.
    pub wall_s: f64,
}

/// `(tid, comm, on-CPU ns)` for every thread of this process.
fn thread_cpu() -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let sched = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        let ns = sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        out.push((
            entry.file_name().to_string_lossy().into_owned(),
            comm.trim().to_string(),
            ns,
        ));
    }
    out
}

fn cpu_delta(before: &[(String, String, u64)], after: &[(String, String, u64)]) -> CpuGroups {
    let mut g = CpuGroups::default();
    for (tid, comm, ns) in after {
        if !comm.starts_with("dt-") {
            continue;
        }
        let base = before
            .iter()
            .find(|(t, c, _)| t == tid && c == comm)
            .map_or(0, |b| b.2);
        let d = ns.saturating_sub(base);
        let slot = if comm.starts_with("dt-reactor") {
            &mut g.reactor
        } else if comm.starts_with("dt-worker") {
            &mut g.worker
        } else if comm.starts_with("dt-merger") {
            &mut g.merger
        } else if comm.starts_with("dt-acceptor") {
            &mut g.acceptor
        } else {
            &mut g.other
        };
        *slot += d;
    }
    g
}

/// Start a throwaway server and time it until its first frame is
/// accepted (counted as offered).
fn time_setup(w: &Workload, probe: &[u8]) -> DtResult<f64> {
    let cfg = w.server_config();
    let t0 = Instant::now();
    let server = Server::start(&cfg, Some("127.0.0.1:0"), Arc::new(MonotonicClock::new()))?;
    let addr = server
        .addr()
        .ok_or_else(|| DtError::engine("no bound address"))?;
    let mut conn =
        TcpStream::connect(addr).map_err(|e| DtError::engine(format!("connect: {e}")))?;
    conn.write_all(probe)
        .map_err(|e| DtError::engine(format!("probe write: {e}")))?;
    let stats = server.stats();
    while (0..stats.num_streams()).all(|i| stats.stream(i).offered.load(Ordering::SeqCst) == 0) {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err(DtError::engine("set-up probe frame was never accepted"));
        }
        std::thread::yield_now();
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(conn);
    server.shutdown()?;
    Ok(secs)
}

/// The open loop: send every frame once it is due, batching whatever
/// is due together, and record each frame's lag behind its schedule.
/// A slow server shows up as lag (writes block), never as less load.
fn drive(mut conn: TcpStream, clock: &dyn Clock, inputs: &Inputs) -> std::io::Result<Vec<u64>> {
    let n = inputs.len();
    let mut lags = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let now = clock.now().micros();
        let due = inputs.due(i);
        if due > now {
            let wake = due.max((now / TICK_US + 1) * TICK_US);
            std::thread::sleep(Duration::from_micros(wake - now));
            continue;
        }
        let mut j = i;
        while j < n && j - i < MAX_BATCH && inputs.due(j) <= now {
            lags.push(now - inputs.due(j));
            j += 1;
        }
        conn.write_all(inputs.frames(i, j))?;
        i = j;
    }
    conn.flush()?;
    conn.shutdown(Shutdown::Write)?;
    Ok(lags)
}

/// Time set-up, then run the workload once against a fresh server.
pub fn run(w: &Workload, inputs: &Inputs) -> DtResult<LiveRun> {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        setups.push(time_setup(w, inputs.frames(0, 1))?);
    }
    let setup_s = crate::stats::median(&mut setups);

    let clock = Arc::new(MonotonicClock::new());
    let server = Server::start(&w.server_config(), Some("127.0.0.1:0"), clock.clone())?;
    let addr = server
        .addr()
        .ok_or_else(|| DtError::engine("no bound address"))?;
    let conn = TcpStream::connect(addr).map_err(|e| DtError::engine(format!("connect: {e}")))?;
    let _ = conn.set_nodelay(true);
    if clock.now().micros() + 20_000 > START_US {
        return Err(DtError::engine(
            "server start-up overran the first scheduled arrival",
        ));
    }
    clock.sleep_until(dt_types::Timestamp::from_micros(START_US - 20_000));

    let before = thread_cpu();
    let gen_clock = clock.clone();
    let lag_us = std::thread::scope(|scope| {
        let gen = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(scope, || drive(conn, &*gen_clock, inputs))
            .map_err(|e| DtError::engine(format!("spawn generator: {e}")))?;
        gen.join()
            .map_err(|_| DtError::engine("generator panicked"))?
            .map_err(|e| DtError::engine(format!("generator write: {e}")))
    })?;

    // Wait until every window through the last one is emitted, then
    // snapshot CPU before shutdown joins (and so erases) the threads.
    let last = inputs.last_window();
    let due = Workload::spec().window_end(last).micros() + GRACE_US;
    let deadline = Instant::now()
        + Duration::from_micros(due.saturating_sub(clock.now().micros()))
        + DRAIN_TIMEOUT;
    let emitted = &server.stats().windows_emitted;
    while emitted.load(Ordering::SeqCst) < last + 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let after = thread_cpu();
    let wall_s = clock.now().micros().saturating_sub(START_US) as f64 / 1e6;
    let parse_errors = server.stats().parse_errors.load(Ordering::SeqCst);
    let report = server.shutdown()?;

    Ok(LiveRun {
        setup_s,
        report,
        frames_sent: lag_us.len() as u64,
        parse_errors,
        lag_us,
        cpu: cpu_delta(&before, &after),
        wall_s,
    })
}
