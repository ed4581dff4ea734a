//! Server-side instruments and the minimal HTTP response plumbing
//! shared by `/stats` and `/metrics`.
//!
//! All instruments are registered eagerly at [`crate::Server::start`]
//! so a scrape against an idle server still returns every series
//! (zero-valued), and the hot ingest path only touches pre-registered
//! handles.

use dt_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Instruments owned by the ingest side and the merger.
#[derive(Debug, Clone, Default)]
pub(crate) struct ServerObs {
    /// NDJSON frame lines accepted for parsing.
    pub ingest_frames: Counter,
    /// Bytes of accepted frame lines.
    pub ingest_bytes: Counter,
    /// Frame lines that failed to parse or route.
    pub ingest_errors: Counter,
    /// Current depth of each stream's bounded ingest backlog, summed
    /// across its shard queues (incremented on kept offers,
    /// decremented as workers drain).
    pub queue_depth: Vec<Gauge>,
    /// Per-shard queue depths, `shard_depth[stream][shard]` — wired
    /// into each stream's [`dt_triage::ShardQueues`], which keeps
    /// them current through pushes, pops, drains, and steals.
    pub shard_depth: Vec<Vec<Gauge>>,
    /// How far (µs) the seal watermark trails the clock — the window
    /// age at the moment its seal is broadcast.
    pub sealer_lag_us: Gauge,
    /// End-to-end latency (µs) from a window's end to its merged
    /// result being emitted.
    pub window_latency_us: Histogram,
    /// Windows fully merged and emitted.
    pub windows_emitted: Counter,
    /// Faults injected by the active [`crate::FaultPlan`], by kind.
    /// Order: corrupt_frame, delay, disconnect, panic, stall_seal,
    /// read_chop, read_disconnect.
    pub faults_injected: [Counter; 7],
    /// Frames rejected at ingest (malformed after any injection, or
    /// unknown stream) — the numerator of each connection's error
    /// budget.
    pub frames_rejected: Counter,
    /// Windows the merger's watchdog force-sealed past a stalled
    /// worker.
    pub windows_force_sealed: Counter,
    /// Seal broadcasts driven by source progress: every tracked
    /// ingest source had pushed past the window's end.
    pub seals_progress: Counter,
    /// Seal broadcasts driven by the grace: the window's end plus the
    /// grace had passed.
    pub seals_grace: Counter,
    /// Ingest sources the merger tracks for progress, closed ones
    /// still holding seals back included.
    pub ingest_sources: Gauge,
}

/// Indices into [`ServerObs::faults_injected`].
pub(crate) const FAULT_CORRUPT: usize = 0;
pub(crate) const FAULT_DELAY: usize = 1;
pub(crate) const FAULT_DISCONNECT: usize = 2;
pub(crate) const FAULT_PANIC: usize = 3;
pub(crate) const FAULT_STALL: usize = 4;
pub(crate) const FAULT_READ_CHOP: usize = 5;
pub(crate) const FAULT_READ_DISCONNECT: usize = 6;

impl ServerObs {
    /// Register every server instrument for `streams` (by name), with
    /// `shards` shard-depth gauges per stream.
    pub(crate) fn register(reg: &MetricsRegistry, streams: &[String], shards: usize) -> Self {
        ServerObs {
            ingest_frames: reg.counter(
                "dt_server_ingest_frames_total",
                "NDJSON frame lines accepted for parsing",
                &[],
            ),
            ingest_bytes: reg.counter(
                "dt_server_ingest_bytes_total",
                "Bytes of accepted frame lines",
                &[],
            ),
            ingest_errors: reg.counter(
                "dt_server_ingest_errors_total",
                "Frame lines that failed to parse or route",
                &[],
            ),
            queue_depth: streams
                .iter()
                .map(|s| {
                    reg.gauge(
                        "dt_server_queue_depth",
                        "Current depth of the stream's bounded ingest channel (tuples)",
                        &[("stream", s)],
                    )
                })
                .collect(),
            shard_depth: streams
                .iter()
                .map(|s| {
                    (0..shards.max(1))
                        .map(|k| {
                            reg.gauge(
                                "dt_server_shard_depth",
                                "Current depth of one shard's triage queue (tuples)",
                                &[("stream", s), ("shard", &k.to_string())],
                            )
                        })
                        .collect()
                })
                .collect(),
            sealer_lag_us: reg.gauge(
                "dt_server_sealer_lag_us",
                "Age of a window (microseconds past its end) when its seal is broadcast",
                &[],
            ),
            window_latency_us: reg.histogram(
                "dt_server_window_latency_us",
                "End-to-end latency from window end to merged result emission, microseconds",
                &[],
            ),
            windows_emitted: reg.counter(
                "dt_server_windows_emitted_total",
                "Windows fully merged and emitted",
                &[],
            ),
            faults_injected: [
                "corrupt_frame",
                "delay",
                "disconnect",
                "panic",
                "stall_seal",
                "read_chop",
                "read_disconnect",
            ]
            .map(|kind| {
                reg.counter(
                    "dt_server_faults_injected_total",
                    "Faults injected by the active fault plan",
                    &[("kind", kind)],
                )
            }),
            frames_rejected: reg.counter(
                "dt_server_frames_rejected_total",
                "Frames rejected at ingest (malformed or unroutable)",
                &[],
            ),
            windows_force_sealed: reg.counter(
                "dt_server_windows_force_sealed_total",
                "Windows force-sealed by the merger watchdog past a stalled worker",
                &[],
            ),
            seals_progress: reg.counter(
                "dt_server_seals_total",
                "Seal broadcasts, by what let the window seal",
                &[("cause", "progress")],
            ),
            seals_grace: reg.counter(
                "dt_server_seals_total",
                "Seal broadcasts, by what let the window seal",
                &[("cause", "grace")],
            ),
            ingest_sources: reg.gauge(
                "dt_server_ingest_sources",
                "Ingest sources tracked for progress sealing, closed ones still holding included",
                &[],
            ),
        }
    }
}

/// Per-reactor instruments for the TCP ingest plane, one
/// bundle per reactor thread (labelled by reactor index). Registered
/// eagerly at startup like everything else, so an idle scrape shows
/// the full zero-valued series set.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReactorObs {
    /// Connections currently owned by this reactor.
    pub conns: Gauge,
    /// Readiness wakeups (`epoll_wait` returns, including ticks).
    pub wakeups: Counter,
    /// Bytes returned by one nonblocking ingest `read` call — the
    /// read-burst shape (chopped reads land in the low buckets).
    pub read_burst: Histogram,
}

impl ReactorObs {
    pub(crate) fn register(reg: &MetricsRegistry, reactor: usize) -> Self {
        let label = reactor.to_string();
        ReactorObs {
            conns: reg.gauge(
                "dt_server_reactor_conns",
                "Connections currently owned by this reactor",
                &[("reactor", &label)],
            ),
            wakeups: reg.counter(
                "dt_server_readiness_wakeups_total",
                "Readiness wakeups (epoll_wait returns, including ticks)",
                &[("reactor", &label)],
            ),
            read_burst: reg.histogram(
                "dt_server_ingest_read_burst_bytes",
                "Bytes returned by one nonblocking ingest read call",
                &[("reactor", &label)],
            ),
        }
    }
}

/// Per-worker instruments, one bundle per shard-worker thread.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerObs {
    /// The stream's ingest-backlog depth gauge (shared with ingest,
    /// group-wide — per-shard depths live on the shard queues).
    pub queue_depth: Gauge,
    /// Tuples folded per batched drain.
    pub batch_size: Histogram,
    /// Times this worker panicked and was restarted by its
    /// supervisor.
    pub worker_restarts: Counter,
    /// Steal batches this worker pulled from siblings while idle.
    pub steal_batches: Counter,
    /// Tuples that arrived on this worker by stealing.
    pub steal_items: Counter,
}

impl WorkerObs {
    /// Register one shard worker's instruments. With a single-shard
    /// group the series keep their classic per-stream labels; larger
    /// groups add a `shard` label so per-shard behaviour is visible.
    pub(crate) fn register(
        reg: &MetricsRegistry,
        stream: &str,
        shard: usize,
        shards: usize,
        queue_depth: Gauge,
    ) -> Self {
        let shard_label = shard.to_string();
        let labels: Vec<(&str, &str)> = if shards == 1 {
            vec![("stream", stream)]
        } else {
            vec![("stream", stream), ("shard", &shard_label)]
        };
        WorkerObs {
            queue_depth,
            batch_size: reg.histogram(
                "dt_server_worker_batch_size",
                "Tuples folded per batched worker drain",
                &labels,
            ),
            worker_restarts: reg.counter(
                "dt_server_worker_restarts_total",
                "Worker panics recovered by supervised restart",
                &labels,
            ),
            steal_batches: reg.counter(
                "dt_server_steal_batches_total",
                "Steal batches this shard worker pulled from siblings while idle",
                &[("stream", stream), ("shard", &shard_label)],
            ),
            steal_items: reg.counter(
                "dt_server_steal_items_total",
                "Tuples that arrived on this shard worker by stealing",
                &[("stream", stream), ("shard", &shard_label)],
            ),
        }
    }
}

/// A minimal HTTP/1.0 response: status line, content type and length,
/// then the body. Enough for curl, Prometheus scrapers, and the
/// loopback client. Every probe reply — `/stats`, `/metrics`, and the
/// error paths — assembles through this one helper.
pub(crate) fn http_respond(status: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// 200 with a body.
pub(crate) fn http_response(content_type: &str, body: &str) -> String {
    http_respond(200, "OK", content_type, body)
}

/// 404 for unknown GET paths.
pub(crate) fn http_not_found() -> String {
    http_respond(404, "Not Found", "text/plain", "not found\n")
}

/// 405 for HTTP-shaped first lines with a method other than GET.
pub(crate) fn http_method_not_allowed() -> String {
    http_respond(
        405,
        "Method Not Allowed",
        "text/plain",
        "method not allowed; only GET is served\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_carry_headers_and_exact_length() {
        let r = http_response("application/json", "{\"a\":1}");
        assert!(r.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(r.contains("Content-Type: application/json\r\n"));
        assert!(r.contains("Content-Length: 7\r\n"));
        assert!(r.ends_with("\r\n\r\n{\"a\":1}"));
        assert!(http_not_found().starts_with("HTTP/1.0 404 Not Found\r\n"));
        let m = http_method_not_allowed();
        assert!(m.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"));
        assert!(m.contains("Content-Length: 39\r\n"));
    }
}
