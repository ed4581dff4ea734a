//! A concurrent streaming runtime serving Data Triage over the
//! network.
//!
//! The paper positions Data Triage inside a live stream processor
//! (TelegraphCQ); the rest of this workspace reproduces it as a
//! single-threaded virtual-time simulation. This crate is the runtime
//! half: a multi-threaded server that hosts compiled triage pipelines
//! as a long-running service, shedding load under *real* backpressure.
//!
//! ## Architecture
//!
//! ```text
//!  TCP clients ──┐                    ┌─ worker R ──┐
//!  (NDJSON       ├─ ingest ──┬─▸ ch R ┤ StreamTriage ├─┐
//!   frames)      │  (offer)  │  bound │ keep / shed /│ │ sealed
//!  in-process ───┘           ├─▸ ch S ┤ seal         │ ├────▸ merger ─▸ results
//!  Source                    │  bound └──────────────┘ │      (QueryExecutor:
//!                            └─ ctl: shed victims,     │       exact + shadow
//!                               seal watermarks ───────┘       merge, in window
//!                                        ▲                     order)
//!                                 Clock ─┘ (monotonic | virtual)
//! ```
//!
//! * **Ingest** accepts newline-delimited JSON tuple frames on a
//!   `TcpListener` (plus an in-process [`Source`] path for
//!   `dt-workload` generators) and `try_send`s each tuple into its
//!   stream's **bounded** channel. A full channel *is* the triage
//!   queue overflowing: the tuple is shed — rerouted to the worker's
//!   control lane to be folded into the window's dropped synopsis,
//!   exactly the paper's triage step under genuine backpressure.
//!   TCP is served by a readiness-driven **event loop** (DESIGN.md
//!   §14): an acceptor and a small pool of epoll reactor threads
//!   multiplexing per-connection frame assemblers. TCP serving needs
//!   Linux; the in-process [`Source`] path runs everywhere.
//! * **Per-stream workers** (one thread each) drain their channel
//!   into a [`dt_triage::StreamTriage`]: kept tuples are buffered for
//!   exact execution and folded into the kept synopsis, shed tuples
//!   into the dropped synopsis.
//! * The **merger** thread asks every worker to seal a window once
//!   every TCP ingest connection has pushed a tuple at or past the
//!   window's end, and once its end plus a grace period passes on the
//!   [`Clock`] at the latest (DESIGN.md §7); sealed per-stream state is joined and closed through
//!   [`dt_triage::QueryExecutor`] — exact results merged with the
//!   shadow query's estimate — and emitted strictly in window order.
//! * The **control plane**: per-stream offered/kept/shed counters
//!   behind a `/stats` JSON endpoint and (when the config carries a
//!   live [`dt_obs::MetricsRegistry`]) a `/metrics` Prometheus
//!   exposition endpoint on the same port, graceful shutdown that
//!   drains in-flight windows, and a final JSON report — including the
//!   drain-time observability snapshot — compatible with `dt-metrics`.
//!
//! * The **adaptive delay controller** (paper §4's delay constraint;
//!   DESIGN.md §11): when [`ServerConfig::delay`] is set, each stream
//!   gets a lock-free [`dt_triage::SharedController`] sitting *in
//!   front of* the bounded channel. Ingest asks it for a
//!   [`dt_triage::ShedDecision`] per tuple, workers feed it measured
//!   per-tuple costs, and the merger's watchdog penalizes its cost
//!   estimate whenever a window had to be force-sealed. Its state
//!   (threshold, estimated delay, shed fraction) is published as
//!   gauges and in the `/stats` `controllers` array.
//!
//! The stage names map onto the paper directly: the bounded channel
//! plus controller is the **triage queue** (§5.1), the worker's
//! keep/shed fold is **triage** proper with the victim folded into a
//! [`dt_synopsis`] summary (§5.2), and the merger's
//! [`dt_triage::QueryExecutor`] close runs the **shadow query** of the
//! §4 rewrite and merges its estimate with the exact results.
//!
//! Determinism: with a [`dt_types::VirtualClock`] nothing in the
//! runtime moves time forward on its own, so integration tests drive
//! sealing (and worker pacing) by hand and get reproducible window
//! results from a fully threaded server.
//!
//! ## Failure model
//!
//! The runtime degrades rather than dying (DESIGN.md §10): malformed
//! ingest frames are skipped against a per-connection error budget
//! (exhaustion closes the connection with a structured error frame);
//! a panicking worker is restarted by its supervisor with the crashed
//! windows flagged *degraded*; a stalled sealer is overtaken by the
//! merger's watchdog, which force-seals the overdue window from
//! whatever contributions exist. The whole failure surface is
//! exercised deterministically by seeded [`FaultPlan`] schedules
//! (`tests/chaos.rs`).

pub mod client;
pub mod config;
pub mod fault;
pub mod frame;
mod ingest;
mod obs;
pub(crate) mod reactor;
pub mod server;
pub mod source;
pub mod stats;
#[cfg(target_os = "linux")]
mod sys;
mod worker;

pub use client::{
    fetch_metrics, fetch_metrics_with, fetch_stats, fetch_stats_with, Client, ClientConfig,
    QueryEntry, RetryPolicy, StatsReply,
};
pub use config::{ServerConfig, CONN_ERROR_BUDGET};
pub use fault::{Corruption, FaultPlan};
pub use frame::{
    parse_frame, parse_incoming, render_frame, render_frame_tagged, Command, Frame, FrameAssembler,
    Incoming, Line, MAX_LINE_BYTES,
};
pub use server::{Server, ServerHandle, MAX_WINDOWS_AHEAD};
pub use source::{run_source, Source, TraceSource};
pub use stats::{query_info_json, ServerReport, ServerStats, StreamSnapshot};

pub use dt_registry::{QueryId, QueryInfo, QueryRegistry, QuerySpec};

pub use dt_obs::MetricsRegistry;
pub use dt_types::{Clock, MonotonicClock, VirtualClock};
