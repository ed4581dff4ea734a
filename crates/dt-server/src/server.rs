//! The runtime: ingest, workers, merger, control plane.
//!
//! [`Server::start`] compiles the configured queries, spawns a window
//! merger, one triage worker per physical stream shard, and (when an
//! address is given) the TCP ingest plane for NDJSON tuple frames. The
//! [`ServerHandle`] is the cheap, cloneable ingest facade shared by
//! the reactor threads and in-process [`crate::Source`]s;
//! [`Server::shutdown`] runs the graceful drain and returns the final
//! [`ServerReport`].

use crate::config::ServerConfig;
use crate::fault::FaultPlan;
use crate::frame::{decode_frame, decode_incoming, Command, Decoded, FrameRef};
use crate::ingest::ProgressSource;
use crate::obs::{ServerObs, WorkerObs, FAULT_PANIC, FAULT_STALL};
use crate::reactor::TcpPlane;
use crate::stats::query_info_json;
use crate::stats::{ServerReport, ServerStats};
use crate::worker::{run_worker, Ctl, SeqTuple, TriageFactory, WorkerCtx};
use crossbeam::channel::{unbounded, Receiver, Sender};
use dt_obs::{Gauge, MetricsRegistry};
use dt_registry::{QueryId, QueryInfo, QueryRegistry, QuerySpec, RegistryConfig};
use dt_synopsis::SynopsisConfig;
use dt_triage::{
    gather_seals, merge_sealed, ControllerGauges, DelayConstraint, FairController, RunReport,
    RunTotals, SealedWindow, ShardQueues, ShardRouter, SharedController, SharedStream,
    ShedDecision, ShedMode, WindowResult,
};
use dt_types::{json, Json, ToJson};
use dt_types::{Clock, DtError, DtResult, Timestamp, Tuple, VDuration, WindowId, WindowSpec};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest the merger blocks on its inbox before re-reading the
/// clock (it wakes sooner for a message or the next seal deadline).
const MERGER_POLL: Duration = Duration::from_millis(2);

/// Real time the watchdog waits after a watermark broadcast before it
/// may force-seal. A healthy worker answers a watermark in
/// microseconds; under a virtual clock a single `set` can make the
/// (virtual) watchdog deadline pass in the same instant the watermark
/// first goes out, and this guard keeps the watchdog from racing the
/// healthy seal already in flight.
const WATCHDOG_REAL_GRACE: Duration = Duration::from_millis(200);

/// How far past the clock's current window an offered tuple's
/// timestamp may lie, in windows. A tuple further ahead is rejected
/// at ingest: every window up to its own is materialized when the
/// stream seals, so an unbounded timestamp (say, epoch microseconds
/// fed to a server whose clock starts at zero) would stall the drain
/// for as many windows as it skips.
pub const MAX_WINDOWS_AHEAD: WindowId = 1024;

/// The merger's one inbox: the workers' sealed windows, the ingest
/// sources' progress wake-ups and, after every worker has joined, the
/// stop request. The channel is FIFO, so every seal a worker sent
/// arrives before `Stop`.
pub(crate) enum MergerMsg {
    /// One (stream, shard) partial of a sealed window (boxed: a
    /// sealed window is hundreds of bytes, `Stop` is none).
    Sealed(Box<SealedWindow>),
    /// An ingest source published a new frontier into
    /// [`Inner::sources`]: recompute the progress watermark.
    Progress,
    /// Every worker has drained and exited: emit what is left, return.
    Stop,
}

/// State shared by every ingest path.
struct Inner {
    /// The query registry: the physical stream table and every
    /// registered query's compiled plan (see `dt-registry`).
    registry: Arc<QueryRegistry>,
    stats: Arc<ServerStats>,
    clock: Arc<dyn Clock>,
    /// The clock's window at the merger's latest poll — the reading
    /// ingest checks [`MAX_WINDOWS_AHEAD`] against, so a tuple with a
    /// timestamp costs no clock read of its own.
    clock_window: AtomicU64,
    mode: ShedMode,
    metrics: MetricsRegistry,
    obs: ServerObs,
    /// One shard-queue group per stream — the bounded triage queues
    /// the worker group pops (and steals) from. With `shards == 1`
    /// this is the classic single bounded queue.
    queues: Vec<Arc<ShardQueues<SeqTuple>>>,
    /// Per-stream shard routers: hash on the query's group key, or
    /// round-robin for keyless plans.
    routers: Vec<ShardRouter>,
    /// Per-stream ingest sequence counters. Every offered tuple —
    /// kept or shed — is stamped *before* shard routing, so the merge
    /// step can restore arrival order deterministically regardless of
    /// partitioning or stealing (DESIGN.md §15).
    seqs: Vec<AtomicU64>,
    /// Worker-group size per stream.
    shards: usize,
    /// Control lanes, one per (stream, shard), flat-indexed
    /// `stream * shards + shard`.
    ctl_tx: Vec<Sender<Ctl>>,
    /// One admission controller per stream, always present. Without a
    /// server-wide [`ServerConfig::delay`] and without tenant lanes
    /// the base controller is unconstrained — it keeps everything and
    /// channel overflow stays the only shed signal. Runtime
    /// registrations tighten it and add weighted-fair lanes.
    admission: Vec<FairController>,
    stop: AtomicBool,
    /// The active fault-injection schedule (disabled in production).
    fault: FaultPlan,
    /// Ingest-connection ids, drawn lazily at a connection's first
    /// data line (HTTP probes never draw one, keeping the ids — and
    /// thus the fault schedule — deterministic for test harnesses).
    conn_seq: AtomicU64,
    /// The progress table: every tracked ingest source's published
    /// frontier, read by the merger to seal before the grace.
    sources: Mutex<Sources>,
    /// Set by the first in-process offer. In-process callers publish
    /// no frontier, so from then on the merger seals by grace only.
    untracked: AtomicBool,
    /// The merger's inbox, for [`MergerMsg::Progress`] wake-ups.
    merger_tx: Sender<MergerMsg>,
}

/// One tracked ingest source in the progress table.
struct SourceFrontier {
    /// The newest `ts` the source has published; `None` until its
    /// first publish.
    ts: Option<Timestamp>,
    /// The connection has closed. It keeps holding seals back at `ts`
    /// until the grace seal passes `ts`, so a resend on a fresh
    /// connection is not late.
    closed: bool,
}

/// The progress table: one entry per tracked ingest source. An
/// ingest connection becomes a source at its first tuple frame
/// ([`ProgressSource`]); HTTP probes and control-only connections
/// never do.
#[derive(Default)]
struct Sources {
    next_id: u64,
    table: HashMap<u64, SourceFrontier>,
    /// `dt_server_ingest_sources`: the table's length.
    gauge: Gauge,
}

impl Sources {
    fn register(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.table.insert(
            id,
            SourceFrontier {
                ts: None,
                closed: false,
            },
        );
        self.gauge.set(self.table.len() as i64);
        id
    }

    fn publish(&mut self, id: u64, ts: Timestamp) {
        if let Some(s) = self.table.get_mut(&id) {
            s.ts = Some(ts);
        }
    }

    /// Mark source `id` closed with its final frontier `pushed` (the
    /// newest `ts` it ever pushed). A source that pushed nothing has
    /// nothing to hold back and leaves at once.
    fn close(&mut self, id: u64, pushed: Option<Timestamp>) {
        match pushed {
            Some(ts) => self.table.insert(
                id,
                SourceFrontier {
                    ts: Some(ts),
                    closed: true,
                },
            ),
            None => self.table.remove(&id),
        };
        self.gauge.set(self.table.len() as i64);
    }

    /// Prune every closed source whose frontier the grace seal
    /// `grace_mark` has passed (every window holding its frontier is
    /// sealed), then return the least published frontier: `None` when
    /// no source is tracked or a tracked source has not published yet.
    fn frontier(&mut self, grace_mark: Option<WindowId>, spec: WindowSpec) -> Option<Timestamp> {
        let passed = |ts: Timestamp| grace_mark.is_some_and(|g| g >= spec.window_of(ts));
        self.table
            .retain(|_, s| !(s.closed && s.ts.is_some_and(passed)));
        self.gauge.set(self.table.len() as i64);
        self.table.values().map(|s| s.ts).min().flatten()
    }
}

/// Cloneable ingest facade onto a running server.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// The physical stream index for a catalog stream name.
    pub fn stream_index(&self, name: &str) -> Option<usize> {
        self.inner
            .registry
            .streams()
            .iter()
            .position(|s| s.name == name)
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.inner.stats
    }

    /// The server's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// The (single) window spec every query shares.
    pub fn spec(&self) -> WindowSpec {
        self.inner.registry.spec()
    }

    /// Register a continuous query at runtime; it first appears in
    /// the next emitted window. Rebuilds the affected streams'
    /// fair-shedding lanes before returning.
    pub fn register(&self, spec: QuerySpec) -> DtResult<QueryId> {
        let id = self.inner.registry.register(spec)?;
        self.sync_lanes();
        Ok(id)
    }

    /// Detach query `id` at the next window boundary, returning the
    /// first window it no longer covers.
    pub fn unregister(&self, id: QueryId) -> DtResult<WindowId> {
        let boundary = self.inner.registry.unregister(id)?;
        self.sync_lanes();
        Ok(boundary)
    }

    /// Frozen views of every query ever registered, in id order.
    pub fn queries(&self) -> Vec<QueryInfo> {
        self.inner.registry.list()
    }

    /// Re-derive each stream's tenant lanes from the active query
    /// set. Lanes are derived state, so a failure here is impossible
    /// by construction (names are unique, weights validated at
    /// registration); `expect` documents that invariant.
    fn sync_lanes(&self) {
        for (p, fc) in self.inner.admission.iter().enumerate() {
            fc.set_lanes(&self.inner.registry.lanes_for_stream(p))
                .expect("registry-derived lanes are valid");
        }
    }

    /// Offer one tuple to a stream. This is the triage step: the
    /// tuple either enters its shard's bounded queue (kept) or, when
    /// that queue is full, is rerouted to the shard worker's control
    /// lane as a shed victim — it still reaches the window's dropped
    /// synopsis, it just skips exact processing.
    ///
    /// An in-process offer publishes no progress frontier, so the
    /// first one makes the server seal every later window by its
    /// grace alone (DESIGN.md §7).
    pub fn offer(&self, stream: usize, tuple: Tuple) -> DtResult<()> {
        self.offer_tagged(stream, tuple, None)
    }

    /// [`ServerHandle::offer`] with a tenant lane tag: the stream's
    /// [`FairController`] charges the shed decision to the tenant's
    /// lane (untagged tuples land in the catch-all lane).
    pub fn offer_tagged(&self, stream: usize, tuple: Tuple, tenant: Option<&str>) -> DtResult<()> {
        self.mark_untracked();
        let shared = self
            .inner
            .registry
            .streams()
            .get(stream)
            .ok_or_else(|| DtError::config(format!("no stream with index {stream}")))?;
        self.offer_to(stream, shared, tuple, tenant)
    }

    /// Offer `tuple` to stream `stream`, whose table entry is `shared`.
    fn offer_to(
        &self,
        stream: usize,
        shared: &SharedStream,
        tuple: Tuple,
        tenant: Option<&str>,
    ) -> DtResult<()> {
        let inner = &*self.inner;
        self.check_ahead(tuple.ts)?;
        if tuple.arity() != shared.schema.arity() {
            return Err(DtError::schema(format!(
                "tuple arity {} does not match stream '{}' arity {}",
                tuple.arity(),
                shared.name,
                shared.schema.arity()
            )));
        }
        let counters = inner.stats.stream(stream);
        counters.offered.fetch_add(1, Ordering::SeqCst);
        // Stamp the per-stream ingest sequence *before* routing: kept
        // and shed tuples alike carry it, so the seal-time merge can
        // re-sort rows into arrival order whatever shard they landed
        // on (or were stolen to).
        let seq = inner.seqs[stream].fetch_add(1, Ordering::SeqCst);
        let shard = inner.routers[stream].route(&tuple.row);
        let ctl = &inner.ctl_tx[stream * inner.shards + shard];
        let shed = |t: Tuple| -> DtResult<()> {
            ctl.send(Ctl::Shed(t, seq))
                .map_err(|_| DtError::engine("stream worker is gone"))?;
            counters.shed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        match inner.mode {
            // Summarize-only never touches the engine at all.
            ShedMode::SummarizeOnly => shed(tuple),
            ShedMode::DropOnly | ShedMode::DataTriage => {
                // The adaptive controller sheds *before* the hard
                // channel bound: once the backlog could no longer
                // drain within the delay constraint, the tuple goes
                // straight to the control lane as a victim. The fair
                // controller charges the decision to the tenant's
                // lane when lanes are configured.
                let fc = &inner.admission[stream];
                if fc.decide(tenant) == ShedDecision::Shed {
                    return shed(tuple);
                }
                // The gauge is bumped *before* the push so a worker's
                // decrement can never observe a tuple whose increment
                // hasn't landed yet.
                let depth = &inner.obs.queue_depth[stream];
                depth.add(1);
                match inner.queues[stream].push(shard, (tuple, seq)) {
                    Ok(()) => {
                        fc.base().on_enqueue();
                        counters.kept.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }
                    Err((t, _)) => {
                        // The shard's queue is full — this tuple is the
                        // overflow victim (`Newest` policy, as ever).
                        depth.sub(1);
                        shed(t)
                    }
                }
            }
        }
    }

    /// Reject `ts` when its window lies more than [`MAX_WINDOWS_AHEAD`]
    /// windows past the clock's. The merger's last reading decides
    /// almost every tuple; only one past that bound reads the clock
    /// afresh, in case the reading is stale.
    fn check_ahead(&self, ts: Timestamp) -> DtResult<()> {
        let inner = &*self.inner;
        let spec = inner.registry.spec();
        let w = spec.window_of(ts);
        let within = |clock_w: WindowId| w <= clock_w.saturating_add(MAX_WINDOWS_AHEAD);
        if within(inner.clock_window.load(Ordering::Relaxed))
            || within(spec.window_of(inner.clock.now()))
        {
            return Ok(());
        }
        Err(DtError::config(format!(
            "timestamp {ts} lies more than {MAX_WINDOWS_AHEAD} windows past the clock"
        )))
    }

    /// Offer a frame line exactly as the TCP path does: resolve the
    /// stream by name, stamp a missing timestamp with `Clock::now()`.
    /// Like [`ServerHandle::offer`], it makes the server seal by grace
    /// alone from then on.
    pub fn offer_frame(&self, line: &str) -> DtResult<()> {
        self.mark_untracked();
        self.inner.obs.ingest_frames.inc();
        self.inner.obs.ingest_bytes.add(line.len() as u64);
        self.offer_parsed(decode_frame(line)?).map(|_| ())
    }

    /// Stop sealing on progress: an in-process caller is offering
    /// tuples no source frontier accounts for.
    fn mark_untracked(&self) {
        let untracked = &self.inner.untracked;
        if !untracked.load(Ordering::Relaxed) {
            untracked.store(true, Ordering::SeqCst);
        }
    }

    /// Offer a decoded tuple frame; returns the timestamp it was
    /// offered at.
    fn offer_parsed(&self, frame: FrameRef<'_>) -> DtResult<Timestamp> {
        let (stream, shared) = self
            .inner
            .registry
            .streams()
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == frame.stream)
            .ok_or_else(|| DtError::config(format!("unknown stream '{}'", frame.stream)))?;
        let ts = frame.ts.unwrap_or_else(|| self.inner.clock.now());
        self.offer_to(
            stream,
            shared,
            Tuple::new(frame.row, ts),
            frame.tenant.as_deref(),
        )?;
        Ok(ts)
    }

    /// Ingest one wire line from a TCP connection: a tuple frame (no
    /// reply) or a control command (`Ok(Some(reply))` — the caller
    /// writes the reply line back on the connection). An `Err` means
    /// the line was malformed or unroutable and counts against the
    /// connection's error budget; a well-formed command that *fails*
    /// (bad SQL, unknown id) is still answered, as `{"error":…}`.
    ///
    /// The connection becomes a progress source at its first tuple
    /// frame, registered before that tuple is offered; each pushed
    /// tuple then raises `source`'s frontier (published by the
    /// session, see [`ProgressSource::publish`]).
    pub(crate) fn ingest_line(
        &self,
        line: &str,
        source: &mut Option<ProgressSource>,
    ) -> DtResult<Option<String>> {
        self.inner.obs.ingest_frames.inc();
        self.inner.obs.ingest_bytes.add(line.len() as u64);
        match decode_incoming(line)? {
            Decoded::Tuple(frame) => {
                let src = source.get_or_insert_with(|| ProgressSource::register(self));
                src.pushed(self.offer_parsed(frame)?);
                Ok(None)
            }
            Decoded::Control(cmd) => Ok(Some(self.control(cmd).render())),
        }
    }

    /// Execute one control command, producing the reply document.
    fn control(&self, cmd: Command) -> Json {
        let err = |e: DtError| json::obj(vec![("error", Json::Str(e.to_string()))]);
        match cmd {
            Command::Register {
                sql,
                tenant,
                delay_ms,
                weight,
            } => {
                let delay = match delay_ms.map(DelayConstraint::from_millis).transpose() {
                    Ok(d) => d,
                    Err(e) => return err(e),
                };
                let mut spec = QuerySpec::new(sql);
                spec.tenant = tenant;
                spec.delay = delay;
                if let Some(w) = weight {
                    spec = spec.weight(w);
                }
                match self.register(spec) {
                    Ok(id) => json::obj(vec![
                        ("registered", (id as i64).to_json()),
                        (
                            "active_from",
                            (self.inner.registry.emit_cursor() as i64).to_json(),
                        ),
                    ]),
                    Err(e) => err(e),
                }
            }
            Command::Unregister { id } => match self.unregister(id) {
                Ok(boundary) => json::obj(vec![
                    ("unregistered", (id as i64).to_json()),
                    ("active_to", (boundary as i64).to_json()),
                ]),
                Err(e) => err(e),
            },
            Command::List => json::obj(vec![(
                "queries",
                Json::Arr(self.queries().iter().map(query_info_json).collect()),
            )]),
        }
    }

    // ---- crate-internal accessors for the TCP ingest plane --------

    /// Server-side instruments.
    pub(crate) fn obs(&self) -> &ServerObs {
        &self.inner.obs
    }

    /// The active fault-injection schedule.
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.inner.fault
    }

    /// Draw the next ingest-connection id (lazily, at a connection's
    /// first data line, so HTTP probes never consume one).
    pub(crate) fn next_conn_id(&self) -> u64 {
        self.inner.conn_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Track a new progress source; returns its id in the table.
    pub(crate) fn register_source(&self) -> u64 {
        self.inner.sources.lock().expect("sources lock").register()
    }

    /// Publish source `id`'s frontier `ts` (every tuple it holds up to
    /// `ts` is already pushed) and wake the merger to act on it.
    pub(crate) fn publish_progress(&self, id: u64, ts: Timestamp) {
        self.inner
            .sources
            .lock()
            .expect("sources lock")
            .publish(id, ts);
        let _ = self.inner.merger_tx.send(MergerMsg::Progress);
    }

    /// Source `id`'s connection closed, having pushed up to `pushed`.
    /// Runs from a `Drop`, so a poisoned lock is used as it stands.
    pub(crate) fn close_source(&self, id: u64, pushed: Option<Timestamp>) {
        self.inner
            .sources
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .close(id, pushed);
    }

    /// True once shutdown has begun.
    pub(crate) fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// The `/stats` JSON body (newline-terminated).
    pub(crate) fn stats_body(&self) -> String {
        format!("{}\n", render_stats(&self.inner).render())
    }

    /// The `/metrics` Prometheus text exposition.
    pub(crate) fn metrics_body(&self) -> String {
        self.inner.metrics.render_prometheus()
    }

    /// Account one rejected ingest frame (malformed or unroutable).
    pub(crate) fn note_rejected_frame(&self) {
        let inner = &*self.inner;
        inner.obs.ingest_errors.inc();
        inner.obs.frames_rejected.inc();
        inner.stats.parse_errors.fetch_add(1, Ordering::SeqCst);
    }
}

/// A running server. Call [`Server::shutdown`] to drain and collect
/// the report; dropping it runs the same drain and discards the report.
pub struct Server {
    handle: ServerHandle,
    workers: Vec<JoinHandle<DtResult<()>>>,
    merger: Option<JoinHandle<DtResult<ServerReport>>>,
    merger_tx: Sender<MergerMsg>,
    /// The listener, acceptor and reactor pool, when serving a socket.
    tcp: Option<TcpPlane>,
}

impl Server {
    /// Compile `cfg` and start the runtime on `clock`. With
    /// `addr = Some("127.0.0.1:0")` an NDJSON TCP listener is bound
    /// (port 0 picks a free port — read it back with
    /// [`Server::addr`]); with `None` the server is in-process only.
    /// TCP ingest needs Linux (epoll): elsewhere `Some(addr)` is a
    /// config error.
    ///
    /// A failed start (say, on an occupied port) leaves no server
    /// thread running: an error after the first spawn runs the
    /// shutdown sequence.
    pub fn start(
        cfg: &ServerConfig,
        addr: Option<&str>,
        clock: Arc<dyn Clock>,
    ) -> DtResult<Server> {
        // Compile the configured queries the classic way first: this
        // validates the whole config (capacity, budget, SQL) and
        // discovers the shared window spec the registry enforces.
        let exec = cfg.compile()?;
        let spec = exec.spec();
        drop(exec);
        let registry = Arc::new(QueryRegistry::new(
            RegistryConfig {
                catalog: cfg.catalog.clone(),
                mode: cfg.mode,
                spec,
                override_windows: cfg.window.is_some(),
            },
            cfg.metrics.clone(),
        )?);
        // The configured queries become registrations 0..n, so their
        // results keep their positions in the final report.
        for sql in &cfg.queries {
            registry.register(QuerySpec::new(sql.clone()))?;
        }
        let names: Vec<String> = registry.streams().iter().map(|s| s.name.clone()).collect();
        let stats = Arc::new(ServerStats::new(&names));
        // Register every instrument up front: a scrape against an idle
        // server still returns the full (zero-valued) series set.
        let shards = cfg.shards.max(1);
        let obs = ServerObs::register(&cfg.metrics, &names, shards);

        // One admission controller per stream, unconditionally — a
        // runtime registration may tighten the constraint later. The
        // EWMAs are primed from the cost hint so the threshold is
        // meaningful from the first tuple; the workers replace the
        // hint with measured costs as they process. Without a
        // constraint the base controller keeps everything.
        let constraint = cfg.delay.filter(|_| cfg.mode.uses_engine());
        let admission: Vec<FairController> = names
            .iter()
            .map(|name| {
                let mut base =
                    SharedController::from_cost_model(constraint, &cfg.cost_hint, cfg.mode);
                // The Prometheus gauge surface stays keyed to the
                // configured constraint: an unconstrained server
                // exports no dt_triage_* series (runtime-registered
                // constraints still run and report through /stats).
                if constraint.is_some() {
                    base = base.with_gauges(ControllerGauges::register(&cfg.metrics, name));
                }
                FairController::new(Arc::new(base), constraint)
            })
            .collect();

        let mut queues = Vec::new();
        let mut routers = Vec::new();
        let mut ctl_tx = Vec::new();
        let mut worker_ctxs = Vec::new();
        let (merger_tx, merger_rx) = unbounded::<MergerMsg>();
        for (i, s) in registry.streams().iter().enumerate() {
            // The whole group drains one backlog: the controller's
            // threshold scales with the number of drains.
            admission[i].base().set_drains(shards);
            // Partition on the active queries' group key when there is
            // exactly one; round-robin otherwise (DESIGN.md §15).
            routers.push(ShardRouter::new(shards, registry.group_key_col(i)));
            let q = Arc::new(
                ShardQueues::new(shards, cfg.channel_capacity)
                    .with_gauges(obs.shard_depth[i].clone()),
            );
            for k in 0..shards {
                let (ctx_tx, crx) = unbounded::<Ctl>();
                let factory = TriageFactory {
                    stream: i,
                    shard: k,
                    arity: s.schema.arity(),
                    mode: cfg.mode,
                    synopsis: cfg.synopsis,
                    spec,
                    metrics: cfg.metrics.clone(),
                    name: s.name.clone(),
                };
                let wctx = WorkerCtx {
                    stream: i,
                    shard: k,
                    factory,
                    queues: Arc::clone(&q),
                    ctl_rx: crx,
                    merger_tx: merger_tx.clone(),
                    clock: Arc::clone(&clock),
                    pace: cfg.pace_by_timestamp,
                    spec,
                    stats: Arc::clone(&stats),
                    obs: WorkerObs::register(
                        &cfg.metrics,
                        &s.name,
                        k,
                        shards,
                        obs.queue_depth[i].clone(),
                    ),
                    controller: Some(Arc::clone(admission[i].base())),
                    fault: cfg.fault.clone(),
                    fault_panic_ctr: obs.faults_injected[FAULT_PANIC].clone(),
                    fault_stall_ctr: obs.faults_injected[FAULT_STALL].clone(),
                };
                // Single-shard groups keep the classic thread name.
                let tname = if shards == 1 {
                    format!("dt-worker-{}", s.name)
                } else {
                    format!("dt-worker-{}-{k}", s.name)
                };
                worker_ctxs.push((tname, wctx));
                ctl_tx.push(ctx_tx);
            }
            queues.push(q);
        }

        let inner = Arc::new(Inner {
            registry,
            stats: Arc::clone(&stats),
            clock: Arc::clone(&clock),
            clock_window: AtomicU64::new(spec.window_of(clock.now())),
            mode: cfg.mode,
            metrics: cfg.metrics.clone(),
            queues,
            routers,
            seqs: names.iter().map(|_| AtomicU64::new(0)).collect(),
            shards,
            ctl_tx,
            admission,
            stop: AtomicBool::new(false),
            fault: cfg.fault.clone(),
            conn_seq: AtomicU64::new(0),
            sources: Mutex::new(Sources {
                gauge: obs.ingest_sources.clone(),
                ..Sources::default()
            }),
            untracked: AtomicBool::new(false),
            merger_tx: merger_tx.clone(),
            obs,
        });
        let handle = ServerHandle {
            inner: Arc::clone(&inner),
        };

        // The merger starts first: once it runs, a failed spawn can
        // return through `Drop`, which stops whatever has started.
        let merger_inner = Arc::clone(&inner);
        let synopsis = cfg.synopsis;
        let grace = cfg.grace;
        let watchdog = cfg.seal_watchdog;
        let merger = std::thread::Builder::new()
            .name("dt-merger".to_string())
            .spawn(move || run_merger(merger_inner, synopsis, grace, watchdog, merger_rx))
            .map_err(|e| DtError::engine(format!("spawn merger: {e}")))?;
        let mut server = Server {
            handle,
            workers: Vec::with_capacity(worker_ctxs.len()),
            merger: Some(merger),
            merger_tx,
            tcp: None,
        };
        for (tname, wctx) in worker_ctxs {
            server.workers.push(
                std::thread::Builder::new()
                    .name(tname)
                    .spawn(move || run_worker(wctx))
                    .map_err(|e| DtError::engine(format!("spawn worker: {e}")))?,
            );
        }
        // Bound after the workers start, so their start-up overlaps the
        // socket set-up.
        if let Some(addr) = addr {
            let tcp = server.tcp.insert(TcpPlane::bind(addr)?);
            tcp.start(&server.handle, &cfg.metrics)?;
        }
        Ok(server)
    }

    /// The ingest facade (clone it freely).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The bound TCP address, when serving a socket.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().map(TcpPlane::addr)
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        self.handle.stats()
    }

    /// Graceful shutdown: stop accepting, drain every worker (all
    /// queued tuples are consumed, all open windows sealed), merge
    /// the remaining windows, and return the final report.
    pub fn shutdown(mut self) -> DtResult<ServerReport> {
        self.stop_threads()
    }

    /// The shutdown sequence behind both [`Server::shutdown`] and
    /// `Drop`: stop the acceptor and reactors, drain and join every
    /// worker, then stop and join the merger. Runs once; the merger
    /// handle it takes marks the server stopped.
    fn stop_threads(&mut self) -> DtResult<ServerReport> {
        let Some(merger) = self.merger.take() else {
            return Err(DtError::engine("server already stopped"));
        };
        let inner = &self.handle.inner;
        inner.stop.store(true, Ordering::SeqCst);
        if let Some(tcp) = &mut self.tcp {
            tcp.stop();
        }
        for tx in &inner.ctl_tx {
            let _ = tx.send(Ctl::Stop);
        }
        let mut first_err = None;
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or_else(|| Some(DtError::engine("worker thread panicked")))
                }
            }
        }
        // Every worker has joined, so every seal is already queued
        // ahead of this Stop in the merger's inbox.
        let _ = self.merger_tx.send(MergerMsg::Stop);
        let report = match merger.join() {
            Ok(r) => r,
            Err(_) => Err(DtError::engine("merger thread panicked")),
        };
        match first_err {
            Some(e) => Err(e),
            None => report,
        }
    }
}

/// Dropping a server that was never shut down runs the same drain and
/// discards the report, so no server thread outlives it.
impl Drop for Server {
    fn drop(&mut self) {
        // After `shutdown` this is a no-op: the merger is already taken.
        let _ = self.stop_threads();
    }
}

/// How a window's missing per-stream slots are treated at emission.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// Every stream must have sealed the window (normal emission).
    Strict,
    /// Synthesize clean empty seals — the stream was simply idle
    /// (shutdown drain, where workers have already sealed everything
    /// they ever opened).
    Idle,
    /// Synthesize *degraded* empty seals — the stream's worker is
    /// stalled and the watchdog is sealing past it.
    Forced,
}

/// The newest window whose end plus `grace` has passed at `now` —
/// the seal watermark — or `None` before window 0's deadline. With a
/// zero grace it is the newest window that ends at or before `now`.
pub(crate) fn seal_watermark(
    now: Timestamp,
    spec: WindowSpec,
    grace: VDuration,
) -> Option<WindowId> {
    let lag = (spec.width() + grace).micros();
    now.micros()
        .checked_sub(lag)
        .map(|since| since / spec.slide().micros())
}

/// How long the merger may block on its inbox at `now`: until the
/// next seal watermark is due — the end of window `last_seal + 1`
/// (window 0 before any seal) plus `grace` — but never longer than
/// [`MERGER_POLL`]. The cap keeps a [`dt_types::VirtualClock`] (which
/// moves only when a test moves it), the watchdog and the
/// `clock_window` reading ingest checks against all serviced.
fn merger_wait(
    now: Timestamp,
    last_seal: Option<WindowId>,
    spec: WindowSpec,
    grace: VDuration,
) -> Duration {
    let next = last_seal.map_or(0, |s| s + 1);
    let due = spec.window_end(next).micros() + grace.micros();
    MERGER_POLL.min(Duration::from_micros(due.saturating_sub(now.micros())))
}

/// The progress watermark: the newest window that ends at or before
/// both `frontier`, the least frontier the tracked ingest sources have
/// published ([`Sources::frontier`]), and the clock `now`. `None`
/// while there is no frontier. The clock cap keeps the
/// `pace_by_timestamp` contract: a seal never makes a worker consume a
/// tuple stamped ahead of the clock.
fn progress_watermark(
    frontier: Option<Timestamp>,
    now: Timestamp,
    spec: WindowSpec,
) -> Option<WindowId> {
    frontier.and_then(|f| seal_watermark(f.min(now), spec, VDuration::ZERO))
}

/// The merger loop: collect sealed per-stream windows, emit each
/// window (strictly in id order) once every stream has sealed it,
/// drive the seal watermark, and force-seal past stalled workers once
/// the watchdog deadline passes. A window seals once every tracked
/// ingest source has pushed past its end ([`progress_watermark`]), and
/// at its end plus `grace` at the latest ([`seal_watermark`]). The
/// merger wakes on every inbox message and at every grace deadline
/// ([`merger_wait`]), so a watermark goes out when it is due and a
/// window is emitted as soon as its last partial arrives.
fn run_merger(
    inner: Arc<Inner>,
    synopsis: SynopsisConfig,
    grace: VDuration,
    watchdog: Option<VDuration>,
    inbox: Receiver<MergerMsg>,
) -> DtResult<ServerReport> {
    let registry = &inner.registry;
    let spec = registry.spec();
    let n_streams = registry.streams().len();
    let shards = inner.shards;
    // One slot per (stream, shard) partial, flat-indexed
    // `stream * shards + shard`; `emit_window` folds each stream's
    // group of partials in ascending shard order.
    let n_slots = n_streams * shards;
    let mut pending: BTreeMap<WindowId, Vec<Option<SealedWindow>>> = BTreeMap::new();
    let mut results: BTreeMap<QueryId, Vec<WindowResult>> = BTreeMap::new();
    let mut peak_units: usize = 0;
    let mut next_emit: WindowId = 0;
    let mut last_seal: Option<WindowId> = None;
    let mut last_seal_sent = std::time::Instant::now();
    // The least published source frontier, recomputed only when a
    // source publishes or the grace watermark moves (which may prune
    // closed sources): nothing else changes it.
    let mut frontier: Option<Timestamp> = None;
    let mut published = false;
    let mut grace_seen: Option<WindowId> = None;

    loop {
        let wait = merger_wait(inner.clock.now(), last_seal, spec, grace);
        let (first, mut stop) = match inbox.recv_timeout(wait) {
            Ok(msg) => (Some(msg), false),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => (None, false),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => (None, true),
        };
        for msg in first.into_iter().chain(inbox.try_iter()) {
            match msg {
                // Seals for windows below `next_emit` are *stale*: the
                // watchdog already force-sealed them, and a late
                // contribution must not resurrect an emitted window.
                MergerMsg::Sealed(s) if s.window >= next_emit => {
                    let (win, slot) = (s.window, s.stream * shards + s.shard);
                    pending.entry(win).or_insert_with(|| vec![None; n_slots])[slot] = Some(*s);
                }
                MergerMsg::Sealed(_) => {}
                MergerMsg::Progress => published = true,
                MergerMsg::Stop => stop = true,
            }
        }

        if stop {
            // Workers have drained and joined; every sealed window is
            // in hand. Streams seal independently, so a stream with no
            // traffic near the end may be missing windows other
            // streams emitted — synthesize its empty seals.
            let windows: Vec<WindowId> = pending.keys().copied().collect();
            for w in windows {
                emit_window(
                    &inner,
                    &synopsis,
                    &mut pending,
                    &mut results,
                    &mut peak_units,
                    w,
                    Fill::Idle,
                )?;
                next_emit = next_emit.max(w + 1);
            }
            break;
        }

        // Emit every window all streams have sealed. Workers seal
        // contiguously from window 0, so completeness is monotone and
        // emission order == id order.
        while let Some((&w, slots)) = pending.iter().next() {
            if w != next_emit || !slots.iter().all(Option::is_some) {
                break;
            }
            emit_window(
                &inner,
                &synopsis,
                &mut pending,
                &mut results,
                &mut peak_units,
                w,
                Fill::Strict,
            )?;
            next_emit = w + 1;
        }

        let now = inner.clock.now();
        inner
            .clock_window
            .store(spec.window_of(now), Ordering::Relaxed);

        // The sealer watchdog: the watermark has covered `next_emit`
        // (a healthy worker seals promptly on the watermark message),
        // yet some stream still hasn't sealed it well past the
        // deadline — force-seal from whatever contributions exist and
        // flag the result degraded, so one wedged worker degrades its
        // own windows instead of stalling every query's emission.
        if let Some(wd) = watchdog {
            while last_seal.is_some_and(|s| s >= next_emit)
                && last_seal_sent.elapsed() >= WATCHDOG_REAL_GRACE
                && now.micros()
                    >= spec.window_end(next_emit).micros() + grace.micros() + wd.micros()
            {
                inner.obs.windows_force_sealed.inc();
                // A force-seal means the measured costs understate
                // reality (a worker is wedged); double the controllers'
                // main-cost estimate so they shed harder until honest
                // measurements pull the EWMA back down.
                for fc in &inner.admission {
                    fc.base().penalize();
                }
                emit_window(
                    &inner,
                    &synopsis,
                    &mut pending,
                    &mut results,
                    &mut peak_units,
                    next_emit,
                    Fill::Forced,
                )?;
                next_emit += 1;
            }
        }

        // Advance the seal watermark: every window that every source
        // has pushed past, or whose end plus grace has passed, gets
        // sealed on all streams.
        let grace_mark = seal_watermark(now, spec, grace);
        if published || grace_mark != grace_seen {
            frontier = inner
                .sources
                .lock()
                .expect("sources lock")
                .frontier(grace_mark, spec);
            published = false;
            grace_seen = grace_mark;
        }
        let progress = if inner.untracked.load(Ordering::SeqCst) {
            None
        } else {
            progress_watermark(frontier, now, spec)
        };
        if let Some(upto) = grace_mark
            .max(progress)
            .filter(|&u| last_seal.is_none_or(|s| u > s))
        {
            if grace_mark == Some(upto) {
                inner.obs.seals_grace.inc();
            } else {
                inner.obs.seals_progress.inc();
            }
            inner
                .obs
                .sealer_lag_us
                .set(now.micros().saturating_sub(spec.window_end(upto).micros()) as i64);
            for tx in &inner.ctl_tx {
                let _ = tx.send(Ctl::Seal(upto));
            }
            last_seal = Some(upto);
            last_seal_sent = std::time::Instant::now();
        }
    }

    let snaps = inner.stats.snapshot();
    let totals = RunTotals {
        arrived: snaps.iter().map(|s| s.offered).sum(),
        kept: snaps.iter().map(|s| s.kept).sum(),
        dropped: snaps.iter().map(|s| s.shed).sum(),
        peak_synopsis_units: peak_units,
    };
    // One report slot per query id ever registered — ids are dense
    // and never reused, so the report index *is* the id. Queries that
    // never saw a window (registered late, or unregistered before the
    // first emission) report empty window lists.
    let queries = registry.list();
    let mut reports: Vec<RunReport> = queries
        .iter()
        .map(|_| RunReport {
            windows: Vec::new(),
            totals: totals.clone(),
            window_spec: spec,
        })
        .collect();
    for (id, windows) in results {
        reports[id as usize].windows = windows;
    }
    Ok(ServerReport {
        reports,
        queries,
        streams: snaps,
        windows_emitted: inner.stats.windows_emitted.load(Ordering::SeqCst),
        windows_degraded: inner.stats.windows_degraded.load(Ordering::SeqCst),
        // The drain-time snapshot: short-lived runs keep whatever the
        // last scrape interval would have shown.
        obs: inner.metrics.is_enabled().then(|| inner.metrics.snapshot()),
    })
}

/// Join one window across streams and fan it out through the
/// registry to every query active for it.
fn emit_window(
    inner: &Inner,
    synopsis: &SynopsisConfig,
    pending: &mut BTreeMap<WindowId, Vec<Option<SealedWindow>>>,
    results: &mut BTreeMap<QueryId, Vec<WindowResult>>,
    peak_units: &mut usize,
    w: WindowId,
    fill: Fill,
) -> DtResult<()> {
    let registry = &inner.registry;
    let spec = registry.spec();
    let n_streams = registry.streams().len();
    let shards = inner.shards;
    // A watchdog force-seal may fire before *any* shard sealed the
    // window; start from an all-missing row in that case.
    let mut slots = match pending.remove(&w) {
        Some(slots) => slots,
        None if fill == Fill::Forced => vec![None; n_streams * shards],
        None => return Err(DtError::engine("emitting an absent window")),
    };
    let mut seals: Vec<SealedWindow> = Vec::with_capacity(n_streams);
    for i in 0..n_streams {
        // Fold this stream's shard partials (ascending shard order —
        // `merge_sealed` sorts) into one per-stream seal. With
        // `shards == 1` a single complete part passes straight
        // through.
        let parts: Vec<SealedWindow> = slots[i * shards..(i + 1) * shards]
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        let missing = shards - parts.len();
        if missing > 0 && fill == Fill::Strict {
            return Err(DtError::engine("emitting an incomplete window"));
        }
        let mut sw = if parts.is_empty() {
            let arity = registry.streams()[i].schema.arity();
            SealedWindow::empty(i, w, inner.mode, synopsis, arity)?
        } else {
            merge_sealed(parts)?
        };
        // Under `Fill::Idle` a missing stream was genuinely idle
        // (clean); under `Fill::Forced` its worker group, or some of
        // its shards, are stalled and whatever they held for this
        // window is lost — degraded.
        if missing > 0 && fill == Fill::Forced {
            sw.degraded = true;
        }
        seals.push(sw);
    }
    let g = gather_seals(seals, inner.mode)?;
    *peak_units = (*peak_units).max(g.memory_units);
    let closes = registry.close_window(
        w,
        dt_registry::WindowInputs {
            rows: &g.rows,
            pairs: g.pairs.as_deref(),
            counts: &g.counts,
        },
    )?;
    let emitted_at: Timestamp = inner.clock.now().max(spec.window_end(w));
    inner.obs.window_latency_us.observe(
        emitted_at
            .micros()
            .saturating_sub(spec.window_end(w).micros()),
    );
    inner.obs.windows_emitted.inc();
    for (id, close) in closes {
        results.entry(id).or_default().push(WindowResult {
            window: w,
            payload: close.payload,
            emitted_at,
            arrived: g.arrived,
            kept: g.kept,
            dropped: g.dropped,
            degraded: g.degraded,
        });
    }
    inner.stats.windows_emitted.fetch_add(1, Ordering::SeqCst);
    if g.degraded {
        inner.stats.windows_degraded.fetch_add(1, Ordering::SeqCst);
    }
    Ok(())
}

/// The `/stats` document: the live counters, a `queries` array with
/// every registered query's state, plus — when delay constraints are
/// active (configured at startup or registered at runtime) — a
/// `controllers` array with each stream's current threshold (`null`
/// while unbounded), estimated worst-case delay, shed fraction, and
/// tenant lanes.
fn render_stats(inner: &Inner) -> Json {
    let mut doc = inner.stats.render_json();
    let queries: Vec<Json> = inner.registry.list().iter().map(query_info_json).collect();
    // The controllers block appears only once a constraint exists
    // somewhere — an unconstrained server's `/stats` stays the shape
    // it always had.
    let active = inner
        .admission
        .iter()
        .any(|fc| fc.base().constraint().is_some() || fc.has_lanes());
    let ctls: Vec<Json> = if !active {
        Vec::new()
    } else {
        inner
            .registry
            .streams()
            .iter()
            .zip(&inner.admission)
            .map(|(s, fc)| {
                let st = fc.base().state();
                let mut fields = vec![
                    ("stream", Json::Str(s.name.clone())),
                    (
                        "threshold",
                        if st.threshold == u64::MAX {
                            Json::Null
                        } else {
                            Json::Num(st.threshold as f64)
                        },
                    ),
                    (
                        "estimated_delay_ms",
                        Json::Num(st.estimated_delay.micros() as f64 / 1000.0),
                    ),
                    ("shed_fraction", Json::Num(st.shed_fraction)),
                ];
                let lanes: Vec<Json> = fc
                    .lane_states()
                    .into_iter()
                    .map(|l| {
                        json::obj(vec![
                            ("tenant", Json::Str(l.name)),
                            ("weight", Json::Num(l.weight)),
                            (
                                "delay_ms",
                                match l.constraint {
                                    Some(d) => Json::Num(d.micros() as f64 / 1000.0),
                                    None => Json::Null,
                                },
                            ),
                            ("rate", Json::Num(l.rate)),
                            ("shed_fraction", Json::Num(l.shed_fraction)),
                            ("kept", l.kept.to_json()),
                            ("shed", l.shed.to_json()),
                        ])
                    })
                    .collect();
                if !lanes.is_empty() {
                    fields.push(("lanes", Json::Arr(lanes)));
                }
                json::obj(fields)
            })
            .collect()
    };
    if let Json::Obj(fields) = &mut doc {
        fields.push(("queries".to_string(), Json::Arr(queries)));
        if !ctls.is_empty() {
            fields.push(("controllers".to_string(), Json::Arr(ctls)));
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_micros(v * 1000)
    }

    /// 100 ms tumbling windows with a 60 ms grace: window `w` is due
    /// at `w * 100 + 160` ms.
    fn tumbling() -> (WindowSpec, VDuration) {
        (
            WindowSpec::new(VDuration::from_millis(100)).unwrap(),
            VDuration::from_millis(60),
        )
    }

    /// At the instant `merger_wait` reaches zero the watermark covers
    /// the awaited window, and one microsecond earlier it does not:
    /// the merger neither wakes late nor spins on a deadline it cannot
    /// yet act on.
    fn assert_deadline_matches_watermark(
        last_seal: Option<WindowId>,
        spec: WindowSpec,
        grace: VDuration,
        due: Timestamp,
    ) {
        let next = last_seal.map_or(0, |s| s + 1);
        assert_eq!(merger_wait(due, last_seal, spec, grace), Duration::ZERO);
        assert_eq!(seal_watermark(due, spec, grace), Some(next));
        let before = Timestamp::from_micros(due.micros() - 1);
        assert_eq!(
            merger_wait(before, last_seal, spec, grace),
            Duration::from_micros(1)
        );
        assert_eq!(seal_watermark(before, spec, grace), last_seal);
    }

    #[test]
    fn wait_runs_to_the_first_deadline() {
        let (spec, grace) = tumbling();
        let now = Timestamp::from_micros(158_500);
        assert_eq!(
            merger_wait(now, None, spec, grace),
            Duration::from_micros(1_500)
        );
        assert_eq!(seal_watermark(now, spec, grace), None);
        assert_deadline_matches_watermark(None, spec, grace, ms(160));
    }

    #[test]
    fn wait_is_zero_at_and_past_a_deadline() {
        let (spec, grace) = tumbling();
        assert_deadline_matches_watermark(Some(3), spec, grace, ms(560));
        // A merger that wakes late (a stalled host) seals at once.
        assert_eq!(merger_wait(ms(900), Some(3), spec, grace), Duration::ZERO);
    }

    #[test]
    fn wait_far_ahead_is_capped_at_the_poll() {
        let (spec, grace) = tumbling();
        assert_eq!(merger_wait(ms(0), None, spec, grace), MERGER_POLL);
        assert_eq!(merger_wait(ms(561), Some(4), spec, grace), MERGER_POLL);
    }

    #[test]
    fn wait_follows_a_hopping_slide() {
        // Width 100 ms, slide 25 ms, grace 10 ms: window `w` ends at
        // `w * 25 + 100` ms, so window 3 is due at 185 ms — a slide,
        // not a width, after window 2.
        let spec =
            WindowSpec::hopping(VDuration::from_millis(100), VDuration::from_millis(25)).unwrap();
        let grace = VDuration::from_millis(10);
        assert_eq!(
            merger_wait(ms(184), Some(2), spec, grace),
            Duration::from_millis(1)
        );
        assert_deadline_matches_watermark(Some(2), spec, grace, ms(185));
        assert_deadline_matches_watermark(None, spec, grace, ms(110));
    }

    /// The merger's view of `sources` at `now`, with the grace seal at
    /// `grace_mark`.
    fn progress(
        sources: &mut Sources,
        grace_mark: Option<WindowId>,
        now: Timestamp,
        spec: WindowSpec,
    ) -> Option<WindowId> {
        progress_watermark(sources.frontier(grace_mark, spec), now, spec)
    }

    #[test]
    fn no_sources_means_no_progress_watermark() {
        let (spec, _) = tumbling();
        let mut sources = Sources::default();
        assert_eq!(progress(&mut sources, None, ms(10_000), spec), None);
        assert_eq!(progress_watermark(None, ms(10_000), spec), None);
    }

    #[test]
    fn an_unpublished_source_holds_every_progress_seal() {
        let (spec, _) = tumbling();
        let mut sources = Sources::default();
        let a = sources.register();
        let _quiet = sources.register();
        sources.publish(a, ms(950));
        assert_eq!(progress(&mut sources, None, ms(1_000), spec), None);
    }

    #[test]
    fn tumbling_windows_seal_up_to_the_least_frontier() {
        let (spec, _) = tumbling();
        let mut sources = Sources::default();
        let (a, b) = (sources.register(), sources.register());
        sources.publish(a, ms(950));
        sources.publish(b, ms(250));
        // Window 1 ends at 200 ms, window 2 at 300 ms.
        assert_eq!(progress(&mut sources, None, ms(1_000), spec), Some(1));
        // A frontier exactly at a window's end lets that window seal.
        sources.publish(b, ms(300));
        assert_eq!(progress(&mut sources, None, ms(1_000), spec), Some(2));
        sources.publish(b, Timestamp::from_micros(399_999));
        assert_eq!(progress(&mut sources, None, ms(1_000), spec), Some(2));
        // Before window 0's end no window can seal.
        assert_eq!(progress_watermark(Some(ms(99)), ms(1_000), spec), None);
    }

    #[test]
    fn hopping_windows_seal_by_window_end_not_by_slide() {
        // Width 100 ms, slide 30 ms: window `w` ends at `w * 30 + 100`
        // ms, and 100 is not a multiple of 30.
        let spec =
            WindowSpec::hopping(VDuration::from_millis(100), VDuration::from_millis(30)).unwrap();
        let now = ms(1_000);
        assert_eq!(progress_watermark(Some(ms(99)), now, spec), None);
        assert_eq!(progress_watermark(Some(ms(100)), now, spec), Some(0));
        assert_eq!(progress_watermark(Some(ms(175)), now, spec), Some(2));
        assert_eq!(progress_watermark(Some(ms(190)), now, spec), Some(3));
    }

    #[test]
    fn the_clock_caps_the_progress_watermark() {
        let (spec, _) = tumbling();
        let mut sources = Sources::default();
        let a = sources.register();
        sources.publish(a, ms(950));
        assert_eq!(progress(&mut sources, None, ms(250), spec), Some(1));
        assert_eq!(progress(&mut sources, None, ms(50), spec), None);
    }

    #[test]
    fn a_closed_source_holds_until_the_grace_seal_passes_its_frontier() {
        let (spec, _) = tumbling();
        let mut sources = Sources::default();
        let (a, b) = (sources.register(), sources.register());
        sources.publish(a, ms(950));
        sources.publish(b, ms(200));
        // `b` closes having pushed up to 250 ms, inside window 2.
        sources.close(b, Some(ms(250)));
        assert_eq!(progress(&mut sources, Some(1), ms(1_000), spec), Some(1));
        assert_eq!(sources.table.len(), 2);
        // The grace seals window 2, the last holding 250 ms: `b` is
        // pruned and `a` alone sets the watermark.
        assert_eq!(progress(&mut sources, Some(2), ms(1_000), spec), Some(8));
        assert_eq!(sources.table.len(), 1);
        // A source that closes having pushed nothing leaves at once.
        let c = sources.register();
        sources.close(c, None);
        assert_eq!(sources.table.len(), 1);
    }
}
