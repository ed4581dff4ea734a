//! The per-stream triage worker thread and its panic supervisor.
//!
//! Each worker owns one shard of a stream's [`StreamTriage`] and two
//! inbound lanes: its **bounded shard queue** in the stream's
//! [`ShardQueues`] (the triage queue — ingest pushes kept tuples
//! there) and an unbounded **control lane** carrying shed victims,
//! seal watermarks, and the stop request. Control is drained first so
//! a full queue can never starve sealing or victim accounting. Every
//! sealed partial goes to the merger's one inbox as
//! [`MergerMsg::Sealed`].
//!
//! With `pace` set, the worker refuses to consume a tuple before the
//! server clock reaches its timestamp, holding at most **one** tuple
//! aside. That single parked tuple plus the channel bound makes
//! overflow deterministic under a frozen virtual clock: at most
//! `capacity + 1` tuples fit upstream of the (stopped) engine, and
//! every tuple past that is shed — precisely the paper's triage-queue
//! overflow, reproduced under test control.
//!
//! # Supervision
//!
//! [`run_worker`] wraps the loop in a restart supervisor: a panic
//! (injected by the [`FaultPlan`] or a genuine bug) is caught with
//! `catch_unwind`, a fresh [`StreamTriage`] is built from the
//! [`TriageFactory`], and processing resumes from the crashed
//! instance's seal frontier. Windows the crashed instance had open
//! lose their accumulated contents; the replacement marks that range
//! *degraded* ([`StreamTriage::mark_degraded_until`]) so downstream
//! consumers know those results are incomplete beyond normal shedding
//! (DESIGN.md §10). The parked pacing tuple and the cumulative
//! consumed count live in the supervisor frame, so neither is lost to
//! a restart.

use crate::fault::FaultPlan;
use crate::obs::WorkerObs;
use crate::server::MergerMsg;
use crate::stats::ServerStats;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use dt_obs::{Counter, MetricsRegistry};
use dt_synopsis::SynopsisConfig;
use dt_triage::{SealedWindow, ShardQueues, SharedController, ShedMode, StreamTriage};
use dt_types::{Clock, DtResult, Tuple, WindowId, WindowSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the worker parks between polls when idle or paced.
const POLL: Duration = Duration::from_micros(500);

/// A tuple stamped with its per-stream ingest sequence number —
/// assigned at offer time, *before* shard routing, so merged shard
/// seals can restore global arrival order (DESIGN.md §15).
pub(crate) type SeqTuple = (Tuple, u64);

/// Control-lane messages, served ahead of data.
pub(crate) enum Ctl {
    /// A tuple shed at ingest (shard queue full, or a mode that sheds
    /// everything); fold it into the dropped synopsis. Carries the
    /// tuple's ingest sequence so dropped-side synopsis points stay
    /// mergeable across shards.
    Shed(Tuple, u64),
    /// Seal every window up to and including this id.
    Seal(WindowId),
    /// Drain everything, seal all open windows, exit.
    Stop,
}

/// Recipe for one shard's [`StreamTriage`], kept by the supervisor so
/// a crashed instance can be rebuilt identically.
pub(crate) struct TriageFactory {
    pub stream: usize,
    /// This worker's shard index within the stream's group.
    pub shard: usize,
    pub arity: usize,
    pub mode: ShedMode,
    pub synopsis: SynopsisConfig,
    pub spec: WindowSpec,
    pub metrics: MetricsRegistry,
    pub name: String,
}

impl TriageFactory {
    pub(crate) fn build(&self) -> StreamTriage {
        StreamTriage::new(self.stream, self.arity, self.mode, self.synopsis, self.spec)
            .with_metrics(&self.metrics, &self.name)
            .sharded(self.shard)
    }
}

/// Everything one worker thread needs.
pub(crate) struct WorkerCtx {
    pub stream: usize,
    /// This worker's shard index within the stream's group.
    pub shard: usize,
    pub factory: TriageFactory,
    /// The stream's shared shard-queue group: this worker drains
    /// queue `shard` and steals from siblings when idle.
    pub queues: Arc<ShardQueues<SeqTuple>>,
    pub ctl_rx: Receiver<Ctl>,
    /// The merger's inbox, where every sealed partial goes.
    pub merger_tx: Sender<MergerMsg>,
    pub clock: Arc<dyn Clock>,
    pub pace: bool,
    pub spec: WindowSpec,
    pub stats: Arc<ServerStats>,
    pub obs: WorkerObs,
    /// This stream's adaptive delay controller, when one is
    /// configured. The worker keeps its queue-depth view current
    /// (`on_dequeue`) and replaces the seeded cost estimates with
    /// wall-clock measurements of its own processing.
    pub controller: Option<Arc<SharedController>>,
    pub fault: FaultPlan,
    /// `faults_injected{kind="panic"}` and `{kind="stall_seal"}`.
    pub fault_panic_ctr: Counter,
    pub fault_stall_ctr: Counter,
}

fn consume(
    triage: &mut StreamTriage,
    t: &Tuple,
    seq: u64,
    stream: usize,
    stats: &ServerStats,
    controller: Option<&SharedController>,
) -> DtResult<()> {
    let start = controller.map(|_| Instant::now());
    if !triage.keep_seq(t, seq)? {
        stats.stream(stream).late.fetch_add(1, Ordering::SeqCst);
    }
    if let (Some(c), Some(s)) = (controller, start) {
        c.observe_main(s.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Fold a drained batch in one [`StreamTriage::keep_batch_seq`] call —
/// same results as per-tuple [`consume`], one stats update per batch.
fn consume_batch(
    triage: &mut StreamTriage,
    batch: &[SeqTuple],
    stream: usize,
    stats: &ServerStats,
    obs: &WorkerObs,
    controller: Option<&SharedController>,
) -> DtResult<()> {
    if batch.is_empty() {
        return Ok(());
    }
    obs.batch_size.observe(batch.len() as u64);
    let start = controller.map(|_| Instant::now());
    let landed = triage.keep_batch_seq(batch)?;
    if let (Some(c), Some(s)) = (controller, start) {
        // One fold amortized over the batch: the controller wants the
        // *per-tuple* main-path cost.
        c.observe_main(s.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
    }
    let late = (batch.len() - landed) as u64;
    if late > 0 {
        stats.stream(stream).late.fetch_add(late, Ordering::SeqCst);
    }
    Ok(())
}

/// Hand sealed partials to the merger. A send fails only once the
/// merger has exited (on an error of its own); the seals have nowhere
/// left to go then.
fn send_sealed(merger_tx: &Sender<MergerMsg>, sealed: Vec<SealedWindow>) {
    for w in sealed {
        let _ = merger_tx.send(MergerMsg::Sealed(Box::new(w)));
    }
}

/// Bump the cumulative consumed count by `n` and panic at the first
/// tuple the fault plan marks. Called *after* the tuples are folded,
/// so the triage the supervisor inspects post-panic is consistent.
fn panic_check(fault: &FaultPlan, stream: usize, consumed: &mut u64, n: usize, ctr: &Counter) {
    for _ in 0..n {
        *consumed += 1;
        if fault.worker_panic(stream, *consumed) {
            ctr.inc();
            panic!("injected worker panic: stream {stream} after tuple {consumed}");
        }
    }
}

/// The supervisor: run the worker loop, restart it on panic.
///
/// On each restart the fresh triage resumes at the crashed one's seal
/// frontier and flags every window the old one had open as degraded.
/// Returns the first triage *error* (errors are not retried — they
/// mean misconfiguration, not a crash).
pub(crate) fn run_worker(ctx: WorkerCtx) -> DtResult<()> {
    let WorkerCtx {
        stream,
        shard,
        factory,
        queues,
        ctl_rx,
        merger_tx,
        clock,
        pace,
        spec,
        stats,
        obs,
        controller,
        fault,
        fault_panic_ctr,
        fault_stall_ctr,
    } = ctx;
    let mut triage = factory.build();
    // Supervisor-owned state that survives a restart.
    let mut consumed: u64 = 0;
    let mut pending: Option<SeqTuple> = None;
    let mut in_stop = false;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(
                stream,
                shard,
                &mut triage,
                &queues,
                &ctl_rx,
                &merger_tx,
                &clock,
                pace,
                spec,
                &stats,
                &obs,
                controller.as_deref(),
                &fault,
                &mut consumed,
                &mut pending,
                &mut in_stop,
                &fault_panic_ctr,
                &fault_stall_ctr,
            )
        }));
        match result {
            Ok(done) => return done,
            Err(_) => {
                obs.worker_restarts.inc();
                // The crashed instance's seal frontier and open range
                // are readable: injected panics fire outside triage
                // methods, so its bookkeeping is consistent.
                let resume = triage.next_seal();
                let degraded_to = triage
                    .max_open()
                    .map(|w| w + 1)
                    .unwrap_or(resume)
                    .max(resume);
                let mut fresh = factory.build();
                fresh.resume_from(resume);
                fresh.mark_degraded_until(degraded_to);
                triage = fresh;
                if in_stop {
                    // The Stop message died with the crashed instance;
                    // finish the drain here rather than waiting for a
                    // second Stop that will never come.
                    let n = queues.drain(shard).len();
                    obs.queue_depth.sub(n as i64);
                    if let Some(c) = &controller {
                        c.on_dequeue(n);
                    }
                    send_sealed(&merger_tx, triage.seal_all()?);
                    return Ok(());
                }
            }
        }
    }
}

/// One incarnation of the worker loop. Runs until [`Ctl::Stop`] (or
/// every channel disconnecting); returns the first triage error.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    stream: usize,
    shard: usize,
    triage: &mut StreamTriage,
    queues: &Arc<ShardQueues<SeqTuple>>,
    ctl_rx: &Receiver<Ctl>,
    merger_tx: &Sender<MergerMsg>,
    clock: &Arc<dyn Clock>,
    pace: bool,
    spec: WindowSpec,
    stats: &ServerStats,
    obs: &WorkerObs,
    controller: Option<&SharedController>,
    fault: &FaultPlan,
    consumed: &mut u64,
    pending: &mut Option<SeqTuple>,
    in_stop: &mut bool,
    fault_panic_ctr: &Counter,
    fault_stall_ctr: &Counter,
) -> DtResult<()> {
    // Reusable drain buffer for the batched seal/stop paths.
    let mut batch: Vec<SeqTuple> = Vec::new();
    loop {
        match ctl_rx.try_recv() {
            Ok(Ctl::Shed(t, seq)) => {
                let start = controller.map(|_| Instant::now());
                if !triage.shed_seq(&t, seq)? {
                    stats.stream(stream).late.fetch_add(1, Ordering::SeqCst);
                }
                if let (Some(c), Some(s)) = (controller, start) {
                    c.observe_triage(s.elapsed().as_secs_f64() * 1e6);
                }
                continue;
            }
            Ok(Ctl::Seal(upto)) => {
                if fault.stall_seal(stream, upto) {
                    // Swallow this watermark: the windows stay open
                    // until the next watermark re-covers them — or the
                    // merger's watchdog force-seals past us.
                    fault_stall_ctr.inc();
                    continue;
                }
                // Everything already queued on *this shard* that
                // belongs at or below the watermark has arrived —
                // consume it (pacing aside) so the seal doesn't
                // orphan it as late. Siblings drain their own queues
                // on their own copies of this watermark.
                let end = spec.window_end(upto);
                batch.clear();
                loop {
                    let item = match pending.take() {
                        Some(item) => item,
                        None => match queues.pop(shard) {
                            Some(item) => {
                                obs.queue_depth.sub(1);
                                if let Some(c) = controller {
                                    c.on_dequeue(1);
                                }
                                item
                            }
                            None => break,
                        },
                    };
                    if item.0.ts < end {
                        batch.push(item);
                    } else {
                        *pending = Some(item);
                        break;
                    }
                }
                consume_batch(triage, &batch, stream, stats, obs, controller)?;
                let n = batch.len();
                batch.clear();
                panic_check(fault, stream, consumed, n, fault_panic_ctr);
                send_sealed(merger_tx, triage.seal_through(upto)?);
                continue;
            }
            Ok(Ctl::Stop) => {
                *in_stop = true;
                // The control lane is FIFO, so every shed victim sent
                // before Stop has been folded already; drain the rest
                // of this shard's queue unpaced and seal everything.
                batch.clear();
                batch.extend(pending.take());
                let parked = batch.len();
                batch.extend(queues.drain(shard));
                obs.queue_depth.sub((batch.len() - parked) as i64);
                if let Some(c) = controller {
                    c.on_dequeue(batch.len() - parked);
                }
                consume_batch(triage, &batch, stream, stats, obs, controller)?;
                let n = batch.len();
                batch.clear();
                panic_check(fault, stream, consumed, n, fault_panic_ctr);
                for c in ctl_rx.try_iter() {
                    if let Ctl::Shed(t, seq) = c {
                        if !triage.shed_seq(&t, seq)? {
                            stats.stream(stream).late.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                send_sealed(merger_tx, triage.seal_all()?);
                return Ok(());
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => {
                // Server dropped without Stop; emit what we have.
                send_sealed(merger_tx, triage.seal_all()?);
                return Ok(());
            }
        }
        if let Some((t, seq)) = pending.take() {
            if !pace || clock.now() >= t.ts {
                consume(triage, &t, seq, stream, stats, controller)?;
                panic_check(fault, stream, consumed, 1, fault_panic_ctr);
            } else {
                // Still ahead of the clock: park it again and nap
                // briefly (a real nap — a virtual clock only moves
                // when the test moves it, and we must keep serving
                // the control lane meanwhile).
                *pending = Some((t, seq));
                std::thread::sleep(POLL);
            }
            continue;
        }
        match queues.pop(shard) {
            Some((t, seq)) => {
                obs.queue_depth.sub(1);
                if let Some(c) = controller {
                    c.on_dequeue(1);
                }
                if pace && t.ts > clock.now() {
                    *pending = Some((t, seq));
                } else {
                    consume(triage, &t, seq, stream, stats, controller)?;
                    panic_check(fault, stream, consumed, 1, fault_panic_ctr);
                }
            }
            None => {
                // Own queue empty: steal a batch from the deepest
                // sibling before napping. Only tuples this shard's
                // triage could still seal on time — and, under
                // pacing, only ones whose timestamp has passed — are
                // eligible; the rest stay with their owner.
                let stolen = if queues.shards() > 1 {
                    let now = clock.now();
                    queues.steal(shard, |item: &SeqTuple| {
                        !triage.would_be_late(item.0.ts) && (!pace || now >= item.0.ts)
                    })
                } else {
                    Vec::new()
                };
                if stolen.is_empty() {
                    std::thread::sleep(POLL);
                } else {
                    obs.queue_depth.sub(stolen.len() as i64);
                    if let Some(c) = controller {
                        c.on_dequeue(stolen.len());
                    }
                    obs.steal_batches.inc();
                    obs.steal_items.add(stolen.len() as u64);
                    consume_batch(triage, &stolen, stream, stats, obs, controller)?;
                    panic_check(fault, stream, consumed, stolen.len(), fault_panic_ctr);
                }
            }
        }
    }
}
