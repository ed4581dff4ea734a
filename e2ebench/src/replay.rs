//! The traced replay: the run's generated frames pushed on one thread
//! through each layer's public entry points, in the order the server
//! calls them, with a span around every call.
//!
//! Per batch of frames (all of one window): parse (`FrameAssembler`,
//! `parse_incoming`), admit (`FairController::decide`), route and
//! enqueue (`ShardRouter::route`, `ShardQueues::push`), dequeue and
//! steal (`ShardQueues::pop`/`steal`), fold (`keep_batch_seq`,
//! `shed_seq`). Per window: seal (`seal_through`), shard merge
//! (`merge_sealed`) and the registry close (`close_window`). Each close
//! is then split by calling `QueryExecutor::exact_batch` and `payload`
//! next to it, outside the window's span.
//!
//! Victims are drawn from the seed at the share of each stream the
//! server shed, but at least [`MIN_SHED_SHARE`], so the shed fold is
//! timed on every workload. Spans live in memory and are written out
//! when the replay ends.

use std::sync::Arc;
use std::time::Instant;

use dt_obs::MetricsRegistry;
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig, WindowInputs};
use dt_server::{parse_incoming, FrameAssembler, Incoming};
use dt_triage::{
    merge_sealed, FairController, QueryExecutor, SealedWindow, ShardQueues, ShardRouter,
    SharedController, StreamTriage, SynPair, WindowPayload,
};
use dt_types::{DtError, DtResult, Row, Timestamp, Tuple, WindowId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::workload::{Inputs, Workload};

/// Floor on the replay's per-stream shed share.
pub const MIN_SHED_SHARE: f64 = 0.001;
/// Frames per replay batch (a batch never spans two windows).
const BATCH: usize = 512;

/// The traced stages. A window's stages are children of its
/// [`Stage::Window`] span; the close split hangs off a separate
/// [`Stage::Split`] root so it never counts as window time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Window,
    Frame,
    Decide,
    Push,
    Pop,
    Keep,
    Shed,
    Seal,
    MergeSealed,
    Close,
    Split,
    Exact,
    Payload,
}

/// Every stage, in declaration order (so `stage as usize` indexes it).
pub const STAGES: [Stage; 13] = [
    Stage::Window,
    Stage::Frame,
    Stage::Decide,
    Stage::Push,
    Stage::Pop,
    Stage::Keep,
    Stage::Shed,
    Stage::Seal,
    Stage::MergeSealed,
    Stage::Close,
    Stage::Split,
    Stage::Exact,
    Stage::Payload,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Window => "window",
            Stage::Frame => "dt-server.frame.parse",
            Stage::Decide => "dt-triage.controller.decide",
            Stage::Push => "dt-triage.shard.route_push",
            Stage::Pop => "dt-triage.shard.pop_steal",
            Stage::Keep => "dt-triage.stream.keep_batch_seq",
            Stage::Shed => "dt-triage.stream.shed_seq",
            Stage::Seal => "dt-triage.stream.seal_through",
            Stage::MergeSealed => "dt-triage.shard.merge_sealed",
            Stage::Close => "dt-registry.close_window",
            Stage::Split => "close.split",
            Stage::Exact => "dt-triage.executor.exact_batch",
            Stage::Payload => "dt-triage.executor.payload",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span; times are nanoseconds since the replay began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    pub window: WindowId,
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, stage: Stage, parent: Option<usize>, window: WindowId) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            stage,
            start,
            end: start,
            parent,
            window,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = self.now();
        }
    }
}

/// Run `$body` inside a span of `$stage` under `$parent`.
macro_rules! span {
    ($tr:expr, $stage:expr, $parent:expr, $w:expr, $body:expr) => {{
        let id = $tr.open($stage, $parent, $w);
        let out = $body;
        $tr.close(id);
        out
    }};
}

/// The replay's layer instances, built the way `Server::start` builds
/// the server's.
struct Layers {
    names: Vec<&'static str>,
    registry: QueryRegistry,
    admission: Vec<FairController>,
    routers: Vec<ShardRouter>,
    queues: Vec<ShardQueues<(Tuple, u64)>>,
    /// `triages[stream][shard]`.
    triages: Vec<Vec<StreamTriage>>,
    seqs: Vec<u64>,
    /// Per query, a single-query executor over the same plan.
    split: Vec<QueryExecutor>,
}

impl Layers {
    fn build(w: &Workload) -> DtResult<Layers> {
        let cfg = w.server_config();
        let exec = cfg.compile()?;
        let spec = exec.spec();
        let registry = QueryRegistry::new(
            RegistryConfig {
                catalog: cfg.catalog.clone(),
                mode: cfg.mode,
                spec,
                override_windows: true,
            },
            MetricsRegistry::disabled(),
        )?;
        for sql in &cfg.queries {
            registry.register(QuerySpec::new(sql.clone()))?;
        }
        let names: Vec<&'static str> = w.streams.iter().map(|(n, _)| *n).collect();
        // Every workload runs Data Triage mode, where the main path also
        // folds the kept synopsis: the server primes its controllers so.
        let syn_us = cfg.cost_hint.synopsis_insert_time.micros() as f64;
        let main_us = cfg.cost_hint.service_time.micros() as f64 + syn_us;
        let shards = cfg.shards.max(1);
        let mut admission = Vec::new();
        let mut routers = Vec::new();
        let mut queues = Vec::new();
        let mut triages = Vec::new();
        for (i, (_, cols)) in w.streams.iter().enumerate() {
            let base = SharedController::with_constraint(cfg.delay, main_us, syn_us);
            let fc = FairController::new(Arc::new(base), cfg.delay);
            fc.base().set_drains(shards);
            admission.push(fc);
            routers.push(ShardRouter::new(shards, registry.group_key_col(i)));
            // Unbounded in effect: victims come from the seed, not from
            // overflow.
            queues.push(ShardQueues::new(shards, usize::MAX));
            // Sparse synopses merge, so every shard runs in merge mode,
            // as the server's workers do.
            triages.push(
                (0..shards)
                    .map(|k| {
                        StreamTriage::new(i, cols.len(), cfg.mode, cfg.synopsis, spec).sharded(k)
                    })
                    .collect(),
            );
        }
        let mut split = Vec::new();
        for q in 0..exec.num_queries() {
            let plan = exec.plan(q).expect("compiled query").clone();
            let single = QueryExecutor::new(vec![plan], cfg.mode)?;
            w.expect_catalog_order(single.streams().iter().map(|s| s.name.as_str()))?;
            split.push(single);
        }
        Ok(Layers {
            seqs: vec![0; names.len()],
            names,
            registry,
            admission,
            routers,
            queues,
            triages,
            split,
        })
    }
}

/// What the replay measured.
pub struct Replay {
    pub tuples: u64,
    pub kept: u64,
    pub shed: u64,
    pub windows: u64,
    /// Items moved between shards by stealing.
    pub stolen: u64,
    /// Sealed kept + dropped synopsis units, summed over windows.
    pub units: u64,
    /// Self time per stage, nanoseconds, indexed like [`STAGES`].
    pub self_ns: [u64; STAGES.len()],
    /// Summed duration of the traced pass's window spans.
    pub window_ns: u64,
    /// The same windows' summed wall time on the untraced pass.
    pub untraced_ns: u64,
    pub spans: Vec<Span>,
}

impl Replay {
    pub fn stage_ns(&self, s: Stage) -> u64 {
        self.self_ns[s.index()]
    }
}

/// Drain one stream's shard queues the way its worker group would:
/// each shard pops its own queue in turn, and a shard whose queue is
/// empty steals from the deepest sibling.
fn pop_all(
    queues: &ShardQueues<(Tuple, u64)>,
    triages: &[StreamTriage],
    out: &mut [Vec<(Tuple, u64)>],
) -> u64 {
    let mut stolen = 0u64;
    loop {
        let mut progress = false;
        for (k, batch) in out.iter_mut().enumerate() {
            if let Some(item) = queues.pop(k) {
                batch.push(item);
                progress = true;
            } else if queues.shards() > 1 {
                let got = queues.steal(k, |it| !triages[k].would_be_late(it.0.ts));
                if !got.is_empty() {
                    stolen += got.len() as u64;
                    batch.extend(got);
                    progress = true;
                }
            }
        }
        if !progress {
            return stolen;
        }
    }
}

fn same_groups(a: &WindowPayload, b: &WindowPayload) -> bool {
    matches!((a, b), (WindowPayload::Groups(x), WindowPayload::Groups(y)) if x == y)
}

/// One pass over the inputs with its own layer instances.
struct Pass {
    l: Layers,
    tr: Tracer,
    rng: ChaCha8Rng,
    asm: FrameAssembler,
    /// `popped[stream][shard]`: the current batch's dequeued tuples.
    popped: Vec<Vec<Vec<(Tuple, u64)>>>,
    victims: Vec<bool>,
    shed_list: Vec<(usize, usize, Tuple, u64)>,
    /// Next frame to replay.
    pos: usize,
    kept: u64,
    shed: u64,
    stolen: u64,
    units: u64,
    /// Summed per-window wall time (untraced pass only).
    wall_ns: u64,
}

impl Pass {
    fn new(w: &Workload, first: WindowId, seed: u64, traced: bool) -> DtResult<Pass> {
        let mut l = Layers::build(w)?;
        // Windows before the first arrival are empty; seal them untimed.
        if first > 0 {
            for t in l.triages.iter_mut().flatten() {
                t.seal_through(first - 1)?;
            }
        }
        let popped = vec![vec![Vec::new(); w.shards.max(1)]; l.names.len()];
        Ok(Pass {
            l,
            tr: Tracer {
                on: traced,
                t0: Instant::now(),
                spans: Vec::new(),
            },
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_7ace),
            asm: FrameAssembler::new(),
            popped,
            victims: Vec::with_capacity(BATCH),
            shed_list: Vec::new(),
            pos: 0,
            kept: 0,
            shed: 0,
            stolen: 0,
            units: 0,
            wall_ns: 0,
        })
    }

    /// Replay every frame of window `win`, then seal, merge and close it.
    fn window(&mut self, win: WindowId, inputs: &Inputs, shed_share: &[f64]) -> DtResult<()> {
        let t0 = Instant::now();
        let n_streams = self.l.names.len();
        let (l, tr) = (&mut self.l, &mut self.tr);
        let root = tr.open(Stage::Window, None, win);
        let end_ts = Workload::spec().window_end(win);
        let mut end = self.pos;
        while end < inputs.len() && inputs.arrivals[end].1.ts < end_ts {
            end += 1;
        }
        let mut i = self.pos;
        while i < end {
            let j = (i + BATCH).min(end);
            let rng = &mut self.rng;
            self.victims.clear();
            self.victims.extend(
                inputs.arrivals[i..j]
                    .iter()
                    .map(|(s, _)| rng.gen_bool(shed_share[*s].max(MIN_SHED_SHARE))),
            );
            let asm = &mut self.asm;
            let parsed: Vec<(usize, Tuple)> = span!(tr, Stage::Frame, root, win, {
                asm.push(inputs.frames(i, j));
                let mut out = Vec::with_capacity(j - i);
                while let Some(line) = asm.next_line() {
                    match parse_incoming(&line)? {
                        Incoming::Tuple(f) => {
                            let s = l
                                .names
                                .iter()
                                .position(|n| *n == f.stream)
                                .ok_or_else(|| DtError::config("unknown stream in frame"))?;
                            out.push((s, f.into_tuple(Timestamp::ZERO)));
                        }
                        Incoming::Control(_) => {
                            return Err(DtError::config("control line in workload frames"))
                        }
                    }
                }
                out
            });
            span!(tr, Stage::Decide, root, win, {
                for (s, _) in &parsed {
                    std::hint::black_box(l.admission[*s].decide(None));
                }
            });
            let shed_list = &mut self.shed_list;
            span!(tr, Stage::Push, root, win, {
                for ((s, t), &victim) in parsed.into_iter().zip(&self.victims) {
                    let seq = l.seqs[s];
                    l.seqs[s] += 1;
                    let shard = l.routers[s].route(&t.row);
                    if victim {
                        shed_list.push((s, shard, t, seq));
                    } else {
                        l.queues[s]
                            .push(shard, (t, seq))
                            .map_err(|_| DtError::engine("replay queue full"))?;
                        l.admission[s].base().on_enqueue();
                    }
                }
            });
            let popped = &mut self.popped;
            let stolen = &mut self.stolen;
            span!(tr, Stage::Pop, root, win, {
                for (s, per_shard) in popped.iter_mut().enumerate() {
                    *stolen += pop_all(&l.queues[s], &l.triages[s], per_shard);
                    let n: usize = per_shard.iter().map(Vec::len).sum();
                    l.admission[s].base().on_dequeue(n);
                }
            });
            let kept = &mut self.kept;
            span!(tr, Stage::Keep, root, win, {
                for (s, per_shard) in popped.iter_mut().enumerate() {
                    for (k, batch) in per_shard.iter_mut().enumerate() {
                        *kept += l.triages[s][k].keep_batch_seq(batch)? as u64;
                        batch.clear();
                    }
                }
            });
            let shed = &mut self.shed;
            span!(tr, Stage::Shed, root, win, {
                for (s, k, t, seq) in shed_list.drain(..) {
                    *shed += l.triages[s][k].shed_seq(&t, seq)? as u64;
                }
            });
            i = j;
        }
        self.pos = end;

        let mut sealed: Vec<Vec<SealedWindow>> = span!(tr, Stage::Seal, root, win, {
            let mut out = Vec::with_capacity(n_streams);
            for per_stream in &mut l.triages {
                let mut parts = Vec::with_capacity(per_stream.len());
                for t in per_stream.iter_mut() {
                    parts.extend(t.seal_through(win)?);
                }
                out.push(parts);
            }
            out
        });
        let merged: Vec<SealedWindow> = span!(tr, Stage::MergeSealed, root, win, {
            sealed
                .drain(..)
                .map(merge_sealed)
                .collect::<DtResult<Vec<_>>>()?
        });
        let mut rows: Vec<Vec<Row>> = Vec::with_capacity(n_streams);
        let mut pairs: Vec<SynPair> = Vec::with_capacity(n_streams);
        let mut counts = Vec::with_capacity(n_streams);
        for sw in merged {
            if sw.window != win {
                return Err(DtError::engine("replay sealed an unexpected window"));
            }
            counts.push((sw.kept, sw.dropped));
            rows.push(sw.rows);
            pairs.extend(sw.syn);
        }
        self.units += pairs
            .iter()
            .map(|p| (p.kept.memory_units() + p.dropped.memory_units()) as u64)
            .sum::<u64>();
        let window_inputs = WindowInputs {
            rows: &rows,
            pairs: (pairs.len() == n_streams).then_some(pairs.as_slice()),
            counts: &counts,
        };
        let closes = span!(tr, Stage::Close, root, win, {
            l.registry.close_window(win, window_inputs)?
        });
        tr.close(root);
        if !tr.on {
            self.wall_ns += t0.elapsed().as_nanos() as u64;
            return Ok(());
        }

        // The close split, outside the window's span: each query's
        // exact execution, then its shadow estimate and merge.
        let split_root = tr.open(Stage::Split, None, win);
        for (exec, (_, close)) in l.split.iter().zip(&closes) {
            let exact = span!(tr, Stage::Exact, split_root, win, {
                exec.exact_batch(0, &rows)?
            });
            let payload = span!(tr, Stage::Payload, split_root, win, {
                exec.payload(0, exact, window_inputs.pairs)?
            });
            if !same_groups(&payload, &close.payload) {
                return Err(DtError::engine(format!(
                    "window {win}: exact_batch + payload disagrees with close_window"
                )));
            }
        }
        tr.close(split_root);
        Ok(())
    }
}

/// Replay `inputs` on two instances of the layers, one untraced and one
/// traced, alternating window by window so both see the same warm
/// caches; their window times differ by the tracing overhead.
/// `shed_share[s]` is the share of stream `s` the server shed.
pub fn run(w: &Workload, inputs: &Inputs, seed: u64, shed_share: &[f64]) -> DtResult<Replay> {
    let (first, last) = (inputs.first_window(), inputs.last_window());
    let mut plain = Pass::new(w, first, seed, false)?;
    let mut traced = Pass::new(w, first, seed, true)?;
    for win in first..=last {
        plain.window(win, inputs, shed_share)?;
        traced.window(win, inputs, shed_share)?;
    }
    let spans = traced.tr.spans;
    // Self time: a span's duration minus what its children cover.
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut self_ns = [0u64; STAGES.len()];
    let mut window_ns = 0;
    for (s, &c) in spans.iter().zip(&child_ns) {
        let dur = s.end - s.start;
        self_ns[s.stage.index()] += dur.saturating_sub(c);
        if s.stage == Stage::Window {
            window_ns += dur;
        }
    }
    Ok(Replay {
        tuples: inputs.len() as u64,
        kept: traced.kept,
        shed: traced.shed,
        windows: last - first + 1,
        stolen: traced.stolen,
        units: traced.units,
        self_ns,
        window_ns,
        untraced_ns: plain.wall_ns,
        spans,
    })
}

/// Write spans as tab-separated text: id, parent, window, stage,
/// start and end in nanoseconds.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\twindow\tstage\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.window,
            s.stage.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}
