//! Multi-query shared processing (paper §8.1).
//!
//! "An ambitious aspect of TelegraphCQ is its support for sharing
//! processing across multiple continuous queries … we have not
//! explored the possibility of sharing synopses of the dropped tuples
//! across queries." This module explores exactly that: a
//! [`SharedPipeline`] runs any number of planned queries over one set
//! of *physical* streams with
//!
//! * **one triage queue per physical stream** (a tuple is queued,
//!   shed, or delivered once, for all queries),
//! * **one kept/dropped synopsis pair per physical stream per
//!   window**, shared by every query's shadow plan, and
//! * **one engine pull per tuple** — the shared-scan discipline of
//!   TelegraphCQ, so adding a query does not multiply ingest cost.
//!
//! Queries may alias the same stream several times (self-joins); all
//! aliases read the same shared rows and the same shared synopses.
//!
//! The single-query [`crate::Pipeline`] is a thin facade over this
//! type.

use dt_engine::WindowBuffers;
use dt_query::QueryPlan;
use dt_rewrite::ShadowQuery;
use dt_types::{ColumnBatch, DtError, DtResult, Row, Timestamp, Tuple, WindowId, WindowSpec};

use dt_obs::MetricsRegistry;

use crate::controller::{LoadController, ShedDecision};
use crate::executor::{QueryExecutor, SynPair};
use crate::obs::{ControllerGauges, TriageObs};
use crate::pipeline::{PipelineConfig, RunReport, RunTotals, WindowResult};
use crate::policy::DropPolicy;
use crate::queue::TriageQueue;
use crate::shed::ShedMode;
use crate::winmap::WinMap;

pub use crate::executor::SharedStream;

#[derive(Debug, Clone, Copy, Default)]
struct WinStats {
    arrived: u64,
    kept: u64,
    dropped: u64,
}

/// Columnar accumulation of synopsis points awaiting a batched flush:
/// one `Vec<i64>` per dimension, in row order. The per-tuple hot path
/// only pushes integers here; the actual synopsis inserts happen once
/// per window close via [`dt_synopsis::Synopsis::insert_columns`],
/// which vectorizes bucket arithmetic over whole columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct PointCols {
    cols: Vec<Vec<i64>>,
    rows: usize,
    /// Arrival tags parallel to the buffered rows, filled by
    /// [`PointCols::push_tagged`] (sharded triage). Either every row
    /// is tagged or none is; `flush_into` picks the tagged synopsis
    /// kernel when tags are present.
    tags: Vec<u64>,
}

impl PointCols {
    /// Append one point (the row count is tracked separately so
    /// zero-dimension points still flush correctly).
    #[inline]
    pub(crate) fn push(&mut self, point: &[i64]) {
        if self.cols.len() != point.len() {
            self.cols.resize_with(point.len(), Vec::new);
        }
        for (col, &v) in self.cols.iter_mut().zip(point) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Append one point carrying its per-stream arrival sequence tag.
    #[inline]
    pub(crate) fn push_tagged(&mut self, point: &[i64], tag: u64) {
        self.push(point);
        self.tags.push(tag);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Insert every buffered point into `syn` in row order (so
    /// order-sensitive synopsis kinds see exactly the per-tuple
    /// sequence), then clear the buffer keeping column capacity.
    pub(crate) fn flush_into(&mut self, syn: &mut dt_synopsis::Synopsis) -> DtResult<()> {
        if self.rows == 0 {
            return Ok(());
        }
        if !self.tags.is_empty() && self.tags.len() != self.rows {
            return Err(DtError::synopsis(
                "mixed tagged/untagged points in one pending buffer",
            ));
        }
        if self.cols.is_empty() {
            // Zero-arity points carry no columns; replay by count.
            if self.tags.is_empty() {
                for _ in 0..self.rows {
                    syn.insert(&[])?;
                }
            } else {
                for &tag in &self.tags {
                    syn.insert_tagged(&[], tag)?;
                }
            }
        } else if self.tags.is_empty() {
            syn.insert_columns(&self.cols)?;
        } else {
            syn.insert_columns_tagged(&self.cols, &self.tags)?;
        }
        for c in &mut self.cols {
            c.clear();
        }
        self.tags.clear();
        self.rows = 0;
        Ok(())
    }
}

/// One stream's pending kept/dropped point columns for one window.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendPair {
    pub(crate) kept: PointCols,
    pub(crate) dropped: PointCols,
}

/// The multi-query pipeline. See the module docs.
pub struct SharedPipeline {
    exec: QueryExecutor,
    cfg: PipelineConfig,
    spec: WindowSpec,
    queues: Vec<TriageQueue>,
    buffers: WindowBuffers,
    syns: WinMap<Vec<SynPair>>,
    /// Per window: one pending kept/dropped point-column pair per
    /// physical stream, flushed into `syns` in one vectorized pass
    /// when the window closes (synopsis modes only).
    pending: WinMap<Vec<PendPair>>,
    stats: WinMap<WinStats>,
    engine_free_at: Timestamp,
    now: Timestamp,
    /// `results[q]` collects query `q`'s windows.
    results: Vec<Vec<WindowResult>>,
    totals: RunTotals,
    /// Reusable synopsis-point buffer — the ingest and engine paths
    /// convert one row at a time, so a single scratch vector serves
    /// every per-tuple conversion without allocating.
    point_scratch: Vec<i64>,
    /// Triage instruments (default = every handle disabled).
    obs: TriageObs,
    /// Arrived/kept/dropped totals already pushed to `obs` — the hot
    /// path counts in plain fields ([`RunTotals`]) and the registry
    /// handles catch up at window boundaries ([`Self::flush_obs`]),
    /// keeping per-tuple atomics out of the offer/drain loops.
    obs_flushed: [u64; 3],
    /// Per-stream adaptive controllers, present only when the config
    /// carries a [`crate::DelayConstraint`] and the mode drives the
    /// engine. `None` keeps the fixed-capacity shed signal untouched.
    controllers: Option<Vec<LoadController>>,
}

impl SharedPipeline {
    /// Build a shared pipeline over one or more planned queries.
    ///
    /// Physical streams are derived from the plans' catalog stream
    /// names, in first-appearance order; queries referencing the same
    /// stream name share its queue, buffers, and synopses. All streams
    /// of all queries must use one window width; synopsis modes
    /// additionally require integer columns and rewritable queries.
    pub fn new(plans: Vec<QueryPlan>, cfg: PipelineConfig) -> DtResult<Self> {
        if plans.is_empty() {
            return Err(DtError::config("shared pipeline needs at least one query"));
        }
        // Stream discovery, validation, and shadow compilation live in
        // the (stateless) executor, shared with `dt-server`.
        let exec = QueryExecutor::new(plans, cfg.mode)?;
        let spec = exec.spec();
        let n = exec.streams().len();
        let queues = (0..n)
            .map(|i| {
                TriageQueue::new(
                    cfg.queue_capacity,
                    cfg.policy,
                    cfg.seed
                        .wrapping_add(i as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15),
                )
            })
            .collect::<DtResult<Vec<_>>>()?;
        let num_queries = exec.num_queries();
        // Adaptive control: one controller per physical stream, its
        // cost EWMAs primed from the static cost model (DESIGN.md
        // §11) so the threshold is sensible before any measurement.
        let controllers = cfg.delay.filter(|_| cfg.mode.uses_engine()).map(|d| {
            let syn_us = cfg.cost.synopsis_insert_time.micros() as f64;
            let main_us = cfg.cost.service_time.micros() as f64
                + if cfg.mode == ShedMode::DataTriage {
                    syn_us
                } else {
                    0.0
                };
            let triage_us = if cfg.mode.uses_synopses() {
                syn_us
            } else {
                0.0
            };
            (0..n)
                .map(|_| LoadController::seeded(d, main_us, triage_us))
                .collect()
        });
        let arities: Vec<usize> = exec.streams().iter().map(|s| s.schema.arity()).collect();
        Ok(SharedPipeline {
            buffers: WindowBuffers::new(arities, spec),
            queues,
            exec,
            spec,
            cfg,
            syns: WinMap::new(),
            pending: WinMap::new(),
            stats: WinMap::new(),
            engine_free_at: Timestamp::ZERO,
            now: Timestamp::ZERO,
            results: vec![Vec::new(); num_queries],
            totals: RunTotals::default(),
            point_scratch: Vec::new(),
            obs: TriageObs::default(),
            obs_flushed: [0; 3],
            controllers,
        })
    }

    /// Record triage and engine instruments on `reg`: per-stream
    /// queue-depth gauges, arrived/kept/dropped counters labeled by
    /// shed mode, window-execution latency, and sampled
    /// synopsis-insert latency.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> Self {
        let names: Vec<&str> = self
            .exec
            .streams()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        self.obs = TriageObs::register(reg, self.cfg.mode, &names);
        if let Some(ctls) = self.controllers.as_mut() {
            for (ctl, name) in ctls.iter_mut().zip(&names) {
                *ctl = ctl
                    .clone()
                    .with_gauges(ControllerGauges::register(reg, name));
            }
        }
        self.exec = self.exec.with_metrics(reg);
        self
    }

    /// The shared physical streams, in index order.
    pub fn streams(&self) -> &[SharedStream] {
        self.exec.streams()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.exec.num_queries()
    }

    /// Query `q`'s plan.
    pub fn plan(&self, q: usize) -> Option<&QueryPlan> {
        self.exec.plan(q)
    }

    /// Query `q`'s shadow query, when the mode uses one.
    pub fn shadow(&self, q: usize) -> Option<&ShadowQuery> {
        self.exec.shadow(q)
    }

    /// The stateless window-close executor (plans, shadows, merge),
    /// shareable with other runtimes.
    pub fn executor(&self) -> &QueryExecutor {
        &self.exec
    }

    /// Feed one arrival on a *shared* stream (index into
    /// [`SharedPipeline::streams`]). Arrivals must be time-ordered.
    pub fn offer(&mut self, stream: usize, tuple: Tuple) -> DtResult<()> {
        if stream >= self.queues.len() {
            return Err(DtError::config(format!("unknown shared stream {stream}")));
        }
        self.offer_inner(stream, tuple)
    }

    /// Feed a whole batch of time-ordered arrivals on one shared
    /// stream. Equivalent to calling [`SharedPipeline::offer`] once
    /// per tuple (same shed decisions, same results), but validates
    /// the stream index once and keeps per-tuple scratch buffers warm.
    pub fn offer_batch(
        &mut self,
        stream: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> DtResult<()> {
        if stream >= self.queues.len() {
            return Err(DtError::config(format!("unknown shared stream {stream}")));
        }
        for tuple in tuples {
            self.offer_inner(stream, tuple)?;
        }
        Ok(())
    }

    fn offer_inner(&mut self, stream: usize, tuple: Tuple) -> DtResult<()> {
        if tuple.ts < self.now {
            return Err(DtError::config(format!(
                "arrivals must be time-ordered: {} after {}",
                tuple.ts, self.now
            )));
        }
        let shared = &self.exec.streams()[stream];
        if tuple.arity() != shared.schema.arity() {
            return Err(DtError::schema(format!(
                "tuple arity {} does not match stream '{}' arity {}",
                tuple.arity(),
                shared.name,
                shared.schema.arity()
            )));
        }
        self.now = tuple.ts;
        if self.cfg.mode.uses_engine() {
            self.drain_engine(self.now)?;
        }

        // A tuple belongs to every window containing its timestamp
        // (one for tumbling specs, several for hopping ones).
        for w in self.spec.windows_of(tuple.ts) {
            self.stats.get_or_insert_with(w, WinStats::default).arrived += 1;
        }
        self.totals.arrived += 1;

        match self.cfg.mode {
            ShedMode::SummarizeOnly => {
                let t0 = self.sampled_insert_start();
                let mut point = std::mem::take(&mut self.point_scratch);
                row_point_into(&tuple.row, &mut point)?;
                for w in self.spec.windows_of(tuple.ts) {
                    self.pend_point(w, stream, false, &point);
                    self.stats.get_or_insert_with(w, WinStats::default).dropped += 1;
                }
                self.point_scratch = point;
                self.totals.dropped += 1;
                self.observe_sampled_insert(t0);
            }
            ShedMode::DropOnly | ShedMode::DataTriage => {
                let dropped_syn = if self.cfg.policy == DropPolicy::Synergistic
                    && self.cfg.mode.uses_synopses()
                {
                    // The synergy heuristic consults the latest
                    // window; pending points must be visible to it, so
                    // flush this stream's dropped buffer first (at most
                    // one point accumulates between consecutive offers,
                    // so this stays per-tuple-cheap).
                    let w = self.spec.window_of(tuple.ts);
                    self.flush_pending_dropped(w, stream)?;
                    self.syns.get(w).map(|pairs| &pairs[stream].dropped)
                } else {
                    None
                };
                // The adaptive controller may demand a shed *before*
                // the queue is full, so the backlog stays drainable
                // within the delay constraint; without a controller
                // (or while its verdict is Keep) the fixed capacity
                // remains the only shed signal. The engine is shared
                // by every physical stream, so the depth that predicts
                // drain time is the *total* backlog, not this stream's
                // queue alone.
                let forced = match self.controllers.as_mut() {
                    Some(ctls) => {
                        let depth = self.queues.iter().map(TriageQueue::len).sum();
                        ctls[stream].decide(depth) == ShedDecision::Shed
                    }
                    None => false,
                };
                let victim = if forced {
                    Some(self.queues[stream].shed(tuple, dropped_syn))
                } else {
                    self.queues[stream].push(tuple, dropped_syn)
                };
                if let Some(v) = victim {
                    let mut point = std::mem::take(&mut self.point_scratch);
                    let summarize = self.cfg.mode == ShedMode::DataTriage;
                    let t0 = if summarize {
                        self.sampled_insert_start()
                    } else {
                        None
                    };
                    if summarize {
                        row_point_into(&v.row, &mut point)?;
                    }
                    for vw in self.spec.windows_of(v.ts) {
                        self.stats.get_or_insert_with(vw, WinStats::default).dropped += 1;
                        if summarize {
                            self.pend_point(vw, stream, false, &point);
                        }
                    }
                    self.point_scratch = point;
                    self.totals.dropped += 1;
                    self.observe_sampled_insert(t0);
                    if summarize {
                        if let Some(ctls) = self.controllers.as_mut() {
                            ctls[stream]
                                .observe_triage(self.cfg.cost.synopsis_insert_time.micros() as f64);
                        }
                    }
                }
            }
        }

        self.close_ready_windows()?;
        Ok(())
    }

    /// Drain queues and close every remaining window; returns one
    /// report per registered query (same order as registration).
    pub fn finish(mut self) -> DtResult<Vec<RunReport>> {
        if self.cfg.mode.uses_engine() {
            self.drain_engine(Timestamp::from_micros(u64::MAX / 2))?;
            self.now = self.now.max(self.engine_free_at);
        }
        let remaining: Vec<WindowId> = self.stats.ids().collect();
        for w in remaining {
            self.close_window(w)?;
        }
        self.flush_obs();
        let spec = self.spec;
        let totals = self.totals.clone();
        Ok(self
            .results
            .into_iter()
            .map(|mut windows| {
                windows.sort_by_key(|r| r.window);
                RunReport {
                    windows,
                    totals: totals.clone(),
                    window_spec: spec,
                }
            })
            .collect())
    }

    /// Simulate all engine activity strictly before `until`. One pull
    /// serves every query (shared scan).
    fn drain_engine(&mut self, until: Timestamp) -> DtResult<()> {
        while let Some((qi, head_ts)) = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.head_ts().map(|t| (i, t)))
            .min_by_key(|&(_, t)| t)
        {
            let start = self.engine_free_at.max(head_ts);
            if start >= until {
                break;
            }
            let tuple = self.queues[qi].pop().expect("nonempty queue");
            let mut busy = self.cfg.cost.service_time;
            if self.cfg.mode == ShedMode::DataTriage {
                busy += self.cfg.cost.synopsis_insert_time;
                let t0 = self.sampled_insert_start();
                let mut point = std::mem::take(&mut self.point_scratch);
                row_point_into(&tuple.row, &mut point)?;
                for w in self.spec.windows_of(tuple.ts) {
                    self.pend_point(w, qi, true, &point);
                }
                self.point_scratch = point;
                self.observe_sampled_insert(t0);
            }
            self.engine_free_at = start + busy;
            if let Some(ctls) = self.controllers.as_mut() {
                // The virtual engine's per-tuple cost is exactly
                // `busy`; feeding it keeps the EWMA honest if the
                // config's cost model is ever made time-varying.
                ctls[qi].observe_main(busy.micros() as f64);
            }
            for w in self.spec.windows_of(tuple.ts) {
                self.stats.get_or_insert_with(w, WinStats::default).kept += 1;
            }
            self.totals.kept += 1;
            self.buffers.push(qi, tuple)?;
        }
        Ok(())
    }

    fn close_ready_windows(&mut self) -> DtResult<()> {
        let queue_min = self
            .queues
            .iter()
            .filter_map(TriageQueue::head_ts)
            .min()
            .unwrap_or(self.now);
        let limit = match self.cfg.mode {
            ShedMode::SummarizeOnly => self.now,
            _ => self.now.min(queue_min),
        };
        // Open windows close oldest-first: `stats` is ordered, so pop
        // from the front until the oldest window outlives the limit.
        // (This runs on every offer — no per-call allocation.)
        while let Some(w) = self.stats.first_id() {
            if self.spec.window_end(w) > limit {
                break;
            }
            self.close_window(w)?;
        }
        Ok(())
    }

    /// Catch the registry handles up with the plain-field totals and
    /// current queue depths. Runs at window boundaries and at finish —
    /// the offer/drain hot paths never touch an atomic, so an enabled
    /// registry observes counters that lag by at most one open window.
    fn flush_obs(&mut self) {
        let [a, k, d] = self.obs_flushed;
        self.obs.arrived.add(self.totals.arrived - a);
        self.obs.kept.add(self.totals.kept - k);
        self.obs.dropped.add(self.totals.dropped - d);
        self.obs_flushed = [self.totals.arrived, self.totals.kept, self.totals.dropped];
        for (g, q) in self.obs.queue_depth.iter().zip(&self.queues) {
            g.set(q.len() as i64);
        }
    }

    fn close_window(&mut self, w: WindowId) -> DtResult<()> {
        self.flush_obs();
        self.obs.windows_closed.inc();
        let stats = self.stats.remove(w).unwrap_or_default();
        let shared_cols = self.buffers.take_window(w);
        // Seal the shared synopses once; every query reads them.
        let pairs: Option<Vec<SynPair>> = if self.cfg.mode.uses_synopses() {
            self.flush_pending_window(w)?;
            let pairs = match self.syns.remove(w) {
                Some(mut pairs) => {
                    for p in &mut pairs {
                        p.kept.seal();
                        p.dropped.seal();
                    }
                    pairs
                }
                None => self.exec.empty_pairs(&self.cfg.synopsis)?,
            };
            let units: usize = pairs
                .iter()
                .map(|p| p.kept.memory_units() + p.dropped.memory_units())
                .sum();
            self.totals.peak_synopsis_units = self.totals.peak_synopsis_units.max(units);
            Some(pairs)
        } else {
            None
        };

        // Every query reads the shared batches and synopses by
        // reference (aliased self-joins read the same batch).
        let cols: Vec<&ColumnBatch> = shared_cols.iter().collect();
        let pair_refs: Option<Vec<&SynPair>> = pairs.as_ref().map(|p| p.iter().collect());
        for qi in 0..self.exec.num_queries() {
            let payload = self.exec.close(qi, &cols, pair_refs.as_deref())?.payload;
            self.results[qi].push(WindowResult {
                window: w,
                payload,
                emitted_at: self.now.max(self.spec.window_end(w)),
                arrived: stats.arrived,
                kept: stats.kept,
                dropped: stats.dropped,
                degraded: false,
            });
        }
        Ok(())
    }

    /// `Some(now)` when this synopsis insert should be timed (1 in
    /// [`crate::obs::SYNOPSIS_SAMPLE`]); reading the clock on every
    /// insert would cost a visible slice of the ~1 µs/tuple budget.
    fn sampled_insert_start(&mut self) -> Option<std::time::Instant> {
        self.obs.sample_synopsis().then(std::time::Instant::now)
    }

    fn observe_sampled_insert(&self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.obs
                .synopsis_insert_us
                .observe(t0.elapsed().as_micros() as u64);
        }
    }

    fn syn_pair(&mut self, w: WindowId, stream: usize) -> DtResult<&mut SynPair> {
        let exec = &self.exec;
        let cfg = &self.cfg.synopsis;
        let pairs = self
            .syns
            .get_or_try_insert_with(w, || exec.empty_pairs(cfg))?;
        Ok(&mut pairs[stream])
    }

    /// Buffer one synopsis point for `(w, stream)` — the per-tuple hot
    /// path's only synopsis work; the actual inserts run batched at
    /// window close.
    #[inline]
    fn pend_point(&mut self, w: WindowId, stream: usize, kept: bool, point: &[i64]) {
        let n = self.queues.len();
        let pairs = self
            .pending
            .get_or_insert_with(w, || vec![PendPair::default(); n]);
        let cols = if kept {
            &mut pairs[stream].kept
        } else {
            &mut pairs[stream].dropped
        };
        cols.push(point);
    }

    /// Flush every pending point of window `w` into its synopses in
    /// one vectorized pass per (stream, side). Runs once per window
    /// close, timed unsampled.
    fn flush_pending_window(&mut self, w: WindowId) -> DtResult<()> {
        let Some(mut pend) = self.pending.remove(w) else {
            return Ok(());
        };
        let t0 = self
            .obs
            .synopsis_batch_insert_us
            .is_enabled()
            .then(std::time::Instant::now);
        for (stream, pair) in pend.iter_mut().enumerate() {
            if pair.kept.is_empty() && pair.dropped.is_empty() {
                continue;
            }
            let syn = self.syn_pair(w, stream)?;
            pair.kept.flush_into(&mut syn.kept)?;
            pair.dropped.flush_into(&mut syn.dropped)?;
        }
        if let Some(t0) = t0 {
            self.obs
                .synopsis_batch_insert_us
                .observe(t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Make `(w, stream)`'s pending *dropped* points visible in the
    /// live synopsis (the Synergistic policy reads it mid-window).
    fn flush_pending_dropped(&mut self, w: WindowId, stream: usize) -> DtResult<()> {
        let Some(mut cols) = self
            .pending
            .get_mut(w)
            .map(|p| std::mem::take(&mut p[stream].dropped))
        else {
            return Ok(());
        };
        if !cols.is_empty() {
            cols.flush_into(&mut self.syn_pair(w, stream)?.dropped)?;
        }
        // Hand the (cleared) column buffers back so their capacity is
        // reused by the next drop.
        if let Some(p) = self.pending.get_mut(w) {
            p[stream].dropped = cols;
        }
        Ok(())
    }
}

/// Convert a row of integer values to a synopsis point, writing into
/// a caller-owned buffer so hot loops convert one row per iteration
/// without allocating.
pub(crate) fn row_point_into(row: &Row, out: &mut Vec<i64>) -> DtResult<()> {
    out.clear();
    out.reserve(row.values().len());
    for v in row.values() {
        out.push(
            v.as_i64().ok_or_else(|| {
                DtError::engine(format!("non-integer value {v} in synopsis path"))
            })?,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_engine::CostModel;
    use dt_query::{parse_select, Catalog, Planner};
    use dt_synopsis::SynopsisConfig;
    use dt_types::{DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        c.add_stream(
            "S",
            Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
        );
        c
    }

    fn plan(sql: &str) -> QueryPlan {
        Planner::new(&catalog())
            .plan(&parse_select(sql).unwrap())
            .unwrap()
    }

    fn cfg() -> PipelineConfig {
        let mut c = PipelineConfig::new(ShedMode::DataTriage);
        c.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
        c.cost = CostModel::from_capacity(50.0).unwrap();
        c.queue_capacity = 10;
        c
    }

    fn tup(vals: &[i64], us: u64) -> Tuple {
        Tuple::new(Row::from_ints(vals), Timestamp::from_micros(us))
    }

    #[test]
    fn two_queries_share_streams() {
        let q1 = plan("SELECT a, COUNT(*) FROM R GROUP BY a");
        let q2 = plan("SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a");
        let mut p = SharedPipeline::new(vec![q1, q2], cfg()).unwrap();
        assert_eq!(p.num_queries(), 2);
        // Shared streams: R (from both), S — two physical streams.
        assert_eq!(p.streams().len(), 2);
        assert_eq!(p.streams()[0].name, "R");
        assert_eq!(p.streams()[1].name, "S");
        // Feed both shared streams.
        for i in 0..40u64 {
            p.offer(0, tup(&[(i % 3) as i64], 1_000 * (i + 1))).unwrap();
            p.offer(1, tup(&[(i % 3) as i64, 5], 1_000 * (i + 1)))
                .unwrap();
        }
        let reports = p.finish().unwrap();
        assert_eq!(reports.len(), 2);
        // Shared counters are identical across reports…
        assert_eq!(reports[0].totals, reports[1].totals);
        assert!(reports[0].totals.dropped > 0);
        // …but the per-query results differ (different queries).
        let total_q1: f64 = reports[0]
            .windows
            .iter()
            .flat_map(|w| w.groups().unwrap().values())
            .map(|v| v[0])
            .sum();
        let total_q2: f64 = reports[1]
            .windows
            .iter()
            .flat_map(|w| w.groups().unwrap().values())
            .map(|v| v[0])
            .sum();
        // q1 counts R tuples (lossless at w=1): exactly 40.
        assert!((total_q1 - 40.0).abs() < 1e-6, "{total_q1}");
        // q2 counts join results — more than q1 here (every R tuple
        // matches ~13 S tuples per window value group).
        assert!(total_q2 > total_q1);
    }

    #[test]
    fn self_join_aliases_share_one_physical_stream() {
        let q = plan("SELECT x.a, COUNT(*) FROM R x, R y WHERE x.a = y.a GROUP BY x.a");
        let p = SharedPipeline::new(vec![q], cfg()).unwrap();
        assert_eq!(p.streams().len(), 1, "both aliases share stream R");
        let mut p = p;
        for i in 0..10u64 {
            p.offer(0, tup(&[1], 1_000 * (i + 1))).unwrap();
        }
        let reports = p.finish().unwrap();
        // 10 tuples of a=1 self-joined: count = 10*10 = 100 (lossless
        // synopses keep it exact under shedding).
        let total: f64 = reports[0]
            .windows
            .iter()
            .flat_map(|w| w.groups().unwrap().values())
            .map(|v| v[0])
            .sum();
        assert!((total - 100.0).abs() < 1e-6, "{total}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let q = plan("SELECT a, COUNT(*) FROM R GROUP BY a");
        let mut p = SharedPipeline::new(vec![q], cfg()).unwrap();
        assert!(p.offer(0, tup(&[1, 2], 1_000)).is_err());
    }

    #[test]
    fn conflicting_window_widths_rejected() {
        let q1 = plan("SELECT a, COUNT(*) FROM R GROUP BY a WINDOW R['1 second']");
        let q2 = plan("SELECT a, COUNT(*) FROM R GROUP BY a WINDOW R['2 seconds']");
        assert!(SharedPipeline::new(vec![q1, q2], cfg()).is_err());
    }

    #[test]
    fn empty_query_list_rejected() {
        assert!(SharedPipeline::new(vec![], cfg()).is_err());
    }

    #[test]
    fn shared_synopses_are_built_once_per_stream() {
        // Indirect check: a drop-only shared pipeline over two queries
        // must not error on a non-rewritable query…
        let q1 = plan("SELECT a, COUNT(*) FROM R GROUP BY a");
        let q2 = plan(
            "SELECT x.a, COUNT(*) FROM R x, R y \
                       WHERE x.a = y.a AND x.a = y.a GROUP BY x.a",
        );
        let mut c = cfg();
        c.mode = ShedMode::DropOnly;
        assert!(SharedPipeline::new(vec![q1.clone(), q2.clone()], c).is_ok());
        // …while a synopsis mode rejects it at construction.
        assert!(SharedPipeline::new(vec![q1, q2], cfg()).is_err());
    }
}
