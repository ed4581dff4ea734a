//! The virtual-clock simulator, with multi-query shared processing
//! (paper §8.1).
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
//! The pipeline is a driver over state it owns: per-stream
//! [`TriageQueue`]s, the virtual engine clock, the optional
//! [`SharedController`]s, and one [`StreamTriage`] per stream — a
//! one-shard worker group. Each fold takes the stream's next fold
//! sequence number: kept tuples go to [`StreamTriage::keep_owned`] as
//! the engine drains them and victims to [`StreamTriage::shed_seq`].
//! A window closes once no arrival or queued tuple can still reach
//! it, by sealing it on every stream, merging each stream's one seal
//! with [`crate::merge_sealed`], folding the seals with
//! [`crate::gather_seals`] and closing every query with
//! [`crate::fan_out`] — the same fold, seal, merge and close the
//! threaded `dt-server` runtime uses. Only windows some stream holds
//! state for are sealed and emitted.
//!
//! The single-query [`crate::Pipeline`] is a thin facade over this
//! type.

use dt_query::QueryPlan;
use dt_rewrite::ShadowQuery;
use dt_types::{DtError, DtResult, Timestamp, Tuple, WindowId, WindowSpec};

use dt_obs::MetricsRegistry;

use crate::close::{fan_out, gather_seals};
use crate::controller::{SharedController, ShedDecision};
use crate::executor::QueryExecutor;
use crate::obs::{ControllerGauges, TriageObs};
use crate::pipeline::{PipelineConfig, RunReport, RunTotals, WindowResult};
use crate::policy::DropPolicy;
use crate::queue::TriageQueue;
use crate::shard::merge_sealed;
use crate::shed::ShedMode;
use crate::stream::{SealedWindow, StreamTriage};

pub use crate::executor::SharedStream;

/// The multi-query pipeline. See the module docs.
pub struct SharedPipeline {
    exec: QueryExecutor,
    cfg: PipelineConfig,
    spec: WindowSpec,
    queues: Vec<TriageQueue>,
    /// Per physical stream: the fold/seal state of its open windows.
    triages: Vec<StreamTriage>,
    /// Per physical stream: the sequence number of its next fold.
    /// Folds take them in order, so each window's kept rows and
    /// synopsis points are already sorted by sequence.
    next_seq: Vec<u64>,
    engine_free_at: Timestamp,
    now: Timestamp,
    /// `results[q]` collects query `q`'s windows.
    results: Vec<Vec<WindowResult>>,
    totals: RunTotals,
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
    /// The one engine drains every queue, so each controller is fed
    /// the *total* backlog (see [`Self::backlog_changed`]).
    controllers: Option<Vec<SharedController>>,
}

impl SharedPipeline {
    /// Build a shared pipeline over one or more planned queries.
    ///
    /// Physical streams are derived from the plans' catalog stream
    /// names, in first-appearance order; queries referencing the same
    /// stream name share its queue, window state, and synopses. All
    /// streams of all queries must use one window width; synopsis modes
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
            (0..n)
                .map(|_| SharedController::from_cost_model(Some(d), &cfg.cost, cfg.mode))
                .collect()
        });
        let triages = exec
            .streams()
            .iter()
            .enumerate()
            .map(|(i, s)| StreamTriage::new(i, s.schema.arity(), cfg.mode, cfg.synopsis, spec))
            .collect();
        Ok(SharedPipeline {
            queues,
            triages,
            next_seq: vec![0; n],
            exec,
            spec,
            cfg,
            engine_free_at: Timestamp::ZERO,
            now: Timestamp::ZERO,
            results: vec![Vec::new(); num_queries],
            totals: RunTotals::default(),
            obs: TriageObs::default(),
            obs_flushed: [0; 3],
            controllers,
        })
    }

    /// Record triage and engine instruments on `reg`: per-stream
    /// queue-depth gauges, arrived/kept/dropped counters labeled by
    /// shed mode, each stream's triage counters and synopsis-insert
    /// latencies, and window-execution latency.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> Self {
        let names: Vec<&str> = self
            .exec
            .streams()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        self.obs = TriageObs::register(reg, self.cfg.mode, &names);
        self.triages = std::mem::take(&mut self.triages)
            .into_iter()
            .zip(&names)
            .map(|(t, name)| t.with_metrics(reg, name))
            .collect();
        self.controllers = self.controllers.take().map(|ctls| {
            ctls.into_iter()
                .zip(&names)
                .map(|(ctl, name)| ctl.with_gauges(ControllerGauges::register(reg, name)))
                .collect()
        });
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

    /// Feed one arrival on a *shared* stream (index into
    /// [`SharedPipeline::streams`]). Arrivals must be time-ordered.
    pub fn offer(&mut self, stream: usize, tuple: Tuple) -> DtResult<()> {
        let Some(shared) = self.exec.streams().get(stream) else {
            return Err(DtError::config(format!("unknown shared stream {stream}")));
        };
        if tuple.ts < self.now {
            return Err(DtError::config(format!(
                "arrivals must be time-ordered: {} after {}",
                tuple.ts, self.now
            )));
        }
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
        self.totals.arrived += 1;

        let victim = match self.cfg.mode {
            // Summarize-only bypasses the queue: every arrival is
            // summarized, none is executed exactly.
            ShedMode::SummarizeOnly => Some(tuple),
            ShedMode::DropOnly | ShedMode::DataTriage => self.enqueue(stream, tuple)?,
        };
        if let Some(v) = victim {
            let seq = self.stamp(stream);
            self.triages[stream].shed_seq(&v, seq)?;
            self.totals.dropped += 1;
            if self.cfg.mode == ShedMode::DataTriage {
                if let Some(ctls) = &self.controllers {
                    ctls[stream].observe_triage(self.cfg.cost.synopsis_insert_time.micros() as f64);
                }
            }
        }

        // A window is final once neither a later arrival (all at or
        // after `now`) nor a queued tuple can still land in it.
        let limit = match self.cfg.mode {
            ShedMode::SummarizeOnly => self.now,
            _ => self
                .queues
                .iter()
                .filter_map(TriageQueue::head_ts)
                .fold(self.now, Timestamp::min),
        };
        self.close_windows_through(limit)
    }

    /// Queue `tuple` on `stream`, returning the victim the drop policy
    /// picks when the queue overflows or the controller demands a shed.
    fn enqueue(&mut self, stream: usize, tuple: Tuple) -> DtResult<Option<Tuple>> {
        let dropped_syn =
            if self.cfg.policy == DropPolicy::Synergistic && self.cfg.mode.uses_synopses() {
                let w = self.spec.window_of(tuple.ts);
                self.triages[stream].dropped_synopsis(w)?
            } else {
                None
            };
        // The adaptive controller may demand a shed *before* the queue
        // is full, so the backlog stays drainable within the delay
        // constraint; without a controller (or while its verdict is
        // Keep) the fixed capacity remains the only shed signal.
        let forced = self
            .controllers
            .as_ref()
            .is_some_and(|ctls| ctls[stream].decide() == ShedDecision::Shed);
        let queue = &mut self.queues[stream];
        let victim = if forced {
            Some(queue.shed(tuple, dropped_syn))
        } else {
            queue.push(tuple, dropped_syn)
        };
        // A shed or an overflow swaps one tuple for another; only a
        // clean push grows the backlog.
        if victim.is_none() {
            self.backlog_changed(SharedController::on_enqueue);
        }
        Ok(victim)
    }

    /// Stream `stream`'s next fold sequence number.
    fn stamp(&mut self, stream: usize) -> u64 {
        let seq = self.next_seq[stream];
        self.next_seq[stream] += 1;
        seq
    }

    /// Report a change of the total backlog to every stream's
    /// controller. The engine is shared by every physical stream, so
    /// the depth that predicts a new arrival's drain time is the sum
    /// of all triage queues, not its own stream's queue alone.
    fn backlog_changed(&self, report: impl Fn(&SharedController)) {
        if let Some(ctls) = &self.controllers {
            ctls.iter().for_each(report);
        }
    }

    /// Drain queues and close every remaining window; returns one
    /// report per registered query (same order as registration).
    pub fn finish(mut self) -> DtResult<Vec<RunReport>> {
        let end_of_time = Timestamp::from_micros(u64::MAX / 2);
        if self.cfg.mode.uses_engine() {
            self.drain_engine(end_of_time)?;
            self.now = self.now.max(self.engine_free_at);
        }
        self.close_windows_through(end_of_time)?;
        self.flush_obs();
        let spec = self.spec;
        let totals = self.totals.clone();
        Ok(self
            .results
            .into_iter()
            .map(|windows| RunReport {
                windows,
                totals: totals.clone(),
                window_spec: spec,
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
            }
            self.engine_free_at = start + busy;
            self.backlog_changed(|c| c.on_dequeue(1));
            if let Some(ctls) = &self.controllers {
                // The virtual engine's per-tuple cost is exactly
                // `busy`; feeding it keeps the EWMA honest if the
                // config's cost model is ever made time-varying.
                ctls[qi].observe_main(busy.micros() as f64);
            }
            self.totals.kept += 1;
            let seq = self.stamp(qi);
            self.triages[qi].keep_owned(tuple, seq)?;
        }
        Ok(())
    }

    /// Close, oldest first, every window some stream holds state for
    /// whose end is at or before `limit`. Windows no stream has seen
    /// are never materialized, however far apart the open ones lie.
    fn close_windows_through(&mut self, limit: Timestamp) -> DtResult<()> {
        while let Some(w) = self
            .triages
            .iter()
            .filter_map(StreamTriage::first_open)
            .min()
        {
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

    /// Seal window `w` on every stream and close it for every query.
    /// `w` is the oldest window any stream holds, so each stream skips
    /// straight to it and seals exactly that one window, which
    /// [`merge_sealed`] then folds as a one-shard group.
    fn close_window(&mut self, w: WindowId) -> DtResult<()> {
        self.flush_obs();
        self.obs.windows_closed.inc();
        let mut seals = Vec::with_capacity(self.triages.len());
        for t in &mut self.triages {
            t.skip_idle(w);
            let [sw]: [SealedWindow; 1] = t
                .seal_through(w)?
                .try_into()
                .map_err(|_| DtError::engine("simulator sealed more than one window"))?;
            seals.push(merge_sealed(vec![sw])?);
        }
        let g = gather_seals(seals, self.cfg.mode)?;
        self.totals.peak_synopsis_units = self.totals.peak_synopsis_units.max(g.memory_units);

        // The one executor's streams are the physical streams, so
        // every query reads them through the identity map.
        let identity: Vec<usize> = (0..self.triages.len()).collect();
        let queries = (0..self.exec.num_queries()).map(|q| (&self.exec, q, &identity[..]));
        let closes = fan_out(self.exec.streams(), &g.rows, g.pairs.as_deref(), queries)?;
        let emitted_at = self.now.max(self.spec.window_end(w));
        for (windows, close) in self.results.iter_mut().zip(closes) {
            windows.push(WindowResult {
                window: w,
                payload: close.payload,
                emitted_at,
                arrived: g.arrived,
                kept: g.kept,
                dropped: g.dropped,
                degraded: g.degraded,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_engine::CostModel;
    use dt_query::{parse_select, Catalog, Planner};
    use dt_synopsis::SynopsisConfig;
    use dt_types::{DataType, Row, Schema};

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
