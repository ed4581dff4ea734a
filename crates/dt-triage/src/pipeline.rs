//! The single-query Data Triage pipeline (paper Fig. 1, end to end),
//! plus the configuration and result types shared with the
//! multi-query [`crate::SharedPipeline`].
//!
//! Arrivals (in timestamp order) flow into per-stream
//! [`crate::TriageQueue`]s.
//! The engine consumes queued tuples at its [`CostModel`] service
//! rate; tuples it cannot absorb are shed by the queue's
//! [`DropPolicy`] and — in Data Triage mode — folded into the current
//! window's *dropped* synopsis, while every processed tuple is also
//! folded into the *kept* synopsis (so the shadow query never joins a
//! synopsis against raw tuples, exactly as §5.1 arranges). Both folds
//! happen in the stream's [`crate::StreamTriage`], the same per-stream
//! state the threaded server drives.
//!
//! A window `w` closes once neither future arrivals nor queued
//! backlog can contribute to it; the pipeline then seals it on every
//! stream, runs the exact engine on the kept rows, evaluates the
//! shadow plan over the sealed synopses, merges the two, and emits a
//! [`WindowResult`].
//!
//! [`Pipeline`] is the one-query facade over [`crate::SharedPipeline`]
//! — the multi-query engine that §8.1's shared-synopses discussion
//! asks for. It adds no behaviour of its own; it only saves
//! single-query callers the `Vec` of plans and reports.

use dt_engine::CostModel;

use dt_query::QueryPlan;
use dt_rewrite::ShadowQuery;
use dt_synopsis::{Synopsis, SynopsisConfig};
use dt_types::{DtResult, Row, Timestamp, Tuple, WindowId, WindowSpec};

use crate::controller::DelayConstraint;
use crate::merge::MergedGroups;
use crate::policy::DropPolicy;
use crate::shared::SharedPipeline;
use crate::shed::ShedMode;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Which load-shedding methodology to run.
    pub mode: ShedMode,
    /// Victim selection when a queue overflows.
    pub policy: DropPolicy,
    /// Per-stream triage queue capacity (tuples).
    pub queue_capacity: usize,
    /// The engine's virtual-time cost model.
    pub cost: CostModel,
    /// Synopsis structure used for kept/dropped summaries.
    pub synopsis: SynopsisConfig,
    /// Seed for every stochastic choice (drop victims, reservoirs).
    pub seed: u64,
    /// Optional per-query delay constraint. When set (and the mode
    /// uses the engine), a [`crate::SharedController`] per stream
    /// derives a dynamic triage threshold from the constraint and the
    /// EWMA-estimated per-tuple costs, shedding *before* the fixed
    /// queue capacity is reached so windows seal within the
    /// constraint. `None` (the default) keeps the fixed-capacity
    /// overflow signal as the only shed trigger — bit-identical to the
    /// pre-controller behavior.
    pub delay: Option<DelayConstraint>,
}

impl PipelineConfig {
    /// The paper's defaults: random drops, queue of 100 tuples,
    /// sparse histogram with cell width 10, engine capacity 1000
    /// tuples/s. Infallible — the defaults are compile-time constants,
    /// so library code never panics building a config.
    pub fn new(mode: ShedMode) -> Self {
        PipelineConfig {
            mode,
            policy: DropPolicy::Random,
            queue_capacity: 100,
            cost: CostModel::default(),
            synopsis: SynopsisConfig::default_sparse(),
            seed: 0,
            delay: None,
        }
    }
}

/// What a closed window produced.
///
/// (One payload exists per closed window; the size difference between
/// variants is irrelevant at that count.)
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum WindowPayload {
    /// Aggregating query: merged per-group aggregates.
    Groups(MergedGroups),
    /// Non-aggregating query: exact output rows plus (when synopses
    /// are in play) the estimate of the lost results — the two layers
    /// of the paper's Fig. 3 visualization.
    Rows {
        /// Exact output rows from kept tuples.
        rows: Vec<Row>,
        /// Shadow-plan estimate of lost result tuples.
        lost: Option<Synopsis>,
    },
}

/// One closed window's outcome.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Which window.
    pub window: WindowId,
    /// Results.
    pub payload: WindowPayload,
    /// Virtual time at which the result was emitted.
    pub emitted_at: Timestamp,
    /// Tuples that arrived with timestamps in this window.
    pub arrived: u64,
    /// Tuples delivered to the exact engine.
    pub kept: u64,
    /// Tuples shed (and, outside drop-only mode, synopsized).
    pub dropped: u64,
    /// True when part of this window's state was lost to a fault
    /// (worker crash, forced seal of a stalled stream) rather than
    /// shed by policy. The payload is still the best available
    /// answer, but the shedding error bounds no longer apply — see
    /// DESIGN.md §10. Always `false` in the simulation pipeline.
    pub degraded: bool,
}

impl WindowResult {
    /// The merged groups, if aggregating.
    pub fn groups(&self) -> Option<&MergedGroups> {
        match &self.payload {
            WindowPayload::Groups(g) => Some(g),
            WindowPayload::Rows { .. } => None,
        }
    }

    /// Result latency relative to the window's end.
    pub fn latency(&self, spec: WindowSpec) -> dt_types::VDuration {
        self.emitted_at.saturating_sub(spec.window_end(self.window))
    }
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Tuples offered to the pipeline.
    pub arrived: u64,
    /// Tuples processed exactly.
    pub kept: u64,
    /// Tuples shed.
    pub dropped: u64,
    /// Largest combined memory footprint (cells / buckets / rows /
    /// coefficients) of one window's sealed kept+dropped synopses —
    /// the §5.2.2 "compact synopses" requirement, measured.
    pub peak_synopsis_units: usize,
}

/// The outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-window results, oldest first.
    pub windows: Vec<WindowResult>,
    /// Whole-run counters.
    pub totals: RunTotals,
    /// The window spec the run used (for latency computations).
    pub window_spec: WindowSpec,
}

/// The single-query simulation pipeline. Feed arrivals with
/// [`Pipeline::offer`], then call [`Pipeline::finish`]; or use
/// [`Pipeline::run`].
///
/// Stream indices passed to `offer` address the pipeline's *physical*
/// streams: the distinct catalog streams of the plan's FROM list, in
/// first-appearance order. For queries without self-joins this equals
/// the FROM position; a self-joined stream has **one** physical index
/// and both aliases read the same tuples (as in TelegraphCQ).
pub struct Pipeline {
    inner: SharedPipeline,
}

impl Pipeline {
    /// Build a pipeline for a planned query.
    ///
    /// Requirements checked here: at least one stream; all streams
    /// share one window width (the experiments' setting); when the
    /// mode builds synopses, every stream column must be an integer
    /// and the query must be rewritable (see
    /// [`dt_rewrite::rewrite_dropped`]).
    pub fn new(plan: QueryPlan, cfg: PipelineConfig) -> DtResult<Self> {
        Ok(Pipeline {
            inner: SharedPipeline::new(vec![plan], cfg)?,
        })
    }

    /// The plan this pipeline executes.
    pub fn plan(&self) -> &QueryPlan {
        self.inner.plan(0).expect("single query")
    }

    /// The shadow query, when the mode uses one.
    pub fn shadow(&self) -> Option<&ShadowQuery> {
        self.inner.shadow(0)
    }

    /// Record triage and engine instruments on `reg` (see
    /// [`crate::SharedPipeline::with_metrics`]).
    pub fn with_metrics(mut self, reg: &dt_obs::MetricsRegistry) -> Self {
        self.inner = self.inner.with_metrics(reg);
        self
    }

    /// Run a whole arrival sequence and finish.
    pub fn run(
        plan: QueryPlan,
        cfg: PipelineConfig,
        arrivals: impl IntoIterator<Item = (usize, Tuple)>,
    ) -> DtResult<RunReport> {
        let mut p = Pipeline::new(plan, cfg)?;
        for (stream, tuple) in arrivals {
            p.offer(stream, tuple)?;
        }
        p.finish()
    }

    /// [`Pipeline::run`] with instruments recorded on `reg`.
    pub fn run_with_metrics(
        plan: QueryPlan,
        cfg: PipelineConfig,
        arrivals: impl IntoIterator<Item = (usize, Tuple)>,
        reg: &dt_obs::MetricsRegistry,
    ) -> DtResult<RunReport> {
        let mut p = Pipeline::new(plan, cfg)?.with_metrics(reg);
        for (stream, tuple) in arrivals {
            p.offer(stream, tuple)?;
        }
        p.finish()
    }

    /// Feed one arrival. Arrivals must be in non-decreasing timestamp
    /// order across all streams.
    pub fn offer(&mut self, stream: usize, tuple: Tuple) -> DtResult<()> {
        self.inner.offer(stream, tuple)
    }

    /// Drain queues and close every remaining window, returning the
    /// report.
    pub fn finish(self) -> DtResult<RunReport> {
        let mut reports = self.inner.finish()?;
        Ok(reports.pop().expect("single query"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_query::{parse_select, Catalog, Planner};
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

    fn cfg(mode: ShedMode) -> PipelineConfig {
        let mut c = PipelineConfig::new(mode);
        c.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
        c
    }

    fn tup(vals: &[i64], us: u64) -> Tuple {
        Tuple::new(Row::from_ints(vals), Timestamp::from_micros(us))
    }

    /// Under light load every mode except summarize-only is exact.
    #[test]
    fn light_load_is_exact() {
        let arrivals = |_: ()| {
            vec![
                (0usize, tup(&[1], 100_000)),
                (1usize, tup(&[1, 5], 200_000)),
                (0usize, tup(&[2], 300_000)),
                (1usize, tup(&[2, 5], 400_000)),
            ]
        };
        for mode in [ShedMode::DropOnly, ShedMode::DataTriage] {
            let report = Pipeline::run(
                plan("SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a"),
                cfg(mode),
                arrivals(()),
            )
            .unwrap();
            assert_eq!(report.totals.dropped, 0, "{mode:?}");
            assert_eq!(report.totals.kept, 4, "{mode:?}");
            assert_eq!(report.windows.len(), 1, "{mode:?}");
            let g = report.windows[0].groups().unwrap();
            assert_eq!(g[&Row::from_ints(&[1])], vec![1.0], "{mode:?}");
            assert_eq!(g[&Row::from_ints(&[2])], vec![1.0], "{mode:?}");
        }
    }

    /// Summarize-only at exact synopsis resolution reproduces the
    /// whole answer approximately-exactly.
    #[test]
    fn summarize_only_estimates_everything() {
        let report = Pipeline::run(
            plan("SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a"),
            cfg(ShedMode::SummarizeOnly),
            vec![
                (0usize, tup(&[1], 100_000)),
                (1usize, tup(&[1, 5], 200_000)),
            ],
        )
        .unwrap();
        assert_eq!(report.totals.kept, 0);
        assert_eq!(report.totals.dropped, 2);
        let g = report.windows[0].groups().unwrap();
        assert!((g[&Row::from_ints(&[1])][0] - 1.0).abs() < 1e-9);
    }

    /// Overload forces drops; Data Triage recovers the lost counts at
    /// exact synopsis resolution (single-stream query: no join error).
    #[test]
    fn overload_data_triage_recovers_counts() {
        // Engine: 10 tuples/sec. 50 tuples arrive in one 1 s window at
        // 1 ms spacing — massive overload with queue capacity 5.
        let mut c = cfg(ShedMode::DataTriage);
        c.cost = CostModel::from_capacity(10.0).unwrap();
        c.queue_capacity = 5;
        let arrivals: Vec<(usize, Tuple)> = (0..50)
            .map(|i| (0usize, tup(&[i % 4], 1_000 * (i as u64 + 1))))
            .collect();
        let report =
            Pipeline::run(plan("SELECT a, COUNT(*) FROM R GROUP BY a"), c, arrivals).unwrap();
        assert!(report.totals.dropped > 0, "expected shedding");
        assert_eq!(report.totals.kept + report.totals.dropped, 50);
        // Merged counts must equal the true per-group counts, because
        // a width-1 histogram of a single stream is lossless for
        // GROUP BY/COUNT.
        let mut total = 0.0;
        for w in &report.windows {
            for v in w.groups().unwrap().values() {
                total += v[0];
            }
        }
        assert!((total - 50.0).abs() < 1e-6, "merged total {total}");
    }

    /// Drop-only loses what it drops.
    #[test]
    fn overload_drop_only_undercounts() {
        let mut c = cfg(ShedMode::DropOnly);
        c.cost = CostModel::from_capacity(10.0).unwrap();
        c.queue_capacity = 5;
        let arrivals: Vec<(usize, Tuple)> = (0..50)
            .map(|i| (0usize, tup(&[i % 4], 1_000 * (i as u64 + 1))))
            .collect();
        let report =
            Pipeline::run(plan("SELECT a, COUNT(*) FROM R GROUP BY a"), c, arrivals).unwrap();
        let mut total = 0.0;
        for w in &report.windows {
            for v in w.groups().unwrap().values() {
                total += v[0];
            }
        }
        assert!(
            total < 50.0 - 1e-6,
            "drop-only must undercount, got {total}"
        );
        assert!((total - report.totals.kept as f64).abs() < 1e-6);
    }

    #[test]
    fn non_aggregating_payload_carries_rows_and_estimate() {
        let mut c = cfg(ShedMode::DataTriage);
        c.cost = CostModel::from_capacity(10.0).unwrap();
        c.queue_capacity = 2;
        let arrivals: Vec<(usize, Tuple)> = (0..20)
            .map(|i| (0usize, tup(&[i], 1_000 * (i as u64 + 1))))
            .collect();
        let report = Pipeline::run(plan("SELECT a FROM R"), c, arrivals).unwrap();
        let w = &report.windows[0];
        match &w.payload {
            WindowPayload::Rows { rows, lost } => {
                assert!(!rows.is_empty());
                let lost = lost.as_ref().unwrap();
                assert!(lost.total_mass() > 0.0);
                // Conservation: kept rows + estimated lost = arrivals.
                assert!(
                    (rows.len() as f64 + lost.total_mass() - 20.0).abs() < 1e-6,
                    "{} + {}",
                    rows.len(),
                    lost.total_mass()
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_order_arrivals_rejected() {
        let mut p = Pipeline::new(
            plan("SELECT a, COUNT(*) FROM R GROUP BY a"),
            cfg(ShedMode::DataTriage),
        )
        .unwrap();
        p.offer(0, tup(&[1], 2_000)).unwrap();
        assert!(p.offer(0, tup(&[1], 1_000)).is_err());
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut p = Pipeline::new(
            plan("SELECT a, COUNT(*) FROM R GROUP BY a"),
            cfg(ShedMode::DataTriage),
        )
        .unwrap();
        assert!(p.offer(5, tup(&[1], 0)).is_err());
    }

    #[test]
    fn mismatched_window_widths_rejected() {
        let p = plan(
            "SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b GROUP BY a \
             WINDOW R['1 second'], S['2 seconds']",
        );
        assert!(Pipeline::new(p, cfg(ShedMode::DataTriage)).is_err());
    }

    #[test]
    fn results_sorted_and_stats_consistent() {
        let mut c = cfg(ShedMode::DataTriage);
        c.cost = CostModel::from_capacity(100.0).unwrap();
        c.queue_capacity = 3;
        // Three windows of 20 tuples each at 5 ms spacing.
        let arrivals: Vec<(usize, Tuple)> = (0..60)
            .map(|i| (0usize, tup(&[i % 7], 50_000 * (i as u64 + 1))))
            .collect();
        let report =
            Pipeline::run(plan("SELECT a, COUNT(*) FROM R GROUP BY a"), c, arrivals).unwrap();
        let windows: Vec<WindowId> = report.windows.iter().map(|w| w.window).collect();
        let mut sorted = windows.clone();
        sorted.sort_unstable();
        assert_eq!(windows, sorted);
        let arrived: u64 = report.windows.iter().map(|w| w.arrived).sum();
        let kept: u64 = report.windows.iter().map(|w| w.kept).sum();
        let dropped: u64 = report.windows.iter().map(|w| w.dropped).sum();
        assert_eq!(arrived, 60);
        assert_eq!(kept + dropped, arrived);
        assert_eq!(report.totals.arrived, arrived);
        assert_eq!(report.totals.kept, kept);
        assert_eq!(report.totals.dropped, dropped);
        for w in &report.windows {
            assert!(w.emitted_at >= report.window_spec.window_end(w.window));
        }
    }

    /// Instruments must never change results, and an enabled registry
    /// must agree with the run's own totals.
    #[test]
    fn metrics_instrumented_run_matches_and_records() {
        use dt_obs::{MetricValue, MetricsRegistry};
        let mut c = cfg(ShedMode::DataTriage);
        c.cost = CostModel::from_capacity(10.0).unwrap();
        c.queue_capacity = 5;
        let arrivals: Vec<(usize, Tuple)> = (0..50)
            .map(|i| (0usize, tup(&[i % 4], 1_000 * (i as u64 + 1))))
            .collect();
        let sql = "SELECT a, COUNT(*) FROM R GROUP BY a";
        let plain = Pipeline::run(plan(sql), c, arrivals.clone()).unwrap();
        let reg = MetricsRegistry::new();
        let wired = Pipeline::run_with_metrics(plan(sql), c, arrivals, &reg).unwrap();
        assert_eq!(plain.totals, wired.totals);
        assert_eq!(plain.windows.len(), wired.windows.len());

        let snap = reg.snapshot();
        let count = |outcome: &str| match snap
            .find(
                "dt_triage_tuples_total",
                &[("mode", "data-triage"), ("outcome", outcome)],
            )
            .unwrap()
            .value
        {
            MetricValue::Counter(v) => v,
            ref other => panic!("{other:?}"),
        };
        assert_eq!(count("arrived"), wired.totals.arrived);
        assert_eq!(count("kept"), wired.totals.kept);
        assert_eq!(count("dropped"), wired.totals.dropped);
        assert!(snap
            .find("dt_triage_queue_depth", &[("stream", "R")])
            .is_some());
        match snap.find("dt_engine_window_exec_us", &[]).unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, wired.windows.len() as u64)
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut c = cfg(ShedMode::DataTriage);
            c.cost = CostModel::from_capacity(20.0).unwrap();
            c.queue_capacity = 4;
            c.seed = seed;
            let arrivals: Vec<(usize, Tuple)> = (0..40)
                .map(|i| (0usize, tup(&[i % 5], 2_000 * (i as u64 + 1))))
                .collect();
            let report =
                Pipeline::run(plan("SELECT a, COUNT(*) FROM R GROUP BY a"), c, arrivals).unwrap();
            report
                .windows
                .iter()
                .map(|w| {
                    let mut g: Vec<(Row, f64)> = w
                        .groups()
                        .unwrap()
                        .iter()
                        .map(|(k, v)| (k.clone(), v[0]))
                        .collect();
                    g.sort_by(|a, b| a.0.cmp(&b.0));
                    g
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
    }
}
