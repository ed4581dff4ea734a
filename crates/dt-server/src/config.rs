//! Server configuration.

use crate::fault::FaultPlan;
use dt_engine::CostModel;
use dt_obs::MetricsRegistry;
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_synopsis::SynopsisConfig;
use dt_triage::{DelayConstraint, QueryExecutor, ShedMode};
use dt_types::{DtError, DtResult, VDuration, WindowSpec};

/// How many rejected frames an ingest connection tolerates before the
/// server answers with a structured error frame and closes it. Each
/// bad line still increments `parse_errors` and skips only that line;
/// the budget bounds how long an evidently-broken sender can spam the
/// parser.
pub const CONN_ERROR_BUDGET: u64 = 32;

/// Everything a [`crate::Server`] needs to start.
///
/// The triage queue of the paper's Fig. 1 is realized as each
/// stream's *shard queues* ([`dt_triage::ShardQueues`], one bounded
/// queue per shard worker): `channel_capacity` bounds each shard's
/// queue, and a full queue is the overflow signal. Victim selection
/// is necessarily the incoming tuple (the queue's interior belongs to
/// the workers), i.e. the `Newest` drop policy; the simulation
/// pipeline remains the place to study alternative policies.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The continuous queries to serve (at least one). All must share
    /// one window width.
    pub queries: Vec<String>,
    /// Stream catalog the queries are planned against.
    pub catalog: Catalog,
    /// Shedding methodology (`DataTriage` by default).
    pub mode: ShedMode,
    /// Synopsis structure for kept/dropped summaries.
    pub synopsis: SynopsisConfig,
    /// When set, overrides every stream's window width (the same knob
    /// the rate sweeps use).
    pub window: Option<VDuration>,
    /// The bound on *each shard's* triage queue (a stream with
    /// `shards` workers queues up to `shards * channel_capacity`
    /// tuples). A kept tuple that finds its shard's queue full is shed.
    pub channel_capacity: usize,
    /// The longest a window waits for a quiet or slow source: a window
    /// seals once every ingest connection has pushed a tuple at or
    /// past its end, and at its end plus `grace` at the latest, so
    /// stragglers from a lagging source still land in their window.
    /// In-process offers publish no progress, so a server that has
    /// taken one seals every window at its end plus `grace`.
    pub grace: VDuration,
    /// Gate worker processing on tuple timestamps: a worker does not
    /// consume a tuple before `Clock::now()` reaches its timestamp.
    /// With a monotonic clock and live arrivals this is a no-op (the
    /// timestamp just passed); with replayed traces it makes the
    /// engine lag — and therefore shed — exactly as the recorded
    /// rates demand, and with a virtual clock it lets tests freeze
    /// the engine to force overflow deterministically.
    pub pace_by_timestamp: bool,
    /// Observability registry. Disabled by default; pass
    /// [`MetricsRegistry::new`] to record and expose `/metrics`.
    pub metrics: MetricsRegistry,
    /// Deterministic fault-injection schedule. Disabled by default;
    /// the chaos suite passes [`FaultPlan::seeded`] plans.
    pub fault: FaultPlan,
    /// The merger's sealer watchdog: when a window stays unsealed this
    /// long (virtual time) past its end plus `grace`, the merger
    /// force-seals it from whatever contributions have arrived and
    /// flags the result degraded. `None` disables the watchdog (a
    /// stalled worker then stalls emission indefinitely).
    pub seal_watchdog: Option<VDuration>,
    /// Optional delay constraint driving per-stream adaptive
    /// controllers ([`dt_triage::SharedController`]): ingest sheds
    /// once the channel backlog could no longer drain within the
    /// constraint, *before* the hard channel bound is hit. `None`
    /// (the default) keeps channel overflow as the only shed signal.
    pub delay: Option<DelayConstraint>,
    /// Cost model priming the controllers' EWMA cost estimates before
    /// real per-tuple measurements arrive (the workers feed measured
    /// costs in as they process). Only read when `delay` is set.
    pub cost_hint: CostModel,
    /// Worker-group size per stream (DESIGN.md §15): each stream's
    /// triage is partitioned across this many shard workers, each
    /// with its own bounded queue and synopsis pair, with batch
    /// work-stealing under skew. `1` (the default) is the classic
    /// single-worker plane; sealed output is bit-identical at every
    /// shard count, for every synopsis kind.
    pub shards: usize,
}

impl ServerConfig {
    /// A Data Triage server for one query with the paper's defaults:
    /// sparse cell-width-10 synopses, channel capacity 100, 100 ms
    /// grace, timestamp pacing on.
    pub fn new(sql: impl Into<String>, catalog: Catalog) -> Self {
        ServerConfig {
            queries: vec![sql.into()],
            catalog,
            mode: ShedMode::DataTriage,
            synopsis: SynopsisConfig::default_sparse(),
            window: None,
            channel_capacity: 100,
            grace: VDuration::from_millis(100),
            pace_by_timestamp: true,
            metrics: MetricsRegistry::disabled(),
            fault: FaultPlan::disabled(),
            seal_watchdog: Some(VDuration::from_secs(5)),
            delay: None,
            cost_hint: CostModel::default(),
            shards: 1,
        }
    }

    /// Parse and plan every query, apply the window override, and
    /// compile the shared window-close executor.
    pub fn compile(&self) -> DtResult<QueryExecutor> {
        if self.queries.is_empty() {
            return Err(DtError::config("server needs at least one query"));
        }
        if self.channel_capacity == 0 {
            return Err(DtError::config(
                "channel capacity must be >= 1 (a zero-capacity channel would shed everything)",
            ));
        }
        if self.shards == 0 {
            return Err(DtError::config(
                "shards must be >= 1 (one worker per stream is the minimum)",
            ));
        }
        // One synopsis per catalog stream: a bad synopsis setting (say,
        // an adaptive budget below 2^arity) fails here, not per window.
        for (_, schema) in self.catalog.streams() {
            self.synopsis.build(schema.arity())?;
        }
        let plans: Vec<QueryPlan> = self
            .queries
            .iter()
            .map(|sql| {
                let stmt = parse_select(sql)?;
                let mut plan = Planner::new(&self.catalog).plan(&stmt)?;
                if let Some(width) = self.window {
                    let spec = WindowSpec::new(width)?;
                    for s in &mut plan.streams {
                        s.window = spec;
                    }
                }
                Ok(plan)
            })
            .collect::<DtResult<_>>()?;
        Ok(QueryExecutor::new(plans, self.mode)?.with_metrics(&self.metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_types::{DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        c
    }

    #[test]
    fn compiles_with_window_override() {
        let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog());
        cfg.window = Some(VDuration::from_secs(2));
        let exec = cfg.compile().unwrap();
        assert_eq!(exec.spec().width(), VDuration::from_secs(2));
        assert_eq!(exec.streams().len(), 1);
    }

    #[test]
    fn rejects_zero_capacity_and_empty_queries() {
        let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog());
        cfg.channel_capacity = 0;
        assert!(cfg.compile().is_err());
        let mut cfg = ServerConfig::new("x", catalog());
        cfg.queries.clear();
        assert!(cfg.compile().is_err());
    }

    #[test]
    fn defaults_are_fault_free() {
        let cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog());
        assert!(cfg.fault.is_disabled());
        assert!(cfg.seal_watchdog.is_some());
    }

    #[test]
    fn shard_validation_gates_count_and_synopsis_kind() {
        let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog());
        assert_eq!(cfg.shards, 1, "single worker per stream by default");
        cfg.shards = 0;
        assert!(cfg.compile().is_err());
        cfg.shards = 4;
        for synopsis in [
            SynopsisConfig::default_sparse(),
            SynopsisConfig::MHist {
                max_buckets: 8,
                alignment: Some(10),
            },
            SynopsisConfig::Reservoir {
                capacity: 16,
                seed: 1,
            },
            SynopsisConfig::AdaptiveSparse {
                base_width: 1,
                max_cells: 2,
            },
        ] {
            cfg.synopsis = synopsis;
            assert!(cfg.compile().is_ok(), "{} merges", synopsis.label());
        }
        // A budget below one cell per orthant fails at compile time.
        cfg.synopsis = SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 1,
        };
        assert!(cfg.compile().is_err());
    }

    #[test]
    fn rejects_bad_sql() {
        let cfg = ServerConfig::new("SELECT FROM nowhere", catalog());
        assert!(cfg.compile().is_err());
    }
}
