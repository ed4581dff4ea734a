//! The registry proper: compile, attach, fan out, detach.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use dt_obs::{Counter, Gauge, MetricsRegistry};
use dt_query::{parse_select, Catalog, Planner};
use dt_triage::{
    fan_out, DelayConstraint, LaneSpec, QueryClose, QueryExecutor, SharedStream, ShedMode, SynPair,
};
use dt_types::{DtError, DtResult, Row, WindowId, WindowSpec};

use crate::spec::{QueryId, QueryInfo, QuerySpec};

/// Everything fixed at server startup that registration must honor.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Stream catalog queries are planned against. Its insertion
    /// order *is* the physical stream table — workers, sealed
    /// windows, and [`WindowInputs`] all index streams by catalog
    /// position.
    pub catalog: Catalog,
    /// The shedding methodology every query runs under.
    pub mode: ShedMode,
    /// The server's single window spec: every stream seals on this
    /// cadence, so every query must use it.
    pub spec: WindowSpec,
    /// When true (the server was started with a window override),
    /// registered plans get their windows rewritten to `spec` instead
    /// of being rejected on mismatch — the same treatment the
    /// server's initial queries received.
    pub override_windows: bool,
}

/// One sealed window's per-stream state, indexed by physical stream.
#[derive(Debug, Clone, Copy)]
pub struct WindowInputs<'a> {
    /// Kept rows per stream, in arrival order.
    pub rows: &'a [Vec<Row>],
    /// Sealed kept/dropped synopses per stream (synopsis modes only).
    pub pairs: Option<&'a [SynPair]>,
    /// `(kept, dropped)` tuple counts per stream for this window —
    /// feeds the per-query shed-share gauge.
    pub counts: &'a [(u64, u64)],
}

/// Per-query instruments (default = disabled no-ops).
#[derive(Debug, Default)]
struct QueryGauges {
    windows: Counter,
    estimated_share: Gauge,
    shed_share: Gauge,
}

impl QueryGauges {
    fn register(reg: &MetricsRegistry, id: QueryId) -> Self {
        let label = id.to_string();
        QueryGauges {
            windows: reg.counter(
                "dt_registry_query_windows_total",
                "Windows emitted per registered query",
                &[("query", &label)],
            ),
            estimated_share: reg.gauge(
                "dt_registry_query_estimated_share",
                "Last window's estimated-mass share per query (per-mille, 0-1000) - the RMS-error proxy",
                &[("query", &label)],
            ),
            shed_share: reg.gauge(
                "dt_registry_query_shed_share",
                "Last window's shed share over the query's streams (per-mille, 0-1000)",
                &[("query", &label)],
            ),
        }
    }
}

/// One registered query's compiled state. Counters are atomic so
/// `close_window` runs under the read lock.
#[derive(Debug)]
struct RegisteredQuery {
    id: QueryId,
    sql: String,
    tenant: Option<String>,
    delay: Option<DelayConstraint>,
    weight: f64,
    /// Single-query executor: main plan + shadow rewrite.
    exec: QueryExecutor,
    /// Executor stream index → physical (catalog) stream index.
    phys: Vec<usize>,
    active_from: WindowId,
    /// One past the last covered window; `None` while registered.
    active_to: Option<WindowId>,
    windows: AtomicU64,
    est_share_milli: AtomicU64,
    shed_share_milli: AtomicU64,
    gauges: QueryGauges,
}

impl RegisteredQuery {
    /// Active for window `w`: registered at or before it, not yet
    /// unregistered past it.
    fn covers(&self, w: WindowId) -> bool {
        self.active_from <= w && self.active_to.is_none_or(|to| w < to)
    }

    fn info(&self, streams: &[SharedStream]) -> QueryInfo {
        QueryInfo {
            id: self.id,
            sql: self.sql.clone(),
            tenant: self.tenant.clone(),
            delay: self.delay,
            weight: self.weight,
            streams: self.phys.iter().map(|&p| streams[p].name.clone()).collect(),
            active_from: self.active_from,
            active_to: self.active_to,
            windows_emitted: self.windows.load(Ordering::Relaxed),
            estimated_share: self.est_share_milli.load(Ordering::Relaxed) as f64 / 1000.0,
            shed_share: self.shed_share_milli.load(Ordering::Relaxed) as f64 / 1000.0,
        }
    }
}

fn fmt_spec(spec: WindowSpec) -> String {
    if spec.slide() == spec.width() {
        format!("{} tumbling", spec.width())
    } else {
        format!("{} sliding every {}", spec.width(), spec.slide())
    }
}

/// The registry. See the crate docs for the lifecycle and the
/// shared-triage invariant.
#[derive(Debug)]
pub struct QueryRegistry {
    cfg: RegistryConfig,
    /// The physical stream table, in catalog order. Fixed at startup:
    /// the server's workers are spawned against it.
    streams: Vec<SharedStream>,
    metrics: MetricsRegistry,
    /// All queries ever registered, in id order. Unregistered entries
    /// stay (deactivated) so final reports can cover them.
    queries: RwLock<Vec<RegisteredQuery>>,
    next_id: AtomicU64,
    /// The next window id the merger will emit. Registration becomes
    /// effective here; unregistration stops here.
    emit_cursor: AtomicU64,
}

impl QueryRegistry {
    /// An empty registry over `cfg.catalog`'s streams.
    pub fn new(cfg: RegistryConfig, metrics: MetricsRegistry) -> DtResult<Self> {
        if cfg.catalog.streams().is_empty() {
            return Err(DtError::config("registry needs a non-empty catalog"));
        }
        let streams = cfg
            .catalog
            .streams()
            .iter()
            .map(|(name, schema)| SharedStream {
                name: name.clone(),
                schema: schema.clone(),
            })
            .collect();
        Ok(QueryRegistry {
            cfg,
            streams,
            metrics,
            queries: RwLock::new(Vec::new()),
            next_id: AtomicU64::new(0),
            emit_cursor: AtomicU64::new(0),
        })
    }

    /// The physical stream table, in catalog order.
    pub fn streams(&self) -> &[SharedStream] {
        &self.streams
    }

    /// The server-wide window spec.
    pub fn spec(&self) -> WindowSpec {
        self.cfg.spec
    }

    /// The next window id to be emitted.
    pub fn emit_cursor(&self) -> WindowId {
        self.emit_cursor.load(Ordering::Relaxed)
    }

    /// Compile and attach one query; effective from the next emitted
    /// window. Errors are structured: parse errors carry line/column,
    /// planning errors name the offending stream or column, and
    /// window mismatches name the server's sealing cadence.
    pub fn register(&self, spec: QuerySpec) -> DtResult<QueryId> {
        if !(spec.weight > 0.0 && spec.weight.is_finite()) {
            return Err(DtError::config(format!(
                "query weight must be positive and finite, got {}",
                spec.weight
            )));
        }
        let stmt = parse_select(&spec.sql)?;
        let mut plan = Planner::new(&self.cfg.catalog).plan(&stmt)?;
        if self.cfg.override_windows {
            for s in &mut plan.streams {
                s.window = self.cfg.spec;
            }
        }
        let exec = QueryExecutor::new(vec![plan], self.cfg.mode)?.with_metrics(&self.metrics);
        if exec.spec() != self.cfg.spec {
            return Err(DtError::config(format!(
                "query window ({}) does not match the server window ({}); every query \
                 shares the server's sealing cadence",
                fmt_spec(exec.spec()),
                fmt_spec(self.cfg.spec),
            )));
        }
        let phys: Vec<usize> = exec
            .streams()
            .iter()
            .map(|s| {
                self.streams
                    .iter()
                    .position(|p| p.name == s.name)
                    .ok_or_else(|| {
                        DtError::config(format!("stream '{}' is not in the catalog", s.name))
                    })
            })
            .collect::<DtResult<_>>()?;
        let mut queries = self.queries.write().expect("registry lock poisoned");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let active_from = self.emit_cursor.load(Ordering::Relaxed);
        queries.push(RegisteredQuery {
            id,
            sql: spec.sql,
            tenant: spec.tenant,
            delay: spec.delay,
            weight: spec.weight,
            exec,
            phys,
            active_from,
            active_to: None,
            windows: AtomicU64::new(0),
            est_share_milli: AtomicU64::new(0),
            shed_share_milli: AtomicU64::new(0),
            gauges: QueryGauges::register(&self.metrics, id),
        });
        Ok(id)
    }

    /// Detach query `id` at the current window boundary, returning
    /// the first window it no longer covers. The entry remains (with
    /// `active_to` set) for final reporting.
    pub fn unregister(&self, id: QueryId) -> DtResult<WindowId> {
        let mut queries = self.queries.write().expect("registry lock poisoned");
        let q = queries
            .iter_mut()
            .find(|q| q.id == id)
            .ok_or_else(|| DtError::config(format!("unknown query id {id}")))?;
        if q.active_to.is_some() {
            return Err(DtError::config(format!(
                "query {id} is already unregistered"
            )));
        }
        let boundary = self.emit_cursor.load(Ordering::Relaxed).max(q.active_from);
        q.active_to = Some(boundary);
        Ok(boundary)
    }

    /// Frozen views of every query ever registered, in id order.
    pub fn list(&self) -> Vec<QueryInfo> {
        self.queries
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|q| q.info(&self.streams))
            .collect()
    }

    /// Number of currently registered (active) queries.
    pub fn num_active(&self) -> usize {
        self.queries
            .read()
            .expect("registry lock poisoned")
            .iter()
            .filter(|q| q.active_to.is_none())
            .count()
    }

    /// The tenant-lane configuration for physical stream `p`, for
    /// [`dt_triage::FairController::set_lanes`]: a catch-all lane for
    /// untagged traffic (carrying the tightest constraint among
    /// untenanted queries on the stream) followed by one lane per
    /// tenant with an active query reading the stream (tightest
    /// constraint, heaviest weight). Empty — meaning "fall back to
    /// the base controller" — when no active query on the stream has
    /// a tenant or a delay constraint.
    pub fn lanes_for_stream(&self, p: usize) -> Vec<LaneSpec> {
        let queries = self.queries.read().expect("registry lock poisoned");
        let mut lanes: Vec<LaneSpec> = vec![LaneSpec {
            name: "default".into(),
            weight: 1.0,
            constraint: None,
        }];
        let mut relevant = false;
        for q in queries
            .iter()
            .filter(|q| q.active_to.is_none() && q.phys.contains(&p))
        {
            match &q.tenant {
                None => {
                    if q.delay.is_some() {
                        relevant = true;
                        lanes[0].constraint = min_opt(lanes[0].constraint, q.delay);
                    }
                }
                Some(t) => {
                    relevant = true;
                    match lanes.iter_mut().find(|l| &l.name == t) {
                        Some(lane) => {
                            lane.constraint = min_opt(lane.constraint, q.delay);
                            lane.weight = lane.weight.max(q.weight);
                        }
                        None => lanes.push(LaneSpec {
                            name: t.clone(),
                            weight: q.weight,
                            constraint: q.delay,
                        }),
                    }
                }
            }
        }
        if relevant {
            lanes
        } else {
            Vec::new()
        }
    }

    /// The shard-routing key column for physical stream `p`: the
    /// stream-local column of the first active query that groups on
    /// exactly one column of this stream, or `None` (round-robin).
    ///
    /// Routing is a *locality heuristic*, not a correctness input
    /// (DESIGN.md §15): sharded seals re-sort rows by ingest sequence
    /// and every mergeable synopsis folds partition-independently, so
    /// the server fixes each stream's routing key at startup and
    /// later registrations simply inherit it.
    pub fn group_key_col(&self, p: usize) -> Option<usize> {
        let queries = self.queries.read().expect("registry lock poisoned");
        for q in queries.iter().filter(|q| q.active_to.is_none()) {
            let Some(plan) = q.exec.plan(0) else { continue };
            if plan.group_by.len() != 1 {
                continue;
            }
            let g = plan.group_by[0];
            for (k, b) in plan.streams.iter().enumerate() {
                if g >= b.offset && g < b.offset + b.schema.arity() {
                    if q.phys.get(k) == Some(&p) {
                        return Some(g - b.offset);
                    }
                    break;
                }
            }
        }
        None
    }

    /// Fan one sealed window out to every query active for it through
    /// [`dt_triage::fan_out`]: each stream some active query reads is
    /// converted to a columnar batch once, and every query's
    /// [`QueryExecutor::close`] reads its slice of the batches and
    /// synopses by reference. Returns `(QueryId, QueryClose)` pairs in
    /// id order and updates each query's gauges.
    ///
    /// Also advances the emit cursor to `window + 1` *before*
    /// enumerating, so a registration racing this call either misses
    /// `window` entirely or is included — never half-covered.
    pub fn close_window(
        &self,
        window: WindowId,
        inputs: WindowInputs<'_>,
    ) -> DtResult<Vec<(QueryId, QueryClose)>> {
        let n = self.streams.len();
        let n_pairs = inputs.pairs.map_or(n, <[SynPair]>::len);
        if inputs.counts.len() != n || inputs.rows.len() != n || n_pairs != n {
            return Err(DtError::config(format!(
                "close_window got {} count / {} row / {n_pairs} synopsis streams, registry has {n}",
                inputs.counts.len(),
                inputs.rows.len(),
            )));
        }
        self.emit_cursor.fetch_max(window + 1, Ordering::Relaxed);
        let queries = self.queries.read().expect("registry lock poisoned");
        let active: Vec<&RegisteredQuery> = queries.iter().filter(|q| q.covers(window)).collect();
        let queries = active.iter().map(|q| (&q.exec, 0, &q.phys[..]));
        let closes = fan_out(&self.streams, inputs.rows, inputs.pairs, queries)?;
        let mut out = Vec::with_capacity(closes.len());
        for (q, close) in active.into_iter().zip(closes) {
            q.windows.fetch_add(1, Ordering::Relaxed);
            q.gauges.windows.inc();
            let est = (close.estimated_share() * 1000.0).round() as u64;
            q.est_share_milli.store(est, Ordering::Relaxed);
            q.gauges.estimated_share.set(est as i64);
            let (kept, dropped) = q.phys.iter().fold((0u64, 0u64), |(k, d), &p| {
                (k + inputs.counts[p].0, d + inputs.counts[p].1)
            });
            let shed = if kept + dropped == 0 {
                0
            } else {
                (dropped as f64 / (kept + dropped) as f64 * 1000.0).round() as u64
            };
            q.shed_share_milli.store(shed, Ordering::Relaxed);
            q.gauges.shed_share.set(shed as i64);
            out.push((q.id, close));
        }
        Ok(out)
    }
}

fn min_opt(a: Option<DelayConstraint>, b: Option<DelayConstraint>) -> Option<DelayConstraint> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_synopsis::SynopsisConfig;
    use dt_types::{DataType, Schema, VDuration};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        c.add_stream("S", Schema::from_pairs(&[("b", DataType::Int)]));
        c
    }

    fn registry() -> QueryRegistry {
        QueryRegistry::new(
            RegistryConfig {
                catalog: catalog(),
                mode: ShedMode::DataTriage,
                spec: WindowSpec::new(VDuration::from_secs(1)).unwrap(),
                override_windows: false,
            },
            MetricsRegistry::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn physical_table_follows_catalog_order() {
        let r = registry();
        let names: Vec<&str> = r.streams().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["R", "S"]);
    }

    #[test]
    fn register_list_unregister_lifecycle() {
        let r = registry();
        let a = r
            .register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a"))
            .unwrap();
        let b = r
            .register(QuerySpec::new("SELECT b, SUM(b) FROM S GROUP BY b").tenant("acme"))
            .unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.num_active(), 2);
        let infos = r.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].streams, vec!["R"]);
        assert_eq!(infos[1].tenant.as_deref(), Some("acme"));
        assert!(infos.iter().all(|i| i.active()));
        let boundary = r.unregister(a).unwrap();
        assert_eq!(boundary, 0, "nothing emitted yet");
        assert_eq!(r.num_active(), 1);
        assert!(!r.list()[0].active());
        // Double unregister and unknown ids are structured errors.
        assert!(r.unregister(a).is_err());
        assert!(r.unregister(99).is_err());
        // Ids keep counting up; the dead entry's id is not recycled.
        let c = r
            .register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a"))
            .unwrap();
        assert_eq!(c, 2);
    }

    #[test]
    fn rejects_window_mismatch_naming_the_server_cadence() {
        let r = registry();
        let err = r
            .register(QuerySpec::new(
                "SELECT a, COUNT(*) FROM R GROUP BY a WINDOW R['5 seconds']",
            ))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("does not match the server window"), "{msg}");
        assert!(msg.contains("1.000000s tumbling"), "{msg}");
    }

    #[test]
    fn override_rewrites_instead_of_rejecting() {
        let cfg = RegistryConfig {
            catalog: catalog(),
            mode: ShedMode::DataTriage,
            spec: WindowSpec::new(VDuration::from_secs(1)).unwrap(),
            override_windows: true,
        };
        let r = QueryRegistry::new(cfg, MetricsRegistry::disabled()).unwrap();
        r.register(QuerySpec::new(
            "SELECT a, COUNT(*) FROM R GROUP BY a WINDOW R['5 seconds']",
        ))
        .unwrap();
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let r = registry();
        let err = r
            .register(QuerySpec::new("SELECT a,\n COUNT( FROM R GROUP BY a"))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn rejects_bad_weight_and_drop_only_passthrough() {
        let r = registry();
        assert!(r
            .register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a").weight(0.0))
            .is_err());
        assert!(r
            .register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a").weight(f64::NAN))
            .is_err());
    }

    type SealedInputs = (Vec<Vec<Row>>, Vec<SynPair>, Vec<(u64, u64)>);

    fn sealed_inputs(r: &QueryRegistry, per_stream: &[&[i64]], dropped: &[&[i64]]) -> SealedInputs {
        let cfg = SynopsisConfig::Sparse { cell_width: 1 };
        let mut rows = Vec::new();
        let mut pairs = Vec::new();
        let mut counts = Vec::new();
        for (i, s) in r.streams().iter().enumerate() {
            let mut pair = SynPair {
                kept: cfg.build(s.schema.arity()).unwrap(),
                dropped: cfg.build(s.schema.arity()).unwrap(),
            };
            let kept: Vec<Row> = per_stream[i]
                .iter()
                .map(|&v| Row::from_ints(&[v]))
                .collect();
            for row in &kept {
                pair.kept
                    .insert(&[row.values()[0].as_i64().unwrap()])
                    .unwrap();
            }
            for &v in dropped[i] {
                pair.dropped.insert(&[v]).unwrap();
            }
            pair.kept.seal();
            pair.dropped.seal();
            counts.push((kept.len() as u64, dropped[i].len() as u64));
            rows.push(kept);
            pairs.push(pair);
        }
        (rows, pairs, counts)
    }

    #[test]
    fn close_window_fans_out_and_respects_boundaries() {
        let r = registry();
        let q0 = r
            .register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a"))
            .unwrap();
        let (rows, pairs, counts) = sealed_inputs(&r, &[&[1, 1, 1], &[7]], &[&[1, 1], &[]]);
        let inputs = WindowInputs {
            rows: &rows,
            pairs: Some(&pairs),
            counts: &counts,
        };
        let out = r.close_window(0, inputs).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, q0);
        // 3 exact + 2 estimated = 5 for group a=1.
        match &out[0].1.payload {
            dt_triage::WindowPayload::Groups(g) => {
                assert!((g[&Row::from_ints(&[1])][0] - 5.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        assert!((out[0].1.estimated_share() - 0.4).abs() < 1e-9);
        assert_eq!(r.emit_cursor(), 1);

        // A second query registered now first appears in window 1 and
        // reads the same shared state.
        let q1 = r
            .register(QuerySpec::new("SELECT a, SUM(a) FROM R GROUP BY a"))
            .unwrap();
        let out = r.close_window(1, inputs).unwrap();
        let ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![q0, q1]);

        // Unregistering q0 stops it at the boundary: window 2 emits
        // only q1.
        let boundary = r.unregister(q0).unwrap();
        assert_eq!(boundary, 2);
        let out = r.close_window(2, inputs).unwrap();
        let ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![q1]);
        // Gauge snapshots: q0 saw 2 windows, q1 saw 2 so far.
        let infos = r.list();
        assert_eq!(infos[0].windows_emitted, 2);
        assert_eq!(infos[1].windows_emitted, 2);
        assert!((infos[1].shed_share - 0.4).abs() < 0.001, "2 of 5 shed");
    }

    #[test]
    fn close_window_validates_stream_counts() {
        let r = registry();
        r.register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a"))
            .unwrap();
        let err = r
            .close_window(
                0,
                WindowInputs {
                    rows: &[],
                    pairs: None,
                    counts: &[],
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("close_window"));
        // A short synopsis table, or short rows, is a structured error
        // too, not an index panic.
        let (rows, pairs, counts) = sealed_inputs(&r, &[&[1], &[2]], &[&[], &[]]);
        for (rows, pairs) in [(&rows[..], &pairs[..1]), (&rows[..1], &pairs[..])] {
            let inputs = WindowInputs {
                rows,
                pairs: Some(pairs),
                counts: &counts,
            };
            let err = r.close_window(0, inputs).unwrap_err();
            assert!(matches!(err, DtError::Config(_)), "{err}");
        }
    }

    #[test]
    fn close_window_rejects_short_tables_before_moving_the_cursor() {
        let r = registry();
        r.register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a"))
            .unwrap();
        let (rows, pairs, counts) = sealed_inputs(&r, &[&[1], &[2]], &[&[], &[]]);
        r.close_window(
            0,
            WindowInputs {
                rows: &rows,
                pairs: Some(&pairs),
                counts: &counts,
            },
        )
        .unwrap();
        assert_eq!(r.emit_cursor(), 1);
        for (rows, pairs) in [(&rows[..1], &pairs[..]), (&rows[..], &pairs[..1])] {
            let inputs = WindowInputs {
                rows,
                pairs: Some(pairs),
                counts: &counts,
            };
            let err = r.close_window(5, inputs).unwrap_err();
            assert!(matches!(err, DtError::Config(_)), "{err}");
            assert_eq!(r.emit_cursor(), 1, "a rejected close leaves the cursor");
        }
    }

    #[test]
    fn close_routes_a_from_list_out_of_catalog_order() {
        // R and T share a shape but not their rows, so a query handed
        // the batches or synopses in catalog order instead of through
        // its physical-stream map reads R as T and T as R.
        let mut catalog = Catalog::new();
        catalog.add_stream(
            "R",
            Schema::from_pairs(&[("a", DataType::Int), ("x", DataType::Int)]),
        );
        catalog.add_stream("S", Schema::from_pairs(&[("b", DataType::Int)]));
        catalog.add_stream(
            "T",
            Schema::from_pairs(&[("c", DataType::Int), ("y", DataType::Int)]),
        );
        let r = QueryRegistry::new(
            RegistryConfig {
                catalog,
                mode: ShedMode::DataTriage,
                spec: WindowSpec::new(VDuration::from_secs(1)).unwrap(),
                override_windows: false,
            },
            MetricsRegistry::disabled(),
        )
        .unwrap();
        let select = "SELECT R.a, COUNT(*), SUM(R.x), SUM(T.y)";
        let filter = "WHERE R.a = S.b AND S.b = T.c GROUP BY R.a";
        for from in ["R, S, T", "T, S, R"] {
            r.register(QuerySpec::new(format!("{select} FROM {from} {filter}")))
                .unwrap();
        }
        let kept: [&[[i64; 2]]; 3] = [
            &[[1, 10], [1, 20], [2, 30]],
            &[[1, 0], [2, 0], [2, 0]],
            &[[1, 100], [2, 200], [2, 300]],
        ];
        let dropped: [&[[i64; 2]]; 3] = [&[[2, 40]], &[[1, 0]], &[[1, 500], [2, 600]]];
        let cfg = SynopsisConfig::Sparse { cell_width: 1 };
        let mut rows = Vec::new();
        let mut pairs = Vec::new();
        let mut counts = Vec::new();
        for (i, s) in r.streams().iter().enumerate() {
            let arity = s.schema.arity();
            let mut pair = SynPair {
                kept: cfg.build(arity).unwrap(),
                dropped: cfg.build(arity).unwrap(),
            };
            for v in kept[i] {
                pair.kept.insert(&v[..arity]).unwrap();
            }
            for v in dropped[i] {
                pair.dropped.insert(&v[..arity]).unwrap();
            }
            pair.kept.seal();
            pair.dropped.seal();
            rows.push(
                kept[i]
                    .iter()
                    .map(|v| Row::from_ints(&v[..arity]))
                    .collect::<Vec<_>>(),
            );
            pairs.push(pair);
            counts.push((kept[i].len() as u64, dropped[i].len() as u64));
        }
        for (w, pairs) in [(0, None), (1, Some(&pairs[..]))] {
            let inputs = WindowInputs {
                rows: &rows,
                pairs,
                counts: &counts,
            };
            let out = r.close_window(w, inputs).unwrap();
            let groups = |c: &QueryClose| match &c.payload {
                dt_triage::WindowPayload::Groups(g) => g.clone(),
                other => panic!("{other:?}"),
            };
            let (catalog_order, reordered) = (&out[0].1, &out[1].1);
            let g = groups(catalog_order);
            if pairs.is_none() {
                // Exact only: a=1 joins two R rows with one S and one
                // T row; a=2 one R row with two S and two T rows.
                assert_eq!(g[&Row::from_ints(&[1])], vec![2.0, 30.0, 200.0]);
                assert_eq!(g[&Row::from_ints(&[2])], vec![4.0, 120.0, 1000.0]);
            } else {
                assert!(catalog_order.merged_mass > catalog_order.exact_mass);
            }
            assert_eq!(g, groups(reordered), "window {w}");
            assert_eq!(catalog_order.exact_mass, reordered.exact_mass);
            assert_eq!(catalog_order.merged_mass, reordered.merged_mass);
        }
    }

    #[test]
    fn lanes_derive_from_active_tenants() {
        let r = registry();
        // No queries: no lanes anywhere.
        assert!(r.lanes_for_stream(0).is_empty());
        // An untenanted query without a delay still means no lanes.
        r.register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a"))
            .unwrap();
        assert!(r.lanes_for_stream(0).is_empty());
        // Tenants on R only.
        let d20 = DelayConstraint::from_millis(20).unwrap();
        let d50 = DelayConstraint::from_millis(50).unwrap();
        let qa = r
            .register(
                QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a")
                    .tenant("acme")
                    .delay(d50)
                    .weight(2.0),
            )
            .unwrap();
        r.register(
            QuerySpec::new("SELECT a, SUM(a) FROM R GROUP BY a")
                .tenant("acme")
                .delay(d20),
        )
        .unwrap();
        r.register(QuerySpec::new("SELECT a, COUNT(*) FROM R GROUP BY a").tenant("borg"))
            .unwrap();
        let lanes = r.lanes_for_stream(0);
        assert_eq!(lanes.len(), 3, "catch-all + acme + borg");
        assert_eq!(lanes[0].name, "default");
        let acme = lanes.iter().find(|l| l.name == "acme").unwrap();
        assert_eq!(acme.constraint, Some(d20), "tightest constraint wins");
        assert_eq!(acme.weight, 2.0, "heaviest weight wins");
        assert_eq!(
            lanes.iter().find(|l| l.name == "borg").unwrap().constraint,
            None
        );
        // S has no tenanted queries.
        assert!(r.lanes_for_stream(1).is_empty());
        // Unregistering one acme query relaxes the constraint.
        r.unregister(qa).unwrap();
        let lanes = r.lanes_for_stream(0);
        let acme = lanes.iter().find(|l| l.name == "acme").unwrap();
        assert_eq!(acme.constraint, Some(d20));
        assert_eq!(acme.weight, 1.0, "the heavy registration is gone");
    }
}
