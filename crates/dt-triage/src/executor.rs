//! Window-close execution, factored out of the simulation pipeline.
//!
//! [`QueryExecutor`] owns everything about a set of registered queries
//! that is *stateless across windows*: the planned queries, their
//! shadow rewrites, the mapping from each query's FROM positions to
//! shared physical streams, and the merge of exact and estimated
//! results. Given one window's sealed per-stream state — kept rows
//! plus kept/dropped synopses — it produces each query's
//! [`WindowPayload`].
//!
//! Every runtime reaches it through one fan-out, [`crate::fan_out`]:
//!
//! * [`crate::SharedPipeline`], the virtual-time simulation, closes
//!   all its queries through one multi-plan executor, and
//! * `dt-server`'s merger thread closes windows sealed by per-stream
//!   worker threads against a wall clock, through one single-plan
//!   executor per query of `dt-registry`'s `QueryRegistry`.
//!
//! Because the executor holds no mutable state, a server can call it
//! from any thread behind an `Arc` without locking.

use dt_engine::{ExecMetrics, WindowOutput};
use dt_obs::MetricsRegistry;
use dt_query::QueryPlan;
use dt_rewrite::{evaluate_ref, rewrite_dropped, ShadowQuery};
use dt_synopsis::Synopsis;
use dt_types::{ColumnBatch, DtError, DtResult, Row, Schema, WindowSpec};

use crate::merge::merge_window;
use crate::pipeline::WindowPayload;
use crate::shed::ShedMode;

/// One physical stream shared by the registered queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedStream {
    /// Catalog stream name.
    pub name: String,
    /// The stream's (unqualified) schema.
    pub schema: Schema,
}

/// A window's kept/dropped synopsis pair for one physical stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SynPair {
    /// Summary of tuples delivered to the exact engine.
    pub kept: Synopsis,
    /// Summary of tuples shed before the engine.
    pub dropped: Synopsis,
}

/// One query's closed window plus the mass accounting behind the
/// per-query accuracy-proxy gauge.
#[derive(Debug, Clone)]
pub struct QueryClose {
    /// The window's merged results.
    pub payload: WindowPayload,
    /// Total |value| mass of the exact (kept-tuple) result: summed
    /// absolute aggregate values for grouping queries, the output row
    /// count otherwise.
    pub exact_mass: f64,
    /// Total |value| mass of the merged result (exact + estimate),
    /// measured before HAVING filters groups.
    pub merged_mass: f64,
}

impl QueryClose {
    /// The fraction of the merged mass contributed by synopsis
    /// estimation rather than exact execution, in `[0, 1]` — a cheap
    /// per-window proxy for relative RMS error (0 = fully exact).
    pub fn estimated_share(&self) -> f64 {
        if self.merged_mass <= 0.0 {
            0.0
        } else {
            (1.0 - self.exact_mass / self.merged_mass).clamp(0.0, 1.0)
        }
    }
}

/// Per-query compiled state.
#[derive(Debug, Clone)]
struct QueryRuntime {
    plan: QueryPlan,
    shadow: Option<ShadowQuery>,
    /// Plan FROM-position → shared stream index.
    stream_map: Vec<usize>,
}

/// Stateless window-close execution over shared physical streams. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct QueryExecutor {
    streams: Vec<SharedStream>,
    queries: Vec<QueryRuntime>,
    spec: WindowSpec,
    /// Engine instruments ([`ExecMetrics::default`] = disabled).
    metrics: ExecMetrics,
}

impl QueryExecutor {
    /// Compile one or more planned queries against shared streams.
    ///
    /// Physical streams are derived from the plans' catalog stream
    /// names, in first-appearance order; queries referencing the same
    /// stream name share its rows and synopses. All streams of all
    /// queries must use one window width; synopsis modes additionally
    /// require integer columns and rewritable queries.
    pub fn new(plans: Vec<QueryPlan>, mode: ShedMode) -> DtResult<Self> {
        if plans.is_empty() {
            return Err(DtError::config("executor needs at least one query"));
        }
        if plans[0].streams.is_empty() {
            return Err(DtError::config("query has no streams"));
        }
        let spec = plans[0].streams[0].window;
        let mut streams: Vec<SharedStream> = Vec::new();
        let mut queries = Vec::with_capacity(plans.len());
        for plan in plans {
            if plan.streams.is_empty() {
                return Err(DtError::config("query has no streams"));
            }
            let mut stream_map = Vec::with_capacity(plan.streams.len());
            for binding in &plan.streams {
                if binding.window != spec {
                    return Err(DtError::config("all queries must share one window width"));
                }
                // Physical identity is the catalog stream name.
                let unqualified = Schema::new(
                    binding
                        .schema
                        .fields()
                        .iter()
                        .map(|f| dt_types::Field::new(f.name.clone(), f.ty))
                        .collect(),
                );
                let idx = match streams.iter().position(|s| s.name == binding.stream) {
                    Some(i) => {
                        if streams[i].schema != unqualified {
                            return Err(DtError::config(format!(
                                "stream '{}' bound with conflicting schemas",
                                binding.stream
                            )));
                        }
                        i
                    }
                    None => {
                        streams.push(SharedStream {
                            name: binding.stream.clone(),
                            schema: unqualified,
                        });
                        streams.len() - 1
                    }
                };
                stream_map.push(idx);
            }
            let shadow = if mode.uses_synopses() {
                for s in &plan.streams {
                    for f in s.schema.fields() {
                        if f.ty != dt_types::DataType::Int {
                            return Err(DtError::config(format!(
                                "synopsis modes require integer columns; {} is {}",
                                f.qualified_name(),
                                f.ty
                            )));
                        }
                    }
                }
                if plan.group_by.len() > 1 && plan.is_aggregating() {
                    // merge_window would reject this at the first
                    // window close; fail fast instead.
                    return Err(DtError::config(
                        "synopsis modes support at most one GROUP BY column",
                    ));
                }
                Some(rewrite_dropped(&plan)?)
            } else {
                None
            };
            queries.push(QueryRuntime {
                plan,
                shadow,
                stream_map,
            });
        }
        Ok(QueryExecutor {
            streams,
            queries,
            spec,
            metrics: ExecMetrics::default(),
        })
    }

    /// Record window-execution latency and join fan-out on `reg`.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> Self {
        self.metrics = ExecMetrics::register(reg);
        self
    }

    /// The shared physical streams, in index order.
    pub fn streams(&self) -> &[SharedStream] {
        &self.streams
    }

    /// The (single) window spec every query uses.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Query `q`'s plan.
    pub fn plan(&self, q: usize) -> Option<&QueryPlan> {
        self.queries.get(q).map(|r| &r.plan)
    }

    /// Query `q`'s shadow query, when the mode uses one.
    pub fn shadow(&self, q: usize) -> Option<&ShadowQuery> {
        self.queries.get(q).and_then(|r| r.shadow.as_ref())
    }

    /// Query `q`'s compiled state.
    fn query(&self, q: usize) -> DtResult<&QueryRuntime> {
        self.queries
            .get(q)
            .ok_or_else(|| DtError::config(format!("unknown query {q}")))
    }

    /// Route a per-stream table (`table[i]` belongs to executor stream
    /// `i`) to `query`'s FROM positions; aliased self-joins read the
    /// same entry by reference. A table that does not cover exactly
    /// the executor's streams is a structured error, not a panic.
    fn route<'a, T: ?Sized>(
        &self,
        query: &QueryRuntime,
        table: &[&'a T],
        what: &str,
    ) -> DtResult<Vec<&'a T>> {
        if table.len() != self.streams.len() {
            return Err(DtError::config(format!(
                "{what} got {} streams, executor has {}",
                table.len(),
                self.streams.len()
            )));
        }
        Ok(query.stream_map.iter().map(|&si| table[si]).collect())
    }

    /// Exact execution of query `q` over one window's kept rows
    /// (`shared_rows[i]` holds physical stream `i`'s rows): a row
    /// adapter that converts each stream with
    /// [`ColumnBatch::from_rows`], then runs the columnar executor.
    pub fn exact_batch(&self, q: usize, shared_rows: &[Vec<Row>]) -> DtResult<WindowOutput> {
        let query = self.query(q)?;
        let cols: Vec<ColumnBatch> = self
            .streams
            .iter()
            .zip(shared_rows)
            .map(|(s, rows)| ColumnBatch::from_rows(s.schema.arity(), rows))
            .collect();
        let shared: Vec<&ColumnBatch> = cols.iter().collect();
        let inputs = self.route(query, &shared, "exact_batch")?;
        self.metrics.execute_window_cols(&query.plan, &inputs)
    }

    /// Combine query `q`'s exact window output with the shadow
    /// estimate over the sealed per-stream synopses, apply HAVING to
    /// the merged values, and build the window's payload.
    pub fn payload(
        &self,
        q: usize,
        exact: WindowOutput,
        pairs: Option<&[SynPair]>,
    ) -> DtResult<WindowPayload> {
        let pairs: Option<Vec<&SynPair>> = pairs.map(|p| p.iter().collect());
        Ok(self
            .finish(self.query(q)?, exact, pairs.as_deref())?
            .payload)
    }

    /// Close one window for query `q`: columnar exact execution, shadow
    /// estimation over the sealed synopses, merge. `shared[i]` and
    /// `pairs[i]` belong to executor stream `i` and are borrowed, so a
    /// caller fanning one sealed window out to many queries clones no
    /// batch or synopsis.
    pub fn close(
        &self,
        q: usize,
        shared: &[&ColumnBatch],
        pairs: Option<&[&SynPair]>,
    ) -> DtResult<QueryClose> {
        let query = self.query(q)?;
        let inputs = self.route(query, shared, "close")?;
        let exact = self.metrics.execute_window_cols(&query.plan, &inputs)?;
        self.finish(query, exact, pairs)
    }

    /// Estimate the lost results with the shadow plan, which reads the
    /// shared synopses in place, then merge them into the exact output.
    fn finish(
        &self,
        query: &QueryRuntime,
        exact: WindowOutput,
        pairs: Option<&[&SynPair]>,
    ) -> DtResult<QueryClose> {
        let estimate = match (&query.shadow, pairs) {
            (Some(shadow), Some(pairs)) => {
                let pairs = self.route(query, pairs, "synopsis pairs")?;
                let kept: Vec<&Synopsis> = pairs.iter().map(|p| &p.kept).collect();
                let dropped: Vec<&Synopsis> = pairs.iter().map(|p| &p.dropped).collect();
                Some(evaluate_ref(&shadow.plan, &kept, &dropped)?)
            }
            _ => None,
        };
        Self::build_payload(query, exact, estimate)
    }

    /// Merge one query's exact output with its estimate, apply HAVING
    /// to the merged values, and account the exact/merged masses the
    /// accuracy-proxy gauge reports.
    fn build_payload(
        query: &QueryRuntime,
        exact: WindowOutput,
        estimate: Option<Synopsis>,
    ) -> DtResult<QueryClose> {
        if query.plan.is_aggregating() || !query.plan.group_by.is_empty() {
            let exact_mass: f64 = exact
                .groups()
                .map(|g| {
                    g.values()
                        .map(|aggs| aggs.iter().map(|a| a.value.abs()).sum::<f64>())
                        .sum()
                })
                .unwrap_or(0.0);
            let mut merged = match (&query.shadow, &estimate) {
                (Some(sh), Some(est)) => merge_window(&query.plan, sh, &exact, Some(est))?,
                (Some(sh), None) => merge_window(&query.plan, sh, &exact, None)?,
                (None, _) => exact
                    .groups()
                    .map(|g| {
                        g.iter()
                            .map(|(k, v)| (k.clone(), v.iter().map(|a| a.value).collect()))
                            .collect()
                    })
                    .unwrap_or_default(),
            };
            let merged_mass: f64 = merged
                .values()
                .map(|vals| vals.iter().map(|v| v.abs()).sum::<f64>())
                .sum();
            // HAVING applies to the *final* (merged) values, so an
            // estimated contribution can push a group over the
            // threshold, exactly as processing the dropped tuples
            // would have.
            if !query.plan.having.is_empty() {
                merged.retain(|_, vals| query.plan.having_accepts(vals));
            }
            Ok(QueryClose {
                payload: WindowPayload::Groups(merged),
                exact_mass,
                merged_mass,
            })
        } else {
            let rows = match exact {
                WindowOutput::Rows(r) => r,
                WindowOutput::Groups(_) => {
                    return Err(DtError::engine(
                        "grouped output from a non-aggregating plan",
                    ))
                }
            };
            let exact_mass = rows.len() as f64;
            let lost_mass = estimate.as_ref().map(|s| s.total_mass()).unwrap_or(0.0);
            Ok(QueryClose {
                payload: WindowPayload::Rows {
                    rows,
                    lost: estimate,
                },
                exact_mass,
                merged_mass: exact_mass + lost_mass,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_query::{parse_select, Catalog, Planner};
    use dt_synopsis::SynopsisConfig;
    use dt_types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        c
    }

    fn plan(sql: &str) -> QueryPlan {
        Planner::new(&catalog())
            .plan(&parse_select(sql).unwrap())
            .unwrap()
    }

    /// The COUNT query over a window of three kept and two dropped
    /// `a = 1` tuples.
    fn count_window() -> (QueryExecutor, Vec<Vec<Row>>, Vec<SynPair>) {
        let exec = QueryExecutor::new(
            vec![plan("SELECT a, COUNT(*) FROM R GROUP BY a")],
            ShedMode::DataTriage,
        )
        .unwrap();
        let cfg = SynopsisConfig::Sparse { cell_width: 1 };
        let mut pairs = vec![SynPair {
            kept: cfg.build(1).unwrap(),
            dropped: cfg.build(1).unwrap(),
        }];
        for _ in 0..2 {
            pairs[0].dropped.insert(&[1]).unwrap();
        }
        for _ in 0..3 {
            pairs[0].kept.insert(&[1]).unwrap();
        }
        for p in &mut pairs {
            p.kept.seal();
            p.dropped.seal();
        }
        (exec, vec![vec![Row::from_ints(&[1]); 3]], pairs)
    }

    #[test]
    fn close_merges_exact_and_estimated_counts() {
        let (exec, rows, pairs) = count_window();
        let cols = ColumnBatch::from_rows(1, &rows[0]);
        let pair_refs: Vec<&SynPair> = pairs.iter().collect();
        let close = exec.close(0, &[&cols], Some(&pair_refs)).unwrap();
        let exact = exec.exact_batch(0, &rows).unwrap();
        match (
            &close.payload,
            exec.payload(0, exact, Some(&pairs)).unwrap(),
        ) {
            (WindowPayload::Groups(g), WindowPayload::Groups(h)) => {
                assert!((g[&Row::from_ints(&[1])][0] - 5.0).abs() < 1e-9);
                assert_eq!(g, &h, "row adapter + payload agree with close");
            }
            other => panic!("{other:?}"),
        }
        // 3 exact + 2 estimated of the 5 merged: 40% estimated.
        assert!((close.exact_mass - 3.0).abs() < 1e-9);
        assert!((close.merged_mass - 5.0).abs() < 1e-9);
        assert!((close.estimated_share() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn stream_count_mismatch_rejected() {
        let (exec, rows, _) = count_window();
        let cols = ColumnBatch::from_rows(1, &rows[0]);
        let exact = exec.exact_batch(0, &rows).unwrap();
        // Short rows, batches and synopsis pairs are structured errors,
        // not index panics.
        for err in [
            exec.exact_batch(0, &[]).unwrap_err(),
            exec.close(0, &[], None).unwrap_err(),
            exec.close(0, &[&cols], Some(&[])).unwrap_err(),
            exec.payload(0, exact, Some(&[])).unwrap_err(),
        ] {
            assert!(matches!(err, DtError::Config(_)), "{err}");
        }
    }

    #[test]
    fn empty_plan_list_rejected() {
        assert!(QueryExecutor::new(vec![], ShedMode::DropOnly).is_err());
    }
}
