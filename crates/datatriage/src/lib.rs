//! # Data Triage
//!
//! A from-scratch Rust reproduction of *Data Triage: An Adaptive
//! Architecture for Load Shedding in TelegraphCQ* (Reiss &
//! Hellerstein, ICDE 2005): a continuous-query engine whose triage
//! queues shed load under bursts, summarize what they shed into
//! multidimensional-histogram synopses, estimate the lost results with
//! a formally derived *shadow query*, and merge exact and estimated
//! answers into one composite result per window.
//!
//! This crate is the public facade: it re-exports every layer of the
//! workspace under one roof and is the only dependency a downstream
//! user needs.
//!
//! ## Quickstart
//!
//! ```
//! use datatriage::prelude::*;
//!
//! // 1. Declare the streams and the continuous query (Fig. 7 of the
//! //    paper).
//! let mut catalog = Catalog::new();
//! catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
//! catalog.add_stream("S", Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]));
//! catalog.add_stream("T", Schema::from_pairs(&[("d", DataType::Int)]));
//! let stmt = parse_select(
//!     "SELECT a, COUNT(*) as count FROM R,S,T \
//!      WHERE R.a = S.b AND S.c = T.d GROUP BY a \
//!      WINDOW R['1 second'], S['1 second'], T['1 second']",
//! ).unwrap();
//! let plan = Planner::new(&catalog).plan(&stmt).unwrap();
//!
//! // 2. Build a Data Triage pipeline.
//! let cfg = PipelineConfig::new(ShedMode::DataTriage);
//! let mut pipeline = Pipeline::new(plan, cfg).unwrap();
//!
//! // 3. Feed arrivals (here: a seeded synthetic workload) and read
//! //    the merged per-window results.
//! let workload = WorkloadConfig::paper_constant(2_000.0, 2_000, 42);
//! for (stream, tuple) in generate(&workload).unwrap() {
//!     pipeline.offer(stream, tuple).unwrap();
//! }
//! let report = pipeline.finish().unwrap();
//! assert!(report.totals.arrived > 0);
//! for window in &report.windows {
//!     let _groups = window.groups().unwrap();
//! }
//! ```
//!
//! ## Layer map
//!
//! | Re-export | Crate | Paper section |
//! |---|---|---|
//! | [`types`] | `dt-types` | data model, virtual time |
//! | [`algebra`] | `dt-algebra` | §3 differential relational algebra |
//! | [`synopsis`] | `dt-synopsis` | §5.2.2 synopsis structures |
//! | [`query`] | `dt-query` | Fig. 7 query dialect, EXPLAIN, join-order optimizer |
//! | [`rewrite`] | `dt-rewrite` | §4 shadow-query rewrite |
//! | [`engine`] | `dt-engine` | standard-case query engine |
//! | [`triage`] | `dt-triage` | Fig. 1 architecture, §5.2.1 modes, §8.1 shared multi-query pipeline |
//! | [`workload`] | `dt-workload` | §6.2 workloads |
//! | [`metrics`] | `dt-metrics` | §6.3 RMS metric, Fig. 8/9 sweeps |
//! | [`server`] | `dt-server` | the TelegraphCQ role: a live, concurrent runtime serving triage over TCP |
//! | [`obs`] | `dt-obs` | low-overhead metrics registry, histograms, Prometheus exposition |

pub use dt_algebra as algebra;
pub use dt_engine as engine;
pub use dt_metrics as metrics;
pub use dt_obs as obs;
pub use dt_query as query;
pub use dt_rewrite as rewrite;
pub use dt_server as server;
pub use dt_synopsis as synopsis;
pub use dt_triage as triage;
pub use dt_types as types;
pub use dt_workload as workload;

/// The names most programs need, in one import.
pub mod prelude {
    pub use dt_engine::{execute_window, AggValue, CostModel, WindowOutput};
    pub use dt_metrics::{
        ideal_map, rate_sweep, report_to_map, rms_error, MeanStd, RatePoint, ResultMap, RunSummary,
        SweepConfig,
    };
    pub use dt_obs::MetricsRegistry;
    pub use dt_query::{parse_select, Catalog, Planner, QueryPlan};
    pub use dt_rewrite::{evaluate, rewrite_dropped, ShadowQuery, SynPlan};
    pub use dt_server::{
        fetch_stats, run_source, Client, Server, ServerConfig, ServerHandle, ServerReport, Source,
        TraceSource,
    };
    pub use dt_synopsis::{Synopsis, SynopsisConfig};
    pub use dt_triage::{
        DelayConstraint, DropPolicy, Pipeline, PipelineConfig, RunReport, ShedMode, TriageQueue,
        WindowPayload, WindowResult,
    };
    pub use dt_types::{
        Clock, DataType, DtError, DtResult, MonotonicClock, Row, Schema, Timestamp, Tuple,
        VDuration, Value, VirtualClock, WindowSpec,
    };
    pub use dt_workload::{generate, replay, ArrivalModel, Gaussian, StreamSpec, WorkloadConfig};
}
