//! A miniature TelegraphCQ-style stream query engine.
//!
//! This crate is the *standard-case* query processor of the paper's
//! Figure 1: it consumes the tuples the triage queues deliver and
//! computes exact windowed results for a planned continuous query.
//! It deliberately models what the Data Triage evaluation needs — no
//! more:
//!
//! * **Exact window execution** ([`execute_window`]): left-deep hash
//!   joins per the plan's [`dt_query::JoinGraph`], residual predicate
//!   filtering, grouped aggregation (COUNT/SUM/AVG/MIN/MAX) or plain
//!   projection with optional DISTINCT.
//! * **A virtual-clock cost model** ([`CostModel`]): the engine's
//!   capacity is a per-tuple service time, the knob the experiments
//!   sweep against the arrival rate (DESIGN.md §3 documents this
//!   substitution for the paper's real Pentium 3 testbed).
//!
//! The load-shedding orchestration — triage queues, drop policies,
//! per-window buffering of kept rows, shadow-query evaluation,
//! merging — lives one layer up in `dt-triage`, whose `StreamTriage`
//! hands each sealed window's rows to [`execute_window_cols`] as
//! `ColumnBatch`es.

pub mod aggregate;
pub mod batch_exec;
pub mod cost;
pub mod exec;
pub mod obs;

pub use aggregate::AggState;
pub use batch_exec::execute_window_cols;
pub use cost::CostModel;
pub use exec::{execute_window, execute_window_ref, execute_window_rows, AggValue, WindowOutput};
pub use obs::ExecMetrics;
