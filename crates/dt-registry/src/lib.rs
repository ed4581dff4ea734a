//! Runtime query registry: many continuous queries over shared
//! per-stream triage.
//!
//! TelegraphCQ is a *multi-query* system — clients walk up to a
//! running server, register a continuous query, read results for a
//! while, and walk away, all without restarting the dataflow. This
//! crate supplies that lifecycle for the Data Triage runtime:
//!
//! * [`QueryRegistry::register`] compiles a TCQ-dialect statement
//!   (through `dt-query` planning and `dt-rewrite` shadow rewriting)
//!   into a main + shadow plan and attaches it to the physical
//!   streams it reads, effective from the next emitted window.
//! * [`QueryRegistry::unregister`] detaches a query at a window
//!   boundary: the window being emitted when the call lands is the
//!   last one the query reports, so a consumer never sees a torn,
//!   partially-covered window.
//! * [`QueryRegistry::close_window`] fans one sealed window — the
//!   per-stream kept rows and kept/dropped synopses the server's
//!   workers produced — out to every query active for that window,
//!   by reference, through [`dt_triage::fan_out`], the window close
//!   the simulator uses too. The registry adds the emit cursor that
//!   picks the active queries and each query's gauges.
//!
//! # The shared-triage invariant
//!
//! All queries over a stream share that stream's triage: its bounded
//! queue, its kept/dropped synopses, and its adaptive controller.
//! Admitting a tuple and folding it into synopses is paid **once per
//! stream**, never once per query — registering the tenth query over
//! a busy stream adds only its (window-close) execution cost, not
//! another pass over the firehose. The witness is the per-stream
//! `dt_triage_synopsis_inserts_total` counter, which is independent
//! of the number of attached queries.
//!
//! # Tenants and weighted-fair shedding
//!
//! A registration may carry a tenant name, a fair-share weight, and a
//! per-tenant delay constraint. [`QueryRegistry::lanes_for_stream`]
//! derives, for each physical stream, the tenant-lane configuration a
//! [`dt_triage::FairController`] needs: one catch-all lane for
//! untagged traffic plus one lane per tenant with an active query on
//! that stream. The stream's effective delay constraint is the
//! minimum over all its lanes', and shedding is apportioned by
//! weighted-fair water-filling, so one tenant's burst cannot starve
//! another tenant's accuracy.

mod registry;
mod spec;

pub use registry::{QueryRegistry, RegistryConfig, WindowInputs};
pub use spec::{QueryId, QueryInfo, QuerySpec};
