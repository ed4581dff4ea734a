//! The Data Triage load-shedding layer — the paper's Figure 1,
//! assembled end to end.
//!
//! # The pipeline, stage by stage
//!
//! Arrivals flow through five stages, each a type in this crate:
//!
//! 1. **[`TriageQueue`]** (paper Fig. 1) — the bounded queue between
//!    each data source and the query engine. When it overflows — or
//!    when the adaptive [`SharedController`] says the backlog can no
//!    longer drain within the delay constraint — a victim must go.
//! 2. **[`DropPolicy`]** (§5.2.3) — chooses the victim: the incoming
//!    tuple (`Newest`), the oldest (`Front`), a uniform pick
//!    (`Random`), or one the dropped synopsis already covers
//!    (`Synergistic`).
//! 3. **Synopsis fold** (§5.1–5.2) — in Data Triage mode the victim
//!    is folded into the window's *dropped* synopsis
//!    ([`dt_synopsis::Synopsis`]) instead of vanishing, while every
//!    tuple the engine processes is folded into the *kept* synopsis,
//!    so the shadow plan never joins a synopsis against raw tuples.
//! 4. **Shadow plan** (§5.1) — at window close, the rewritten query
//!    ([`dt_rewrite::ShadowQuery`]) estimates what the dropped tuples
//!    would have contributed.
//! 5. **[`merge`]** (§5.3) — exact per-group aggregates from kept
//!    tuples are combined with the shadow estimates into one
//!    [`WindowResult`] (the role the paper's web front-end played).
//!
//! # Runtimes over the stages
//!
//! * [`StreamTriage`] / [`QueryExecutor`] — the per-stream fold/seal
//!   state and the stateless window-close half, joined by
//!   [`gather_seals`] and [`fan_out`] ([`close`]), the one window
//!   close. Every runtime folds, seals and closes through these, so
//!   the runtimes differ only in their clock and their threads.
//! * [`SharedPipeline`] (and its one-query facade [`Pipeline`]) — the
//!   single-threaded virtual-clock simulation: a driver over
//!   per-stream [`TriageQueue`]s, an engine that consumes at its
//!   [`dt_engine::CostModel`] service rate, and one `StreamTriage` per
//!   stream. Every experiment is bit-reproducible from a seed.
//!   `SharedPipeline` runs many queries over shared streams and
//!   shared synopses (§8.1).
//! * The threaded `dt-server` runtime drives the same `StreamTriage`
//!   from worker threads and the same window close from its merger
//!   thread.
//!
//! # Choosing *when* to shed
//!
//! * [`ShedMode`] — the three methodologies of §5.2.1 sharing one
//!   codebase: `DropOnly` (victims discarded, no synopses),
//!   `SummarizeOnly` (queue bypassed, everything approximate), and
//!   `DataTriage` (the full architecture).
//! * [`SharedController`] (§4–5, DESIGN.md §11) — the *adaptive* part
//!   of "an adaptive architecture": a [`DelayConstraint`] plus EWMA
//!   cost estimates yield the dynamic triage threshold and a smooth
//!   shedding ramp, turning the fixed queue bound into a latency
//!   contract. Both runtimes drive this one controller; they differ
//!   only in the backlog they report to it. [`FairController`] splits
//!   a stream's shedding across tenant lanes.
//!
//! # Scaling a stream past one core
//!
//! * [`ShardRouter`] / [`ShardQueues`] / [`merge_sealed`] /
//!   [`ShardedStream`] (DESIGN.md §15) — partition a hot stream's
//!   triage across a per-core worker group (group-key hash or
//!   round-robin), steal batches across shards under skew, and fold
//!   the per-shard seals back into windows bit-identical to a
//!   single worker's.

#![deny(missing_docs)]

pub mod close;
pub mod controller;
pub mod executor;
pub mod merge;
pub mod obs;
pub mod pipeline;
pub mod policy;
pub mod queue;
pub mod shard;
pub mod shared;
pub mod shed;
pub mod stream;
mod winmap;

pub use close::{fan_out, gather_seals, GatheredWindow};
pub use controller::{
    ControllerState, DelayConstraint, FairController, LaneSpec, LaneState, SharedController,
    ShedDecision, FAIR_EPOCH,
};
pub use executor::{QueryClose, QueryExecutor, SharedStream, SynPair};
pub use merge::{merge_window, MergedGroups};
pub use obs::{ControllerGauges, StreamObs, TriageObs};
pub use pipeline::{Pipeline, PipelineConfig, RunReport, RunTotals, WindowPayload, WindowResult};
pub use policy::DropPolicy;
pub use queue::TriageQueue;
pub use shard::{merge_sealed, ShardQueues, ShardRouter, ShardedStream};
pub use shared::SharedPipeline;
pub use shed::ShedMode;
pub use stream::{SealedWindow, StreamTriage};
