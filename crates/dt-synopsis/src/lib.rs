//! Synopsis data structures for Data Triage.
//!
//! The paper (§5.2.2) demands two things of a synopsis used in the
//! triage path:
//!
//! 1. inserting a tuple must be much cheaper than fully processing it,
//!    and
//! 2. the structure must support fast relational operations — above
//!    all equijoin — producing compact synopses of the results.
//!
//! Implemented structures:
//!
//! * [`SparseHist`] — the paper's workhorse: a sparse multidimensional
//!   histogram with **cubic, grid-aligned buckets**. Aligned buckets
//!   make the equijoin linear in the number of occupied cells.
//! * [`MHist`] — an MHIST multidimensional histogram using the
//!   **MAXDIFF** bucket-split heuristic (Poosala & Ioannidis), the
//!   structure the paper found more accurate per byte but too slow:
//!   joining histograms with unaligned bucket boundaries produces a
//!   quadratic number of intersection buckets. An *aligned* variant
//!   (split boundaries snapped to a grid — the constrained MHIST the
//!   paper's §8.1 proposes as future work) is available via
//!   [`MHistConfig::alignment`].
//! * [`ReservoirSample`] — a uniform bottom-k sample with a scale
//!   factor, included as the §8.1 "additional synopsis type" and as an
//!   ablation baseline.
//! * [`AdaptiveSparse`] — a sparse histogram that coarsens its grid 2×
//!   whenever it would exceed a cell budget: the only structure with a
//!   memory bound, and the "adaptive" of the title applied to synopsis
//!   resolution.
//!
//! All structures are wrapped by the [`Synopsis`] enum, which exposes
//! the closed set of operations the shadow query plan needs: `insert`,
//! `project`, `union_all`, `equijoin`, `select_range`, and grouped
//! count/sum estimation. Binary operations require both operands to be
//! the same structure (as in the paper, where each run picks one
//! synopsis datatype); sparse and adaptive grids mix, on the coarser
//! of their widths.
//!
//! Sharded execution (DESIGN.md §15) adds a second axis: *tagged*
//! inserts ([`Synopsis::insert_tagged`]) carry per-stream arrival
//! sequence numbers, and [`Synopsis::merge_from`] folds per-shard
//! partial synopses into one that is bit-identical to a single-writer
//! synopsis — for every kind: sparse and adaptive grids by cell-mass
//! addition, MHISTs by tag order, reservoirs by bottom-k union.

#![deny(missing_docs)]

pub mod adaptive;
pub mod mhist;
pub mod reservoir;
pub mod sparse;
pub mod synopsis;

pub use adaptive::AdaptiveSparse;
pub use mhist::{MHist, MHistConfig};
pub use reservoir::ReservoirSample;
pub use sparse::SparseHist;
pub use synopsis::{GroupEstimate, Synopsis, SynopsisConfig};
