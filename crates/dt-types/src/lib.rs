//! Core data model for the Data Triage reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Value`] — a dynamically typed SQL value with total ordering and
//!   hashing (floats are compared by bit pattern so rows can live in
//!   multiset maps).
//! * [`Row`] / [`Tuple`] — a row of values, and a row stamped with a
//!   virtual arrival [`Timestamp`].
//! * [`Schema`] / [`Field`] / [`DataType`] — stream schemas with
//!   qualified column resolution (`R.a`).
//! * [`Timestamp`] / [`VDuration`] — integer-microsecond virtual time.
//!   All experiments run on a virtual clock so they are exactly
//!   reproducible from a seed (see `DESIGN.md` §5).
//! * [`WindowSpec`] — per-stream time windows in the style of
//!   TelegraphCQ's `WINDOW R['1 second']` clause.
//! * [`Clock`] — the wall-clock boundary for the server runtime:
//!   [`MonotonicClock`] in production, [`VirtualClock`] in tests.
//! * [`ColumnBatch`] / [`Column`] — columnar window batches (one typed
//!   vector per field plus a validity mask) backing the vectorized
//!   execution path (see `DESIGN.md` §13).
//! * [`DtError`] — the workspace-wide error type.

#![deny(missing_docs)]

pub mod batch;
pub mod clock;
pub mod error;
pub mod hash;
pub mod json;
pub mod row;
pub mod schema;
pub mod time;
pub mod value;
pub mod window;

pub use batch::{Column, ColumnBatch, GroupCodes};
pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use error::{line_col_at, DtError, DtResult};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::{Json, ToJson};
pub use row::{Row, Tuple};
pub use schema::{DataType, Field, Schema};
pub use time::{Timestamp, VDuration};
pub use value::Value;
pub use window::{WindowId, WindowSpec};
