//! # touch-serve — concurrent serving layer for the TOUCH join
//!
//! The one-shot engines (`touch-core`, `touch-parallel`) answer a query and
//! exit; the streaming engine (`touch-streaming`) pins one immutable A-side
//! tree for many probe epochs. This crate closes the remaining gap: **serving
//! joins while the A-side itself changes.**
//!
//! * [`JoinServer`] owns the A dataset as a sequence of frozen **generations**.
//!   [`insert`](JoinServer::insert)/[`remove`](JoinServer::remove) buffer into
//!   a delta; [`publish`](JoinServer::publish) folds the delta into the next
//!   generation — incrementally (re-tiling the previous generation's STR
//!   order) for small deltas, by full STR rebuild past a planner-decided
//!   threshold — and swaps it in atomically.
//! * [`SnapshotReader`]s run planned joins against whatever generation is
//!   current when each query starts. The read path takes **no locks**: a
//!   hazard-pointer [`GenCell`] hands out `Arc` snapshots with a handful of
//!   atomic operations, and all per-query state (assignment lists, join
//!   scratch) is reader-owned ([`touch_core::AssignmentBuffer`]).
//! * [`BoundedSink`] caps per-query result memory with a spill-or-truncate
//!   [`OverflowPolicy`] — long-running servers must not let one pathological
//!   query materialise an unbounded pair set.
//!
//! The correctness bar (pinned by the workspace's `serve_equivalence` and
//! `serve_stress` suites): a snapshot query against a fully rebuilt generation
//! is **bit-identical — pairs and counters** — to a one-shot
//! [`touch_core::TouchJoin`] over the same logical A contents, and every
//! snapshot a reader ever observes is internally consistent, no matter how
//! the writer races it.
//!
//! ## Quick example
//!
//! ```
//! use touch_core::CollectingSink;
//! use touch_geom::{Aabb, Dataset, Point3};
//! use touch_serve::{JoinServer, ServeConfig};
//!
//! let a = Dataset::from_mbrs((0..32).map(|i| {
//!     let min = Point3::new(i as f64 * 2.0, 0.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//! let b = Dataset::from_mbrs((0..32).map(|i| {
//!     let min = Point3::new(i as f64 * 2.0 + 0.5, 0.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//!
//! let server = JoinServer::new(&a, ServeConfig::default());
//! let mut reader = server.reader();
//!
//! // Queries see the published generation...
//! let mut sink = CollectingSink::new();
//! let report = reader.query(b.objects(), &mut sink);
//! assert_eq!(report.result_pairs(), 32);
//! assert_eq!(report.generation, Some(0));
//!
//! // ...mutations stay invisible until the next publish.
//! let id = server.insert(Aabb::new(Point3::new(0.6, 0.0, 0.0), Point3::splat(1.4)));
//! let mut sink = CollectingSink::new();
//! assert_eq!(reader.query(b.objects(), &mut sink).result_pairs(), 32);
//! server.publish();
//! let mut sink = CollectingSink::new();
//! let report = reader.query(b.objects(), &mut sink);
//! assert_eq!(report.result_pairs(), 33);
//! assert_eq!(report.generation, Some(1));
//! assert!(server.remove(id));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(rust_2018_idioms)]

mod bounded;
mod server;
mod snapshot;

pub use bounded::{BoundedSink, OverflowPolicy};
pub use server::{Generation, JoinServer, ServeConfig, SnapshotReader};
pub use snapshot::GenCell;
