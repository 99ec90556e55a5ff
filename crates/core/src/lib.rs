//! # touch-core — the TOUCH in-memory spatial join
//!
//! This crate implements the paper's contribution: **TOUCH**, a two-way in-memory
//! spatial join for unsorted, unindexed datasets that combines *data-oriented*
//! partitioning (an STR-built hierarchy over dataset A) with *hierarchical single
//! assignment* of dataset B and a space-oriented grid for the per-node local joins.
//!
//! TOUCH runs in three phases (Algorithm 1 of the paper):
//!
//! 1. **Tree building** ([`TouchTree::build`], Algorithm 2): dataset A is grouped
//!    into at most `p` spatially coherent buckets with STR, and touch-index's
//!    [`PackedRTree`](touch_index::PackedRTree) packs them: the buckets become the
//!    leaves, and each inner node groups `fanout` consecutive nodes of the level
//!    below. [`TouchTree`] keeps that tree and adds each node's subtree A-range
//!    and the assignment's B-lists.
//! 2. **Assignment** ([`TouchTree::assign`], Algorithm 3): every object of dataset B
//!    descends from the root and is stored at the lowest node whose MBR it overlaps
//!    without overlapping a sibling; objects that overlap nothing are *filtered* —
//!    they cannot produce results and are never compared.
//! 3. **Join** ([`TouchTree::local_join_node`], Algorithm 4): each node holding
//!    B-objects is joined against the A-objects in its descendant leaves through a
//!    uniform grid (with reference-point de-duplication), a plane-sweep, or an
//!    all-pairs scan ([`LocalJoinKind`]).
//!
//! The crate also defines the vocabulary shared by every engine and baseline:
//!
//! * the [`SpatialJoinAlgorithm`] trait — the engine-side contract, driven
//!   object-safely as `&dyn SpatialJoinAlgorithm` with a `&mut dyn PairSink`,
//! * the [`PairSink`] trait and its standard consumers — [`CountingSink`],
//!   [`CollectingSink`], [`CallbackSink`] (zero-materialisation streaming) and
//!   [`FirstKSink`] (early termination),
//! * the [`JoinQuery`] builder — the single user-facing entrypoint that owns the
//!   distance-join ε-translation ([`Predicate::WithinDistance`]), report identity
//!   and the sink lifecycle,
//! * the planning layer — [`DatasetStats`] (one-pass, exactly-mergeable dataset
//!   statistics), the [`JoinPlanner`] cost model, the [`JoinPlan`] every
//!   engine executes and the [`AutoEngine`] that plans for [`TouchJoin`]; a
//!   bare query (no `.engine(…)`) plans automatically,
//! * the pairwise join kernels ([`kernels`]) and the runtime-dispatched batched
//!   MBR filter underneath them ([`simd`]).
//!
//! The assignment's per-node B-lists live in one store, [`AssignmentBuffer`]: the
//! tree keeps one for its own assign and join phases, and a serving reader holds
//! one of its own over a frozen, shared tree.
//!
//! The three phases run behind the two entries of [`phases`]:
//! [`phases::build_tree`] and [`phases::assign_and_join`]. Every surface calls
//! them: [`TouchJoin`] executes its plan at the plan's width
//! ([`TouchJoin::with_threads`] sets it for a configured join), the streaming
//! engine and the tick loop call both, and a serving reader, whose tree is
//! frozen, calls [`phases::assign_and_join`]. A phase runs in-thread at one
//! worker; at more, scoped workers claim its units from one list in order.
//! The entries use the tree's per-phase building blocks —
//! [`TouchTree::from_tiled`], [`TouchTree::assignment_target`] (read-only),
//! [`AssignmentBuffer::extend`] (which applies pre-computed targets),
//! [`TouchTree::with_store`] (which lends out the tree's own store) and
//! [`TouchTree::local_join_node`] — and [`ShardedSink`], which adapts any
//! [`PairSink`] into lock-free per-worker shards that merge back when the
//! parallel section is over.
//!
//! ## Quick example
//!
//! ```
//! use touch_core::{CollectingSink, JoinQuery, Predicate};
//! use touch_geom::{Aabb, Dataset, Point3};
//!
//! // Two tiny datasets of unit boxes.
//! let a = Dataset::from_mbrs((0..10).map(|i| {
//!     let min = Point3::new(i as f64 * 3.0, 0.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//! let b = Dataset::from_mbrs((0..10).map(|i| {
//!     let min = Point3::new(i as f64 * 3.0 + 1.5, 0.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//!
//! // Distance join with ε = 1: every a_i matches b_{i-1} and b_i.
//! let mut sink = CollectingSink::new();
//! let report = JoinQuery::new(&a, &b)
//!     .predicate(Predicate::WithinDistance(1.0))
//!     .run(&mut sink);
//! assert_eq!(report.result_pairs(), 19);
//! assert_eq!(sink.pairs().len(), 19);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(rust_2018_idioms)]

mod assignment;
mod control;
pub mod kernels;
pub mod phases;
mod plan;
mod query;
mod scratch;
// The SIMD loads are the workspace's only `unsafe` code.
#[allow(unsafe_code)]
pub mod simd;
mod sink;
mod stats;
mod touch;
mod traits;
mod tree;

pub use assignment::AssignmentBuffer;
pub use control::{catch_phase, panic_message, CancelCause, CancelToken, ExecControl, JoinError};
pub use plan::{AutoEngine, CellModel, ExecutionStrategy, JoinPlan, JoinPlanner, PlanEnv};
pub use query::{IntoEngine, JoinQuery, Predicate};
pub use scratch::{LocalJoinScratch, ScratchPool};
pub use sink::{
    deliver, CallbackSink, CollectingSink, CountingSink, FirstKSink, PairSink, SelfPairSink,
    ShardedSink, SinkShard,
};
pub use stats::{DatasetStats, EXTENT_BUCKETS};
pub use touch::{JoinOrder, TouchConfig, TouchJoin};
pub use traits::{
    collect_join, count_join, distance_join, join_contained, Shape, SpatialJoinAlgorithm,
};
pub use tree::{AdaptiveParams, LocalJoinKind, LocalJoinParams, TouchTree};
