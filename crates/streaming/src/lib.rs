//! # touch-streaming — the batched/streaming TOUCH join engine
//!
//! The one-shot joins in `touch-core` / `touch-parallel` rebuild the hierarchy for
//! every query. In a serving scenario the roles are asymmetric: dataset A (the
//! indexed side) is long-lived, while dataset B arrives continuously — sensor
//! batches, query windows, simulation timesteps. This crate exploits that shape:
//!
//! * [`StreamingTouchJoin::build`] constructs the TOUCH hierarchy over A **once**
//!   (the STR sort spreads its slabs over the workers at `threads > 1`),
//! * [`StreamingTouchJoin::push_batch`] runs assignment + local joins for one epoch
//!   of B against the persistent tree and returns an [`EpochReport`],
//! * [`StreamingTouchJoin::reset`] starts a new B stream over the same tree.
//!
//! The build cost is thereby amortised over every epoch of every stream the tree
//! serves, instead of being paid per query.
//!
//! ## Epoch equivalence
//!
//! The engine's headline guarantee mirrors `touch-parallel`'s determinism: for a
//! tree built on A, streaming B through [`StreamingTouchJoin::push_batch`] in **any
//! epoch split** produces exactly the union of pairs — and exactly the additive
//! counters — of the one-shot [`touch_core::TouchJoin`] over (A, B) with the same
//! [`touch_core::TouchConfig`] (tree on A; see [`StreamingConfig::touch`] for the two knobs the
//! engine pins). This holds for the sequential path and for every worker count,
//! and is enforced by the workspace's `streaming_equivalence` property suite and
//! the streaming cases of `parallel_determinism`.
//!
//! Three design decisions make the guarantee possible:
//!
//! 1. assignment is per-object and read-only, so it decomposes over any batching,
//! 2. the per-node local-join strategy choice consults only the A side
//!    ([`touch_core::LocalJoinParams::allpairs_max_a`]), never the epoch's B count,
//! 3. grid cells are sized from the tree dataset at build time
//!    ([`touch_core::TouchConfig::min_local_cell_size_of`]), not from the unknown-at-build B
//!    stream.
//!
//! For cross-engine comparisons the crate also ships [`OneShotStreaming`], which
//! wraps the engine as a regular [`touch_core::SpatialJoinAlgorithm`] (build +
//! one epoch) so it can run through the unified [`touch_core::JoinQuery`] facade
//! like every other engine.
//!
//! ## Quick example
//!
//! ```
//! use touch_core::CollectingSink;
//! use touch_geom::{Aabb, Dataset, Point3};
//! use touch_streaming::{StreamingConfig, StreamingTouchJoin};
//!
//! let a = Dataset::from_mbrs((0..200).map(|i| {
//!     let min = Point3::new((i % 20) as f64 * 2.0, (i / 20) as f64 * 2.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.5))
//! }));
//! let b = Dataset::from_mbrs((0..300).map(|i| {
//!     let min = Point3::new((i % 20) as f64 * 2.0 + 0.7, (i / 20) as f64 * 0.9, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.0))
//! }));
//!
//! // Build the tree once, then stream B through it in three epochs.
//! let mut engine = StreamingTouchJoin::build(&a, StreamingConfig::default());
//! let mut sink = CollectingSink::new();
//! let mut total = 0;
//! for batch in b.objects().chunks(100) {
//!     let epoch = engine.push_batch(batch, &mut sink);
//!     total += epoch.results();
//! }
//! assert_eq!(total, sink.count());
//! assert_eq!(engine.epochs(), 3);
//! assert_eq!(engine.cumulative_report().epochs, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod report;

pub use engine::{OneShotStreaming, StreamingConfig, StreamingTouchJoin};
pub use report::{EpochReport, EpochSummary};
