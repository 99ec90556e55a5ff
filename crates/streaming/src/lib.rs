//! # touch-streaming — the batched/streaming TOUCH join engine
//!
//! The one-shot join in `touch-core` (`TouchJoin`, at any width) rebuilds the
//! hierarchy for every query. In a serving scenario the roles are asymmetric: dataset A (the
//! indexed side) is long-lived, while dataset B arrives continuously — sensor
//! batches, query windows, simulation timesteps. This crate exploits that shape:
//!
//! * [`StreamingTouchJoin::build`] constructs the TOUCH hierarchy over A **once**
//!   (the STR sort spreads its slabs over the workers at `threads > 1`),
//! * [`StreamingTouchJoin::push_batch`] runs assignment + local joins for one epoch
//!   of B against the persistent tree and returns an [`EpochReport`]. Both the
//!   build and each epoch run through the phase entries of
//!   [`touch_core::phases`], as every other surface does, so an epoch records
//!   assignment and join phase spans and contains panics at both phase
//!   boundaries,
//! * [`StreamingTouchJoin::reset`] starts a new B stream over the same tree.
//!
//! The build cost is thereby amortised over every epoch of every stream the tree
//! serves, instead of being paid per query.
//!
//! ## Epoch equivalence
//!
//! The engine's headline guarantee mirrors the one-shot join's determinism across
//! widths: for a tree built on A, streaming B through [`StreamingTouchJoin::push_batch`] in **any
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
//! The engine has one path: [`StreamingTouchJoin::build`] (or
//! [`StreamingTouchJoin::build_extended`] for a distance join) pins the plan
//! for the tree's whole life, and every epoch, plain or windowed, runs it
//! through the same entry. One-shot joins go through
//! [`touch_core::JoinQuery`] and [`touch_core::TouchJoin`], which run the same
//! phase entries.
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
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod engine;
mod report;

pub use engine::{StreamingConfig, StreamingTouchJoin};
pub use report::{EpochReport, EpochSummary};
