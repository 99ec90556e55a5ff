//! # touch-parallel — the multi-threaded TOUCH engine
//!
//! The TOUCH join (see `touch-core`) is evaluated single-threaded in the paper, but
//! its three phases are embarrassingly parallel, the structure partition-parallel
//! spatial-join work (Tsitsigkos & Mamoulis 2019; Kipf et al. 2018) exploits to
//! saturate modern CPUs:
//!
//! * **tree building** — the STR sort dominates; after its x-pass the slabs are
//!   independent, so they recurse on separate workers ([`sort::par_str_sort`]),
//! * **assignment** — each probe object descends the tree independently and
//!   read-only, so the probe dataset is processed in work-stealing chunks,
//! * **local joins** — each assigned node is an independent task, distributed over
//!   work-stealing deques ([`scheduler::StealQueues`]) in descending cost order.
//!
//! The phase blocks that do this live in touch-core ([`phases`], re-exported
//! here under their old path), and one executor there runs them at a plan's
//! width: the sequential join is the one-worker case of the same pipeline.
//! [`ParallelTouchJoin`] is that executor at a configured thread count, and
//! [`ParallelConfig`] holds the execution knobs next to the algorithmic
//! [`touch_core::TouchConfig`].
//!
//! Workers never share mutable state: each owns a [`touch_core::SinkShard`] and a
//! [`touch_metrics::Counters`] set, merged at every phase's join point. Phases are
//! timed at their fork/join boundaries, so the reported
//! [`touch_metrics::PhaseTimer`] durations are wall clock and the familiar
//! `speedup = sequential_time / parallel_time` arithmetic holds.
//!
//! The headline guarantee: [`ParallelTouchJoin`] is **deterministic and exactly
//! equivalent** to the sequential [`touch_core::TouchJoin`] — for every thread
//! count it builds a bit-identical tree (the STR tile order does not depend on the
//! thread count), performs the identical assignment and local joins, and therefore
//! reports the same sorted result set *and the same counters*; only pair arrival
//! order and wall-clock times vary. This is verified by the workspace's
//! cross-algorithm equivalence and determinism test suites.
//!
//! ## Quick example
//!
//! ```
//! use touch_core::{collect_join, TouchJoin};
//! use touch_geom::{Aabb, Dataset, Point3};
//! use touch_parallel::ParallelTouchJoin;
//!
//! let a = Dataset::from_mbrs((0..500).map(|i| {
//!     let min = Point3::new((i % 50) as f64 * 2.0, (i / 50) as f64 * 2.0, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.5))
//! }));
//! let b = Dataset::from_mbrs((0..500).map(|i| {
//!     let min = Point3::new((i % 50) as f64 * 2.0 + 0.7, (i / 50) as f64 * 2.0 + 0.7, 0.0);
//!     Aabb::new(min, min + Point3::splat(1.5))
//! }));
//!
//! let (parallel_pairs, report) = collect_join(&ParallelTouchJoin::with_threads(4), &a, &b);
//! let (sequential_pairs, _) = collect_join(&TouchJoin::default(), &a, &b);
//! assert_eq!(parallel_pairs, sequential_pairs);
//! assert_eq!(report.threads, 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod join;
pub mod sort;

pub use config::ParallelConfig;
pub use join::ParallelTouchJoin;
pub use touch_core::{phases, scheduler};
