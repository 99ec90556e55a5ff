//! # touch-parallel — the multi-threaded building blocks of TOUCH
//!
//! The TOUCH join (see `touch-core`) is evaluated single-threaded in the paper, but
//! its three phases are embarrassingly parallel, the structure partition-parallel
//! spatial-join work (Tsitsigkos & Mamoulis 2019; Kipf et al. 2018) exploits to
//! saturate modern CPUs:
//!
//! * **tree building** — the STR sort dominates; after its x-pass the slabs are
//!   independent, so they recurse on separate workers ([`sort::par_str_sort`]),
//! * **assignment** — each probe object descends the tree independently and
//!   read-only, so the probe dataset is processed in chunks the workers claim
//!   in index order,
//! * **local joins** — each assigned node is an independent task; the workers
//!   claim the nodes from one list sorted by descending cost, so the largest
//!   remaining node always starts first.
//!
//! The phase blocks that do this live in touch-core, behind the two entries
//! every TOUCH surface calls ([`phases::build_tree`] and
//! [`phases::assign_and_join`]). The one-shot engine runs them at any width:
//! [`touch_core::TouchJoin`], whose
//! [`with_threads`](touch_core::TouchJoin::with_threads) sets the worker count
//! (a pinned plan runs at its own). The parallel join is the sequential join on
//! more workers: for every thread count it builds a bit-identical tree, performs
//! the identical assignment and local joins, and reports the same sorted result
//! set *and the same counters*; only pair arrival order and wall-clock times
//! vary. This crate re-exports the blocks under their old paths: [`phases`]
//! and [`sort`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod sort;

#[cfg(test)]
mod join;

pub use touch_core::phases;
