//! # touch-sim — tick-loop simulation driven by the TOUCH self-join
//!
//! The paper's motivating application (Section 1) is a spatial simulation that
//! re-runs the join every step: neuron interactions are detected, the model
//! state advances, and the join runs again on the moved geometry. This crate
//! closes that loop for the reproduction: a moving-object [`World`] (positions,
//! velocities, collision radii; reflective bounce at the space walls) driven by
//! a [`TickEngine`] that runs one planned ε **self-join** per tick and records
//! the per-tick latency distribution into a
//! [`TickSummary`](touch_metrics::TickSummary).
//!
//! What the tick loop exercises that one-shot queries do not:
//!
//! * **Memory reuse across ticks** — the dataset, its ε-extension, the tree's
//!   item buffer ([`touch_core::TouchTree::into_items`]) and the join scratch
//!   ([`touch_core::ScratchPool`]) are all recycled, so the steady state
//!   allocates nothing per tick.
//! * **Plan reuse with drift detection** — the self-join plan is derived once
//!   and only re-derived when the world's
//!   [`DatasetStats`](touch_core::DatasetStats) drift past a configured
//!   threshold ([`TickConfig::replan_drift`]).
//! * **Determinism under motion** — the per-tick pair set is bit-identical at
//!   every thread count and between the kernel-mode engine and the serve-backed
//!   loop (`tests/sim_determinism.rs`).
//!
//! Two integration styles:
//!
//! * [`TickEngine`] — kernel mode: runs each tick through the two phase
//!   entries of [`touch_core::phases`] (fastest, single consumer), so a tick
//!   records build, assignment and join phase spans, contains panics at every
//!   phase boundary and sums its phase times
//!   ([`TickEngine::phase_times`]).
//! * [`ServeTickLoop`] — serve mode: republishes the world through
//!   [`touch_serve::JoinServer::publish`] each tick and joins via a snapshot
//!   reader, proving the simulation composes with the concurrent serving layer.
//!
//! ```
//! use touch_sim::{TickConfig, TickEngine, World};
//!
//! let world = World::random(500, 42);
//! let mut engine = TickEngine::new(world, TickConfig::default().with_epsilon(25.0));
//! for _ in 0..10 {
//!     engine.tick();
//!     // engine.pairs() = this tick's colliding entity pairs (i, j), i < j.
//! }
//! let report = engine.report();
//! assert_eq!(report.summary.ticks, 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod engine;
mod serve;
mod world;

pub use engine::{TickConfig, TickEngine, TickRecord, TickReport};
pub use serve::ServeTickLoop;
pub use world::World;
