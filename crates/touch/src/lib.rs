//! # touch — in-memory spatial joins by hierarchical data-oriented partitioning
//!
//! This is the facade crate of the TOUCH workspace: it re-exports the complete public
//! API so that applications depend on a single crate.
//!
//! * [`geom`] — geometry kernel: [`Aabb`] (MBRs), [`Point3`], [`Cylinder`],
//!   [`Dataset`],
//! * [`datagen`] — workload generators (uniform / Gaussian / clustered boxes,
//!   synthetic neuron morphologies),
//! * [`index`] — indexing substrates (STR packing, packed R-tree, uniform and
//!   hierarchical grids),
//! * [`core`] — the TOUCH algorithm ([`TouchJoin`]) and the unified query API:
//!   the [`JoinQuery`] builder, the [`Predicate`] enum and the [`PairSink`]
//!   result-consumer trait with its standard implementations ([`CountingSink`],
//!   [`CollectingSink`], [`CallbackSink`], [`FirstKSink`]) — plus the planning
//!   layer: [`DatasetStats`], the [`JoinPlanner`] cost model and the
//!   [`JoinPlan`] every engine executes,
//! * [`parallel`] — the multi-threaded execution subsystem ([`ParallelTouchJoin`]),
//!   deterministically equivalent to [`TouchJoin`] at every thread count,
//! * [`streaming`] — the batched/streaming engine ([`StreamingTouchJoin`]): one
//!   persistent tree over A serving epoch after epoch of B, any epoch split exactly
//!   reproducing the one-shot join — including sliding-window epochs that *evict*
//!   the oldest batches instead of resetting,
//! * [`serve`] — the concurrent serving layer ([`JoinServer`]): a mutable A-side
//!   behind lock-free generation snapshots, queried by any number of
//!   [`SnapshotReader`] threads while the writer buffers mutations and publishes
//!   the next generation atomically,
//! * [`sim`] — the tick-loop simulation layer ([`TickEngine`]): a moving-object
//!   [`World`] re-joined with itself (a planned ε self-join) every tick, with
//!   plan, tree memory and scratch reused across ticks — optionally republished
//!   through the serving layer each tick ([`ServeTickLoop`]),
//! * [`baselines`] — the competitor algorithms of the paper's evaluation,
//! * [`metrics`] — counters, timers and [`RunReport`]s.
//!
//! On top of the re-exports the facade defines [`Engine`] and [`Baseline`] — the
//! closed selector enums that let one [`JoinQuery`] dispatch over every engine and
//! baseline in the workspace — and [`AutoEngine`], the workspace-wide automatic
//! planner behind [`Engine::Auto`] (the default): statistics in, plan out,
//! dispatched to whichever engine the plan's strategy names.
//!
//! ## Quickstart
//!
//! Every join — any engine, any predicate, any result consumer — goes through the
//! [`JoinQuery`] builder:
//!
//! ```
//! use touch::{Aabb, CollectingSink, Dataset, JoinQuery, Point3, Predicate};
//!
//! // Dataset A: a row of unit boxes. Dataset B: the same row, shifted by 1.5 units.
//! let a: Dataset = (0..100)
//!     .map(|i| {
//!         let min = Point3::new(i as f64 * 3.0, 0.0, 0.0);
//!         Aabb::new(min, min + Point3::splat(1.0))
//!     })
//!     .collect();
//! let b: Dataset = (0..100)
//!     .map(|i| {
//!         let min = Point3::new(i as f64 * 3.0 + 1.5, 0.0, 0.0);
//!         Aabb::new(min, min + Point3::splat(1.0))
//!     })
//!     .collect();
//!
//! // Find every pair within distance 1.0 of each other. No engine is named, so
//! // the query plans automatically: dataset statistics are collected, every
//! // TOUCH knob is derived from them, and the plan is recorded on the report.
//! let mut sink = CollectingSink::new();
//! let report = JoinQuery::new(&a, &b)
//!     .predicate(Predicate::WithinDistance(1.0))
//!     .run(&mut sink);
//!
//! assert_eq!(report.result_pairs() as usize, sink.pairs().len());
//! assert!(report.counters.comparisons < (a.len() * b.len()) as u64);
//! ```
//!
//! Swap the engine without touching the rest of the query:
//!
//! ```
//! use touch::{Baseline, CountingSink, Engine, JoinQuery, ParallelConfig};
//! # use touch::{Aabb, Dataset, Point3};
//! # let a: Dataset = (0..60).map(|i| {
//! #     let min = Point3::new(i as f64 * 2.0, 0.0, 0.0);
//! #     Aabb::new(min, min + Point3::splat(1.0))
//! # }).collect();
//! # let b = a.clone();
//! let mut touch = CountingSink::new();
//! let mut rtree = CountingSink::new();
//! let t = JoinQuery::new(&a, &b).engine(Engine::touch()).run(&mut touch);
//! let r = JoinQuery::new(&a, &b).engine(Engine::Baseline(Baseline::RTree)).run(&mut rtree);
//! assert_eq!(touch.count(), rtree.count());
//! assert_eq!(t.result_pairs(), r.result_pairs());
//! ```
//!
//! And swap the result consumer without touching the engine — e.g. stream pairs
//! into a callback with zero materialisation, or stop after the first match:
//!
//! ```
//! use touch::{CallbackSink, FirstKSink, JoinQuery};
//! # use touch::{Aabb, Dataset, Point3};
//! # let a: Dataset = (0..60).map(|i| {
//! #     let min = Point3::new(i as f64 * 2.0, 0.0, 0.0);
//! #     Aabb::new(min, min + Point3::splat(1.0))
//! # }).collect();
//! # let b = a.clone();
//! let mut streamed = 0u64;
//! let mut callback = CallbackSink::new(|_a_id, _b_id| streamed += 1);
//! let _ = JoinQuery::new(&a, &b).run(&mut callback);
//!
//! let mut exists = FirstKSink::new(1); // stops the engine after one pair
//! let report = JoinQuery::new(&a, &b).run(&mut exists);
//! assert_eq!(exists.count(), 1);
//! assert!(report.counters.comparisons < (a.len() * b.len()) as u64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;

pub use engine::{AutoEngine, Baseline, Engine};

pub use touch_baselines as baselines;
pub use touch_core as core;
pub use touch_datagen as datagen;
pub use touch_geom as geom;
pub use touch_index as index;
pub use touch_metrics as metrics;
pub use touch_parallel as parallel;
pub use touch_serve as serve;
pub use touch_sim as sim;
pub use touch_streaming as streaming;

// The most common types, re-exported at the top level for convenience.
pub use touch_baselines::{
    IndexedNestedLoopJoin, NestedLoopJoin, OctreeJoin, PbsmJoin, PlaneSweepJoin, RTreeSyncJoin,
    S3Join, SeededTreeJoin,
};
pub use touch_core::{
    collect_join, count_join, distance_join, AdaptiveParams, AssignmentBuffer, AutoJoin,
    CallbackSink, CancelCause, CancelToken, CollectingSink, CountingSink, DatasetStats,
    ExecControl, ExecutionStrategy, FirstKSink, IntoEngine, JoinError, JoinOrder, JoinPlan,
    JoinPlanner, JoinQuery, LocalJoinParams, LocalJoinScratch, LocalJoinStrategy, PairSink,
    PlanEnv, Predicate, ScratchPool, Shape, ShardedSink, SinkShard, SpatialJoinAlgorithm,
    TouchConfig, TouchJoin, TouchTree,
};
pub use touch_datagen::{
    MovingObjectsSpec, NeuroscienceSpec, SyntheticDistribution, SyntheticSpec, VelocityDistribution,
};
pub use touch_geom::{
    Aabb, Cylinder, Dataset, InvalidGeometry, ObjectId, Point3, SpatialObject, ValidationPolicy,
};
pub use touch_metrics::{
    Completion, Counters, ExecTrace, FaultAction, FaultPlan, Histogram, NoTrace, Phase,
    PlanSummary, RunReport, Seam, TickSummary, TraceEvent, TraceSink, TraceSummary, WorkerStats,
};
pub use touch_parallel::{ParallelConfig, ParallelTouchJoin, ReaderPool};
pub use touch_serve::{
    BoundedSink, GenCell, Generation, JoinServer, OverflowPolicy, ServeConfig, SnapshotReader,
};
pub use touch_sim::{ServeTickLoop, TickConfig, TickEngine, TickRecord, TickReport, World};
pub use touch_streaming::{
    EpochReport, EpochSummary, OneShotStreaming, StreamingConfig, StreamingTouchJoin,
};
