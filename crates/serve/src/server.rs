//! The serving layer: a mutable A-side behind immutable, queryable snapshots.
//!
//! A [`JoinServer`] owns the A dataset of a TOUCH join as a sequence of
//! **generations** — frozen [`TouchTree`]s, the current one held as an
//! `Arc<Generation>` behind an [`RwLock`]. Mutations ([`JoinServer::insert`],
//! [`JoinServer::remove`]) buffer into a delta; [`JoinServer::publish`] builds
//! the next generation off the lock and then swaps the `Arc` in. Reader
//! threads hold [`SnapshotReader`]s and run planned joins against whichever
//! generation was current when their query started: a query holds the read
//! lock only to clone the `Arc`, so it never waits on a build, and it never
//! observes a half-built tree.
//!
//! ## The equivalence contract
//!
//! A [`SnapshotReader::query`] against a generation built by **full rebuild**
//! is bit-identical — pairs in emission order *and counters* — to a one-shot
//! [`touch_core::TouchJoin`] (tree on A) over that generation's logical live
//! contents: survivors in arrival order, then inserts in arrival order. An
//! **incrementally folded** generation reuses the previous generation's STR
//! tiling (minus removals, plus appended inserts), which preserves the exact
//! result set but may prune differently — pairs identical as sets, counters
//! equal to a [`TouchTree::from_tiled`] reference over the same tiled order.
//! The planner decides which path each publish takes
//! ([`JoinPlanner::delta_rebuild_limit`]); pin it with
//! [`ServeConfig::delta_limit`] when the distinction matters.

use crate::bounded::{BoundedSink, OverflowPolicy};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use touch_core::phases::assign_and_join;
use touch_core::{
    catch_phase, AssignmentBuffer, ExecControl, ExecutionStrategy, JoinError, JoinPlan,
    JoinPlanner, PairSink, ScratchPool, Shape, TouchConfig, TouchTree,
};
use touch_geom::{Aabb, ObjectId, SpatialObject};
use touch_metrics::{MemoryUsage, Phase, RunReport, TraceEvent};

/// Configuration of a [`JoinServer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// The algorithmic knobs every generation is built and queried with. The
    /// hierarchy is always on the served (A) side, so `join_order` is ignored.
    pub touch: TouchConfig,
    /// Buffered mutations beyond which [`JoinServer::publish`] abandons the
    /// incremental fold and rebuilds the STR tiling from scratch. `None`
    /// (default) lets the planner decide from the live size
    /// ([`JoinPlanner::delta_rebuild_limit`]); `Some(0)` forces a full rebuild
    /// on every publish — the setting the bit-identity equivalence suite pins.
    pub delta_limit: Option<usize>,
}

/// One frozen, immutable generation of the served A-side: the tree plus the
/// pre-resolved query parameters that depend on the A data.
#[derive(Debug)]
pub struct Generation {
    version: u64,
    tree: TouchTree,
    /// The A-side contribution to the per-query grid-cell floor, computed over
    /// the **logical live order** at publish — the identical summation order a
    /// one-shot join over the same contents would use, so resolved query
    /// parameters are bit-identical to the reference.
    a_cell_floor: f64,
    /// Mutations folded into this generation by the publish that created it.
    delta: usize,
}

impl Generation {
    /// The generation number (0 for the initial build, then monotonic).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen hierarchy (no assignments — readers keep those).
    pub fn tree(&self) -> &TouchTree {
        &self.tree
    }

    /// Number of live A-objects.
    pub fn live(&self) -> usize {
        self.tree.a_len()
    }

    /// Buffered mutations folded in by the publish that created this
    /// generation (0 for the initial one).
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The A-side grid-cell floor (see the field docs).
    pub fn a_cell_floor(&self) -> f64 {
        self.a_cell_floor
    }
}

/// Writer-side state: the canonical live list and the pending delta.
#[derive(Debug)]
struct WriterState {
    /// The logical live contents in canonical (arrival) order — the order the
    /// equivalence reference joins in, and the order full rebuilds STR-sort.
    live: Vec<SpatialObject>,
    /// Ids of `live`, for O(1) `remove` validation.
    live_ids: HashSet<ObjectId>,
    pending_inserts: Vec<SpatialObject>,
    pending_removes: HashSet<ObjectId>,
    next_id: ObjectId,
    version: u64,
}

/// The served generation, shared by a server and its readers. The lock
/// guards a single `Arc`, which a panicking holder cannot leave half-written,
/// so a poisoned lock is recovered.
type Current = Arc<RwLock<Arc<Generation>>>;

/// A snapshot of the generation in `current`: the read lock is held only to
/// clone the `Arc`.
fn load(current: &RwLock<Arc<Generation>>) -> Arc<Generation> {
    Arc::clone(&current.read().unwrap_or_else(PoisonError::into_inner))
}

/// The concurrent serving layer over a mutable A-side: buffered mutations
/// ([`JoinServer::insert`] / [`JoinServer::remove`]), explicit generation
/// publishes ([`JoinServer::publish`]), snapshot readers
/// ([`JoinServer::reader`]).
#[derive(Debug)]
pub struct JoinServer {
    current: Current,
    state: Mutex<WriterState>,
    config: ServeConfig,
}

impl JoinServer {
    /// Builds generation 0 over `a` and starts serving it.
    pub fn new(a: &touch_geom::Dataset, config: ServeConfig) -> Self {
        let live = a.objects().to_vec();
        let next_id = live.iter().map(|o| o.id + 1).max().unwrap_or(0);
        let generation = Self::full_rebuild(&live, &config, 0, 0);
        JoinServer {
            current: Arc::new(RwLock::new(Arc::new(generation))),
            state: Mutex::new(WriterState {
                live_ids: live.iter().map(|o| o.id).collect(),
                live,
                pending_inserts: Vec::new(),
                pending_removes: HashSet::new(),
                next_id,
                version: 0,
            }),
            config,
        }
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A handle for running snapshot queries — cheap to create, meant to be
    /// moved onto a reader thread and reused query after query (it owns the
    /// reusable assignment and join scratch).
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            current: Arc::clone(&self.current),
            config: self.config.touch,
            buffer: AssignmentBuffer::new(),
            pool: ScratchPool::new(),
        }
    }

    /// The currently served generation (what a query starting now would see).
    pub fn snapshot(&self) -> Arc<Generation> {
        load(&self.current)
    }

    /// The currently served generation number.
    pub fn generation(&self) -> u64 {
        self.snapshot().version()
    }

    /// Buffers the insertion of one A-object and returns its id. Invisible to
    /// readers until [`JoinServer::publish`].
    pub fn insert(&self, mbr: Aabb) -> ObjectId {
        let mut state = self.lock_state();
        let id = state.next_id;
        state.next_id += 1;
        state.pending_inserts.push(SpatialObject { id, mbr });
        id
    }

    /// Buffers the removal of the A-object `id`. Returns `false` when the id
    /// is unknown (never inserted, already removed, or already pending
    /// removal). Removing a still-pending insert simply cancels it.
    pub fn remove(&self, id: ObjectId) -> bool {
        let mut state = self.lock_state();
        if let Some(at) = state.pending_inserts.iter().position(|o| o.id == id) {
            state.pending_inserts.remove(at);
            return true;
        }
        if state.live_ids.contains(&id) {
            return state.pending_removes.insert(id);
        }
        false
    }

    /// Buffered mutations awaiting the next publish.
    pub fn pending_delta(&self) -> usize {
        let state = self.lock_state();
        state.pending_inserts.len() + state.pending_removes.len()
    }

    /// Folds the buffered delta into a new generation and publishes it; see
    /// [`try_publish`](JoinServer::try_publish), which this is with
    /// [`ExecControl::infallible`]. Returns the now-current generation number
    /// (unchanged if nothing was pending).
    ///
    /// # Panics
    /// Panics if the fold panics — use [`JoinServer::try_publish`] to contain
    /// that instead.
    pub fn publish(&self) -> u64 {
        self.try_publish(ExecControl::infallible()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`JoinServer::publish`]: the fold runs under panic containment
    /// **before** any writer state or the published generation moves, so the
    /// server survives a panicking build with full consistency. With
    /// `ctl.trace` enabled the fold/rebuild records a
    /// [`TraceEvent::Generation`] span.
    ///
    /// With a delta at or below the [rebuild limit](ServeConfig::delta_limit)
    /// the new tree reuses the previous generation's STR tiling — removals
    /// filtered out, inserts appended ([`TouchTree::from_tiled`]); past it the
    /// tiling is rebuilt from scratch over the canonical live order. Readers
    /// keep querying the old generation throughout: the write lock is taken
    /// only to swap the new generation's `Arc` in, and the old one is dropped
    /// after it is released.
    ///
    /// * A pre-tripped `ctl.cancel` returns [`JoinError::Cancelled`] /
    ///   [`JoinError::DeadlineExceeded`] with the delta still buffered — a
    ///   publish has no meaningful partial result.
    /// * A panic inside the fold (or the trace sink it reports to) returns
    ///   [`JoinError::WorkerPanicked`] and **restores the pending delta**:
    ///   readers keep the old generation, the version does not advance, and
    ///   retrying the publish later folds exactly the same mutations.
    pub fn try_publish(&self, ctl: ExecControl<'_>) -> Result<u64, JoinError> {
        let mut state = self.lock_state();
        if state.pending_inserts.is_empty() && state.pending_removes.is_empty() {
            return Ok(state.version);
        }
        if let Some(cause) = ctl.cancel.triggered() {
            return Err(cause.into_error());
        }
        let trace = ctl.trace;
        let start_us = if trace.is_enabled() { trace.now_us() } else { 0 };
        let inserts = std::mem::take(&mut state.pending_inserts);
        let removes = std::mem::take(&mut state.pending_removes);
        let delta = inserts.len() + removes.len();

        // The candidate live order: survivors keep their order, inserts arrive
        // at the back. Built on the side — the canonical state only advances
        // once the whole generation exists.
        let mut next_live: Vec<SpatialObject> =
            state.live.iter().filter(|o| !removes.contains(&o.id)).copied().collect();
        next_live.extend(inserts.iter().copied());
        let version = state.version + 1;

        let limit = self
            .config
            .delta_limit
            .unwrap_or_else(|| JoinPlanner::default().delta_rebuild_limit(next_live.len()));
        let built = catch_phase(Phase::Build, 0, || {
            let generation = if delta > limit {
                Self::full_rebuild(&next_live, &self.config, version, delta)
            } else {
                // Incremental fold: the previous tiling, minus removals, plus
                // the inserts appended — any permutation is a correct tiling,
                // and this one keeps the surviving objects' spatial coherence
                // for free.
                let previous = self.snapshot();
                let tiled: Vec<SpatialObject> = previous
                    .tree
                    .a_objects()
                    .iter()
                    .filter(|o| !removes.contains(&o.id))
                    .copied()
                    .chain(inserts.iter().copied())
                    .collect();
                let cfg = &self.config.touch;
                let tree = TouchTree::from_tiled(tiled, cfg.partitions, cfg.fanout);
                let a_cell_floor = cfg.min_local_cell_size_of_objects(&next_live);
                Generation { version, tree, a_cell_floor, delta }
            };
            if trace.is_enabled() {
                trace.record(TraceEvent::Generation {
                    generation: version,
                    live: generation.live(),
                    delta,
                    start_us,
                    duration_us: trace.now_us().saturating_sub(start_us),
                });
            }
            generation
        });
        let generation = match built {
            Ok(generation) => generation,
            Err(e) => {
                // Put the delta back so a later publish retries it; nothing
                // else moved, so readers and writer state stay consistent.
                state.pending_inserts = inserts;
                state.pending_removes = removes;
                return Err(e);
            }
        };

        // Commit: canonical state and the served generation advance together,
        // under the writer-state mutex (which also serialises publishers),
        // after the only fallible region succeeded.
        state.live = next_live;
        for id in &removes {
            state.live_ids.remove(id);
        }
        state.live_ids.extend(inserts.iter().map(|o| o.id));
        state.version = version;
        let next = Arc::new(generation);
        let replaced = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            next,
        );
        // The write lock is released: a reader never waits on the old tree's
        // drop, which runs here unless a held snapshot still owns it.
        drop(replaced);
        Ok(version)
    }

    /// STR-rebuilds a generation from the canonical live order — the path
    /// whose queries are bit-identical (pairs *and* counters) to the one-shot
    /// reference join.
    fn full_rebuild(
        live: &[SpatialObject],
        config: &ServeConfig,
        version: u64,
        delta: usize,
    ) -> Generation {
        let cfg = &config.touch;
        let tree = TouchTree::build(live, cfg.partitions, cfg.fanout);
        let a_cell_floor = cfg.min_local_cell_size_of_objects(live);
        Generation { version, tree, a_cell_floor, delta }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, WriterState> {
        // Writer state is plain data: a panicked mutator leaves it consistent
        // (every method restores invariants before returning), so recover
        // instead of propagating the poison to unrelated callers.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A per-thread query handle over a [`JoinServer`]'s generations.
///
/// Each query snapshots the current generation (an `Arc` clone under the
/// read lock) and runs the assignment + local-join phases against it
/// ([`assign_and_join`]) with reader-owned memory ([`AssignmentBuffer`],
/// [`ScratchPool`]), so any number of readers proceed independently while
/// the server rebuilds. The reader reuses its buffers across
/// queries: a warmed-up reader allocates nothing on the query path.
#[derive(Debug)]
pub struct SnapshotReader {
    current: Current,
    config: TouchConfig,
    buffer: AssignmentBuffer,
    pool: ScratchPool,
}

impl SnapshotReader {
    /// Joins `batch` (the B side) against the current generation; pairs stream
    /// into `sink` as `(a_id, b_id)`, and the returned report carries the
    /// generation number it ran against ([`RunReport::generation`]). This is
    /// [`try_query`](SnapshotReader::try_query) with
    /// [`ExecControl::infallible`].
    ///
    /// # Panics
    /// Panics if a phase panics — use [`SnapshotReader::try_query`] to contain
    /// that instead.
    pub fn query(&mut self, batch: &[SpatialObject], sink: &mut dyn PairSink) -> RunReport {
        self.try_query(batch, sink, ExecControl::infallible()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SnapshotReader::query`]: polls `ctl.cancel` at chunk
    /// granularity through assignment and before every per-node local join,
    /// and contains phase panics instead of aborting. With `ctl.trace` enabled
    /// the assignment and join phases, the assignment's one chunk and every
    /// per-node join record spans (as worker 0).
    ///
    /// A trip mid-query returns `Ok` with a *partial* report — pairs already
    /// delivered to `sink` stand, the counters cover exactly the work done,
    /// and [`RunReport::completion`](touch_metrics::RunReport) says why the
    /// query stopped. A contained panic returns
    /// [`JoinError::WorkerPanicked`]; the sink's contents are then
    /// unspecified and [`PairSink::finish`] has not been invoked, but the
    /// reader and the served generation remain fully usable.
    pub fn try_query(
        &mut self,
        batch: &[SpatialObject],
        sink: &mut dyn PairSink,
        ctl: ExecControl<'_>,
    ) -> Result<RunReport, JoinError> {
        let snapshot = load(&self.current);
        let mut report = RunReport::new("TOUCH-SERVE".to_string(), snapshot.live(), batch.len());
        report.threads = 1;
        report.generation = Some(snapshot.version());
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            sink.finish();
            return Ok(report);
        }

        // Resolve the grid floor exactly as the one-shot reference would:
        // max of the A-side floor (pre-computed at publish over the logical
        // live order) and this batch's floor. A reader joins on one worker,
        // with the tree on the served side.
        let cfg = &self.config;
        let min_cell = snapshot.a_cell_floor().max(cfg.min_local_cell_size_of_objects(batch));
        let plan = JoinPlan {
            strategy: ExecutionStrategy::Sequential,
            build_on_a: true,
            partitions: cfg.partitions,
            fanout: cfg.fanout,
            params: cfg.local_join_params(min_cell),
            chunk_size: JoinPlanner::DEFAULT_CHUNK_SIZE,
            sort_threshold: JoinPlanner::DEFAULT_SORT_THRESHOLD,
            estimated_work: (snapshot.live() + batch.len()) as u64,
            estimate: None,
        };

        self.buffer.clear();
        let (tree, buffer, pool) = (&snapshot.tree, &mut self.buffer, &mut self.pool);
        let (counters, timer, shape) = (&mut report.counters, &mut report.timer, Shape::Pair);
        let (aux, cause) =
            assign_and_join(tree, buffer, batch, &plan, shape, sink, pool, counters, timer, ctl)?;
        report.memory_bytes = tree.memory_bytes() + buffer.memory_bytes() + aux;
        if let Some(c) = cause {
            report.completion = c.completion();
        }
        sink.finish();
        Ok(report)
    }

    /// [`SnapshotReader::try_query`] against a [`BoundedSink`], mapping a
    /// tripped result-memory cap to [`JoinError::ResourceExhausted`]: under
    /// [`OverflowPolicy::Truncate`] a query whose result set would exceed the
    /// sink's capacity is reported as a hard budget failure instead of a
    /// silently truncated success. A flushing sink never exhausts (it spills),
    /// so this behaves exactly like `try_query`.
    pub fn try_query_bounded(
        &mut self,
        batch: &[SpatialObject],
        sink: &mut BoundedSink<'_>,
        ctl: ExecControl<'_>,
    ) -> Result<RunReport, JoinError> {
        let report = self.try_query(batch, sink, ctl)?;
        if sink.policy() == OverflowPolicy::Truncate && sink.is_done() {
            return Err(JoinError::ResourceExhausted {
                detail: format!("bounded sink capacity of {} pairs reached", sink.capacity()),
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;
    use touch_core::CountingSink;
    use touch_geom::{Dataset, Point3};

    fn unit_box(x: f64) -> Aabb {
        Aabb::new(Point3::new(x, 0.0, 0.0), Point3::new(x + 1.0, 1.0, 1.0))
    }

    fn server_of_eight() -> JoinServer {
        let a = Dataset::from_mbrs((0..8).map(|i| unit_box(2.0 * f64::from(i))));
        JoinServer::new(&a, ServeConfig::default())
    }

    #[test]
    fn load_returns_the_published_generation() {
        let server = server_of_eight();
        assert_eq!((server.snapshot().version(), server.snapshot().live()), (0, 8));

        let mut middle = Weak::new();
        for version in 1..=2 {
            server.insert(unit_box(100.0 + 2.0 * version as f64));
            assert_eq!(server.publish(), version);
            assert_eq!(server.snapshot().version(), version);
            if version == 1 {
                middle = Arc::downgrade(&server.snapshot());
            }
        }
        assert!(middle.upgrade().is_none(), "an unheld generation is freed at the next publish");

        let newest = server.snapshot();
        assert_eq!((newest.version(), newest.live()), (2, 10));
        assert_eq!(server.generation(), 2);
        let report = server.reader().query(&[], &mut CountingSink::new());
        assert_eq!(report.generation, Some(2));
    }

    #[test]
    fn snapshots_outlive_the_publish_that_replaces_them() {
        let server = server_of_eight();
        let held = server.snapshot();
        let held_objects = held.tree().a_objects().to_vec();

        for version in 1..=2 {
            server.insert(unit_box(100.0 + 2.0 * version as f64));
            assert_eq!(server.publish(), version);
        }

        // The held snapshot keeps its version and its tree...
        assert_eq!(held.version(), 0);
        assert_eq!(held.tree().a_objects(), held_objects.as_slice());
        assert_eq!(server.snapshot().version(), 2);

        // ...and the replaced generation dies with its last snapshot.
        let replaced = Arc::downgrade(&held);
        drop(held);
        assert!(replaced.upgrade().is_none());
    }
}
