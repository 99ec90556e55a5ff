//! The serving layer: a mutable A-side behind immutable, queryable snapshots.
//!
//! A [`JoinServer`] owns the A dataset of a TOUCH join as a sequence of
//! **generations** — frozen [`TouchTree`]s published through the lock-free
//! [`GenCell`]. Mutations ([`JoinServer::insert`], [`JoinServer::remove`])
//! buffer into a delta; [`JoinServer::publish`] folds the delta into the next
//! generation and swaps it in atomically. Reader threads hold
//! [`SnapshotReader`]s and run planned joins against whichever generation was
//! current when their query started — never blocking on the writer, never
//! observing a half-built tree.
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
use crate::snapshot::GenCell;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use touch_core::{
    catch_phase, deliver, time_phase_traced, AssignmentBuffer, ExecControl, JoinError, JoinPlanner,
    LocalJoinScratch, PairSink, TouchConfig, TouchTree,
};
use touch_geom::{Aabb, ObjectId, SpatialObject};
use touch_metrics::{MemoryUsage, Phase, RunReport, TraceEvent};

/// Configuration of a [`JoinServer`].
#[derive(Debug, Clone, Copy)]
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
    /// Hazard slots of the generation cell — the number of readers that can be
    /// *mid-snapshot-acquisition* at once, not a reader-count limit (see
    /// [`GenCell`]).
    pub hazard_slots: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { touch: TouchConfig::default(), delta_limit: None, hazard_slots: 64 }
    }
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

/// The concurrent serving layer over a mutable A-side: buffered mutations
/// ([`JoinServer::insert`] / [`JoinServer::remove`]), explicit generation
/// publishes ([`JoinServer::publish`]), lock-free snapshot readers
/// ([`JoinServer::reader`]).
#[derive(Debug)]
pub struct JoinServer {
    cell: Arc<GenCell<Generation>>,
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
            cell: Arc::new(GenCell::new(Arc::new(generation), config.hazard_slots)),
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
            cell: Arc::clone(&self.cell),
            config: self.config.touch,
            buffer: AssignmentBuffer::new(),
            scratch: LocalJoinScratch::new(),
        }
    }

    /// The currently served generation (what a query starting now would see).
    pub fn snapshot(&self) -> Arc<Generation> {
        self.cell.load()
    }

    /// The currently served generation number.
    pub fn generation(&self) -> u64 {
        self.cell.load().version()
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
    /// keep querying the old generation throughout and switch atomically.
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
                let previous = self.cell.load();
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

        // Commit: canonical state and the published cell advance together,
        // under the writer lock, after the only fallible region succeeded.
        state.live = next_live;
        for id in &removes {
            state.live_ids.remove(id);
        }
        state.live_ids.extend(inserts.iter().map(|o| o.id));
        state.version = version;
        self.cell.publish(Arc::new(generation));
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
/// Each query snapshots the current generation ([`GenCell::load`] — lock-free)
/// and runs the assignment + local-join phases against it with reader-owned
/// memory ([`AssignmentBuffer`], [`LocalJoinScratch`]), so any number of
/// readers proceed fully independently, at full speed, while the server
/// rebuilds. The reader reuses its buffers across queries: a warmed-up reader
/// allocates nothing on the query path.
#[derive(Debug)]
pub struct SnapshotReader {
    cell: Arc<GenCell<Generation>>,
    config: TouchConfig,
    buffer: AssignmentBuffer,
    scratch: LocalJoinScratch,
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
    /// the assignment/join phases and every per-node join record spans (as
    /// worker 0).
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
        let snapshot = self.cell.load();
        let mut report = RunReport::new("TOUCH-SERVE".to_string(), snapshot.live(), batch.len());
        report.threads = 1;
        report.generation = Some(snapshot.version());
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            sink.finish();
            return Ok(report);
        }
        let trace = ctl.trace;

        // Resolve the grid floor exactly as the one-shot reference would:
        // max of the A-side floor (pre-computed at publish over the logical
        // live order) and this batch's floor.
        let min_cell =
            snapshot.a_cell_floor().max(self.config.min_local_cell_size_of_objects(batch));
        let params = self.config.local_join_params(min_cell);

        self.buffer.clear();
        let mut counters = std::mem::take(&mut report.counters);
        let buffer = &mut self.buffer;
        let assigned = catch_phase(Phase::Assignment, 0, || {
            time_phase_traced(&mut report, Phase::Assignment, trace, || {
                buffer.assign_ctl(&snapshot.tree, batch, &mut counters, ctl.cancel)
            })
        });
        let assign_cause = match assigned {
            Ok(cause) => cause,
            Err(e) => {
                report.counters = counters;
                return Err(e);
            }
        };
        if let Some(cause) = assign_cause {
            report.counters = counters;
            report.completion = cause.completion();
            report.memory_bytes = snapshot.tree.memory_bytes() + self.buffer.memory_bytes();
            sink.finish();
            return Ok(report);
        }

        let buffer = &self.buffer;
        let scratch = &mut self.scratch;
        let mut results = 0u64;
        let joined = catch_phase(Phase::Join, 0, || {
            time_phase_traced(&mut report, Phase::Join, trace, || {
                buffer.join_ctl(
                    &snapshot.tree,
                    &params,
                    scratch,
                    &mut counters,
                    &mut |a_id, b_id| deliver(sink, a_id, b_id, &mut results),
                    ctl,
                    0,
                )
            })
        });
        counters.results += results;
        report.counters = counters;
        match joined {
            Ok((local_aux, cause)) => {
                report.memory_bytes =
                    snapshot.tree.memory_bytes() + buffer.memory_bytes() + local_aux;
                if let Some(c) = cause {
                    report.completion = c.completion();
                }
                sink.finish();
                Ok(report)
            }
            Err(e) => Err(e),
        }
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

    /// The generation a query starting now would run against.
    pub fn current_generation(&self) -> u64 {
        self.cell.load().version()
    }
}
