//! The streaming engine: a persistent TOUCH tree serving batched probe epochs.

use crate::EpochReport;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use touch_core::{
    catch_phase, DatasetStats, ExecControl, JoinError, JoinPlan, JoinPlanner, PairSink, PlanEnv,
    ScratchPool, Shape, SpatialJoinAlgorithm, TouchConfig, TouchTree,
};
use touch_geom::{Dataset, SpatialObject};
use touch_metrics::{Counters, MemoryUsage, Phase, RunReport, TraceEvent, TraceSink};
use touch_parallel::phases::{par_assign_ctl, par_build_tree, par_join_into_ctl, resolve_threads};

/// Configuration of [`StreamingTouchJoin`].
///
/// Wraps the algorithmic knobs of [`TouchConfig`] with the execution knobs of the
/// parallel subsystem. Two `TouchConfig` fields behave differently in streaming
/// mode, both pinned so that epoch splits cannot change the computation:
///
/// * `join_order` is ignored — the hierarchy is always built on the dataset handed
///   to [`StreamingTouchJoin::build`]; the B side streams in and is never indexed.
/// * `min_cell_factor` is applied to the **tree dataset only**
///   ([`TouchConfig::min_local_cell_size_of`]): the stream's global average object
///   size is unknowable at build time, and sizing cells per epoch would make grid
///   decisions depend on how the stream happens to be batched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// The algorithmic configuration shared with the one-shot joins.
    pub touch: TouchConfig,
    /// Worker threads: `1` (the default) runs the strictly sequential path, `0`
    /// auto-detects ([`std::thread::available_parallelism`]), anything else runs
    /// the work-stealing parallel path of `touch-parallel` at that width.
    pub threads: usize,
    /// Probe objects per parallel-assignment work unit (as in
    /// [`touch_parallel::ParallelConfig::chunk_size`]).
    pub chunk_size: usize,
    /// Inputs of at most this many objects are STR-sorted on one thread at build
    /// (as in [`touch_parallel::ParallelConfig::sort_threshold`]).
    pub sort_threshold: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        // Execution knobs share the planner's constants (see `ParallelConfig`).
        StreamingConfig {
            touch: TouchConfig::default(),
            threads: 1,
            chunk_size: JoinPlanner::DEFAULT_CHUNK_SIZE,
            sort_threshold: JoinPlanner::DEFAULT_SORT_THRESHOLD,
        }
    }
}

impl StreamingConfig {
    /// The default configuration pinned to an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        StreamingConfig { threads, ..StreamingConfig::default() }
    }

    /// Resolves the configured thread count (`0` → available parallelism), via the
    /// same [`resolve_threads`] rule [`touch_parallel::ParallelConfig`] uses.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// The batched/streaming TOUCH join: build the hierarchy over dataset A once, then
/// join epoch after epoch of dataset B against it.
///
/// Lifecycle: [`build`](StreamingTouchJoin::build) → N ×
/// [`push_batch`](StreamingTouchJoin::push_batch) →
/// [`reset`](StreamingTouchJoin::reset) → N × `push_batch` → … — one tree, many
/// B streams. Every epoch starts from a clean assignment
/// ([`TouchTree::clear_assignment`]), so epochs are independent; the engine's
/// [`cumulative_report`](StreamingTouchJoin::cumulative_report) merges them into the
/// one-shot-comparable record (build charged once, per-epoch work summed).
///
/// See the [crate docs](crate) for the epoch-equivalence guarantee.
#[derive(Debug, Clone)]
pub struct StreamingTouchJoin {
    config: StreamingConfig,
    threads: usize,
    tree: TouchTree,
    /// The resolved plan the current stream executes: partitioning pinned at
    /// build, local-join parameters pinned per stream (never mid-stream, so
    /// epoch splits stay equivalence-exact).
    plan: JoinPlan,
    /// `Some` when the engine was built through the planning layer
    /// ([`StreamingTouchJoin::build_planned`]): [`StreamingTouchJoin::reset`]
    /// then re-plans the next stream's local-join parameters from the statistics
    /// accumulated over the previous stream's epochs.
    planner: Option<JoinPlanner>,
    /// Statistics of the tree dataset, collected once at build.
    tree_stats: DatasetStats,
    /// Statistics of the current stream's probe side, accumulated batch by batch
    /// ([`DatasetStats::merge`] — exact, see `touch-core`'s stats module).
    stream_stats: DatasetStats,
    /// Snapshot of the cumulative report right after the build: what `reset`
    /// rewinds to.
    base: RunReport,
    cumulative: RunReport,
    epochs: usize,
    streams: usize,
    /// Reusable join-phase memory — per-worker grid directories, sweep buffers and
    /// the work list — retained across epochs *and* streams, so a warmed-up engine
    /// allocates nothing in its join phase.
    scratch: ScratchPool,
    /// Sliding-window bookkeeping ([`StreamingTouchJoin::push_windowed`]): one
    /// record per live epoch, oldest first, each listing `(node, count)` — how
    /// many of that epoch's objects every node received. Eviction replays the
    /// oldest record through [`TouchTree::retract_assigned`] instead of
    /// clearing, so the rest of the window stays assigned. Empty outside
    /// window mode.
    window_records: VecDeque<Vec<(u32, u32)>>,
    /// Per-node assigned count over the current window (lazily sized to the
    /// tree): the baseline the next epoch's record is diffed against.
    window_len: Vec<u32>,
}

impl StreamingTouchJoin {
    /// Builds the persistent hierarchy over dataset `a` (Algorithm 2; the parallel
    /// stable STR sort at `threads > 1`, bit-identical to the sequential sort).
    /// This is the amortised cost: every epoch of every stream reuses the tree.
    pub fn build(a: &Dataset, config: StreamingConfig) -> Self {
        let plan = JoinPlan::from_streaming_tree(
            &config.touch,
            a,
            config.effective_threads(),
            config.chunk_size,
            config.sort_threshold,
        );
        Self::build_with_plan_inner(a, config, plan, None)
    }

    /// Builds the persistent hierarchy with **statistics-driven planning**: the
    /// tree knobs (partitions, fanout, grid sizing, all-pairs cutoff) come from
    /// `planner` over the tree dataset's statistics, and every
    /// [`reset`](StreamingTouchJoin::reset) **re-plans the next stream** from the
    /// probe statistics accumulated over the finished stream's epochs — a stream
    /// of tiny objects shrinks the next stream's grid cells, a stream of large
    /// ones grows them. Within a stream the parameters never change, so the
    /// epoch-split equivalence guarantee is untouched.
    ///
    /// `config.touch` is ignored except as the source of execution knobs
    /// (threads, chunk size, sort threshold); the algorithmic knobs are planned.
    pub fn build_planned(a: &Dataset, config: StreamingConfig, planner: JoinPlanner) -> Self {
        let tree_stats = DatasetStats::from_dataset(a);
        let threads = config.effective_threads();
        let env = PlanEnv::sequential().with_threads(threads);
        // The configured worker count is an execution knob the caller owns, not
        // a planning decision: pin the recorded strategy to it so the plan on
        // every report matches the workers that actually run the epochs.
        let plan = planner
            .plan_streaming(&tree_stats, &DatasetStats::new(), &env)
            .with_execution(config.chunk_size, config.sort_threshold)
            .with_strategy(touch_core::ExecutionStrategy::Streaming { threads });
        let mut engine = Self::build_with_plan_inner(a, config, plan, Some(planner));
        engine.tree_stats = tree_stats;
        engine
    }

    /// Builds the persistent hierarchy executing a pre-computed, fully resolved
    /// [`JoinPlan`] — the constructor the planning layer's one-shot dispatch
    /// uses. The plan's partitioning and local-join parameters are pinned; its
    /// strategy supplies the worker count.
    pub fn build_with_plan(a: &Dataset, plan: JoinPlan) -> Self {
        let config = StreamingConfig {
            touch: plan.as_touch_config(),
            threads: plan.threads(),
            chunk_size: plan.chunk_size,
            sort_threshold: plan.sort_threshold,
        };
        Self::build_with_plan_inner(a, config, plan, None)
    }

    fn build_with_plan_inner(
        a: &Dataset,
        config: StreamingConfig,
        plan: JoinPlan,
        planner: Option<JoinPlanner>,
    ) -> Self {
        let threads = config.effective_threads();
        let mut base = RunReport::new(format!("TOUCH-S{threads}"), a.len(), 0);
        base.threads = threads;
        base.epochs = 0;
        base.plan = Some(plan.summary());
        let (tree, sort_aux) = base.timer.time(Phase::Build, || {
            par_build_tree(a.objects(), plan.partitions, plan.fanout, threads, plan.sort_threshold)
        });
        base.memory_bytes = tree.memory_bytes() + sort_aux;
        let cumulative = base.clone();
        StreamingTouchJoin {
            config,
            threads,
            tree,
            plan,
            planner,
            tree_stats: DatasetStats::new(),
            stream_stats: DatasetStats::new(),
            base,
            cumulative,
            epochs: 0,
            streams: 1,
            scratch: ScratchPool::new(),
            window_records: VecDeque::new(),
            window_len: Vec::new(),
        }
    }

    /// Builds a persistent **distance-join** tree: dataset `a` is ε-extended once,
    /// the hierarchy is built over the extended boxes, and every epoch pushed
    /// through [`StreamingTouchJoin::push_batch`] therefore answers the
    /// within-distance-ε predicate (Section 4's translation, paid once per tree
    /// instead of once per query).
    ///
    /// `RunReport::epsilon` is stamped on the engine's base record **before** any
    /// epoch runs, so every partial [`cumulative_report`] — including one taken
    /// mid-stream — already carries the threshold.
    ///
    /// [`cumulative_report`]: StreamingTouchJoin::cumulative_report
    pub fn build_extended(a: &Dataset, eps: f64, config: StreamingConfig) -> Self {
        let extended = a.extended(eps);
        let mut engine = Self::build(&extended, config);
        engine.base.epsilon = eps;
        engine.cumulative.epsilon = eps;
        engine
    }

    /// Joins one epoch of the B stream against the persistent tree: clears the
    /// previous epoch's assignments, assigns `batch` (Algorithm 3), runs the local
    /// joins (Algorithm 4) into `sink`, and returns this epoch's [`EpochReport`].
    ///
    /// Both phases run through [`touch_parallel::phases`], which joins in-thread
    /// at `threads == 1` and on the work-stealing machinery otherwise. The two
    /// paths are deterministically equivalent — same pairs, same counters, at
    /// every width. `sink` is any [`PairSink`]; an early-terminating sink
    /// ([`PairSink::is_done`]) stops the epoch's local joins.
    ///
    /// This is [`try_push_batch`](StreamingTouchJoin::try_push_batch) with
    /// [`ExecControl::infallible`]; it panics if a phase panics.
    pub fn push_batch(&mut self, batch: &[SpatialObject], sink: &mut dyn PairSink) -> EpochReport {
        self.try_push_batch(batch, sink, ExecControl::infallible())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`StreamingTouchJoin::push_batch`] for **self-joins**: the pushed batch is
    /// (an ε-extension of) the very dataset the tree was built over, with the
    /// object ids aligned, and the local joins keep only pairs with
    /// `tree_id < probe_id` — each unordered pair exactly once, identities never.
    /// The filter sits inside the kernels, so an early-terminating sink's budget
    /// is spent on real self-join pairs only; comparison/node-test counters stay
    /// pre-filter, exactly as in the one-shot engines' self-join paths.
    pub fn push_batch_self(
        &mut self,
        batch: &[SpatialObject],
        sink: &mut dyn PairSink,
    ) -> EpochReport {
        self.try_push_batch_self(batch, sink, ExecControl::infallible())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`StreamingTouchJoin::push_batch`]: the epoch polls
    /// `ctl.cancel` at chunk (assignment) and node (join) granularity and
    /// contains worker panics instead of aborting the process. With `ctl.trace`
    /// enabled the whole epoch is wrapped in a [`TraceEvent::Epoch`] span and
    /// the assignment and join phases record their per-chunk / per-node spans
    /// (and steals) — tracing never changes pairs or counters.
    ///
    /// * A token that trips **before** the epoch starts leaves the engine
    ///   completely untouched — no assignments cleared, no statistics merged,
    ///   no epoch counted — so the same batch can simply be pushed again.
    /// * A token that trips **mid-epoch** returns `Ok` with a *partial*
    ///   [`EpochReport`] whose [`completion`](EpochReport::completion) says
    ///   why; the pairs already delivered to `sink` and the partial counters
    ///   are folded into the cumulative record and the epoch is counted, so
    ///   the stream can keep going.
    /// * A panicked phase worker returns [`JoinError::WorkerPanicked`]; the
    ///   failed epoch is **not** counted, its partial assignments are cleared,
    ///   and the engine remains usable.
    pub fn try_push_batch(
        &mut self,
        batch: &[SpatialObject],
        sink: &mut dyn PairSink,
        ctl: ExecControl<'_>,
    ) -> Result<EpochReport, JoinError> {
        self.push_epoch_ctl(batch, sink, ctl, false, None)
    }

    /// Fallible [`StreamingTouchJoin::push_batch_self`] — the self-join form
    /// of [`try_push_batch`](StreamingTouchJoin::try_push_batch), with the
    /// same cancellation and containment contract.
    pub fn try_push_batch_self(
        &mut self,
        batch: &[SpatialObject],
        sink: &mut dyn PairSink,
        ctl: ExecControl<'_>,
    ) -> Result<EpochReport, JoinError> {
        self.push_epoch_ctl(batch, sink, ctl, true, None)
    }

    /// Joins `batch` as the newest epoch of a **sliding window** holding the
    /// last `window` epochs: epochs that fall out of the window are *evicted* —
    /// their per-node assignments retracted through
    /// [`TouchTree::retract_assigned`] — instead of the all-or-nothing
    /// [`TouchTree::clear_assignment`] of [`push_batch`], and the local joins
    /// then run over **everything still in the window**, not just `batch`.
    ///
    /// The epoch's join output (pairs into `sink`, join-phase counters,
    /// [`EpochReport::assigned`]) is bit-identical to a fresh engine that
    /// assigned exactly the surviving epochs in arrival order: eviction drains
    /// each node's list from the front, and arrival order within an epoch is
    /// preserved at every thread count, so the window's per-node B-lists are
    /// literally the concatenation of the surviving epochs' contributions.
    /// Assignment counters remain per-batch (only `batch` descends the tree).
    ///
    /// Mixing modes is safe: a `push_windowed` after [`push_batch`] discards the
    /// stale non-window epoch, and a `push_batch` (or
    /// [`reset`](StreamingTouchJoin::reset)) drops the window.
    ///
    /// This is [`try_push_windowed`](StreamingTouchJoin::try_push_windowed)
    /// with [`ExecControl::infallible`]; it panics if a phase panics.
    ///
    /// # Panics
    /// Panics if `window` is 0.
    ///
    /// [`push_batch`]: StreamingTouchJoin::push_batch
    pub fn push_windowed(
        &mut self,
        batch: &[SpatialObject],
        window: usize,
        sink: &mut dyn PairSink,
    ) -> EpochReport {
        self.try_push_windowed(batch, window, sink, ExecControl::infallible())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`StreamingTouchJoin::push_windowed`], with the cancellation
    /// and containment contract of
    /// [`try_push_batch`](StreamingTouchJoin::try_push_batch): a pre-tripped
    /// token leaves the engine (window included) untouched, a mid-epoch trip
    /// returns a partial report whose epoch stays in the window, and a
    /// contained panic returns [`JoinError::WorkerPanicked`] after dropping
    /// the **whole** window, so no unrecorded assignment can survive to escape
    /// a later eviction. With `ctl.trace` enabled every evicted epoch also
    /// records a [`TraceEvent::Eviction`] instant.
    ///
    /// # Panics
    /// Panics if `window` is 0.
    pub fn try_push_windowed(
        &mut self,
        batch: &[SpatialObject],
        window: usize,
        sink: &mut dyn PairSink,
        ctl: ExecControl<'_>,
    ) -> Result<EpochReport, JoinError> {
        assert!(window >= 1, "a sliding window holds at least one epoch");
        self.push_epoch_ctl(batch, sink, ctl, false, Some(window))
    }

    /// The one epoch code path: `window` selects sliding-window mode (evict
    /// the epochs that fall out, then record this epoch's per-node
    /// contribution) over the clear-and-assign of a plain epoch.
    fn push_epoch_ctl(
        &mut self,
        batch: &[SpatialObject],
        sink: &mut dyn PairSink,
        ctl: ExecControl<'_>,
        self_join: bool,
        window: Option<usize>,
    ) -> Result<EpochReport, JoinError> {
        let mut report = EpochReport {
            epoch: self.epochs,
            batch_size: batch.len(),
            assigned: 0,
            counters: Counters::new(),
            timer: touch_metrics::PhaseTimer::new(),
            memory_bytes: 0,
            threads: self.threads,
            completion: touch_metrics::Completion::Complete,
        };
        // A pre-tripped token leaves the engine untouched — nothing cleared,
        // nothing evicted, nothing merged, the epoch not counted — so retrying
        // the batch later is indistinguishable from pushing it the first time.
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            return Ok(report);
        }
        let trace = ctl.trace;
        let epoch_start_us = if trace.is_enabled() { trace.now_us() } else { 0 };
        match window {
            // Leaving window mode: the window's assignments go with the clear,
            // so its records must not survive to mis-describe a later eviction.
            None => {
                self.clear_window();
                self.tree.clear_assignment();
            }
            Some(window) => self.evict_to(window, trace),
        }
        self.stream_stats.merge(&DatasetStats::from_objects(batch));

        let mut counters = Counters::new();
        let assigned = report.timer.time(Phase::Assignment, || {
            par_assign_ctl(
                &mut self.tree,
                batch,
                self.plan.chunk_size,
                self.threads,
                &mut counters,
                ctl,
            )
        });
        // A panicked assignment worker fails the whole epoch (and drops any
        // window); the cumulative record never sees the failed epoch.
        let (assign_aux, mut cause) = assigned.map_err(|e| self.abandon_epoch(e))?;
        // In window mode `assigned` covers the whole surviving window — that
        // is what the join below runs over.
        report.assigned = self.tree.assigned_b_count();
        if window.is_some() {
            self.record_window_epoch();
        }

        let mut join_aux = 0;
        if cause.is_none() {
            let params = self.plan.params;
            let tree = &self.tree;
            let pool = &mut self.scratch;
            // The streaming tree is always on A with no swap, so the self-join
            // index-order filter applies directly. par_join_into_ctl adds the
            // delivered pairs to `counters.results`.
            let joined = report.timer.time(Phase::Join, || {
                par_join_into_ctl(
                    tree,
                    &params,
                    self.threads,
                    false,
                    self_join,
                    sink,
                    pool,
                    &mut counters,
                    ctl,
                )
            });
            let (aux, join_cause) = joined.map_err(|e| self.abandon_epoch(e))?;
            join_aux = aux;
            cause = join_cause;
        }

        report.counters = counters;
        report.memory_bytes = self.tree.memory_bytes() + assign_aux + join_aux;
        if let Some(c) = cause {
            report.completion = c.completion();
        }

        if trace.is_enabled() {
            trace.record(TraceEvent::Epoch {
                epoch: report.epoch,
                batch_size: report.batch_size,
                start_us: epoch_start_us,
                duration_us: trace.now_us().saturating_sub(epoch_start_us),
            });
        }

        // A cancelled epoch still merges: its pairs reached the sink and its
        // counters describe real work, so the cumulative record stays an
        // honest account of everything the stream has actually done.
        self.cumulative.merge_epoch(
            report.batch_size,
            &report.counters,
            &report.timer,
            report.memory_bytes,
        );
        self.epochs += 1;
        Ok(report)
    }

    /// Makes room for one more epoch in a sliding window of `window` epochs:
    /// evicts the oldest epochs, oldest first, before the new batch arrives
    /// (their objects sit at the front of every per-node list, exactly what
    /// [`TouchTree::retract_assigned`] drains).
    fn evict_to(&mut self, window: usize, trace: &dyn TraceSink) {
        // Entering window mode after a push_batch: that epoch's assignments are
        // still in the tree (push_batch clears at the *start* of the next
        // call) but have no window record, so they could never be evicted.
        if self.window_records.is_empty() {
            self.tree.clear_assignment();
        }
        while self.window_records.len() >= window {
            let evicted_epoch = self.epochs - self.window_records.len();
            #[allow(clippy::expect_used)] // the loop guard checked len() >= window >= 1
            let record = self.window_records.pop_front().expect("len checked above");
            let mut objects = 0usize;
            for &(node, count) in &record {
                self.window_len[node as usize] -= count;
                objects += count as usize;
            }
            self.tree.retract_assigned(record.iter().map(|&(n, c)| (n as usize, c as usize)));
            if trace.is_enabled() {
                trace.record(TraceEvent::Eviction {
                    epoch: evicted_epoch,
                    objects,
                    at_us: trace.now_us(),
                });
            }
        }
    }

    /// Diffs the per-node list lengths against the pre-push window to record
    /// what the epoch just assigned contributed — the ledger its own eviction
    /// replays.
    fn record_window_epoch(&mut self) {
        if self.window_len.len() < self.tree.node_count() {
            self.window_len.resize(self.tree.node_count(), 0);
        }
        let mut record = Vec::new();
        for &node in self.tree.touched_nodes() {
            let cur = self.tree.assigned_b(node as usize).len() as u32;
            let prev = self.window_len[node as usize];
            if cur > prev {
                record.push((node, cur - prev));
                self.window_len[node as usize] = cur;
            }
        }
        self.window_records.push_back(record);
    }

    /// Drops every assignment and the window a failed epoch leaves behind —
    /// its partial assignments have no window record and could never be
    /// evicted — and hands the error back.
    fn abandon_epoch(&mut self, e: JoinError) -> JoinError {
        self.clear_window();
        self.tree.clear_assignment();
        e
    }

    /// Number of epochs currently held by the sliding window (0 outside
    /// [window mode](StreamingTouchJoin::push_windowed)).
    pub fn window_epochs(&self) -> usize {
        self.window_records.len()
    }

    /// Drops all sliding-window bookkeeping (the matching assignments are the
    /// caller's to clear — every call site pairs this with
    /// [`TouchTree::clear_assignment`]).
    fn clear_window(&mut self) {
        self.window_records.clear();
        // Cleared, not zeroed: the lazy resize in record_window_epoch refills
        // with zeros.
        self.window_len.clear();
    }

    /// Starts a new B stream over the same tree: clears the current assignments and
    /// rewinds the epoch counter and cumulative report to their post-build state.
    /// The tree itself — and therefore the amortised build investment — is kept.
    ///
    /// A [planned](StreamingTouchJoin::build_planned) engine additionally
    /// **re-plans the next stream** here: the local-join parameters (grid cell
    /// floor, all-pairs cutoff) are re-derived from the tree statistics plus the
    /// probe statistics accumulated over the finished stream. The tree structure
    /// (partitions, fanout) stays as built. Explicitly configured engines keep
    /// their pinned parameters forever, exactly as before the planning layer.
    pub fn reset(&mut self) {
        self.clear_window();
        self.tree.clear_assignment();
        if let Some(planner) = self.planner {
            if !self.stream_stats.is_empty() {
                let env = PlanEnv::sequential().with_threads(self.threads);
                let replanned = planner
                    .plan_streaming(&self.tree_stats, &self.stream_stats, &env)
                    .with_execution(self.plan.chunk_size, self.plan.sort_threshold);
                // Only the per-stream knobs may move: the hierarchy is built and
                // its partitioning is no longer negotiable.
                self.plan.params = replanned.params;
                self.base.plan = Some(self.plan.summary());
            }
        }
        self.cumulative = self.base.clone();
        self.epochs = 0;
        self.streams += 1;
        self.stream_stats = DatasetStats::new();
    }

    /// Number of epochs pushed in the current stream.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Number of streams this tree has served (1 + completed [`reset`]s).
    ///
    /// [`reset`]: StreamingTouchJoin::reset
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// The resolved worker count every epoch runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The persistent hierarchy (read-only; epochs mutate only its assignments).
    pub fn tree(&self) -> &TouchTree {
        &self.tree
    }

    /// The minimum local-join grid cell size of the current stream's plan. For an
    /// explicitly configured engine this is derived from the tree dataset at
    /// build time and never changes (see [`StreamingConfig`]); a
    /// [planned](StreamingTouchJoin::build_planned) engine may refine it per
    /// stream at [`reset`](StreamingTouchJoin::reset).
    pub fn min_cell(&self) -> f64 {
        self.plan.params.min_cell_size
    }

    /// The resolved plan the current stream executes.
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// The probe statistics accumulated over the current stream's epochs
    /// ([`DatasetStats::merge`] of every pushed batch).
    pub fn stream_stats(&self) -> &DatasetStats {
        &self.stream_stats
    }

    /// Wall-clock cost of building the tree — the investment the stream amortises.
    pub fn build_time(&self) -> std::time::Duration {
        self.base.timer.get(Phase::Build)
    }

    /// The cumulative record of the current stream: the build (charged once) plus
    /// every pushed epoch, merged with [`RunReport::merge_epoch`]. Lines up with a
    /// one-shot [`touch_core::TouchJoin`] report over the concatenated batches.
    pub fn cumulative_report(&self) -> RunReport {
        self.cumulative.clone()
    }
}

/// The streaming engine exposed as a one-shot [`SpatialJoinAlgorithm`]: builds the
/// persistent tree over A and pushes the whole of B as a single epoch.
///
/// This is the adapter that lets the streaming engine participate in the unified
/// [`touch_core::JoinQuery`] facade (and in every cross-engine equivalence suite)
/// alongside `TouchJoin` and `ParallelTouchJoin`. For actual serving workloads use
/// [`StreamingTouchJoin`] directly — the whole point of the engine is *not* to
/// rebuild the tree per query.
#[derive(Debug, Clone, Default)]
pub struct OneShotStreaming {
    config: StreamingConfig,
    plan: Option<JoinPlan>,
}

impl OneShotStreaming {
    /// Wraps `config` as a one-shot algorithm.
    pub fn new(config: StreamingConfig) -> Self {
        OneShotStreaming { config, plan: None }
    }

    /// Wraps a pre-computed, fully resolved [`JoinPlan`] as a one-shot
    /// algorithm: every run builds the tree with the plan's partitioning and
    /// joins with its pinned local-join parameters
    /// ([`StreamingTouchJoin::build_with_plan`]).
    pub fn from_plan(plan: JoinPlan) -> Self {
        OneShotStreaming {
            config: StreamingConfig {
                touch: plan.as_touch_config(),
                threads: plan.threads(),
                chunk_size: plan.chunk_size,
                sort_threshold: plan.sort_threshold,
            },
            plan: Some(plan),
        }
    }

    /// The streaming configuration every run builds with.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }
}

impl SpatialJoinAlgorithm for OneShotStreaming {
    fn name(&self) -> String {
        format!("TOUCH-S{}", self.config.effective_threads())
    }

    fn plan_for(&self, a: &Dataset, _b: &Dataset, _shape: Shape) -> Option<JoinPlan> {
        Some(self.plan.unwrap_or_else(|| {
            JoinPlan::from_streaming_tree(
                &self.config.touch,
                a,
                self.config.effective_threads(),
                self.config.chunk_size,
                self.config.sort_threshold,
            )
        }))
    }

    /// The one-shot run: build under panic containment, push the whole probe
    /// side as a single cancellable epoch, and fold the engine's cumulative
    /// record (and the epoch's completion) into the run report.
    fn try_join(
        &self,
        a: &Dataset,
        b: &Dataset,
        shape: Shape,
        sink: &mut dyn PairSink,
        report: &mut RunReport,
        ctl: ExecControl<'_>,
    ) -> Result<(), JoinError> {
        if let Some(cause) = ctl.cancel.triggered() {
            report.completion = cause.completion();
            return Ok(());
        }
        let mut engine = catch_phase(Phase::Build, 0, || match self.plan {
            Some(plan) => StreamingTouchJoin::build_with_plan(a, plan),
            None => StreamingTouchJoin::build(a, self.config),
        })?;
        let self_join = shape == Shape::SelfJoin;
        let epoch = engine.push_epoch_ctl(b.objects(), sink, ctl, self_join, None)?;
        report.completion = epoch.completion;
        let cumulative = engine.cumulative_report();
        report.threads = cumulative.threads;
        report.epochs = cumulative.epochs;
        report.plan = cumulative.plan.clone();
        report.counters.merge(&cumulative.counters);
        report.timer.merge(&cumulative.timer);
        report.memory_bytes = report.memory_bytes.max(cumulative.memory_bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_core::{collect_join, CollectingSink, CountingSink, JoinOrder, JoinQuery, TouchJoin};
    use touch_geom::{Aabb, Point3};

    fn lattice(side: usize, spacing: f64, box_side: f64, offset: f64) -> Dataset {
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(
                        x as f64 * spacing + offset,
                        y as f64 * spacing + offset,
                        z as f64 * spacing + offset,
                    );
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(box_side)));
                }
            }
        }
        ds
    }

    /// A touch config whose one-shot run matches the streaming engine's pinned
    /// decisions: tree on A, and A's objects at least as large as B's (so the
    /// one-shot min-cell equals the tree-only min-cell).
    fn touch_cfg() -> TouchConfig {
        TouchConfig { partitions: 16, join_order: JoinOrder::TreeOnA, ..TouchConfig::default() }
    }

    fn streaming_cfg(threads: usize) -> StreamingConfig {
        StreamingConfig { touch: touch_cfg(), threads, chunk_size: 16, sort_threshold: 32 }
    }

    /// A is a lattice of unit boxes, B of smaller boxes: avg side A > avg side B.
    fn workloads() -> (Dataset, Dataset) {
        (lattice(5, 1.5, 1.0, 0.0), lattice(6, 1.3, 0.8, 0.4))
    }

    fn stream_in_epochs(
        a: &Dataset,
        b: &Dataset,
        epochs: usize,
        threads: usize,
    ) -> (Vec<(u32, u32)>, RunReport, Vec<EpochReport>) {
        let mut engine = StreamingTouchJoin::build(a, streaming_cfg(threads));
        let mut sink = CollectingSink::new();
        let chunk = b.len().div_ceil(epochs).max(1);
        let mut reports = Vec::new();
        for batch in b.objects().chunks(chunk) {
            reports.push(engine.push_batch(batch, &mut sink));
        }
        (sink.sorted_pairs(), engine.cumulative_report(), reports)
    }

    #[test]
    fn one_epoch_equals_the_one_shot_join() {
        let (a, b) = workloads();
        let (expected_pairs, expected) = collect_join(&TouchJoin::new(touch_cfg()), &a, &b);
        for threads in [1, 4] {
            let (pairs, cumulative, reports) = stream_in_epochs(&a, &b, 1, threads);
            assert_eq!(pairs, expected_pairs, "threads = {threads}");
            assert_eq!(cumulative.counters, expected.counters, "threads = {threads}");
            assert_eq!(cumulative.epochs, 1);
            assert_eq!(reports.len(), 1);
            assert_eq!(reports[0].results(), expected.result_pairs());
        }
    }

    #[test]
    fn any_epoch_split_reproduces_the_one_shot_join() {
        let (a, b) = workloads();
        let (expected_pairs, expected) = collect_join(&TouchJoin::new(touch_cfg()), &a, &b);
        for epochs in [2, 3, 7, b.len()] {
            for threads in [1, 3] {
                let (pairs, cumulative, reports) = stream_in_epochs(&a, &b, epochs, threads);
                assert_eq!(pairs, expected_pairs, "epochs = {epochs}, threads = {threads}");
                assert_eq!(
                    cumulative.counters, expected.counters,
                    "epochs = {epochs}, threads = {threads}: counters must add up exactly"
                );
                assert_eq!(cumulative.dataset_b, b.len());
                assert_eq!(cumulative.epochs, reports.len());
            }
        }
    }

    #[test]
    fn sequential_and_parallel_epochs_report_identical_summaries() {
        let (a, b) = workloads();
        let (_, _, baseline) = stream_in_epochs(&a, &b, 5, 1);
        for threads in [2, 4, 8] {
            let (_, _, reports) = stream_in_epochs(&a, &b, 5, threads);
            let lhs: Vec<_> = baseline.iter().map(|r| r.summary()).collect();
            let rhs: Vec<_> = reports.iter().map(|r| r.summary()).collect();
            assert_eq!(lhs, rhs, "threads = {threads}");
        }
    }

    #[test]
    fn reset_serves_a_second_stream_identically() {
        let (a, b) = workloads();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let chunk = b.len().div_ceil(3);
        let mut first = CollectingSink::new();
        let first_reports: Vec<_> =
            b.objects().chunks(chunk).map(|batch| engine.push_batch(batch, &mut first)).collect();
        let first_cumulative = engine.cumulative_report();

        engine.reset();
        assert_eq!(engine.epochs(), 0);
        assert_eq!(engine.streams(), 2);
        assert_eq!(engine.cumulative_report().epochs, 0);
        assert_eq!(engine.tree().assigned_b_count(), 0);

        let mut second = CollectingSink::new();
        let second_reports: Vec<_> =
            b.objects().chunks(chunk).map(|batch| engine.push_batch(batch, &mut second)).collect();
        assert_eq!(first.sorted_pairs(), second.sorted_pairs());
        assert_eq!(
            first_reports.iter().map(|r| r.summary()).collect::<Vec<_>>(),
            second_reports.iter().map(|r| r.summary()).collect::<Vec<_>>(),
            "the second stream must be indistinguishable from the first"
        );
        assert_eq!(engine.cumulative_report().counters, first_cumulative.counters);
    }

    #[test]
    fn traced_epochs_record_spans_and_change_nothing() {
        let (a, b) = workloads();
        let (expected_pairs, _, baseline) = stream_in_epochs(&a, &b, 3, 2);

        let trace = touch_metrics::ExecTrace::new();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(2));
        let mut sink = CollectingSink::new();
        let chunk = b.len().div_ceil(3).max(1);
        let mut reports = Vec::new();
        for batch in b.objects().chunks(chunk) {
            let ctl = ExecControl::with_trace(&trace);
            reports.push(engine.try_push_batch(batch, &mut sink, ctl).unwrap());
        }

        // Tracing is observational: pairs and counters are bit-identical.
        assert_eq!(sink.sorted_pairs(), expected_pairs);
        assert_eq!(
            baseline.iter().map(|r| r.summary()).collect::<Vec<_>>(),
            reports.iter().map(|r| r.summary()).collect::<Vec<_>>(),
        );

        // Each epoch records exactly one Epoch span, in order.
        let epochs: Vec<_> = trace
            .events()
            .into_iter()
            .filter_map(|e| match e {
                touch_metrics::TraceEvent::Epoch { epoch, batch_size, .. } => {
                    Some((epoch, batch_size))
                }
                _ => None,
            })
            .collect();
        assert_eq!(epochs.len(), reports.len());
        for (i, (epoch, batch_size)) in epochs.iter().enumerate() {
            assert_eq!(*epoch, i);
            assert_eq!(*batch_size, reports[i].batch_size);
        }
        let summary = trace.summary().expect("recording sink summarises");
        assert_eq!(summary.epochs, reports.len());
        assert_eq!(summary.pairs_per_node.sum, expected_pairs.len() as u64);
    }

    #[test]
    fn empty_batches_and_empty_trees_are_harmless() {
        let (a, _) = workloads();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(2));
        let mut sink = CountingSink::new();
        let report = engine.push_batch(&[], &mut sink);
        assert_eq!(report.batch_size, 0);
        assert_eq!(report.results(), 0);
        assert_eq!(sink.count(), 0);

        // An empty tree filters every probe object, exactly like the one-shot join.
        let mut empty = StreamingTouchJoin::build(&Dataset::new(), streaming_cfg(1));
        let b = lattice(3, 2.0, 1.0, 0.0);
        let report = empty.push_batch(b.objects(), &mut sink);
        assert_eq!(report.counters.filtered, b.len() as u64);
        assert_eq!(report.assigned, 0);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn build_is_charged_once_and_epochs_accumulate() {
        let (a, b) = workloads();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let build_time = engine.build_time();
        let mut sink = CountingSink::new();
        for batch in b.objects().chunks(40) {
            engine.push_batch(batch, &mut sink);
        }
        let cumulative = engine.cumulative_report();
        assert_eq!(cumulative.timer.get(Phase::Build), build_time, "build charged exactly once");
        assert!(cumulative.timer.total() >= build_time);
        assert_eq!(cumulative.dataset_a, a.len());
        assert_eq!(cumulative.dataset_b, b.len());
        assert_eq!(cumulative.result_pairs(), sink.count());
        assert!(cumulative.memory_bytes > 0);
        assert_eq!(cumulative.algorithm, "TOUCH-S1");
        // The per-epoch reports never charge the build phase.
        engine.reset();
        let report = engine.push_batch(&b.objects()[..10], &mut sink);
        assert_eq!(report.timer.get(Phase::Build), std::time::Duration::ZERO);
    }

    #[test]
    fn build_extended_answers_the_distance_predicate_and_carries_epsilon() {
        let (a, b) = workloads();
        const EPS: f64 = 0.4;
        // Reference: the one-shot distance join through the unified query layer.
        let mut expected = CollectingSink::new();
        let expected_report = touch_core::JoinQuery::new(&a, &b)
            .within_distance(EPS)
            .engine(TouchJoin::new(touch_cfg()))
            .run(&mut expected);

        let mut engine = StreamingTouchJoin::build_extended(&a, EPS, streaming_cfg(1));
        // The ε is visible on the *partial* cumulative report before any epoch.
        assert_eq!(engine.cumulative_report().epsilon, EPS);
        let mut sink = CollectingSink::new();
        for batch in b.objects().chunks(40) {
            let _ = engine.push_batch(batch, &mut sink);
            assert_eq!(engine.cumulative_report().epsilon, EPS, "mid-stream report lost ε");
        }
        assert_eq!(sink.sorted_pairs(), expected.sorted_pairs());
        assert_eq!(engine.cumulative_report().result_pairs(), expected_report.result_pairs());
        engine.reset();
        assert_eq!(engine.cumulative_report().epsilon, EPS, "reset must keep the ε stamp");
    }

    #[test]
    fn one_shot_adapter_matches_the_sequential_join() {
        let (a, b) = workloads();
        let (expected_pairs, expected) = collect_join(&TouchJoin::new(touch_cfg()), &a, &b);
        for threads in [1, 3] {
            let adapter = OneShotStreaming::new(streaming_cfg(threads));
            assert_eq!(adapter.name(), format!("TOUCH-S{threads}"));
            assert_eq!(adapter.config().threads, threads);
            let (pairs, report) = collect_join(&adapter, &a, &b);
            assert_eq!(pairs, expected_pairs, "threads = {threads}");
            assert_eq!(report.counters, expected.counters, "threads = {threads}");
            assert_eq!(report.epochs, 1);
            assert_eq!(report.threads, threads);
            assert!(report.memory_bytes > 0);
        }
    }

    #[test]
    fn self_join_epochs_keep_each_unordered_pair_once() {
        let a = lattice(5, 1.2, 1.5, 0.0); // side > spacing: every neighbour pair overlaps
        let mut brute = Vec::new();
        for oa in a.iter() {
            for ob in a.iter() {
                if oa.id < ob.id && oa.mbr.intersects(&ob.mbr) {
                    brute.push((oa.id, ob.id));
                }
            }
        }
        brute.sort_unstable();
        assert!(!brute.is_empty());

        for threads in [1, 4] {
            // Direct epoch push against a tree over the same dataset...
            let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(threads));
            let mut sink = CollectingSink::new();
            let report = engine.push_batch_self(a.objects(), &mut sink);
            assert_eq!(sink.sorted_pairs(), brute, "threads = {threads}");
            assert_eq!(report.results(), brute.len() as u64);

            // ...and the one-shot adapter through the trait's self-join entry.
            let adapter = OneShotStreaming::new(streaming_cfg(threads));
            let mut adapter_sink = CollectingSink::new();
            let adapter_report = JoinQuery::self_join(&a).engine(adapter).run(&mut adapter_sink);
            assert_eq!(adapter_sink.sorted_pairs(), brute, "threads = {threads}");
            assert_eq!(adapter_report.result_pairs(), brute.len() as u64);
        }
    }

    #[test]
    fn push_batch_honours_early_terminating_sinks() {
        let (a, b) = workloads();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut sink = touch_core::FirstKSink::new(2);
        let report = engine.push_batch(b.objects(), &mut sink);
        assert_eq!(sink.count(), 2);
        assert_eq!(report.results(), 2);
    }

    #[test]
    fn planned_engine_replans_per_stream_from_accumulated_stats() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let mut engine =
            StreamingTouchJoin::build_planned(&a, streaming_cfg(1), JoinPlanner::default());
        let initial_cell = engine.min_cell();
        // Before any probe data, the cell floor comes from the tree alone:
        // 2 × the mean side of the unit boxes.
        assert!((initial_cell - 2.0).abs() < 1e-9, "got {initial_cell}");
        assert!(engine.plan().partitions >= 1);

        // Stream 1: large probe objects (side 4) in two epochs.
        let big = lattice(4, 3.0, 4.0, 0.2);
        let mut sink = CountingSink::new();
        for batch in big.objects().chunks(big.len() / 2) {
            let _ = engine.push_batch(batch, &mut sink);
        }
        assert_eq!(engine.stream_stats().count(), big.len());
        assert_eq!(engine.min_cell(), initial_cell, "parameters never move mid-stream");

        // The reset re-plans: the accumulated large-object stats raise the floor.
        engine.reset();
        assert!(
            engine.min_cell() > initial_cell,
            "large probe objects must raise the next stream's cell floor \
             ({} vs {initial_cell})",
            engine.min_cell()
        );
        assert_eq!(engine.stream_stats().count(), 0, "stream stats rewind at reset");

        // The re-planned stream still produces exactly the right answer.
        let mut pairs = CollectingSink::new();
        let _ = engine.push_batch(big.objects(), &mut pairs);
        let mut brute = Vec::new();
        for oa in a.iter() {
            for ob in big.iter() {
                if oa.mbr.intersects(&ob.mbr) {
                    brute.push((oa.id, ob.id));
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(pairs.sorted_pairs(), brute);
    }

    #[test]
    fn planned_engine_records_the_workers_that_actually_run() {
        // A tree far below the planner's parallel-work bar, but an explicit
        // 4-worker execution budget: the recorded plan must carry the workers
        // that really run the epochs, not a planning-side down-rating.
        let a = lattice(3, 2.0, 1.0, 0.0); // 27 objects
        let engine =
            StreamingTouchJoin::build_planned(&a, streaming_cfg(4), JoinPlanner::default());
        assert_eq!(engine.threads(), 4);
        assert_eq!(engine.plan().threads(), 4, "plan and execution must agree on workers");
        let recorded = engine.cumulative_report().plan.expect("planned builds record a plan");
        assert_eq!(recorded.threads, 4);
        assert_eq!(recorded.strategy, "streaming(4)");
    }

    #[test]
    fn explicitly_configured_engines_never_replan() {
        let (a, b) = workloads();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let cell = engine.min_cell();
        let mut sink = CountingSink::new();
        let _ = engine.push_batch(b.objects(), &mut sink);
        engine.reset();
        assert_eq!(engine.min_cell(), cell, "explicit configs stay pinned across streams");
    }

    #[test]
    fn build_with_plan_matches_the_equivalent_config() {
        let (a, b) = workloads();
        let cfg = streaming_cfg(1);
        let plan =
            JoinPlan::from_streaming_tree(&cfg.touch, &a, 1, cfg.chunk_size, cfg.sort_threshold);

        let mut via_cfg = StreamingTouchJoin::build(&a, cfg);
        let mut cfg_sink = CollectingSink::new();
        let cfg_report = via_cfg.push_batch(b.objects(), &mut cfg_sink);

        let mut via_plan = StreamingTouchJoin::build_with_plan(&a, plan);
        let mut plan_sink = CollectingSink::new();
        let plan_report = via_plan.push_batch(b.objects(), &mut plan_sink);

        assert_eq!(plan_sink.sorted_pairs(), cfg_sink.sorted_pairs());
        assert_eq!(plan_report.counters, cfg_report.counters);
    }

    #[test]
    fn config_resolution_and_accessors() {
        let cfg = StreamingConfig::default();
        assert_eq!(cfg.threads, 1, "streaming defaults to the sequential path");
        assert_eq!(cfg.effective_threads(), 1);
        assert!(StreamingConfig::with_threads(0).effective_threads() >= 1);
        assert_eq!(StreamingConfig::with_threads(6).effective_threads(), 6);

        let (a, _) = workloads();
        let engine = StreamingTouchJoin::build(&a, streaming_cfg(3));
        assert_eq!(engine.threads(), 3);
        assert_eq!(engine.config().touch.partitions, 16);
        assert_eq!(engine.streams(), 1);
        assert!(engine.min_cell() > 0.0);
        assert_eq!(engine.tree().a_len(), a.len());
    }

    /// Splits `b` into `n` equal-ish batches.
    fn batches(b: &Dataset, n: usize) -> Vec<&[SpatialObject]> {
        b.objects().chunks(b.len().div_ceil(n).max(1)).collect()
    }

    /// After any number of older epochs were evicted, the newest epoch of a
    /// sliding window must be bit-identical — pairs, full per-epoch counters,
    /// window size — to a fresh engine that only ever saw the surviving epochs.
    #[test]
    fn windowed_epoch_matches_a_fresh_engine_over_the_surviving_window() {
        let (a, b) = workloads();
        let parts = batches(&b, 5);
        for threads in [1, 4] {
            // Slide a window of 2 across all five batches...
            let mut slid = StreamingTouchJoin::build(&a, streaming_cfg(threads));
            let mut slid_pairs = CollectingSink::new();
            let mut slid_report = None;
            for batch in &parts {
                slid_pairs = CollectingSink::new(); // newest epoch's output only
                slid_report = Some(slid.push_windowed(batch, 2, &mut slid_pairs));
            }
            assert_eq!(slid.window_epochs(), 2);

            // ...and replay just the last two batches on a fresh engine.
            let mut fresh = StreamingTouchJoin::build(&a, streaming_cfg(threads));
            let mut fresh_pairs = CollectingSink::new();
            let _ = fresh.push_windowed(parts[3], 2, &mut fresh_pairs);
            let mut fresh_pairs = CollectingSink::new();
            let fresh_report = fresh.push_windowed(parts[4], 2, &mut fresh_pairs);

            let slid_report = slid_report.unwrap();
            assert_eq!(
                slid_pairs.sorted_pairs(),
                fresh_pairs.sorted_pairs(),
                "threads = {threads}"
            );
            assert_eq!(
                slid_report.counters, fresh_report.counters,
                "threads = {threads}: eviction must leave no trace in the epoch's counters"
            );
            assert_eq!(slid_report.assigned, fresh_report.assigned);

            // And the window's pairs are exactly the brute force over its
            // logical contents.
            let mut brute = Vec::new();
            for oa in a.iter() {
                for ob in parts[3].iter().chain(parts[4].iter()) {
                    if oa.mbr.intersects(&ob.mbr) {
                        brute.push((oa.id, ob.id));
                    }
                }
            }
            brute.sort_unstable();
            assert_eq!(slid_pairs.sorted_pairs(), brute, "threads = {threads}");
        }
    }

    #[test]
    fn window_evictions_retract_assignments_and_record_trace_instants() {
        let (a, b) = workloads();
        let parts = batches(&b, 4);
        let trace = touch_metrics::ExecTrace::new();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut sink = CountingSink::new();
        let mut window_assigned = Vec::new();
        for batch in &parts {
            let ctl = ExecControl::with_trace(&trace);
            let report = engine.try_push_windowed(batch, 3, &mut sink, ctl).unwrap();
            window_assigned.push(report.assigned);
        }
        // Four pushes into a window of three: exactly one eviction, of epoch 0,
        // and the window population reflects it.
        assert_eq!(engine.window_epochs(), 3);
        assert_eq!(engine.tree().assigned_b_count(), *window_assigned.last().unwrap());
        let evictions: Vec<_> = trace
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Eviction { epoch, objects, .. } => Some((epoch, objects)),
                _ => None,
            })
            .collect();
        assert_eq!(evictions.len(), 1);
        assert_eq!(evictions[0].0, 0, "the oldest epoch leaves first");
        assert_eq!(
            evictions[0].1, window_assigned[0],
            "the eviction retracts exactly what epoch 0 assigned"
        );
        assert_eq!(trace.summary().expect("recording sink").evictions, 1);

        // A window of 1 degenerates to per-epoch joins: every push evicts.
        let mut narrow = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut narrow_sink = CollectingSink::new();
        for batch in &parts {
            narrow_sink = CollectingSink::new();
            let _ = narrow.push_windowed(batch, 1, &mut narrow_sink);
        }
        let mut fresh = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut fresh_sink = CollectingSink::new();
        let _ = fresh.push_batch(parts[3], &mut fresh_sink);
        assert_eq!(narrow_sink.sorted_pairs(), fresh_sink.sorted_pairs());
    }

    #[test]
    fn window_and_batch_modes_do_not_leak_into_each_other() {
        let (a, b) = workloads();
        let parts = batches(&b, 3);

        // push_batch then push_windowed: the batch epoch's assignments (still
        // in the tree) must not join into the window.
        let mut mixed = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut sink = CountingSink::new();
        let _ = mixed.push_batch(parts[0], &mut sink);
        let mut mixed_sink = CollectingSink::new();
        let _ = mixed.push_windowed(parts[1], 4, &mut mixed_sink);
        let mut fresh = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut fresh_sink = CollectingSink::new();
        let _ = fresh.push_windowed(parts[1], 4, &mut fresh_sink);
        assert_eq!(mixed_sink.sorted_pairs(), fresh_sink.sorted_pairs());

        // push_windowed then push_batch: the window must be dropped wholesale.
        let mut back = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut back_sink = CollectingSink::new();
        let _ = back.push_windowed(parts[0], 4, &mut back_sink);
        assert_eq!(back.window_epochs(), 1);
        let mut batch_sink = CollectingSink::new();
        let _ = back.push_batch(parts[2], &mut batch_sink);
        assert_eq!(back.window_epochs(), 0, "push_batch ends window mode");
        let mut fresh_sink = CollectingSink::new();
        let _ =
            StreamingTouchJoin::build(&a, streaming_cfg(1)).push_batch(parts[2], &mut fresh_sink);
        assert_eq!(batch_sink.sorted_pairs(), fresh_sink.sorted_pairs());
    }

    #[test]
    fn reset_clears_the_window() {
        let (a, b) = workloads();
        let parts = batches(&b, 3);
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut sink = CountingSink::new();
        for batch in &parts {
            let _ = engine.push_windowed(batch, 3, &mut sink);
        }
        assert_eq!(engine.window_epochs(), 3);
        engine.reset();
        assert_eq!(engine.window_epochs(), 0);
        assert_eq!(engine.tree().assigned_b_count(), 0);
        // The next windowed stream starts from scratch.
        let mut second = CollectingSink::new();
        let _ = engine.push_windowed(parts[0], 3, &mut second);
        let mut fresh_sink = CollectingSink::new();
        let _ = StreamingTouchJoin::build(&a, streaming_cfg(1)).push_windowed(
            parts[0],
            3,
            &mut fresh_sink,
        );
        assert_eq!(second.sorted_pairs(), fresh_sink.sorted_pairs());
    }

    /// The cross-stream leak behind `FirstKSink::reset`: the engine's `reset`
    /// cannot reach into the caller's sink, so an early-terminating stream 2
    /// only behaves like stream 1 if the sink's budget is restored too.
    #[test]
    fn first_k_streams_repeat_identically_when_the_sink_resets_with_the_engine() {
        let (a, b) = workloads();
        let mut engine = StreamingTouchJoin::build(&a, streaming_cfg(1));
        let mut sink = touch_core::FirstKSink::new(3);
        let first = engine.push_batch(b.objects(), &mut sink);
        assert_eq!(sink.count(), 3);
        let stream1_pairs = sink.pairs().to_vec();

        // Without the sink reset the budget is spent: stream 2 accepts nothing.
        engine.reset();
        let stale = engine.push_batch(b.objects(), &mut sink);
        assert_eq!(sink.count(), 3, "a consumed budget admits no further pairs");
        assert_eq!(stale.results(), 0);

        // With it, stream 2 is indistinguishable from stream 1.
        engine.reset();
        sink.reset();
        let second = engine.push_batch(b.objects(), &mut sink);
        assert_eq!(sink.pairs(), stream1_pairs.as_slice());
        assert_eq!(second.summary(), first.summary());
    }
}
